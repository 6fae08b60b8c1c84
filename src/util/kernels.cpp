#include "util/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/csa_tree.hpp"
#include "util/error.hpp"

namespace hdlock::util::kernels {

// ---------------------------------------------------------------------------
// Portable backend: the original bitvec/bitslice loops, moved here verbatim.
// GCC/Clang auto-vectorize these at the build's baseline ISA; the explicit
// backends exist because the baseline is usually SSE2-era.
// ---------------------------------------------------------------------------

namespace portable {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    for (std::size_t w = 0; w < n; ++w) dst[w] = a[w] ^ b[w];
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    std::size_t total = 0;
    for (std::size_t w = 0; w < n; ++w) total += static_cast<std::size_t>(std::popcount(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t total = 0;
    for (std::size_t w = 0; w < n; ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
    }
    return total;
}

void csa_pair(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
              std::size_t n) noexcept {
    if (yb == nullptr) {
        for (std::size_t w = 0; w < n; ++w) {
            const Word u = ones[w] ^ x[w];
            carry[w] = (ones[w] & x[w]) | (u & ya[w]);
            ones[w] = u ^ ya[w];
        }
        return;
    }
    for (std::size_t w = 0; w < n; ++w) {
        const Word y = ya[w] ^ yb[w];
        const Word u = ones[w] ^ x[w];
        carry[w] = (ones[w] & x[w]) | (u & y);
        ones[w] = u ^ y;
    }
}

void csa_quad(Word* ones, Word* twos, const Word* twos_a, Word* fours_a, const Word* x,
              const Word* ya, const Word* yb, std::size_t n) noexcept {
    for (std::size_t w = 0; w < n; ++w) {
        const Word y = yb == nullptr ? ya[w] : ya[w] ^ yb[w];
        const Word u = ones[w] ^ x[w];
        const Word twos_b = (ones[w] & x[w]) | (u & y);
        ones[w] = u ^ y;
        const Word u2 = twos[w] ^ twos_a[w];
        fours_a[w] = (twos[w] & twos_a[w]) | (u2 & twos_b);
        twos[w] = u2 ^ twos_b;
    }
}

void csa_oct(Word* ones, Word* twos, const Word* twos_a, Word* fours, const Word* fours_a,
             Word* carry_out, const Word* x, const Word* ya, const Word* yb,
             std::size_t n) noexcept {
    for (std::size_t w = 0; w < n; ++w) {
        const Word y = yb == nullptr ? ya[w] : ya[w] ^ yb[w];
        const Word u = ones[w] ^ x[w];
        const Word twos_b = (ones[w] & x[w]) | (u & y);
        ones[w] = u ^ y;
        const Word u2 = twos[w] ^ twos_a[w];
        const Word fours_b = (twos[w] & twos_a[w]) | (u2 & twos_b);
        twos[w] = u2 ^ twos_b;
        const Word u3 = fours[w] ^ fours_a[w];
        carry_out[w] = (fours[w] & fours_a[w]) | (u3 & fours_b);
        fours[w] = u3 ^ fours_b;
    }
}

void unpack_planes(const Word* planes, std::size_t n_words, std::size_t n_planes,
                   std::int32_t* accumulator) noexcept {
    for (std::size_t w = 0; w < n_words; ++w) {
        const Word* plane = planes + w * n_planes;
        const std::size_t base = w * 64;
        for (std::size_t p = 0; p < n_planes; ++p) {
            const auto weight = static_cast<std::int32_t>(1u << p);
            Word word = plane[p];
            while (word != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(word));
                accumulator[base + bit] += weight;
                word &= word - 1;  // clear lowest set bit
            }
        }
    }
}

void csa_rows(Word* ones, Word* twos, Word* fours, Word* carry_out, const Word* const* rows,
              std::size_t n) noexcept {
    detail::csa_rows_words(ones, twos, fours, carry_out, rows, 0, n);
}

/// One 512-bit block as the tree's vector: eight words, combined word by
/// word (the compiler vectorizes the loops at the baseline ISA).
struct Block {
    Word w[kBlockWords];
};

struct BlockLanes {
    using V = Block;
    static Block load(const Word* p) noexcept {
        Block out;
        std::memcpy(out.w, p, sizeof(out.w));
        return out;
    }
    static Block zero() noexcept { return Block{}; }
    static Block bit_xor(const Block& a, const Block& b) noexcept {
        Block out;
        for (std::size_t k = 0; k < kBlockWords; ++k) out.w[k] = a.w[k] ^ b.w[k];
        return out;
    }
    static Block bit_and(const Block& a, const Block& b) noexcept {
        Block out;
        for (std::size_t k = 0; k < kBlockWords; ++k) out.w[k] = a.w[k] & b.w[k];
        return out;
    }
    static Block sum(const Block& a, const Block& b, const Block& c) noexcept {
        Block out;
        for (std::size_t k = 0; k < kBlockWords; ++k) out.w[k] = a.w[k] ^ b.w[k] ^ c.w[k];
        return out;
    }
    static Block carry(const Block& a, const Block& b, const Block& c) noexcept {
        Block out;
        for (std::size_t k = 0; k < kBlockWords; ++k) {
            out.w[k] = (a.w[k] & b.w[k]) | ((a.w[k] ^ b.w[k]) & c.w[k]);
        }
        return out;
    }
};

/// Carry-save tree depth: 16-row groups.  Timed at depths 3-6, 16 tied
/// 32 and 64 at N = 784 and beat 64 at N = 75 (DESIGN.md §11).
constexpr std::size_t kTreeDepth = 4;

/// The accumulate both block-major kernels share, bit_width(n_rows) ==
/// Planes: folds block b's n_rows bound rows into planes[p] (bit p of the
/// column counts of the block's eight words), reading the rows in layout
/// order.
template <std::size_t Planes>
void accumulate_block(const BlockMajorRows& rows, const int* levels, std::size_t b,
                      Block (&planes)[Planes]) noexcept {
    const csa_tree::Rows slice{rows.feature_blocks + b * rows.n_rows * kBlockWords,
                               rows.value_blocks + b * rows.n_levels * kBlockWords, levels};
    csa_tree::accumulate<BlockLanes, kTreeDepth>(slice, rows.n_rows, planes);
}

/// The fused kernel over every block, bit_width(n_rows) == Planes.
template <std::size_t Planes>
void fused_blocks(const BlockMajorRows& rows, const int* levels, const Word* const* class_rows,
                  std::size_t n_classes, TieResolver ties, void* tie_ctx,
                  std::uint64_t* distances) noexcept {
    const Word threshold = rows.n_rows / 2;
    const bool can_tie = (rows.n_rows % 2) == 0 && ties != nullptr;
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        Block planes[Planes];
        accumulate_block<Planes>(rows, levels, b, planes);
        const std::size_t w0 = b * kBlockWords;
        const std::size_t n_valid = std::min(kBlockWords, rows.n_words - w0);
        for (std::size_t k = 0; k < n_valid; ++k) {
            // Binarize without unpacking: a bit-sliced lexicographic compare
            // of the per-column counts against the threshold, MSB plane
            // first.  A set query bit means count > n_rows/2, i.e. a
            // negative bipolar sum.
            Word gt = 0;
            Word eq = ~Word{0};
            for (std::size_t p = Planes; p-- > 0;) {
                const Word t = ((threshold >> p) & 1u) != 0 ? ~Word{0} : Word{0};
                gt |= eq & planes[p].w[k] & ~t;
                eq &= ~(planes[p].w[k] ^ t);
            }
            Word query = gt;
            if (can_tie && eq != 0) query |= ties(tie_ctx, eq, w0 + k) & eq;
            for (std::size_t c = 0; c < n_classes; ++c) {
                distances[c] +=
                    static_cast<std::uint64_t>(std::popcount(query ^ class_rows[c][w0 + k]));
            }
        }
    }
}

/// The counts kernel over every block, bit_width(n_rows) == Planes: the
/// shared accumulate, then the block's real words unpacked from a
/// word-major copy of the planes.
template <std::size_t Planes>
void count_blocks(const BlockMajorRows& rows, const int* levels, std::int32_t* counts) noexcept {
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        Block planes[Planes];
        accumulate_block<Planes>(rows, levels, b, planes);
        Word word_major[kBlockWords * Planes];
        for (std::size_t k = 0; k < kBlockWords; ++k) {
            for (std::size_t p = 0; p < Planes; ++p) word_major[k * Planes + p] = planes[p].w[k];
        }
        const std::size_t w0 = b * kBlockWords;
        const std::size_t n_valid = std::min(kBlockWords, rows.n_words - w0);
        std::int32_t* out = counts + w0 * 64;
        std::fill(out, out + n_valid * 64, 0);
        unpack_planes(word_major, n_valid, Planes, out);
    }
}

using FusedBlocksFn = void (*)(const BlockMajorRows&, const int*, const Word* const*,
                               std::size_t, TieResolver, void*, std::uint64_t*) noexcept;
using CountBlocksFn = void (*)(const BlockMajorRows&, const int*, std::int32_t*) noexcept;

/// One instantiation per plane count, indexed by bit_width(n_rows) - 1.
constexpr FusedBlocksFn kFusedByPlanes[16] = {
    &fused_blocks<1>,  &fused_blocks<2>,  &fused_blocks<3>,  &fused_blocks<4>,
    &fused_blocks<5>,  &fused_blocks<6>,  &fused_blocks<7>,  &fused_blocks<8>,
    &fused_blocks<9>,  &fused_blocks<10>, &fused_blocks<11>, &fused_blocks<12>,
    &fused_blocks<13>, &fused_blocks<14>, &fused_blocks<15>, &fused_blocks<16>,
};
constexpr CountBlocksFn kCountByPlanes[16] = {
    &count_blocks<1>,  &count_blocks<2>,  &count_blocks<3>,  &count_blocks<4>,
    &count_blocks<5>,  &count_blocks<6>,  &count_blocks<7>,  &count_blocks<8>,
    &count_blocks<9>,  &count_blocks<10>, &count_blocks<11>, &count_blocks<12>,
    &count_blocks<13>, &count_blocks<14>, &count_blocks<15>, &count_blocks<16>,
};

void fused_hamming_scores(const BlockMajorRows& rows, const int* levels,
                          const Word* const* class_rows, std::size_t n_classes, TieResolver ties,
                          void* tie_ctx, std::uint64_t* distances) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) distances[c] = 0;
    if (rows.n_rows == 0) return;
    kFusedByPlanes[std::bit_width(rows.n_rows) - 1](rows, levels, class_rows, n_classes, ties,
                                                    tie_ctx, distances);
}

void block_major_counts(const BlockMajorRows& rows, const int* levels,
                        std::int32_t* counts) noexcept {
    if (rows.n_rows == 0) {
        std::fill(counts, counts + rows.n_words * 64, 0);
        return;
    }
    kCountByPlanes[std::bit_width(rows.n_rows) - 1](rows, levels, counts);
}

}  // namespace portable

namespace detail {

void csa_rows_words(Word* ones, Word* twos, Word* fours, Word* carry_out,
                    const Word* const* rows, std::size_t word_begin,
                    std::size_t word_end) noexcept {
    const Word* r0 = rows[0];
    const Word* r1 = rows[1];
    const Word* r2 = rows[2];
    const Word* r3 = rows[3];
    const Word* r4 = rows[4];
    const Word* r5 = rows[5];
    const Word* r6 = rows[6];
    const Word* r7 = rows[7];
    for (std::size_t w = word_begin; w < word_end; ++w) {
        // The exact compression tree of ColumnCounter phases 1/3/5/7 over a
        // fresh group, so add_rows is plane-identical to eight add() calls.
        Word u = ones[w] ^ r0[w];
        const Word twos_a = (ones[w] & r0[w]) | (u & r1[w]);
        Word one = u ^ r1[w];
        u = one ^ r2[w];
        const Word twos_b = (one & r2[w]) | (u & r3[w]);
        one = u ^ r3[w];
        Word u2 = twos[w] ^ twos_a;
        const Word fours_a = (twos[w] & twos_a) | (u2 & twos_b);
        Word two = u2 ^ twos_b;
        u = one ^ r4[w];
        const Word twos_c = (one & r4[w]) | (u & r5[w]);
        one = u ^ r5[w];
        u = one ^ r6[w];
        const Word twos_d = (one & r6[w]) | (u & r7[w]);
        one = u ^ r7[w];
        u2 = two ^ twos_c;
        const Word fours_b = (two & twos_c) | (u2 & twos_d);
        two = u2 ^ twos_d;
        const Word u3 = fours[w] ^ fours_a;
        carry_out[w] = (fours[w] & fours_a) | (u3 & fours_b);
        fours[w] = u3 ^ fours_b;
        ones[w] = one;
        twos[w] = two;
    }
}

}  // namespace detail

std::size_t block_major_words(std::size_t n_rows, std::size_t n_words) noexcept {
    return (n_words + kBlockWords - 1) / kBlockWords * n_rows * kBlockWords;
}

void pack_block_major(const Word* const* rows, std::size_t n_rows, std::size_t n_words,
                      Word* out) noexcept {
    // Row-major walk: one sequential read stream and one sequential write
    // stream per block (the block-major walk would gather from n_rows
    // streams instead, the very pattern the layout exists to avoid).
    const std::size_t n_full = n_words / kBlockWords;
    const std::size_t tail = n_words % kBlockWords;
    const std::size_t block_stride = n_rows * kBlockWords;
    for (std::size_t r = 0; r < n_rows; ++r) {
        const Word* row = rows[r];
        Word* dst = out + r * kBlockWords;
        for (std::size_t b = 0; b < n_full; ++b, dst += block_stride) {
            // A fixed-size memcpy inlines to vector moves; copy_n lowers to
            // an out-of-line memmove call per block.
            std::memcpy(dst, row + b * kBlockWords, kBlockWords * sizeof(Word));
        }
        if (tail != 0) {
            std::copy_n(row + n_full * kBlockWords, tail, dst);
            std::fill(dst + tail, dst + kBlockWords, Word{0});
        }
    }
}

const KernelBackend& portable_backend() noexcept {
    static constexpr KernelBackend backend{
        Backend::portable,       "portable",
        &portable::xor_into,     &portable::popcount,
        &portable::hamming,      &portable::csa_pair,
        &portable::csa_quad,     &portable::csa_oct,
        &portable::unpack_planes, &portable::csa_rows,
        &portable::fused_hamming_scores, &portable::block_major_counts,
    };
    return backend;
}

// ---------------------------------------------------------------------------
// Detection and dispatch.
// ---------------------------------------------------------------------------

bool cpu_supports(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return true;
        case Backend::neon:
#if defined(__aarch64__) && defined(__ARM_NEON)
            // Advanced SIMD is architecturally baseline on AArch64.
            return true;
#else
            return false;
#endif
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
        case Backend::avx2:
            return __builtin_cpu_supports("avx2") != 0;
        case Backend::avx512:
            // Exactly the features kernels_avx512.cpp is compiled with.
            return __builtin_cpu_supports("avx512f") != 0 &&
                   __builtin_cpu_supports("avx512bw") != 0 &&
                   __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
        case Backend::avx2:
        case Backend::avx512:
            return false;
#endif
    }
    return false;
}

namespace {

const KernelBackend* compiled_backend(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return &portable_backend();
        case Backend::neon:
            return neon_backend();
        case Backend::avx2:
            return avx2_backend();
        case Backend::avx512:
            return avx512_backend();
    }
    return nullptr;
}

const KernelBackend* resolve(Backend kind) noexcept {
    return available(kind) ? compiled_backend(kind) : nullptr;
}

const KernelBackend* best_available() noexcept {
    for (const Backend kind : {Backend::avx512, Backend::avx2, Backend::neon}) {
        if (const KernelBackend* backend = resolve(kind)) return backend;
    }
    return &portable_backend();
}

std::atomic<const KernelBackend*>& active_slot() noexcept {
    static std::atomic<const KernelBackend*> slot{nullptr};
    return slot;
}

/// What active() resolves on first use: the HDLOCK_KERNEL_BACKEND override
/// when set and available, otherwise the best backend this host offers.
/// An unusable override degrades (a deployment artifact must not crash on a
/// typo'd env var) but no longer degrades *silently*: one stderr warning
/// names the accepted values and what the process actually runs.
const KernelBackend* default_backend() noexcept {
    const char* env = std::getenv("HDLOCK_KERNEL_BACKEND");
    const std::string_view value = env == nullptr ? std::string_view{} : std::string_view{env};
    const Backend chosen = choose_backend(value);
    if (!value.empty()) {
        const auto requested = parse_backend(value);
        if (!requested.has_value() || *requested != chosen) {
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true, std::memory_order_relaxed)) {
                std::string roster;
                for (const Backend kind : available_backends()) {
                    if (!roster.empty()) roster += ", ";
                    roster += backend_name(kind);
                }
                std::fprintf(stderr,
                             "hdlock: ignoring HDLOCK_KERNEL_BACKEND='%s' (%s); accepted values: "
                             "portable, neon, avx2, avx512; available here: %s; using '%s'\n",
                             env, requested.has_value() ? "not available on this host"
                                                        : "unknown backend",
                             roster.c_str(), backend_name(chosen));
            }
        }
    }
    return compiled_backend(chosen);
}

}  // namespace

bool compiled(Backend kind) noexcept { return compiled_backend(kind) != nullptr; }

bool available(Backend kind) noexcept {
    return compiled_backend(kind) != nullptr && cpu_supports(kind);
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
    if (name == "portable") return Backend::portable;
    if (name == "neon") return Backend::neon;
    if (name == "avx2") return Backend::avx2;
    if (name == "avx512") return Backend::avx512;
    return std::nullopt;
}

const char* backend_name(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return "portable";
        case Backend::neon:
            return "neon";
        case Backend::avx2:
            return "avx2";
        case Backend::avx512:
            return "avx512";
    }
    return "unknown";
}

std::vector<Backend> all_backends() {
    return {Backend::portable, Backend::neon, Backend::avx2, Backend::avx512};
}

std::vector<Backend> available_backends() {
    std::vector<Backend> kinds;
    for (const Backend kind : all_backends()) {
        if (available(kind)) kinds.push_back(kind);
    }
    return kinds;
}

Backend choose_backend(std::string_view env_value) noexcept {
    if (const auto requested = parse_backend(env_value)) {
        if (const KernelBackend* backend = resolve(*requested)) return backend->kind;
    }
    // Unset, unknown, or unavailable on this host: degrade to the best the
    // hardware offers rather than failing startup.
    return best_available()->kind;
}

const KernelBackend& active() noexcept {
    const KernelBackend* backend = active_slot().load(std::memory_order_acquire);
    if (backend == nullptr) {
        backend = default_backend();
        // First resolution wins on a race; both racers compute the same value.
        active_slot().store(backend, std::memory_order_release);
    }
    return *backend;
}

Backend active_kind() noexcept { return active().kind; }

Backend set_backend(Backend kind) {
    const KernelBackend* backend = compiled_backend(kind);
    if (backend == nullptr) {
        throw ConfigError(std::string("kernel backend '") + backend_name(kind) +
                          "' is not compiled into this build");
    }
    if (!cpu_supports(kind)) {
        throw ConfigError(std::string("kernel backend '") + backend_name(kind) +
                          "' is not supported by this CPU");
    }
    // Swap-and-read-previous must be one atomic step.  The old shape — read
    // active().kind, then store — could interleave with a concurrent
    // set_backend between the two, so a ScopedBackend pair racing on two
    // threads could "restore" a snapshot the other pin had already replaced
    // (and active() itself would publish a resolved default between the
    // racers' reads).  exchange() leaves no such window.
    const KernelBackend* previous = active_slot().exchange(backend, std::memory_order_acq_rel);
    if (previous == nullptr) {
        // The slot was never resolved: report what active() would have
        // picked, so restoring the returned value reproduces the default.
        previous = default_backend();
    }
    return previous->kind;
}

std::string cpu_feature_string() {
    std::string features;
    const auto append = [&features](const char* name) {
        if (!features.empty()) features += ' ';
        features += name;
    };
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2")) append("avx2");
    if (__builtin_cpu_supports("avx512f")) append("avx512f");
    if (__builtin_cpu_supports("avx512bw")) append("avx512bw");
    if (__builtin_cpu_supports("avx512vpopcntdq")) append("avx512vpopcntdq");
#elif defined(__aarch64__)
    if (cpu_supports(Backend::neon)) append("asimd");
#endif
    return features;
}

}  // namespace hdlock::util::kernels
