// Cross-backend bit-equality tests for the runtime-dispatched SIMD kernel
// layer (src/util/kernels.*).  Every ISA backend must agree with portable on
// every input — including odd tail lengths (word counts that are not a
// multiple of the vector width) and every supported plane count — and the
// selection machinery (parse / choose / set / scoped restore) must behave.
// Backends the host cannot run are skipped cleanly, so the suite is green on
// any machine.

#include "util/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitslice.hpp"
#include "util/bitvec.hpp"
#include "util/csa_tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace kernels = hdlock::util::kernels;
namespace bits = hdlock::util::bits;
using hdlock::ConfigError;
using hdlock::util::ColumnCounter;
using hdlock::util::Xoshiro256ss;
using kernels::Backend;
using kernels::KernelBackend;
using Word = kernels::Word;

namespace {

/// The ISA backends runnable on this host (excludes portable).
std::vector<const KernelBackend*> simd_backends() {
    std::vector<const KernelBackend*> backends;
    if (kernels::available(Backend::neon)) backends.push_back(kernels::neon_backend());
    if (kernels::available(Backend::avx2)) backends.push_back(kernels::avx2_backend());
    if (kernels::available(Backend::avx512)) backends.push_back(kernels::avx512_backend());
    return backends;
}

std::vector<Word> random_words(std::size_t n, Xoshiro256ss& rng) {
    std::vector<Word> words(n);
    for (auto& word : words) word = rng();
    return words;
}

// Word counts around every vector-width boundary: scalar-only, exactly one
// AVX2 vector (4), one AVX-512 vector (8), multiples, and odd tails.
const std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 157};

}  // namespace

TEST(Kernels, ParseAndNames) {
    EXPECT_EQ(kernels::parse_backend("portable"), Backend::portable);
    EXPECT_EQ(kernels::parse_backend("neon"), Backend::neon);
    EXPECT_EQ(kernels::parse_backend("avx2"), Backend::avx2);
    EXPECT_EQ(kernels::parse_backend("avx512"), Backend::avx512);
    EXPECT_EQ(kernels::parse_backend("AVX2"), std::nullopt);
    EXPECT_EQ(kernels::parse_backend(""), std::nullopt);
    for (const Backend kind : kernels::all_backends()) {
        EXPECT_EQ(kernels::parse_backend(kernels::backend_name(kind)), kind);
    }
}

TEST(Kernels, AllBackendsRosterAndCompiled) {
    const auto all = kernels::all_backends();
    EXPECT_EQ(all.size(), 4u);
    EXPECT_TRUE(kernels::compiled(Backend::portable));
    // available == compiled into this binary AND runnable on this CPU.
    for (const Backend kind : kernels::available_backends()) {
        EXPECT_TRUE(kernels::compiled(kind)) << kernels::backend_name(kind);
        EXPECT_TRUE(kernels::cpu_supports(kind)) << kernels::backend_name(kind);
    }
#if defined(__aarch64__) && defined(__ARM_NEON)
    EXPECT_TRUE(kernels::compiled(Backend::neon));
    EXPECT_TRUE(kernels::available(Backend::neon));
#else
    EXPECT_FALSE(kernels::compiled(Backend::neon));
    EXPECT_FALSE(kernels::available(Backend::neon));
#endif
}

TEST(Kernels, PortableAlwaysAvailable) {
    EXPECT_TRUE(kernels::available(Backend::portable));
    ASSERT_FALSE(kernels::available_backends().empty());
    EXPECT_EQ(kernels::available_backends().front(), Backend::portable);
}

TEST(Kernels, ChooseBackendHonorsRequestAndDegrades) {
    const Backend best = kernels::available_backends().back();
    // Unset / unknown values degrade to the best available, never throw.
    EXPECT_EQ(kernels::choose_backend(""), best);
    EXPECT_EQ(kernels::choose_backend("bogus"), best);
    // An available explicit request is honored.
    EXPECT_EQ(kernels::choose_backend("portable"), Backend::portable);
    for (const Backend kind : kernels::available_backends()) {
        EXPECT_EQ(kernels::choose_backend(kernels::backend_name(kind)), kind);
    }
    // An unavailable explicit request degrades instead of failing startup.
    if (!kernels::available(Backend::avx512)) {
        EXPECT_EQ(kernels::choose_backend("avx512"), best);
    }
}

TEST(Kernels, SetBackendPinsAndRestores) {
    const Backend original = kernels::active_kind();
    {
        kernels::ScopedBackend pin(Backend::portable);
        EXPECT_EQ(kernels::active_kind(), Backend::portable);
        EXPECT_STREQ(kernels::active_name(), "portable");
    }
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, ScopedBackendReleaseDismissesRestore) {
    const Backend original = kernels::active_kind();
    Backend restore_to = original;
    {
        kernels::ScopedBackend pin(Backend::portable);
        restore_to = pin.release();
        EXPECT_EQ(restore_to, original);
    }
    // release() dismissed the destructor's restore: the pin outlives scope.
    EXPECT_EQ(kernels::active_kind(), Backend::portable);
    kernels::set_backend(restore_to);
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, SetBackendReturnsActualPreviousWhenNested) {
    const Backend original = kernels::active_kind();
    {
        kernels::ScopedBackend outer(Backend::portable);
        const Backend best = kernels::available_backends().back();
        {
            kernels::ScopedBackend inner(best);
            EXPECT_EQ(kernels::active_kind(), best);
        }
        // The inner pin's exchange saw the *outer* pin, not a stale default.
        EXPECT_EQ(kernels::active_kind(), Backend::portable);
    }
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, SetBackendRejectsUnavailable) {
    bool tested = false;
    for (const Backend kind : {Backend::neon, Backend::avx2, Backend::avx512}) {
        if (kernels::available(kind)) continue;
        EXPECT_THROW(kernels::set_backend(kind), ConfigError) << kernels::backend_name(kind);
        tested = true;
    }
    if (!tested) {
        GTEST_SKIP() << "every backend available on this host; rejection untestable";
    }
}

TEST(Kernels, XorPopcountHammingAgreeAcrossBackends) {
    const auto backends = simd_backends();
    if (backends.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
    const KernelBackend& portable = kernels::portable_backend();
    Xoshiro256ss rng(42);
    for (const std::size_t n : kWordCounts) {
        const auto a = random_words(n, rng);
        const auto b = random_words(n, rng);
        std::vector<Word> expected(n, 0);
        portable.xor_into(expected.data(), a.data(), b.data(), n);
        const std::size_t expected_pop = portable.popcount(a.data(), n);
        const std::size_t expected_ham = portable.hamming(a.data(), b.data(), n);
        for (const KernelBackend* backend : backends) {
            std::vector<Word> actual(n, 0);
            backend->xor_into(actual.data(), a.data(), b.data(), n);
            EXPECT_EQ(actual, expected) << backend->name << " n=" << n;
            EXPECT_EQ(backend->popcount(a.data(), n), expected_pop)
                << backend->name << " n=" << n;
            EXPECT_EQ(backend->hamming(a.data(), b.data(), n), expected_ham)
                << backend->name << " n=" << n;
        }
    }
}

TEST(Kernels, CsaStepsAgreeAcrossBackends) {
    const auto backends = simd_backends();
    if (backends.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
    const KernelBackend& portable = kernels::portable_backend();
    Xoshiro256ss rng(7);
    for (const std::size_t n : kWordCounts) {
        const auto x = random_words(n, rng);
        const auto ya = random_words(n, rng);
        const auto yb = random_words(n, rng);
        const auto ones0 = random_words(n, rng);
        const auto twos0 = random_words(n, rng);
        const auto twos_a = random_words(n, rng);
        const auto fours0 = random_words(n, rng);
        const auto fours_a = random_words(n, rng);
        for (const Word* yb_ptr : {static_cast<const Word*>(nullptr), yb.data()}) {
            // csa_pair
            auto ones_p = ones0;
            std::vector<Word> carry_p(n, 0);
            portable.csa_pair(ones_p.data(), carry_p.data(), x.data(), ya.data(), yb_ptr, n);
            // csa_quad
            auto ones_q = ones0;
            auto twos_q = twos0;
            std::vector<Word> fours_a_q(n, 0);
            portable.csa_quad(ones_q.data(), twos_q.data(), twos_a.data(), fours_a_q.data(),
                              x.data(), ya.data(), yb_ptr, n);
            // csa_oct
            auto ones_o = ones0;
            auto twos_o = twos0;
            auto fours_o = fours0;
            std::vector<Word> carry_o(n, 0);
            portable.csa_oct(ones_o.data(), twos_o.data(), twos_a.data(), fours_o.data(),
                             fours_a.data(), carry_o.data(), x.data(), ya.data(), yb_ptr, n);
            for (const KernelBackend* backend : backends) {
                auto b_ones = ones0;
                std::vector<Word> b_carry(n, 0);
                backend->csa_pair(b_ones.data(), b_carry.data(), x.data(), ya.data(), yb_ptr, n);
                EXPECT_EQ(b_ones, ones_p) << backend->name << " n=" << n;
                EXPECT_EQ(b_carry, carry_p) << backend->name << " n=" << n;

                b_ones = ones0;
                auto b_twos = twos0;
                std::vector<Word> b_fours_a(n, 0);
                backend->csa_quad(b_ones.data(), b_twos.data(), twos_a.data(), b_fours_a.data(),
                                  x.data(), ya.data(), yb_ptr, n);
                EXPECT_EQ(b_ones, ones_q) << backend->name << " n=" << n;
                EXPECT_EQ(b_twos, twos_q) << backend->name << " n=" << n;
                EXPECT_EQ(b_fours_a, fours_a_q) << backend->name << " n=" << n;

                b_ones = ones0;
                b_twos = twos0;
                auto b_fours = fours0;
                std::vector<Word> b_carry_o(n, 0);
                backend->csa_oct(b_ones.data(), b_twos.data(), twos_a.data(), b_fours.data(),
                                 fours_a.data(), b_carry_o.data(), x.data(), ya.data(), yb_ptr,
                                 n);
                EXPECT_EQ(b_ones, ones_o) << backend->name << " n=" << n;
                EXPECT_EQ(b_twos, twos_o) << backend->name << " n=" << n;
                EXPECT_EQ(b_fours, fours_o) << backend->name << " n=" << n;
                EXPECT_EQ(b_carry_o, carry_o) << backend->name << " n=" << n;
            }
        }
    }
}

TEST(Kernels, UnpackPlanesAgreesAcrossBackends) {
    const auto backends = simd_backends();
    if (backends.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
    const KernelBackend& portable = kernels::portable_backend();
    Xoshiro256ss rng(19);
    for (const std::size_t n_words : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        for (std::size_t n_planes = 1; n_planes <= 16; ++n_planes) {
            const auto planes = random_words(n_words * n_planes, rng);
            // Non-zero initial accumulator: the kernel must *add*.
            std::vector<std::int32_t> expected(n_words * 64);
            for (std::size_t j = 0; j < expected.size(); ++j) {
                expected[j] = static_cast<std::int32_t>(j % 37);
            }
            auto seed = expected;
            portable.unpack_planes(planes.data(), n_words, n_planes, expected.data());
            for (const KernelBackend* backend : backends) {
                auto actual = seed;
                backend->unpack_planes(planes.data(), n_words, n_planes, actual.data());
                EXPECT_EQ(actual, expected)
                    << backend->name << " words=" << n_words << " planes=" << n_planes;
            }
        }
    }
}

// End-to-end: a ColumnCounter driven through set_backend must produce
// identical counts and bipolar sums on every backend, over odd tail lengths
// (D not a multiple of 256/512) and all plane regimes (ripple and grouped).
TEST(Kernels, ColumnCounterBitIdenticalAcrossBackends) {
    const auto available = kernels::available_backends();
    if (available.size() < 2) GTEST_SKIP() << "only portable available on this host";

    for (const std::size_t n_bits : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                     std::size_t{65}, std::size_t{200}, std::size_t{257},
                                     std::size_t{300}, std::size_t{511}, std::size_t{513},
                                     std::size_t{1000}}) {
        for (const std::size_t n_planes :
             {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{6}, std::size_t{8},
              std::size_t{16}}) {
            // Same row stream for every backend: mixed add / add_xor, enough
            // rows to cross group and flush boundaries.
            std::vector<std::vector<Word>> rows;
            Xoshiro256ss rng(1000 + n_bits * 31 + n_planes);
            const std::size_t n_words = bits::word_count(n_bits);
            for (std::size_t r = 0; r < 37; ++r) {
                auto row = random_words(n_words, rng);
                if (!row.empty()) row.back() &= bits::tail_mask(n_bits);
                rows.push_back(std::move(row));
            }

            std::vector<std::int32_t> reference_counts;
            std::vector<std::int32_t> reference_sums;
            for (const Backend kind : available) {
                kernels::ScopedBackend pin(kind);
                ColumnCounter counter(n_bits, n_planes);
                for (std::size_t r = 0; r < rows.size(); ++r) {
                    if (r % 3 == 1) {
                        counter.add_xor(rows[r], rows[(r + 1) % rows.size()]);
                    } else {
                        counter.add(rows[r]);
                    }
                }
                std::vector<std::int32_t> counts(n_bits, 0);
                counter.counts_into(counts);
                std::vector<std::int32_t> sums(n_bits, 0);
                counter.bipolar_sums_into(sums);
                if (kind == Backend::portable) {
                    reference_counts = counts;
                    reference_sums = sums;
                } else {
                    EXPECT_EQ(counts, reference_counts)
                        << kernels::backend_name(kind) << " D=" << n_bits
                        << " planes=" << n_planes;
                    EXPECT_EQ(sums, reference_sums)
                        << kernels::backend_name(kind) << " D=" << n_bits
                        << " planes=" << n_planes;
                }
            }
        }
    }
}

// csa_rows semantics: folding 8 rows into zeroed residues must leave a
// per-column binary decomposition of the exact column count —
//   count(j) = ones(j) + 2*twos(j) + 4*fours(j) + 8*carry(j)
// — and every backend must produce bit-identical residue planes.
TEST(Kernels, CsaRowsDecomposesColumnCountsAndAgreesAcrossBackends) {
    const KernelBackend& portable = kernels::portable_backend();
    Xoshiro256ss rng(61);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{5},
                                std::size_t{8}, std::size_t{9}, std::size_t{13}}) {
        std::vector<std::vector<Word>> rows;
        std::vector<const Word*> row_ptrs;
        for (std::size_t r = 0; r < 8; ++r) {
            rows.push_back(random_words(n, rng));
            row_ptrs.push_back(rows.back().data());
        }
        // Non-zero initial residues: csa_rows folds *into* live state.
        const auto ones0 = random_words(n, rng);
        const auto twos0 = random_words(n, rng);
        const auto fours0 = random_words(n, rng);

        auto p_ones = ones0;
        auto p_twos = twos0;
        auto p_fours = fours0;
        std::vector<Word> p_carry(n, 0);
        portable.csa_rows(p_ones.data(), p_twos.data(), p_fours.data(), p_carry.data(),
                          row_ptrs.data(), n);

        // Absolute check against per-column arithmetic, zero initial state.
        std::vector<Word> z_ones(n, 0), z_twos(n, 0), z_fours(n, 0), z_carry(n, 0);
        portable.csa_rows(z_ones.data(), z_twos.data(), z_fours.data(), z_carry.data(),
                          row_ptrs.data(), n);
        for (std::size_t w = 0; w < n; ++w) {
            for (std::size_t bit = 0; bit < 64; ++bit) {
                std::size_t count = 0;
                for (const auto& row : rows) count += (row[w] >> bit) & 1u;
                const std::size_t decomposed = ((z_ones[w] >> bit) & 1u) +
                                               2 * ((z_twos[w] >> bit) & 1u) +
                                               4 * ((z_fours[w] >> bit) & 1u) +
                                               8 * ((z_carry[w] >> bit) & 1u);
                ASSERT_EQ(decomposed, count) << "word " << w << " bit " << bit;
            }
        }

        for (const KernelBackend* backend : simd_backends()) {
            auto b_ones = ones0;
            auto b_twos = twos0;
            auto b_fours = fours0;
            std::vector<Word> b_carry(n, 0);
            backend->csa_rows(b_ones.data(), b_twos.data(), b_fours.data(), b_carry.data(),
                              row_ptrs.data(), n);
            EXPECT_EQ(b_ones, p_ones) << backend->name << " n=" << n;
            EXPECT_EQ(b_twos, p_twos) << backend->name << " n=" << n;
            EXPECT_EQ(b_fours, p_fours) << backend->name << " n=" << n;
            EXPECT_EQ(b_carry, p_carry) << backend->name << " n=" << n;
        }
    }
}

namespace {

/// Deterministic TieResolver: a fixed per-word pattern, so every backend
/// (and the reference below) resolves identical ties identically without
/// shared state.
Word pattern_ties(void* /*ctx*/, Word eq_mask, std::size_t word_index) noexcept {
    return eq_mask & (Word{0x9E3779B97F4A7C15ULL} * static_cast<Word>(word_index + 3));
}

/// Stateful TieResolver drawing one Xoshiro sign per tied column (the
/// production resolver's shape).  Cross-backend distance equality with this
/// resolver proves every backend calls it in the identical (word-ascending,
/// at-most-once-per-word) order with identical eq masks.
Word rng_ties(void* ctx, Word eq_mask, std::size_t /*word_index*/) noexcept {
    auto& rng = *static_cast<Xoshiro256ss*>(ctx);
    Word negatives = 0;
    while (eq_mask != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(eq_mask));
        if (rng.next_sign() < 0) negatives |= Word{1} << bit;
        eq_mask &= eq_mask - 1;
    }
    return negatives;
}

/// Records every resolver call (word index, eq mask) and resolves nothing:
/// the padding and ordering tests read the log.
struct TieLog {
    std::vector<std::size_t> words;
    std::vector<Word> masks;
};

Word logging_ties(void* ctx, Word eq_mask, std::size_t word_index) noexcept {
    auto& log = *static_cast<TieLog*>(ctx);
    log.words.push_back(word_index);
    log.masks.push_back(eq_mask);
    return 0;
}

/// Explicit fused-kernel inputs: N feature rows, M value rows, a level per
/// feature row, and the block-major layout packed from them.
struct FusedInputs {
    std::vector<std::vector<Word>> features;
    std::vector<std::vector<Word>> values;
    std::vector<int> levels;
    std::size_t n_words = 0;
    std::vector<Word> feature_blocks;
    std::vector<Word> value_blocks;

    /// Packs features/values into the layout (call after filling them).
    kernels::BlockMajorRows pack() {
        const auto packed = [this](const std::vector<std::vector<Word>>& rows,
                                   std::vector<Word>& out) {
            std::vector<const Word*> ptrs;
            for (const auto& row : rows) ptrs.push_back(row.data());
            out.assign(kernels::block_major_words(rows.size(), n_words), ~Word{0});
            kernels::pack_block_major(ptrs.data(), rows.size(), n_words, out.data());
        };
        packed(features, feature_blocks);
        packed(values, value_blocks);
        kernels::BlockMajorRows rows;
        rows.feature_blocks = feature_blocks.data();
        rows.value_blocks = value_blocks.data();
        rows.n_rows = features.size();
        rows.n_levels = values.size();
        rows.n_words = n_words;
        return rows;
    }
};

/// Random inputs: n_rows feature rows, n_levels value rows, random levels.
FusedInputs random_fused_inputs(std::size_t n_rows, std::size_t n_levels, std::size_t n_words,
                                Xoshiro256ss& rng) {
    FusedInputs inputs;
    inputs.n_words = n_words;
    for (std::size_t r = 0; r < n_rows; ++r) inputs.features.push_back(random_words(n_words, rng));
    for (std::size_t m = 0; m < n_levels; ++m) inputs.values.push_back(random_words(n_words, rng));
    for (std::size_t r = 0; r < n_rows; ++r) {
        inputs.levels.push_back(static_cast<int>(rng.next_below(n_levels)));
    }
    return inputs;
}

/// Adds bound row r's bits to the per-column counts (column 64 w + bit).
void add_reference_row(const FusedInputs& inputs, std::size_t r, std::vector<std::size_t>& counts) {
    const auto level = static_cast<std::size_t>(inputs.levels[r]);
    for (std::size_t j = 0; j < inputs.n_words * 64; ++j) {
        const Word x = inputs.features[r][j / 64] ^ inputs.values[level][j / 64];
        counts[j] += (x >> (j % 64)) & 1u;
    }
}

/// The distances implied by n rows' per-column counts.
std::vector<std::uint64_t> distances_from_counts(const std::vector<std::size_t>& counts,
                                                 std::size_t n,
                                                 const std::vector<std::vector<Word>>& classes,
                                                 kernels::TieResolver ties, void* tie_ctx) {
    const std::size_t n_words = counts.size() / 64;
    std::vector<std::uint64_t> distances(classes.size(), 0);
    for (std::size_t w = 0; w < n_words; ++w) {
        Word query = 0;
        Word eq = 0;
        for (std::size_t bit = 0; bit < 64; ++bit) {
            const std::size_t count = counts[w * 64 + bit];
            if (count > n / 2) {
                query |= Word{1} << bit;
            } else if (n % 2 == 0 && count == n / 2) {
                eq |= Word{1} << bit;
            }
        }
        if (eq != 0 && ties != nullptr) query |= ties(tie_ctx, eq, w) & eq;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            distances[c] += static_cast<std::uint64_t>(std::popcount(query ^ classes[c][w]));
        }
    }
    return distances;
}

/// Independent scalar re-implementation of the fused contract over the
/// row-major inputs: majority of per-column counts of the bound rows (ties
/// at exactly n/2 for even n resolved by `ties`), then per-class Hamming
/// against the implied query.
std::vector<std::uint64_t> fused_reference(const FusedInputs& inputs,
                                           const std::vector<std::vector<Word>>& classes,
                                           kernels::TieResolver ties, void* tie_ctx) {
    std::vector<std::size_t> counts(inputs.n_words * 64, 0);
    for (std::size_t r = 0; r < inputs.features.size(); ++r) add_reference_row(inputs, r, counts);
    return distances_from_counts(counts, inputs.features.size(), classes, ties, tie_ctx);
}

/// Sets every padded word of the packed layout's last block to all ones.
void dirty_padding(FusedInputs& inputs) {
    const std::size_t tail = inputs.n_words % kernels::kBlockWords;
    if (tail == 0) return;
    const std::size_t n_rows = inputs.features.size();
    const std::size_t last = inputs.n_words / kernels::kBlockWords;
    for (std::size_t r = 0; r < n_rows; ++r) {
        Word* block =
            inputs.feature_blocks.data() + (last * n_rows + r) * kernels::kBlockWords;
        std::fill(block + tail, block + kernels::kBlockWords, ~Word{0});
    }
}

/// Class rows exactly n_words long (no slack a vector read past the end
/// could hide in) and their pointer table.
struct ClassRows {
    std::vector<std::vector<Word>> rows;
    std::vector<const Word*> ptrs;

    ClassRows(std::size_t n_classes, std::size_t n_words, Xoshiro256ss& rng) {
        for (std::size_t c = 0; c < n_classes; ++c) rows.push_back(random_words(n_words, rng));
        for (const auto& row : rows) ptrs.push_back(row.data());
    }
};

/// Runs `backend` with a fresh Xoshiro tie stream seeded `seed` (nullptr
/// resolver for odd row counts, like the encoder).
std::vector<std::uint64_t> run_fused(const KernelBackend& backend,
                                     const kernels::BlockMajorRows& rows,
                                     const std::vector<int>& levels, const ClassRows& classes,
                                     std::uint64_t seed) {
    Xoshiro256ss tie_rng(seed);
    std::vector<std::uint64_t> distances(classes.rows.size(), ~std::uint64_t{0});
    backend.fused_hamming_scores(rows, levels.data(), classes.ptrs.data(), classes.rows.size(),
                                 &rng_ties, &tie_rng, distances.data());
    return distances;
}

}  // namespace

TEST(Kernels, PackBlockMajorLaysOutBlocksAndZeroesPadding) {
    Xoshiro256ss rng(79);
    const std::size_t n_rows = 3;
    const std::size_t n_words = 11;  // two blocks, the second 3/8 full
    std::vector<std::vector<Word>> rows;
    std::vector<const Word*> ptrs;
    for (std::size_t r = 0; r < n_rows; ++r) {
        rows.push_back(random_words(n_words, rng));
        ptrs.push_back(rows.back().data());
    }
    ASSERT_EQ(kernels::block_major_words(n_rows, n_words), 2 * n_rows * kernels::kBlockWords);
    EXPECT_EQ(kernels::block_major_words(n_rows, 0), 0u);
    EXPECT_EQ(kernels::block_major_words(n_rows, 8), n_rows * kernels::kBlockWords);
    std::vector<Word> out(kernels::block_major_words(n_rows, n_words), ~Word{0});
    kernels::pack_block_major(ptrs.data(), n_rows, n_words, out.data());
    for (std::size_t b = 0; b < 2; ++b) {
        for (std::size_t r = 0; r < n_rows; ++r) {
            for (std::size_t k = 0; k < kernels::kBlockWords; ++k) {
                const std::size_t w = b * kernels::kBlockWords + k;
                const Word expected = w < n_words ? rows[r][w] : 0;
                EXPECT_EQ(out[(b * n_rows + r) * kernels::kBlockWords + k], expected)
                    << "block " << b << " row " << r << " word " << k;
            }
        }
    }
}

// The fused encode→distance kernel vs the scalar reference and across
// backends: row counts spanning the 8-row groups and every leftover shape,
// word counts spanning vector widths and 512-bit block tails (n_words % 8
// != 0), with and without a tie resolver.
TEST(Kernels, FusedHammingScoresMatchesReferenceAcrossBackends) {
    Xoshiro256ss rng(83);
    const KernelBackend& portable = kernels::portable_backend();
    const std::size_t n_classes = 3;
    for (const std::size_t n_rows : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, std::size_t{8}, std::size_t{9},
                                     std::size_t{16}, std::size_t{17}, std::size_t{33}}) {
        for (const std::size_t n_words :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{7},
              std::size_t{8}, std::size_t{9}, std::size_t{13}, std::size_t{16},
              std::size_t{17}}) {
            FusedInputs inputs = random_fused_inputs(n_rows, 3, n_words, rng);
            const kernels::BlockMajorRows rows = inputs.pack();
            const ClassRows classes(n_classes, n_words, rng);
            for (const bool with_ties : {true, false}) {
                const kernels::TieResolver ties = with_ties ? &pattern_ties : nullptr;
                const auto expected = fused_reference(inputs, classes.rows, ties, nullptr);
                std::vector<std::uint64_t> actual(n_classes, ~std::uint64_t{0});
                portable.fused_hamming_scores(rows, inputs.levels.data(), classes.ptrs.data(),
                                              n_classes, ties, nullptr, actual.data());
                EXPECT_EQ(actual, expected)
                    << "portable rows=" << n_rows << " words=" << n_words << " ties=" << with_ties;
                for (const KernelBackend* backend : simd_backends()) {
                    std::vector<std::uint64_t> simd(n_classes, ~std::uint64_t{0});
                    backend->fused_hamming_scores(rows, inputs.levels.data(),
                                                  classes.ptrs.data(), n_classes, ties, nullptr,
                                                  simd.data());
                    EXPECT_EQ(simd, expected) << backend->name << " rows=" << n_rows
                                              << " words=" << n_words << " ties=" << with_ties;
                }
            }
        }
    }
}

// Every compile-time plane count: bit_width(n_rows) picks one of sixteen
// instantiations, so each is driven at both of its n_rows boundaries
// (2^(k-1) and 2^k - 1).  Three quarters of the rows set the high half of
// every word, so those columns count up near n_rows and carry into the top
// plane; the low half hovers around n_rows / 2 and ties for even counts.
TEST(Kernels, FusedHammingScoresCoversEveryPlaneCount) {
    Xoshiro256ss rng(89);
    const std::size_t n_words = 9;  // one full block and a one-word tail
    const std::size_t n_classes = 2;
    const ClassRows classes(n_classes, n_words, rng);
    for (std::size_t planes = 1; planes <= 16; ++planes) {
        for (const std::size_t n_rows :
             {std::size_t{1} << (planes - 1), (std::size_t{1} << planes) - 1}) {
            ASSERT_EQ(static_cast<std::size_t>(std::bit_width(n_rows)), planes);
            FusedInputs inputs;
            inputs.n_words = n_words;
            inputs.values = {std::vector<Word>(n_words, 0), random_words(n_words, rng)};
            for (std::size_t r = 0; r < n_rows; ++r) {
                std::vector<Word> row = random_words(n_words, rng);
                if (r % 4 != 0) {
                    for (auto& word : row) word |= 0xFFFFFFFF00000000ULL;
                }
                inputs.features.push_back(std::move(row));
                inputs.levels.push_back(r % 16 == 5 ? 1 : 0);
            }
            const kernels::BlockMajorRows rows = inputs.pack();
            Xoshiro256ss reference_rng(500 + planes);
            const auto expected = fused_reference(inputs, classes.rows, &rng_ties, &reference_rng);
            EXPECT_EQ(run_fused(kernels::portable_backend(), rows, inputs.levels, classes,
                                500 + planes),
                      expected)
                << "portable rows=" << n_rows;
            for (const KernelBackend* backend : simd_backends()) {
                EXPECT_EQ(run_fused(*backend, rows, inputs.levels, classes, 500 + planes),
                          expected)
                    << backend->name << " rows=" << n_rows;
            }
        }
    }
}

// The production tie resolver is stateful (one PRNG draw per tied column),
// so identical distances across backends require identical resolver call
// order and identical eq masks — this is the RNG-parity contract the
// encoder's fused path relies on.  The call log must name real words only,
// each at most once, in ascending order.
TEST(Kernels, FusedHammingScoresDrawsStatefulTiesIdentically) {
    Xoshiro256ss rng(97);
    const std::size_t n_rows = 8;  // even: ~27% tie probability per column
    const std::size_t n_words = 11;
    const std::size_t n_classes = 4;
    FusedInputs inputs = random_fused_inputs(n_rows, 4, n_words, rng);
    const kernels::BlockMajorRows rows = inputs.pack();
    const ClassRows classes(n_classes, n_words, rng);

    Xoshiro256ss reference_rng(1234);
    const auto expected = fused_reference(inputs, classes.rows, &rng_ties, &reference_rng);
    EXPECT_EQ(run_fused(kernels::portable_backend(), rows, inputs.levels, classes, 1234),
              expected);
    std::vector<const KernelBackend*> backends = simd_backends();
    backends.push_back(&kernels::portable_backend());
    for (const KernelBackend* backend : backends) {
        EXPECT_EQ(run_fused(*backend, rows, inputs.levels, classes, 1234), expected)
            << backend->name;
        TieLog log;
        std::vector<std::uint64_t> distances(n_classes, 0);
        backend->fused_hamming_scores(rows, inputs.levels.data(), classes.ptrs.data(), n_classes,
                                      &logging_ties, &log, distances.data());
        ASSERT_FALSE(log.words.empty()) << backend->name;
        for (std::size_t i = 0; i < log.words.size(); ++i) {
            EXPECT_LT(log.words[i], n_words) << backend->name;
            EXPECT_NE(log.masks[i], 0u) << backend->name;
            if (i > 0) {
                EXPECT_GT(log.words[i], log.words[i - 1]) << backend->name;
            }
        }
    }
}

// The padded words of the last block must never reach the compare, the tie
// resolver or the class scoring, even when they are not zero: dirty padding
// here counts n_rows in every padded column (above the threshold) and a
// padded class word would be read past the end of the class row.
TEST(Kernels, FusedHammingScoresIgnoresPaddedWords) {
    Xoshiro256ss rng(101);
    const std::size_t n_classes = 3;
    for (const std::size_t n_words : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                                      std::size_t{9}, std::size_t{15}}) {
        for (const std::size_t n_rows : {std::size_t{2}, std::size_t{6}, std::size_t{9}}) {
            FusedInputs inputs = random_fused_inputs(n_rows, 2, n_words, rng);
            kernels::BlockMajorRows rows = inputs.pack();
            const std::size_t n_blocks = (n_words + kernels::kBlockWords - 1) / kernels::kBlockWords;
            for (std::size_t r = 0; r < n_rows; ++r) {
                Word* block =
                    inputs.feature_blocks.data() + ((n_blocks - 1) * n_rows + r) * kernels::kBlockWords;
                for (std::size_t k = n_words % kernels::kBlockWords;
                     k != 0 && k < kernels::kBlockWords; ++k) {
                    block[k] = ~Word{0};
                }
            }
            const ClassRows classes(n_classes, n_words, rng);
            Xoshiro256ss reference_rng(7);
            const auto expected = fused_reference(inputs, classes.rows, &rng_ties, &reference_rng);
            std::vector<const KernelBackend*> backends = simd_backends();
            backends.push_back(&kernels::portable_backend());
            for (const KernelBackend* backend : backends) {
                EXPECT_EQ(run_fused(*backend, rows, inputs.levels, classes, 7), expected)
                    << backend->name << " rows=" << n_rows << " words=" << n_words;
                TieLog log;
                std::vector<std::uint64_t> distances(n_classes, 0);
                backend->fused_hamming_scores(rows, inputs.levels.data(), classes.ptrs.data(),
                                              n_classes, &logging_ties, &log, distances.data());
                for (const std::size_t word : log.words) {
                    EXPECT_LT(word, n_words) << backend->name << " rows=" << n_rows;
                }
            }
        }
    }
}

TEST(Kernels, FusedHammingScoresZeroRowsZeroesDistances) {
    Xoshiro256ss rng(11);
    const auto cls = random_words(5, rng);
    const Word* class_ptrs[] = {cls.data()};
    kernels::BlockMajorRows rows;
    rows.n_words = 5;
    std::vector<const KernelBackend*> backends = simd_backends();
    backends.push_back(&kernels::portable_backend());
    for (const KernelBackend* backend : backends) {
        std::vector<std::uint64_t> distances(1, ~std::uint64_t{0});
        backend->fused_hamming_scores(rows, nullptr, class_ptrs, 1, nullptr, nullptr,
                                      distances.data());
        EXPECT_EQ(distances[0], 0u) << backend->name;
    }
}

// block_major_counts against an independent reference on every backend, at
// every row count 1..33 and both n_rows boundaries of every plane count
// (2^(k-1) and 2^k - 1, so each of the sixteen instantiations runs), over
// word counts around every vector width.  Feature rows repeat a small pool,
// so the reference tallies (pool row, level) multiplicities instead of
// walking all 65535 rows; three quarters of the pool sets the high half of
// every word, driving those counts toward n_rows and into the top plane.
// The padded words of the last block are dirtied after packing and the
// counts buffer carries a sentinel past its end: neither may leak.
TEST(Kernels, BlockMajorCountsMatchesReferenceAcrossBackends) {
    Xoshiro256ss rng(103);
    const std::size_t n_pool = 37;
    const std::size_t n_levels = 3;
    std::vector<std::size_t> row_counts;
    for (std::size_t n = 1; n <= 33; ++n) row_counts.push_back(n);
    for (std::size_t planes = 1; planes <= 16; ++planes) {
        row_counts.push_back(std::size_t{1} << (planes - 1));
        row_counts.push_back((std::size_t{1} << planes) - 1);
    }
    std::vector<const KernelBackend*> backends = simd_backends();
    backends.push_back(&kernels::portable_backend());
    constexpr std::int32_t kSentinel = -7;
    for (const std::size_t n_words : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                      std::size_t{5}, std::size_t{7}, std::size_t{8},
                                      std::size_t{9}, std::size_t{13}, std::size_t{16},
                                      std::size_t{17}}) {
        std::vector<std::vector<Word>> pool;
        for (std::size_t i = 0; i < n_pool; ++i) {
            std::vector<Word> row = random_words(n_words, rng);
            if (i % 4 != 0) {
                for (auto& word : row) word |= 0xFFFFFFFF00000000ULL;
            }
            pool.push_back(std::move(row));
        }
        for (const std::size_t n_rows : row_counts) {
            FusedInputs inputs;
            inputs.n_words = n_words;
            for (std::size_t m = 0; m < n_levels; ++m) {
                inputs.values.push_back(random_words(n_words, rng));
            }
            std::vector<std::size_t> multiplicity(n_pool * n_levels, 0);
            for (std::size_t r = 0; r < n_rows; ++r) {
                const std::size_t source = (r * 7 + r / n_pool) % n_pool;
                const auto level = static_cast<int>(rng.next_below(n_levels));
                inputs.features.push_back(pool[source]);
                inputs.levels.push_back(level);
                ++multiplicity[source * n_levels + static_cast<std::size_t>(level)];
            }
            std::vector<std::int32_t> expected(n_words * 64, 0);
            for (std::size_t source = 0; source < n_pool; ++source) {
                for (std::size_t m = 0; m < n_levels; ++m) {
                    const std::size_t times = multiplicity[source * n_levels + m];
                    if (times == 0) continue;
                    for (std::size_t j = 0; j < n_words * 64; ++j) {
                        const Word x = pool[source][j / 64] ^ inputs.values[m][j / 64];
                        expected[j] += static_cast<std::int32_t>(((x >> (j % 64)) & 1u) * times);
                    }
                }
            }
            kernels::BlockMajorRows rows = inputs.pack();
            dirty_padding(inputs);
            for (const KernelBackend* backend : backends) {
                std::vector<std::int32_t> counts(n_words * 64 + 64, kSentinel);
                backend->block_major_counts(rows, inputs.levels.data(), counts.data());
                EXPECT_TRUE(std::equal(expected.begin(), expected.end(), counts.begin()))
                    << backend->name << " rows=" << n_rows << " words=" << n_words;
                EXPECT_TRUE(std::all_of(counts.begin() + static_cast<std::ptrdiff_t>(n_words * 64),
                                        counts.end(),
                                        [](std::int32_t c) { return c == kSentinel; }))
                    << backend->name << " wrote past the counts, rows=" << n_rows
                    << " words=" << n_words;
            }
        }
    }
}

// Every subtree tail of every backend's carry-save tree: each row count
// from 1 to three full groups of the deepest tree (3 << kMaxDepth), so each
// backend runs every remainder shape its depth leaves, through both
// block-major kernels, at one word, one block plus a word and D = 10048,
// with dirty padding in the last block.  The rows are prefixes of one
// input set, so the reference counts grow a row at a time.
TEST(Kernels, BlockMajorKernelsRunEveryTreeTail) {
    Xoshiro256ss rng(107);
    const std::size_t max_rows = std::size_t{3} << kernels::csa_tree::kMaxDepth;
    std::vector<const KernelBackend*> backends = simd_backends();
    backends.push_back(&kernels::portable_backend());
    for (const std::size_t n_words : {std::size_t{1}, std::size_t{9}, std::size_t{157}}) {
        const FusedInputs all = random_fused_inputs(max_rows, 4, n_words, rng);
        const ClassRows classes(3, n_words, rng);
        std::vector<std::size_t> expected_counts(n_words * 64, 0);
        for (std::size_t n_rows = 1; n_rows <= max_rows; ++n_rows) {
            add_reference_row(all, n_rows - 1, expected_counts);
            FusedInputs inputs;
            inputs.n_words = n_words;
            inputs.values = all.values;
            inputs.features.assign(all.features.begin(),
                                   all.features.begin() + static_cast<std::ptrdiff_t>(n_rows));
            inputs.levels.assign(all.levels.begin(),
                                 all.levels.begin() + static_cast<std::ptrdiff_t>(n_rows));
            const kernels::BlockMajorRows rows = inputs.pack();
            dirty_padding(inputs);
            const auto expected = distances_from_counts(expected_counts, n_rows, classes.rows,
                                                        &pattern_ties, nullptr);
            for (const KernelBackend* backend : backends) {
                std::vector<std::int32_t> counts(n_words * 64, -1);
                backend->block_major_counts(rows, inputs.levels.data(), counts.data());
                EXPECT_TRUE(std::equal(counts.begin(), counts.end(), expected_counts.begin(),
                                       [](std::int32_t c, std::size_t e) {
                                           return c >= 0 && static_cast<std::size_t>(c) == e;
                                       }))
                    << backend->name << " rows=" << n_rows << " words=" << n_words;
                std::vector<std::uint64_t> distances(classes.rows.size(), ~std::uint64_t{0});
                backend->fused_hamming_scores(rows, inputs.levels.data(), classes.ptrs.data(),
                                              classes.rows.size(), &pattern_ties, nullptr,
                                              distances.data());
                EXPECT_EQ(distances, expected)
                    << backend->name << " rows=" << n_rows << " words=" << n_words;
            }
        }
    }
}

TEST(Kernels, BlockMajorCountsZeroRowsZeroesCounts) {
    kernels::BlockMajorRows rows;
    rows.n_words = 5;
    std::vector<const KernelBackend*> backends = simd_backends();
    backends.push_back(&kernels::portable_backend());
    for (const KernelBackend* backend : backends) {
        std::vector<std::int32_t> counts(5 * 64, 3);
        backend->block_major_counts(rows, nullptr, counts.data());
        EXPECT_TRUE(
            std::all_of(counts.begin(), counts.end(), [](std::int32_t c) { return c == 0; }))
            << backend->name;
    }
}

// ColumnCounter::add_rows must be exactly add() per row — plane-identical
// counts on every backend, at odd dimensions (tail words) and from
// mid-group entry points.
TEST(Kernels, ColumnCounterAddRowsMatchesSequentialAdds) {
    for (const Backend kind : kernels::available_backends()) {
        kernels::ScopedBackend pin(kind);
        for (const std::size_t n_bits :
             {std::size_t{63}, std::size_t{65}, std::size_t{513}, std::size_t{777},
              std::size_t{1000}}) {
            for (const std::size_t n_planes : {std::size_t{3}, std::size_t{4}, std::size_t{6},
                                               std::size_t{16}}) {
                for (const std::size_t misalign : {std::size_t{0}, std::size_t{3}}) {
                    Xoshiro256ss rng(500 + n_bits + n_planes * 7 + misalign);
                    const std::size_t n_words = bits::word_count(n_bits);
                    std::vector<std::vector<Word>> rows;
                    std::vector<const Word*> row_ptrs;
                    for (std::size_t r = 0; r < 37; ++r) {
                        auto row = random_words(n_words, rng);
                        row.back() &= bits::tail_mask(n_bits);
                        rows.push_back(std::move(row));
                    }
                    for (const auto& row : rows) row_ptrs.push_back(row.data());

                    ColumnCounter sequential(n_bits, n_planes);
                    ColumnCounter batched(n_bits, n_planes);
                    for (std::size_t r = 0; r < misalign; ++r) {
                        sequential.add(rows[r]);
                        batched.add(rows[r]);  // enter add_rows mid-group
                    }
                    for (std::size_t r = misalign; r < rows.size(); ++r) sequential.add(rows[r]);
                    batched.add_rows(std::span<const Word* const>(row_ptrs).subspan(misalign));
                    EXPECT_EQ(batched.rows_added(), sequential.rows_added());

                    std::vector<std::int32_t> expected(n_bits, 0), actual(n_bits, 0);
                    sequential.counts_into(expected);
                    batched.counts_into(actual);
                    EXPECT_EQ(actual, expected)
                        << kernels::backend_name(kind) << " D=" << n_bits
                        << " planes=" << n_planes << " misalign=" << misalign;
                }
            }
        }
    }
}

// TSan coverage for the process-global dispatch slot: reader threads hammer
// active() + a kernel call while writer threads churn ScopedBackend pins.
// set_backend is a single atomic exchange, so the slot is never torn, every
// reader always sees *some* fully-formed backend, and — because all backends
// are bit-identical — every kernel result is the same no matter which pin
// won.  (The old read-then-store set_backend let a racing pin restore a
// stale snapshot; the per-thread nested-pin chain below plus this churn runs
// under the tsan-serving-core CI job.)
TEST(KernelsBackendConcurrency, SetBackendVsActiveIsRaceFree) {
    const Backend original = kernels::active_kind();
    const auto kinds = kernels::available_backends();

    Xoshiro256ss rng(23);
    const auto words = random_words(157, rng);
    const std::size_t expected_pop = kernels::portable_backend().popcount(words.data(),
                                                                          words.size());

    std::atomic<bool> stop{false};
    std::vector<hdlock::util::Thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back(hdlock::util::Thread([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const KernelBackend& backend = kernels::active();
                ASSERT_NE(backend.name, nullptr);
                ASSERT_EQ(backend.popcount(words.data(), words.size()), expected_pop)
                    << backend.name;
            }
        }));
    }

    std::vector<hdlock::util::Thread> writers;
    for (std::size_t w = 0; w < 2; ++w) {
        writers.emplace_back(hdlock::util::Thread([&kinds, w] {
            for (int i = 0; i < 500; ++i) {
                kernels::ScopedBackend outer(kinds[(w + i) % kinds.size()]);
                kernels::ScopedBackend inner(kinds[i % kinds.size()]);
            }
        }));
    }
    for (auto& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();

    // Concurrent pins unwind in an arbitrary global order, so re-pin
    // explicitly rather than asserting which racer's restore landed last.
    kernels::set_backend(original);
    EXPECT_EQ(kernels::active_kind(), original);
}

// The bitvec span wrappers dispatch to whatever backend is pinned.
TEST(Kernels, BitvecRoutesThroughActiveBackend) {
    Xoshiro256ss rng(5);
    const std::size_t n_bits = 777;  // odd tail
    std::vector<Word> a(bits::word_count(n_bits));
    std::vector<Word> b(bits::word_count(n_bits));
    bits::fill_random(a, n_bits, rng);
    bits::fill_random(b, n_bits, rng);

    std::size_t expected_pop = 0;
    std::size_t expected_ham = 0;
    std::vector<Word> expected_xor(a.size());
    {
        kernels::ScopedBackend pin(Backend::portable);
        expected_pop = bits::popcount(a);
        expected_ham = bits::hamming(a, b);
        bits::xor_into(expected_xor, a, b);
    }
    for (const Backend kind : kernels::available_backends()) {
        kernels::ScopedBackend pin(kind);
        EXPECT_EQ(bits::popcount(a), expected_pop) << kernels::backend_name(kind);
        EXPECT_EQ(bits::hamming(a, b), expected_ham) << kernels::backend_name(kind);
        std::vector<Word> actual(a.size());
        bits::xor_into(actual, a, b);
        EXPECT_EQ(actual, expected_xor) << kernels::backend_name(kind);
    }
}
