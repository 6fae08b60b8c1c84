#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD backends for the bit-packed word kernels.
///
/// Everything hot in this codebase bottoms out in a handful of loops over
/// packed uint64 words: XOR binds, population counts, Hamming distances, the
/// Harley–Seal carry-save steps inside util::ColumnCounter, and the
/// plane-unpack that turns carry-save planes back into per-column counts.
/// This header gives those loops a vtable (KernelBackend) with four
/// implementations:
///
///   portable  the plain C++ loops (always available, the reference);
///   neon      128-bit ARM NEON intrinsics (kernels_neon.cpp; Advanced SIMD
///             is baseline on aarch64, so no extra -m flags — the TU
///             self-gates on __ARM_NEON);
///   avx2      256-bit AVX2 intrinsics (compiled only into kernels_avx2.cpp
///             with -mavx2; selected only when CPUID reports AVX2);
///   avx512    512-bit AVX-512 intrinsics (compiled with -mavx512f/-bw/
///             -vpopcntdq; selected only when CPUID reports all three).
///
/// Dispatch is process-global and resolved once at first use: the best
/// compiled-in backend the CPU supports, overridable by the environment
/// variable HDLOCK_KERNEL_BACKEND=portable|neon|avx2|avx512 (an unavailable
/// or unknown value warns once on stderr and falls back to auto-detection —
/// a deployment artifact must degrade, not crash) and by set_backend() for
/// tests and serving code that must pin a specific implementation
/// (api::SessionOptions::kernel_backend).
///
/// Contract: every backend is bit-identical to portable on every input.
/// All kernels are exact integer arithmetic with order-independent
/// reductions, so vector width never changes a result — the byte-identical
/// JSON determinism contract of the eval:: harness holds across backends,
/// and tests/util/kernels_test.cc asserts agreement on randomized inputs
/// including odd tail lengths.
///
/// Why dispatch sits at the word-kernel layer (and not per-encoder): see
/// DESIGN.md §5.  In short, every encoder variant (record, locked, sealed),
/// the model distance scoring and the attack sweeps share these same five
/// loops; one dispatch point under util:: accelerates all of them at once
/// and keeps the ISA-specific surface small enough to exhaustively test for
/// bit-equality.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hdlock::util::kernels {

using Word = std::uint64_t;

/// Backend identity, in ascending preference order (auto-detection picks the
/// highest available value).  Never serialized — reports store the name
/// string — so reordering to slot neon in is safe.
enum class Backend : std::uint8_t { portable = 0, neon = 1, avx2 = 2, avx512 = 3 };

/// Row-count ceiling of the fused encode→distance kernel: per-column counts
/// are kept in bit-sliced planes, capped at 16 (the util::ColumnCounter
/// plane budget), so counts must fit 16 bits.
inline constexpr std::size_t kMaxFusedRows = 65535;

/// Tie-break callback for fused_hamming_scores.  `eq_mask` flags the columns
/// of word `word_index` whose accumulated count landed exactly on
/// n_rows / 2 (a zero bipolar sum — only possible for even n_rows); the
/// resolver returns the subset that binarize negative (bit set in the query).
/// The kernel invokes it at most once per word, in ascending word order, and
/// only when eq_mask != 0 — so a resolver drawing one RNG sign per set bit in
/// ascending bit order consumes the stream exactly like IntHV::sign_into.
/// Kept as a raw function pointer for the same ODR reason as the vtable: the
/// RNG lives outside the ISA translation units.
using TieResolver = Word (*)(void* ctx, Word eq_mask, std::size_t word_index) noexcept;

/// Words per block of the block-major serving layout: 512 bits, the widest
/// vector of any backend.  Fixed for every backend, so one layout serves
/// all of them (the backend can change at runtime; the layout cannot).
inline constexpr std::size_t kBlockWords = 8;

/// The block-major layout fused_hamming_scores and block_major_counts stream
/// (built once per encoder, see hdc::Encoder::fused_layout): every row cut into
/// 512-bit blocks and stored [block][row][kBlockWords words], so one step
/// of the kernel reads a contiguous run of n_rows blocks.  The words past
/// n_words in the last block are zero.  Plain data: the kernels only read it.
struct BlockMajorRows {
    const Word* feature_blocks = nullptr;  ///< n_blocks x n_rows x kBlockWords
    const Word* value_blocks = nullptr;    ///< n_blocks x n_levels x kBlockWords
    std::size_t n_rows = 0;                ///< feature rows (N)
    std::size_t n_levels = 0;              ///< value rows (M)
    std::size_t n_words = 0;               ///< real words per row
};

/// The word-kernel vtable.  Raw pointers + lengths on purpose: the ISA
/// translation units must not instantiate inline std templates under
/// -mavx2/-mavx512 (an inline function compiled twice with different ISAs is
/// an ODR hazard — the linker keeps one copy, which may then execute illegal
/// instructions on a lesser host).
struct KernelBackend {
    Backend kind = Backend::portable;
    const char* name = "portable";

    /// dst[i] = a[i] ^ b[i]; dst may alias a or b.
    void (*xor_into)(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept;

    /// Total set bits over words[0..n).
    std::size_t (*popcount)(const Word* words, std::size_t n) noexcept;

    /// Total set bits of a[i] ^ b[i] over [0..n) (unnormalized Hamming).
    std::size_t (*hamming)(const Word* a, const Word* b, std::size_t n) noexcept;

    /// One fused carry-save adder step over whole word arrays — the
    /// ColumnCounter phase-1/5 kernel.  Per word, with y = yb ? ya^yb : ya
    /// (the fused XOR bind of add_xor):
    ///   u = ones ^ x; carry = (ones & x) | (u & y); ones = u ^ y
    /// `carry` must not alias any input.
    void (*csa_pair)(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
                     std::size_t n) noexcept;

    /// The phase-3 kernel: the csa_pair fold of (x, y) into `ones` whose
    /// weight-2 carry combines with twos_a into `twos`, spilling the
    /// weight-4 carry into `fours_a`.
    void (*csa_quad)(Word* ones, Word* twos, const Word* twos_a, Word* fours_a, const Word* x,
                     const Word* ya, const Word* yb, std::size_t n) noexcept;

    /// The phase-7 kernel: folds the eighth row all the way down, leaving
    /// the group's single weight-8 carry in `carry_out` (the caller ripples
    /// it into the planes, which are strided and stay scalar).
    void (*csa_oct)(Word* ones, Word* twos, const Word* twos_a, Word* fours, const Word* fours_a,
                    Word* carry_out, const Word* x, const Word* ya, const Word* yb,
                    std::size_t n) noexcept;

    /// Adds the word-major carry-save planes onto `accumulator`: for full
    /// word w in [0, n_words) and plane p in [0, n_planes),
    ///   accumulator[w * 64 + j] += bit j of planes[w * n_planes + p] << p.
    /// Only complete words: the caller handles a partial tail word itself
    /// (vector code writes all 64 columns of a word unconditionally).
    void (*unpack_planes)(const Word* planes, std::size_t n_words, std::size_t n_planes,
                          std::int32_t* accumulator) noexcept;

    /// Folds exactly eight rows (rows[0..8)) into the carry-save
    /// accumulators in one pass — arithmetic identical to the eight
    /// per-phase ColumnCounter steps (csa_pair/quad/oct over a fresh group),
    /// but with all intermediate values in registers instead of round-
    /// tripping the pending row through memory.  Leaves the group's single
    /// weight-8 carry in `carry_out`; no output aliases any input.  This is
    /// the BoundProductCache accumulation kernel: the cached encode path
    /// hands eight product rows at a time to ColumnCounter::add_rows.
    void (*csa_rows)(Word* ones, Word* twos, Word* fours, Word* carry_out,
                     const Word* const* rows, std::size_t n) noexcept;

    /// The fused encode→distance kernel: accumulates the n_rows bound rows
    /// feature[r] ^ value[levels[r]] (the bind step of Eq. 2, XORed on
    /// load), binarizes the per-column counts against n_rows / 2, and scores
    /// the never-materialized query against n_classes class hypervectors:
    ///   distances[c] = Hamming(sign(sum of rows), class_rows[c])
    /// The rows come in the block-major layout (BlockMajorRows): one step
    /// streams a contiguous block of n_rows 512-bit rows through Harley–Seal
    /// count planes whose number, bit_width(n_rows), is a compile-time
    /// constant per instantiation, so the planes stay in registers.  The
    /// query bits come from a bit-sliced compare of the planes against the
    /// threshold; ties (count == n_rows/2, even n_rows only) go through
    /// `ties` (see TieResolver; may be nullptr when n_rows is odd).  Padded
    /// words of the last block are masked out of the compare, so the
    /// resolver sees real words only, and class rows are read only up to
    /// n_words.  Requirements: rows.n_rows <= kMaxFusedRows; every level in
    /// [0, rows.n_levels); rows carry clean tails (tail columns count 0 and
    /// can never tie, so the query tail stays clean and class tails must be
    /// clean too, as BinaryHV guarantees).  n_rows == 0 yields all-zero
    /// distances.  Bit-identical to encode_binary_into + per-class hamming()
    /// on every backend, including the RNG draw order of tie breaks.
    void (*fused_hamming_scores)(const BlockMajorRows& rows, const int* levels,
                                 const Word* const* class_rows, std::size_t n_classes,
                                 TieResolver ties, void* tie_ctx,
                                 std::uint64_t* distances) noexcept;

    /// The uncached encode kernel: the same block walk and register-resident
    /// count planes as fused_hamming_scores (one shared accumulate per
    /// backend), but each block's planes are unpacked into per-column
    /// counts instead of being binarized and scored:
    ///   counts[j] = #{r : bit j of feature[r] ^ value[levels[r]] is set}
    /// for every column j in [0, 64 * rows.n_words), overwritten, not
    /// accumulated.  Padded words of the last block are never written and
    /// their content is ignored.  Requirements as fused_hamming_scores
    /// (n_rows <= kMaxFusedRows, levels in range); n_rows == 0 yields all-
    /// zero counts.  Bit-identical to a ColumnCounter fed the same rows.
    void (*block_major_counts)(const BlockMajorRows& rows, const int* levels,
                               std::int32_t* counts) noexcept;
};

/// Words of a block-major layout of n_rows rows of n_words words each
/// (blocks x n_rows x kBlockWords).
std::size_t block_major_words(std::size_t n_rows, std::size_t n_words) noexcept;

/// Writes rows[r][0..n_words) into `out` in block-major order, zeroing the
/// padded words of the last block; `out` holds
/// block_major_words(n_rows, n_words) words.
void pack_block_major(const Word* const* rows, std::size_t n_rows, std::size_t n_words,
                      Word* out) noexcept;

/// The reference backend (always available).
const KernelBackend& portable_backend() noexcept;

/// Compiled-in ISA backends; nullptr when the toolchain could not build them
/// (missing -m flags support or the wrong target arch).  Availability at
/// *run* time additionally requires cpu_supports(kind).
const KernelBackend* neon_backend() noexcept;
const KernelBackend* avx2_backend() noexcept;
const KernelBackend* avx512_backend() noexcept;

/// True when the running CPU can execute the given backend (portable: always).
bool cpu_supports(Backend kind) noexcept;

/// True when the backend is compiled into this binary (portable: always).
bool compiled(Backend kind) noexcept;

/// True when the backend is compiled in AND the CPU supports it.
bool available(Backend kind) noexcept;

/// Parses "portable" / "neon" / "avx2" / "avx512"; nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// The backend's canonical name ("portable", "neon", "avx2", "avx512").
const char* backend_name(Backend kind) noexcept;

/// Every backend this build knows of, ascending (portable first) — including
/// ones not compiled in or not runnable here; pair with compiled()/
/// available() for roster listings.
std::vector<Backend> all_backends();

/// Every backend available on this host, ascending (portable first).
std::vector<Backend> available_backends();

/// The backend auto-detection would pick for `env_value` (the content of
/// HDLOCK_KERNEL_BACKEND, empty/unknown/unavailable = best available) —
/// split out pure so the env contract is unit-testable without setenv.
Backend choose_backend(std::string_view env_value) noexcept;

/// The active backend.  First call resolves it: HDLOCK_KERNEL_BACKEND if set
/// and available, otherwise the best available.  Hot paths cache the pointer
/// per call site, so set_backend() mid-computation affects the *next*
/// operation, not one in flight.
const KernelBackend& active() noexcept;

/// The active backend's identity/name (for reports and logs).
Backend active_kind() noexcept;
inline const char* active_name() noexcept { return backend_name(active_kind()); }

/// Pins the process-global backend.  Throws hdlock::ConfigError when the
/// backend is not compiled in or the CPU lacks the ISA.  Returns the
/// previously active backend so tests can restore it.
Backend set_backend(Backend kind);

/// Space-separated SIMD feature list of the running CPU relevant to the
/// compiled backends (e.g. "avx2 avx512f avx512bw avx512vpopcntdq" on x86,
/// "asimd" on aarch64); empty on hosts with none.  Recorded in the eval::
/// JSON context.
std::string cpu_feature_string();

/// RAII pin for tests: set_backend(kind) now, restore the previous backend
/// on destruction (unless release()d).
class ScopedBackend {
public:
    explicit ScopedBackend(Backend kind) : previous_(set_backend(kind)) {}
    ~ScopedBackend() {
        if (armed_) set_backend(previous_);
    }
    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

    /// Dismisses the pin: the pinned backend stays active past destruction.
    /// Returns the backend the destructor would have restored, so a caller
    /// taking over ownership of the restore can still perform it.
    Backend release() noexcept {
        armed_ = false;
        return previous_;
    }

private:
    Backend previous_;
    bool armed_ = true;
};

namespace detail {

/// Scalar word-range loops shared by the vector backends' tail handling.
/// Non-inline on purpose (compiled once, in kernels.cpp, at the baseline
/// ISA) so the -m flagged translation units can call them without the ODR
/// hazard of instantiating common code under a higher ISA.

/// csa_rows over words [word_begin, word_end).
void csa_rows_words(Word* ones, Word* twos, Word* fours, Word* carry_out,
                    const Word* const* rows, std::size_t word_begin,
                    std::size_t word_end) noexcept;

}  // namespace detail

}  // namespace hdlock::util::kernels
