/// \file kernels_neon.cpp
/// The ARM NEON (Advanced SIMD) kernel backend: 128-bit words, vcntq_u8 +
/// the vpaddlq widening chain for population counts, veor/vand/vorr for the
/// carry-save steps, and vshlq_u32 with negative shift counts for the dense
/// plane unpack.
///
/// Advanced SIMD is architecturally baseline on AArch64, so unlike the x86
/// TUs this file needs no per-file -m flags — it simply self-gates on
/// __ARM_NEON and compiles to the nullptr stub elsewhere (x86 builds, or
/// 32-bit ARM without NEON).  Same ODR discipline as kernels_avx2.cpp:
/// everything except the vector-free neon_backend() accessor has internal
/// linkage, and scalar tails route through the baseline-compiled
/// kernels::detail helpers.

#include "util/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "util/csa_tree.hpp"

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        vst1q_u64(dst + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

/// Per-lane popcount of a 128-bit vector, widened to two u64 partial sums.
uint64x2_t popcount_pairs(uint64x2_t v) noexcept {
    return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        acc = vaddq_u64(acc, popcount_pairs(vld1q_u64(words + w)));
    }
    std::size_t total = static_cast<std::size_t>(vaddvq_u64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        acc = vaddq_u64(acc, popcount_pairs(veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w))));
    }
    std::size_t total = static_cast<std::size_t>(vaddvq_u64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// sum = a ^ b ^ c.
uint64x2_t csa_sum(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
    return veorq_u64(veorq_u64(a, b), c);
}

/// carry = (a&b) | ((a^b)&c) — the CSA carry of the portable kernels.
uint64x2_t csa_carry(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
    return vorrq_u64(vandq_u64(a, b), vandq_u64(veorq_u64(a, b), c));
}

/// Loads the row operand: ya[w..w+2) or the fused bind ya ^ yb.
template <bool Fused>
uint64x2_t load_y(const Word* ya, const Word* yb, std::size_t w) noexcept {
    const uint64x2_t a = vld1q_u64(ya + w);
    if constexpr (!Fused) return a;
    return veorq_u64(a, vld1q_u64(yb + w));
}

template <bool Fused>
void csa_pair_impl(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
                   std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        const uint64x2_t o = vld1q_u64(ones + w);
        const uint64x2_t vx = vld1q_u64(x + w);
        const uint64x2_t y = load_y<Fused>(ya, yb, w);
        vst1q_u64(carry + w, csa_carry(o, vx, y));
        vst1q_u64(ones + w, csa_sum(o, vx, y));
    }
    for (; w < n; ++w) {
        const Word y = Fused ? ya[w] ^ yb[w] : ya[w];
        const Word u = ones[w] ^ x[w];
        carry[w] = (ones[w] & x[w]) | (u & y);
        ones[w] = u ^ y;
    }
}

void csa_pair(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
              std::size_t n) noexcept {
    yb == nullptr ? csa_pair_impl<false>(ones, carry, x, ya, yb, n)
                  : csa_pair_impl<true>(ones, carry, x, ya, yb, n);
}

template <bool Fused>
void csa_quad_impl(Word* ones, Word* twos, const Word* twos_a, Word* fours_a, const Word* x,
                   const Word* ya, const Word* yb, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        const uint64x2_t o = vld1q_u64(ones + w);
        const uint64x2_t vx = vld1q_u64(x + w);
        const uint64x2_t y = load_y<Fused>(ya, yb, w);
        const uint64x2_t twos_b = csa_carry(o, vx, y);
        vst1q_u64(ones + w, csa_sum(o, vx, y));
        const uint64x2_t t = vld1q_u64(twos + w);
        const uint64x2_t ta = vld1q_u64(twos_a + w);
        vst1q_u64(fours_a + w, csa_carry(t, ta, twos_b));
        vst1q_u64(twos + w, csa_sum(t, ta, twos_b));
    }
    for (; w < n; ++w) {
        const Word y = Fused ? ya[w] ^ yb[w] : ya[w];
        const Word u = ones[w] ^ x[w];
        const Word twos_b = (ones[w] & x[w]) | (u & y);
        ones[w] = u ^ y;
        const Word u2 = twos[w] ^ twos_a[w];
        fours_a[w] = (twos[w] & twos_a[w]) | (u2 & twos_b);
        twos[w] = u2 ^ twos_b;
    }
}

void csa_quad(Word* ones, Word* twos, const Word* twos_a, Word* fours_a, const Word* x,
              const Word* ya, const Word* yb, std::size_t n) noexcept {
    yb == nullptr ? csa_quad_impl<false>(ones, twos, twos_a, fours_a, x, ya, yb, n)
                  : csa_quad_impl<true>(ones, twos, twos_a, fours_a, x, ya, yb, n);
}

template <bool Fused>
void csa_oct_impl(Word* ones, Word* twos, const Word* twos_a, Word* fours, const Word* fours_a,
                  Word* carry_out, const Word* x, const Word* ya, const Word* yb,
                  std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        const uint64x2_t o = vld1q_u64(ones + w);
        const uint64x2_t vx = vld1q_u64(x + w);
        const uint64x2_t y = load_y<Fused>(ya, yb, w);
        const uint64x2_t twos_b = csa_carry(o, vx, y);
        vst1q_u64(ones + w, csa_sum(o, vx, y));
        const uint64x2_t t = vld1q_u64(twos + w);
        const uint64x2_t ta = vld1q_u64(twos_a + w);
        const uint64x2_t fours_b = csa_carry(t, ta, twos_b);
        vst1q_u64(twos + w, csa_sum(t, ta, twos_b));
        const uint64x2_t f = vld1q_u64(fours + w);
        const uint64x2_t fa = vld1q_u64(fours_a + w);
        vst1q_u64(carry_out + w, csa_carry(f, fa, fours_b));
        vst1q_u64(fours + w, csa_sum(f, fa, fours_b));
    }
    for (; w < n; ++w) {
        const Word y = Fused ? ya[w] ^ yb[w] : ya[w];
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

void csa_oct(Word* ones, Word* twos, const Word* twos_a, Word* fours, const Word* fours_a,
             Word* carry_out, const Word* x, const Word* ya, const Word* yb,
             std::size_t n) noexcept {
    yb == nullptr
        ? csa_oct_impl<false>(ones, twos, twos_a, fours, fours_a, carry_out, x, ya, yb, n)
        : csa_oct_impl<true>(ones, twos, twos_a, fours, fours_a, carry_out, x, ya, yb, n);
}

/// Dense plane unpack, the 4-lane analogue of the AVX2 srlv scheme: spread
/// each plane word across sixteen int32x4 vectors with vshlq_u32 negative
/// (= right) shifts, mask to the bit, weight by the plane, accumulate.
void unpack_planes(const Word* planes, std::size_t n_words, std::size_t n_planes,
                   std::int32_t* accumulator) noexcept {
    const uint32x4_t one = vdupq_n_u32(1);
    int32x4_t shifts[8];
    for (int v = 0; v < 8; ++v) {
        const std::int32_t lanes[4] = {-(v * 4 + 0), -(v * 4 + 1), -(v * 4 + 2), -(v * 4 + 3)};
        shifts[v] = vld1q_s32(lanes);
    }
    for (std::size_t w = 0; w < n_words; ++w) {
        const Word* plane = planes + w * n_planes;
        int32x4_t counts[16];
        for (int v = 0; v < 16; ++v) counts[v] = vdupq_n_s32(0);
        for (std::size_t p = 0; p < n_planes; ++p) {
            const Word word = plane[p];
            if (word == 0) continue;
            const uint32x4_t lo = vdupq_n_u32(static_cast<std::uint32_t>(word));
            const uint32x4_t hi = vdupq_n_u32(static_cast<std::uint32_t>(word >> 32));
            const int32x4_t weight_shift = vdupq_n_s32(static_cast<std::int32_t>(p));
            for (int v = 0; v < 8; ++v) {
                const uint32x4_t bits_lo = vandq_u32(vshlq_u32(lo, shifts[v]), one);
                const uint32x4_t bits_hi = vandq_u32(vshlq_u32(hi, shifts[v]), one);
                counts[v] = vaddq_s32(
                    counts[v], vreinterpretq_s32_u32(vshlq_u32(bits_lo, weight_shift)));
                counts[v + 8] = vaddq_s32(
                    counts[v + 8], vreinterpretq_s32_u32(vshlq_u32(bits_hi, weight_shift)));
            }
        }
        std::int32_t* out = accumulator + w * 64;
        for (int v = 0; v < 16; ++v) {
            vst1q_s32(out + v * 4, vaddq_s32(vld1q_s32(out + v * 4), counts[v]));
        }
    }
}

void csa_rows(Word* ones, Word* twos, Word* fours, Word* carry_out, const Word* const* rows,
              std::size_t n) noexcept {
    const Word* r0 = rows[0];
    const Word* r1 = rows[1];
    const Word* r2 = rows[2];
    const Word* r3 = rows[3];
    const Word* r4 = rows[4];
    const Word* r5 = rows[5];
    const Word* r6 = rows[6];
    const Word* r7 = rows[7];
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        // Same dataflow as the scalar csa_rows_words tree.
        uint64x2_t o = vld1q_u64(ones + w);
        const uint64x2_t x0 = vld1q_u64(r0 + w);
        const uint64x2_t x1 = vld1q_u64(r1 + w);
        const uint64x2_t twos_a = csa_carry(o, x0, x1);
        o = csa_sum(o, x0, x1);
        const uint64x2_t x2 = vld1q_u64(r2 + w);
        const uint64x2_t x3 = vld1q_u64(r3 + w);
        const uint64x2_t twos_b = csa_carry(o, x2, x3);
        o = csa_sum(o, x2, x3);
        uint64x2_t t = vld1q_u64(twos + w);
        const uint64x2_t fours_a = csa_carry(t, twos_a, twos_b);
        t = csa_sum(t, twos_a, twos_b);
        const uint64x2_t x4 = vld1q_u64(r4 + w);
        const uint64x2_t x5 = vld1q_u64(r5 + w);
        const uint64x2_t twos_c = csa_carry(o, x4, x5);
        o = csa_sum(o, x4, x5);
        const uint64x2_t x6 = vld1q_u64(r6 + w);
        const uint64x2_t x7 = vld1q_u64(r7 + w);
        const uint64x2_t twos_d = csa_carry(o, x6, x7);
        o = csa_sum(o, x6, x7);
        const uint64x2_t fours_b = csa_carry(t, twos_c, twos_d);
        t = csa_sum(t, twos_c, twos_d);
        const uint64x2_t f = vld1q_u64(fours + w);
        vst1q_u64(carry_out + w, csa_carry(f, fours_a, fours_b));
        vst1q_u64(fours + w, csa_sum(f, fours_a, fours_b));
        vst1q_u64(ones + w, o);
        vst1q_u64(twos + w, t);
    }
    detail::csa_rows_words(ones, twos, fours, carry_out, rows, w, n);
}

struct Lanes {
    using V = uint64x2_t;
    static uint64x2_t load(const Word* p) noexcept { return vld1q_u64(p); }
    static uint64x2_t zero() noexcept { return vdupq_n_u64(0); }
    static uint64x2_t bit_xor(uint64x2_t a, uint64x2_t b) noexcept { return veorq_u64(a, b); }
    static uint64x2_t bit_and(uint64x2_t a, uint64x2_t b) noexcept { return vandq_u64(a, b); }
    static uint64x2_t sum(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
        return csa_sum(a, b, c);
    }
    static uint64x2_t carry(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
        return csa_carry(a, b, c);
    }
};

/// Carry-save tree depth: 16-row groups, the x86 backends' choice (no
/// aarch64 host has timed the alternatives).
constexpr std::size_t kTreeDepth = 4;

/// The accumulate both block-major kernels share, bit_width(n_rows) ==
/// Planes: folds one quarter (two words, at word offset `quarter_offset`
/// within the block) of block b's bound rows into the count planes.  A
/// 512-bit block is four q-register quarters; one quarter's 16 count
/// planes, the tree's accumulators and temps fit the 32-register file, so
/// each block is walked once per quarter.  Always inlined, so the planes
/// never leave the registers on their way to an epilogue.
template <std::size_t Planes>
[[gnu::always_inline]] inline void accumulate_quarter(const BlockMajorRows& rows,
                                                      const int* levels, std::size_t b,
                                                      std::size_t quarter_offset,
                                                      uint64x2_t (&planes)[Planes]) noexcept {
    const csa_tree::Rows slice{
        rows.feature_blocks + b * rows.n_rows * kBlockWords + quarter_offset,
        rows.value_blocks + b * rows.n_levels * kBlockWords + quarter_offset, levels};
    csa_tree::accumulate<Lanes, kTreeDepth>(slice, rows.n_rows, planes);
}

/// The fused kernel over every block, bit_width(n_rows) == Planes, one
/// quarter at a time in ascending word order for the tie resolver.
template <std::size_t Planes>
void fused_blocks(const BlockMajorRows& rows, const int* levels, const Word* const* class_rows,
                  std::size_t n_classes, TieResolver ties, void* tie_ctx,
                  std::uint64_t* distances) noexcept {
    const Word threshold = rows.n_rows / 2;
    const bool can_tie = (rows.n_rows % 2) == 0 && ties != nullptr;
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t quarter = 0; quarter < 4; ++quarter) {
            const std::size_t w = b * kBlockWords + quarter * 2;
            if (w >= rows.n_words) break;  // an all-padding quarter
            uint64x2_t planes[Planes];
            accumulate_quarter<Planes>(rows, levels, b, quarter * 2, planes);
            // Bit-sliced count > / == threshold, MSB plane first.
            uint64x2_t gt = vdupq_n_u64(0);
            uint64x2_t eq = vdupq_n_u64(~Word{0});
            for (std::size_t p = Planes; p-- > 0;) {
                if (((threshold >> p) & 1u) != 0) {
                    eq = vandq_u64(eq, planes[p]);
                } else {
                    gt = vorrq_u64(gt, vandq_u64(eq, planes[p]));
                    eq = vbicq_u64(eq, planes[p]);
                }
            }
            // A padded high word (odd n_words, last quarter) leaves the
            // compare here, and its class word is never read.
            const bool both = w + 1 < rows.n_words;
            const uint64x2_t valid =
                vcombine_u64(vcreate_u64(~Word{0}), vcreate_u64(both ? ~Word{0} : Word{0}));
            gt = vandq_u64(gt, valid);
            eq = vandq_u64(eq, valid);
            uint64x2_t query = gt;
            if (can_tie) {
                const Word eq0 = vgetq_lane_u64(eq, 0);
                const Word eq1 = vgetq_lane_u64(eq, 1);
                if ((eq0 | eq1) != 0) {
                    const Word tie0 = eq0 == 0 ? 0 : (ties(tie_ctx, eq0, w + 0) & eq0);
                    const Word tie1 = eq1 == 0 ? 0 : (ties(tie_ctx, eq1, w + 1) & eq1);
                    query = vorrq_u64(query, vcombine_u64(vcreate_u64(tie0), vcreate_u64(tie1)));
                }
            }
            for (std::size_t c = 0; c < n_classes; ++c) {
                const Word* cls = class_rows[c] + w;
                const uint64x2_t class_words =
                    both ? vld1q_u64(cls) : vcombine_u64(vcreate_u64(cls[0]), vcreate_u64(0));
                const uint64x2_t x = veorq_u64(query, class_words);
                distances[c] += static_cast<std::uint64_t>(vaddvq_u64(popcount_pairs(x)));
            }
        }
    }
}

/// The counts kernel over every block, bit_width(n_rows) == Planes: the
/// shared accumulate per quarter, then the quarter's planes go word-major
/// through a stack copy (two words of Planes planes) into unpack_planes.
template <std::size_t Planes>
void count_blocks(const BlockMajorRows& rows, const int* levels, std::int32_t* counts) noexcept {
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t quarter = 0; quarter < 4; ++quarter) {
            const std::size_t w = b * kBlockWords + quarter * 2;
            if (w >= rows.n_words) break;  // an all-padding quarter
            uint64x2_t planes[Planes];
            accumulate_quarter<Planes>(rows, levels, b, quarter * 2, planes);
            Word word_major[2 * Planes];
            for (std::size_t p = 0; p < Planes; ++p) {
                word_major[p] = vgetq_lane_u64(planes[p], 0);
                word_major[Planes + p] = vgetq_lane_u64(planes[p], 1);
            }
            const std::size_t n_valid = w + 1 < rows.n_words ? 2 : 1;
            std::int32_t* out = counts + w * 64;
            for (std::size_t i = 0; i < n_valid * 64; i += 4) vst1q_s32(out + i, vdupq_n_s32(0));
            unpack_planes(word_major, n_valid, Planes, out);
        }
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

std::size_t plane_count(std::size_t n_rows) noexcept {
    return static_cast<std::size_t>(64 - __builtin_clzll(n_rows));
}

void fused_hamming_scores(const BlockMajorRows& rows, const int* levels,
                          const Word* const* class_rows, std::size_t n_classes, TieResolver ties,
                          void* tie_ctx, std::uint64_t* distances) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) distances[c] = 0;
    if (rows.n_rows == 0) return;
    kFusedByPlanes[plane_count(rows.n_rows) - 1](rows, levels, class_rows, n_classes, ties,
                                                 tie_ctx, distances);
}

void block_major_counts(const BlockMajorRows& rows, const int* levels,
                        std::int32_t* counts) noexcept {
    if (rows.n_rows == 0) {
        for (std::size_t i = 0; i < rows.n_words * 64; i += 4) {
            vst1q_s32(counts + i, vdupq_n_s32(0));
        }
        return;
    }
    kCountByPlanes[plane_count(rows.n_rows) - 1](rows, levels, counts);
}

constexpr KernelBackend kBackend{
    Backend::neon, "neon",   &xor_into, &popcount,      &hamming,  &csa_pair,
    &csa_quad,     &csa_oct, &unpack_planes, &csa_rows, &fused_hamming_scores,
    &block_major_counts,
};

}  // namespace

const KernelBackend* neon_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // not an AArch64 NEON target

namespace hdlock::util::kernels {

const KernelBackend* neon_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
