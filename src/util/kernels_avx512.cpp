/// \file kernels_avx512.cpp
/// The AVX-512 kernel backend: 512-bit words, vpternlogq for the carry-save
/// sum (A^B^C, imm 0x96) and majority (carry, imm 0xE8) in one instruction
/// each, and the native vpopcntq for population counts.
///
/// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq (per-file, see
/// CMakeLists.txt); selected at runtime only when CPUID reports all three
/// features.  Same ODR discipline as kernels_avx2.cpp: everything except the
/// vector-free avx512_backend() accessor has internal linkage.

#include "util/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include "util/csa_tree.hpp"

// GCC's avx512fintrin.h implements unmasked intrinsics (srlv & friends) by
// passing _mm512_undefined_epi32() as the masked-out source operand, which
// trips -Wuninitialized/-Wmaybe-uninitialized under -Wall (GCC PR105593).
// The warning is about the header's deliberate "undefined" value, not code
// in this file; suppress it file-wide so the -Werror CI gate stays usable.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i va = _mm512_loadu_si512(a + w);
        const __m512i vb = _mm512_loadu_si512(b + w);
        _mm512_storeu_si512(dst + w, _mm512_xor_si512(va, vb));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(words + w)));
    }
    std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }
    std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// sum = a ^ b ^ c.
__m512i csa_sum(__m512i a, __m512i b, __m512i c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

/// carry = majority(a, b, c) = (a&b) | (a&c) | (b&c) — exactly the CSA
/// carry (s&x) | ((s^x)&y) of the portable kernels.
__m512i csa_carry(__m512i a, __m512i b, __m512i c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0xE8);
}

template <bool Fused>
__m512i load_y(const Word* ya, const Word* yb, std::size_t w) noexcept {
    const __m512i a = _mm512_loadu_si512(ya + w);
    if constexpr (!Fused) return a;
    return _mm512_xor_si512(a, _mm512_loadu_si512(yb + w));
}

template <bool Fused>
void csa_pair_impl(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
                   std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i o = _mm512_loadu_si512(ones + w);
        const __m512i vx = _mm512_loadu_si512(x + w);
        const __m512i y = load_y<Fused>(ya, yb, w);
        _mm512_storeu_si512(carry + w, csa_carry(o, vx, y));
        _mm512_storeu_si512(ones + w, csa_sum(o, vx, y));
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
    for (; w + 8 <= n; w += 8) {
        const __m512i o = _mm512_loadu_si512(ones + w);
        const __m512i vx = _mm512_loadu_si512(x + w);
        const __m512i y = load_y<Fused>(ya, yb, w);
        const __m512i twos_b = csa_carry(o, vx, y);
        _mm512_storeu_si512(ones + w, csa_sum(o, vx, y));
        const __m512i t = _mm512_loadu_si512(twos + w);
        const __m512i ta = _mm512_loadu_si512(twos_a + w);
        _mm512_storeu_si512(fours_a + w, csa_carry(t, ta, twos_b));
        _mm512_storeu_si512(twos + w, csa_sum(t, ta, twos_b));
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
    for (; w + 8 <= n; w += 8) {
        const __m512i o = _mm512_loadu_si512(ones + w);
        const __m512i vx = _mm512_loadu_si512(x + w);
        const __m512i y = load_y<Fused>(ya, yb, w);
        const __m512i twos_b = csa_carry(o, vx, y);
        _mm512_storeu_si512(ones + w, csa_sum(o, vx, y));
        const __m512i t = _mm512_loadu_si512(twos + w);
        const __m512i ta = _mm512_loadu_si512(twos_a + w);
        const __m512i fours_b = csa_carry(t, ta, twos_b);
        _mm512_storeu_si512(twos + w, csa_sum(t, ta, twos_b));
        const __m512i f = _mm512_loadu_si512(fours + w);
        const __m512i fa = _mm512_loadu_si512(fours_a + w);
        _mm512_storeu_si512(carry_out + w, csa_carry(f, fa, fours_b));
        _mm512_storeu_si512(fours + w, csa_sum(f, fa, fours_b));
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

/// 16-lane variant of the AVX2 dense unpack: four int32 vectors cover the
/// 64 columns of a word.
void unpack_planes(const Word* planes, std::size_t n_words, std::size_t n_planes,
                   std::int32_t* accumulator) noexcept {
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i lane_shift =
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m512i lane_shift_hi = _mm512_add_epi32(lane_shift, _mm512_set1_epi32(16));
    for (std::size_t w = 0; w < n_words; ++w) {
        const Word* plane = planes + w * n_planes;
        __m512i counts[4];
        for (int v = 0; v < 4; ++v) counts[v] = _mm512_setzero_si512();
        for (std::size_t p = 0; p < n_planes; ++p) {
            const Word word = plane[p];
            if (word == 0) continue;
            const __m512i lo = _mm512_set1_epi32(static_cast<std::int32_t>(word));
            const __m512i hi = _mm512_set1_epi32(static_cast<std::int32_t>(word >> 32));
            const unsigned weight_shift = static_cast<unsigned>(p);
            counts[0] = _mm512_add_epi32(
                counts[0], _mm512_slli_epi32(
                               _mm512_and_si512(_mm512_srlv_epi32(lo, lane_shift), one),
                               weight_shift));
            counts[1] = _mm512_add_epi32(
                counts[1], _mm512_slli_epi32(
                               _mm512_and_si512(_mm512_srlv_epi32(lo, lane_shift_hi), one),
                               weight_shift));
            counts[2] = _mm512_add_epi32(
                counts[2], _mm512_slli_epi32(
                               _mm512_and_si512(_mm512_srlv_epi32(hi, lane_shift), one),
                               weight_shift));
            counts[3] = _mm512_add_epi32(
                counts[3], _mm512_slli_epi32(
                               _mm512_and_si512(_mm512_srlv_epi32(hi, lane_shift_hi), one),
                               weight_shift));
        }
        std::int32_t* out = accumulator + w * 64;
        for (int v = 0; v < 4; ++v) {
            std::int32_t* slot = out + v * 16;
            _mm512_storeu_si512(slot,
                                _mm512_add_epi32(_mm512_loadu_si512(slot), counts[v]));
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
    for (; w + 8 <= n; w += 8) {
        // Same dataflow as the scalar csa_rows_words tree; every CSA is one
        // vpternlogq pair.
        __m512i o = _mm512_loadu_si512(ones + w);
        const __m512i x0 = _mm512_loadu_si512(r0 + w);
        const __m512i x1 = _mm512_loadu_si512(r1 + w);
        const __m512i twos_a = csa_carry(o, x0, x1);
        o = csa_sum(o, x0, x1);
        const __m512i x2 = _mm512_loadu_si512(r2 + w);
        const __m512i x3 = _mm512_loadu_si512(r3 + w);
        const __m512i twos_b = csa_carry(o, x2, x3);
        o = csa_sum(o, x2, x3);
        __m512i t = _mm512_loadu_si512(twos + w);
        const __m512i fours_a = csa_carry(t, twos_a, twos_b);
        t = csa_sum(t, twos_a, twos_b);
        const __m512i x4 = _mm512_loadu_si512(r4 + w);
        const __m512i x5 = _mm512_loadu_si512(r5 + w);
        const __m512i twos_c = csa_carry(o, x4, x5);
        o = csa_sum(o, x4, x5);
        const __m512i x6 = _mm512_loadu_si512(r6 + w);
        const __m512i x7 = _mm512_loadu_si512(r7 + w);
        const __m512i twos_d = csa_carry(o, x6, x7);
        o = csa_sum(o, x6, x7);
        const __m512i fours_b = csa_carry(t, twos_c, twos_d);
        t = csa_sum(t, twos_c, twos_d);
        const __m512i f = _mm512_loadu_si512(fours + w);
        _mm512_storeu_si512(carry_out + w, csa_carry(f, fours_a, fours_b));
        _mm512_storeu_si512(fours + w, csa_sum(f, fours_a, fours_b));
        _mm512_storeu_si512(ones + w, o);
        _mm512_storeu_si512(twos + w, t);
    }
    detail::csa_rows_words(ones, twos, fours, carry_out, rows, w, n);
}

struct Lanes {
    using V = __m512i;
    static __m512i load(const Word* p) noexcept { return _mm512_loadu_si512(p); }
    static __m512i zero() noexcept { return _mm512_setzero_si512(); }
    static __m512i bit_xor(__m512i a, __m512i b) noexcept { return _mm512_xor_si512(a, b); }
    static __m512i bit_and(__m512i a, __m512i b) noexcept { return _mm512_and_si512(a, b); }
    static __m512i sum(__m512i a, __m512i b, __m512i c) noexcept { return csa_sum(a, b, c); }
    static __m512i carry(__m512i a, __m512i b, __m512i c) noexcept { return csa_carry(a, b, c); }
};

/// Carry-save tree depth: 16-row groups, about 3.6 vector ops per row at
/// N = 784 (one bind XOR, a vpternlogq pair per CSA, the ripple amortized
/// over 16 rows).  Deeper trees save a few more ops per row but unroll into
/// twice the code or more; at N = 784 they tied 16-row groups, at N = 75
/// they were slower by up to a quarter (DESIGN.md §11).
constexpr std::size_t kTreeDepth = 4;

/// The accumulate both block-major kernels share, bit_width(n_rows) ==
/// Planes: folds block b's bound rows into the count planes (planes[p] is
/// bit p of the block's 512 column counts).  One block is one zmm per row:
/// with Planes a compile-time constant the count planes, the tree's
/// accumulators and its temps stay in the register file, and the rows
/// stream in layout order.  Always inlined, so the planes never leave the
/// registers on their way to a kernel's epilogue.
template <std::size_t Planes>
[[gnu::always_inline]] inline void accumulate_block(const BlockMajorRows& rows, const int* levels,
                                                    std::size_t b,
                                                    __m512i (&planes)[Planes]) noexcept {
    const csa_tree::Rows slice{rows.feature_blocks + b * rows.n_rows * kBlockWords,
                               rows.value_blocks + b * rows.n_levels * kBlockWords, levels};
    csa_tree::accumulate<Lanes, kTreeDepth>(slice, rows.n_rows, planes);
}

/// Real words of block b (the last block may be partial).
std::size_t valid_words(const BlockMajorRows& rows, std::size_t b) noexcept {
    const std::size_t w = b * kBlockWords;
    return rows.n_words - w < kBlockWords ? rows.n_words - w : kBlockWords;
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
        __m512i planes[Planes];
        accumulate_block<Planes>(rows, levels, b, planes);
        // Bit-sliced count > / == threshold, MSB plane first.
        __m512i gt = _mm512_setzero_si512();
        __m512i eq = _mm512_set1_epi64(-1);
        for (std::size_t p = Planes; p-- > 0;) {
            if (((threshold >> p) & 1u) != 0) {
                eq = _mm512_and_si512(eq, planes[p]);
            } else {
                gt = _mm512_or_si512(gt, _mm512_and_si512(eq, planes[p]));
                eq = _mm512_andnot_si512(planes[p], eq);
            }
        }
        // Padded words of the last block leave the compare here.
        const std::size_t w = b * kBlockWords;
        const auto valid = static_cast<__mmask8>((1u << valid_words(rows, b)) - 1u);
        gt = _mm512_maskz_mov_epi64(valid, gt);
        eq = _mm512_maskz_mov_epi64(valid, eq);
        __m512i query = gt;
        const __mmask8 tied = _mm512_test_epi64_mask(eq, eq);
        if (can_tie && tied != 0) {
            alignas(64) Word eq_words[kBlockWords];
            alignas(64) Word tie_words[kBlockWords] = {};
            _mm512_store_si512(eq_words, eq);
            for (std::size_t k = 0; k < kBlockWords; ++k) {
                if (((tied >> k) & 1u) != 0) {
                    tie_words[k] = ties(tie_ctx, eq_words[k], w + k) & eq_words[k];
                }
            }
            query = _mm512_or_si512(query, _mm512_load_si512(tie_words));
        }
        for (std::size_t c = 0; c < n_classes; ++c) {
            const __m512i x =
                _mm512_xor_si512(query, _mm512_maskz_loadu_epi64(valid, class_rows[c] + w));
            distances[c] +=
                static_cast<std::uint64_t>(_mm512_reduce_add_epi64(_mm512_popcnt_epi64(x)));
        }
    }
}

/// The counts kernel over every block, bit_width(n_rows) == Planes: the
/// shared accumulate, then the planes go word-major through a stack copy
/// (eight words of Planes planes) into unpack_planes.
template <std::size_t Planes>
void count_blocks(const BlockMajorRows& rows, const int* levels, std::int32_t* counts) noexcept {
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        __m512i planes[Planes];
        accumulate_block<Planes>(rows, levels, b, planes);
        alignas(64) Word by_plane[Planes][kBlockWords];
        for (std::size_t p = 0; p < Planes; ++p) _mm512_store_si512(by_plane[p], planes[p]);
        Word word_major[kBlockWords * Planes];
        for (std::size_t k = 0; k < kBlockWords; ++k) {
            for (std::size_t p = 0; p < Planes; ++p) word_major[k * Planes + p] = by_plane[p][k];
        }
        const std::size_t n_valid = valid_words(rows, b);
        std::int32_t* out = counts + b * kBlockWords * 64;
        for (std::size_t i = 0; i < n_valid * 64; i += 16) {
            _mm512_storeu_si512(out + i, _mm512_setzero_si512());
        }
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
        for (std::size_t i = 0; i < rows.n_words * 64; i += 16) {
            _mm512_storeu_si512(counts + i, _mm512_setzero_si512());
        }
        return;
    }
    kCountByPlanes[plane_count(rows.n_rows) - 1](rows, levels, counts);
}

constexpr KernelBackend kBackend{
    Backend::avx512, "avx512",  &xor_into, &popcount,      &hamming,   &csa_pair,
    &csa_quad,       &csa_oct,  &unpack_planes, &csa_rows, &fused_hamming_scores,
    &block_major_counts,
};

}  // namespace

const KernelBackend* avx512_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // missing AVX-512 feature set

namespace hdlock::util::kernels {

const KernelBackend* avx512_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
