/// \file kernels_avx2.cpp
/// The AVX2 kernel backend.  This translation unit is the only code in the
/// library compiled with -mavx2 (set per-file by CMakeLists.txt), so every
/// definition with external linkage below must be AVX2-clean to call — which
/// is just avx2_backend(), whose body never executes a vector instruction.
/// All actual kernels live behind function pointers that dispatch only after
/// runtime CPUID confirmation (kernels.cpp), and everything else is kept in
/// an anonymous namespace so no inline/template instantiation built with
/// AVX2 codegen can be merged into other translation units by the linker.
///
/// When the toolchain cannot target AVX2 (no -mavx2 support, non-x86) the
/// file degrades to `return nullptr` and dispatch skips the backend.

#include "util/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "util/csa_tree.hpp"

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_xor_si256(va, vb));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

/// Per-byte popcount via the nibble-lookup (Muła) scheme, folded to four
/// 64-bit partial sums by SAD against zero.
__m256i popcount_bytes_sad(__m256i v) noexcept {
    const __m256i lookup =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i counts =
        _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi));
    return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

std::size_t reduce_epi64(__m256i acc) noexcept {
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::size_t>(static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
                                    static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1)));
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
        acc = _mm256_add_epi64(acc, popcount_bytes_sad(v));
    }
    std::size_t total = reduce_epi64(acc);
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        acc = _mm256_add_epi64(acc, popcount_bytes_sad(_mm256_xor_si256(va, vb)));
    }
    std::size_t total = reduce_epi64(acc);
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// Loads the row operand: ya[w..w+4) or the fused bind ya ^ yb.
template <bool Fused>
__m256i load_y(const Word* ya, const Word* yb, std::size_t w) noexcept {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ya + w));
    if constexpr (!Fused) return a;
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yb + w));
    return _mm256_xor_si256(a, b);
}

template <bool Fused>
void csa_pair_impl(Word* ones, Word* carry, const Word* x, const Word* ya, const Word* yb,
                   std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ones + w));
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
        const __m256i y = load_y<Fused>(ya, yb, w);
        const __m256i u = _mm256_xor_si256(o, vx);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(carry + w),
                            _mm256_or_si256(_mm256_and_si256(o, vx), _mm256_and_si256(u, y)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones + w), _mm256_xor_si256(u, y));
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
    for (; w + 4 <= n; w += 4) {
        const __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ones + w));
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
        const __m256i y = load_y<Fused>(ya, yb, w);
        const __m256i u = _mm256_xor_si256(o, vx);
        const __m256i twos_b =
            _mm256_or_si256(_mm256_and_si256(o, vx), _mm256_and_si256(u, y));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones + w), _mm256_xor_si256(u, y));
        const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twos + w));
        const __m256i ta = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twos_a + w));
        const __m256i u2 = _mm256_xor_si256(t, ta);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(fours_a + w),
                            _mm256_or_si256(_mm256_and_si256(t, ta), _mm256_and_si256(u2, twos_b)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(twos + w), _mm256_xor_si256(u2, twos_b));
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
    for (; w + 4 <= n; w += 4) {
        const __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ones + w));
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
        const __m256i y = load_y<Fused>(ya, yb, w);
        const __m256i u = _mm256_xor_si256(o, vx);
        const __m256i twos_b =
            _mm256_or_si256(_mm256_and_si256(o, vx), _mm256_and_si256(u, y));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones + w), _mm256_xor_si256(u, y));
        const __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twos + w));
        const __m256i ta = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twos_a + w));
        const __m256i u2 = _mm256_xor_si256(t, ta);
        const __m256i fours_b =
            _mm256_or_si256(_mm256_and_si256(t, ta), _mm256_and_si256(u2, twos_b));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(twos + w), _mm256_xor_si256(u2, twos_b));
        const __m256i f = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fours + w));
        const __m256i fa = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fours_a + w));
        const __m256i u3 = _mm256_xor_si256(f, fa);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(carry_out + w),
            _mm256_or_si256(_mm256_and_si256(f, fa), _mm256_and_si256(u3, fours_b)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(fours + w), _mm256_xor_si256(u3, fours_b));
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

/// Dense plane unpack: per 64-column word, spread each plane word's bits
/// across eight 8-lane int32 vectors with a variable right shift, mask to
/// the bit, weight by the plane, and accumulate.  Unlike the portable
/// set-bit iteration this is branch-free and independent of plane density —
/// which is what makes it faster on the ~half-dense low planes the encoder
/// produces.
void unpack_planes(const Word* planes, std::size_t n_words, std::size_t n_planes,
                   std::int32_t* accumulator) noexcept {
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i lane_shift = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (std::size_t w = 0; w < n_words; ++w) {
        const Word* plane = planes + w * n_planes;
        __m256i counts[8];
        for (int v = 0; v < 8; ++v) counts[v] = _mm256_setzero_si256();
        for (std::size_t p = 0; p < n_planes; ++p) {
            const Word word = plane[p];
            if (word == 0) continue;
            const __m256i lo = _mm256_set1_epi32(static_cast<std::int32_t>(word));
            const __m256i hi = _mm256_set1_epi32(static_cast<std::int32_t>(word >> 32));
            const int weight_shift = static_cast<int>(p);
            for (int v = 0; v < 4; ++v) {
                const __m256i shift =
                    _mm256_add_epi32(lane_shift, _mm256_set1_epi32(v * 8));
                const __m256i bits_lo =
                    _mm256_and_si256(_mm256_srlv_epi32(lo, shift), one);
                const __m256i bits_hi =
                    _mm256_and_si256(_mm256_srlv_epi32(hi, shift), one);
                counts[v] = _mm256_add_epi32(counts[v], _mm256_slli_epi32(bits_lo, weight_shift));
                counts[v + 4] =
                    _mm256_add_epi32(counts[v + 4], _mm256_slli_epi32(bits_hi, weight_shift));
            }
        }
        std::int32_t* out = accumulator + w * 64;
        for (int v = 0; v < 8; ++v) {
            __m256i* slot = reinterpret_cast<__m256i*>(out + v * 8);
            _mm256_storeu_si256(slot, _mm256_add_epi32(_mm256_loadu_si256(slot), counts[v]));
        }
    }
}

/// sum = a ^ b ^ c.
__m256i csa_sum(__m256i a, __m256i b, __m256i c) noexcept {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
}

/// carry = (a&b) | ((a^b)&c) — the CSA carry of the portable kernels.
__m256i csa_carry(__m256i a, __m256i b, __m256i c) noexcept {
    return _mm256_or_si256(_mm256_and_si256(a, b),
                           _mm256_and_si256(_mm256_xor_si256(a, b), c));
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
    const auto load = [](const Word* p, std::size_t w) noexcept {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + w));
    };
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        // Same dataflow as the scalar csa_rows_words tree.
        __m256i o = load(ones, w);
        const __m256i x0 = load(r0, w);
        const __m256i x1 = load(r1, w);
        const __m256i twos_a = csa_carry(o, x0, x1);
        o = csa_sum(o, x0, x1);
        const __m256i x2 = load(r2, w);
        const __m256i x3 = load(r3, w);
        const __m256i twos_b = csa_carry(o, x2, x3);
        o = csa_sum(o, x2, x3);
        __m256i t = load(twos, w);
        const __m256i fours_a = csa_carry(t, twos_a, twos_b);
        t = csa_sum(t, twos_a, twos_b);
        const __m256i x4 = load(r4, w);
        const __m256i x5 = load(r5, w);
        const __m256i twos_c = csa_carry(o, x4, x5);
        o = csa_sum(o, x4, x5);
        const __m256i x6 = load(r6, w);
        const __m256i x7 = load(r7, w);
        const __m256i twos_d = csa_carry(o, x6, x7);
        o = csa_sum(o, x6, x7);
        const __m256i fours_b = csa_carry(t, twos_c, twos_d);
        t = csa_sum(t, twos_c, twos_d);
        const __m256i f = load(fours, w);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(carry_out + w),
                            csa_carry(f, fours_a, fours_b));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(fours + w), csa_sum(f, fours_a, fours_b));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones + w), o);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(twos + w), t);
    }
    detail::csa_rows_words(ones, twos, fours, carry_out, rows, w, n);
}

struct Lanes {
    using V = __m256i;
    static __m256i load(const Word* p) noexcept {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static __m256i zero() noexcept { return _mm256_setzero_si256(); }
    static __m256i bit_xor(__m256i a, __m256i b) noexcept { return _mm256_xor_si256(a, b); }
    static __m256i bit_and(__m256i a, __m256i b) noexcept { return _mm256_and_si256(a, b); }
    static __m256i sum(__m256i a, __m256i b, __m256i c) noexcept { return csa_sum(a, b, c); }
    static __m256i carry(__m256i a, __m256i b, __m256i c) noexcept { return csa_carry(a, b, c); }
};

/// Carry-save tree depth: 16-row groups.  One half's count planes already
/// fill most of the 16 ymm registers, so a deeper tree's accumulators only
/// spill further; 16 timed fastest of depths 3-6 (DESIGN.md §11).
constexpr std::size_t kTreeDepth = 4;

/// The accumulate both block-major kernels share, bit_width(n_rows) ==
/// Planes: folds one half (four words, at word offset `half_offset` within
/// the block) of block b's bound rows into the count planes.  A 512-bit
/// block is two ymm halves; with 16 ymm registers one half's count planes
/// and CSA state already fill the file, so each block is walked once per
/// half (the second walk reads the block from L1/L2).  Always inlined, so
/// the planes never leave the registers on their way to an epilogue.
template <std::size_t Planes>
[[gnu::always_inline]] inline void accumulate_half(const BlockMajorRows& rows, const int* levels,
                                                   std::size_t b, std::size_t half_offset,
                                                   __m256i (&planes)[Planes]) noexcept {
    const csa_tree::Rows slice{
        rows.feature_blocks + b * rows.n_rows * kBlockWords + half_offset,
        rows.value_blocks + b * rows.n_levels * kBlockWords + half_offset, levels};
    csa_tree::accumulate<Lanes, kTreeDepth>(slice, rows.n_rows, planes);
}

/// The fused kernel over every block, bit_width(n_rows) == Planes, low half
/// of each block first to keep the tie resolver's ascending word order.
template <std::size_t Planes>
void fused_blocks(const BlockMajorRows& rows, const int* levels, const Word* const* class_rows,
                  std::size_t n_classes, TieResolver ties, void* tie_ctx,
                  std::uint64_t* distances) noexcept {
    const Word threshold = rows.n_rows / 2;
    const bool can_tie = (rows.n_rows % 2) == 0 && ties != nullptr;
    const __m256i lane_index = _mm256_setr_epi64x(0, 1, 2, 3);
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t half = 0; half < 2; ++half) {
            const std::size_t w = b * kBlockWords + half * 4;
            if (w >= rows.n_words) break;  // an all-padding half
            __m256i planes[Planes];
            accumulate_half<Planes>(rows, levels, b, half * 4, planes);
            // Bit-sliced count > / == threshold, MSB plane first.
            __m256i gt = _mm256_setzero_si256();
            __m256i eq = _mm256_set1_epi64x(-1);
            for (std::size_t p = Planes; p-- > 0;) {
                if (((threshold >> p) & 1u) != 0) {
                    eq = _mm256_and_si256(eq, planes[p]);
                } else {
                    gt = _mm256_or_si256(gt, _mm256_and_si256(eq, planes[p]));
                    eq = _mm256_andnot_si256(planes[p], eq);
                }
            }
            // Padded words of the last block leave the compare here.
            const auto n_valid = static_cast<long long>(rows.n_words - w);
            const __m256i valid = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n_valid), lane_index);
            gt = _mm256_and_si256(gt, valid);
            eq = _mm256_and_si256(eq, valid);
            __m256i query = gt;
            if (can_tie && _mm256_testz_si256(eq, eq) == 0) {
                alignas(32) Word eq_words[4];
                alignas(32) Word tie_words[4];
                _mm256_store_si256(reinterpret_cast<__m256i*>(eq_words), eq);
                for (std::size_t k = 0; k < 4; ++k) {
                    tie_words[k] =
                        eq_words[k] == 0 ? 0 : (ties(tie_ctx, eq_words[k], w + k) & eq_words[k]);
                }
                query = _mm256_or_si256(
                    query, _mm256_load_si256(reinterpret_cast<const __m256i*>(tie_words)));
            }
            for (std::size_t c = 0; c < n_classes; ++c) {
                const __m256i cls = _mm256_maskload_epi64(
                    reinterpret_cast<const long long*>(class_rows[c] + w), valid);
                distances[c] += static_cast<std::uint64_t>(
                    reduce_epi64(popcount_bytes_sad(_mm256_xor_si256(query, cls))));
            }
        }
    }
}

/// The counts kernel over every block, bit_width(n_rows) == Planes: the
/// shared accumulate per half, then the half's planes go word-major through
/// a stack copy (four words of Planes planes) into unpack_planes.
template <std::size_t Planes>
void count_blocks(const BlockMajorRows& rows, const int* levels, std::int32_t* counts) noexcept {
    const std::size_t n_blocks = (rows.n_words + kBlockWords - 1) / kBlockWords;
    for (std::size_t b = 0; b < n_blocks; ++b) {
        for (std::size_t half = 0; half < 2; ++half) {
            const std::size_t w = b * kBlockWords + half * 4;
            if (w >= rows.n_words) break;  // an all-padding half
            __m256i planes[Planes];
            accumulate_half<Planes>(rows, levels, b, half * 4, planes);
            alignas(32) Word by_plane[Planes][4];
            for (std::size_t p = 0; p < Planes; ++p) {
                _mm256_store_si256(reinterpret_cast<__m256i*>(by_plane[p]), planes[p]);
            }
            Word word_major[4 * Planes];
            for (std::size_t k = 0; k < 4; ++k) {
                for (std::size_t p = 0; p < Planes; ++p) {
                    word_major[k * Planes + p] = by_plane[p][k];
                }
            }
            const std::size_t n_valid = rows.n_words - w < 4 ? rows.n_words - w : 4;
            std::int32_t* out = counts + w * 64;
            for (std::size_t i = 0; i < n_valid * 64; i += 8) {
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_setzero_si256());
            }
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
        for (std::size_t i = 0; i < rows.n_words * 64; i += 8) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + i), _mm256_setzero_si256());
        }
        return;
    }
    kCountByPlanes[plane_count(rows.n_rows) - 1](rows, levels, counts);
}

constexpr KernelBackend kBackend{
    Backend::avx2, "avx2",   &xor_into, &popcount,      &hamming,  &csa_pair,
    &csa_quad,     &csa_oct, &unpack_planes, &csa_rows, &fused_hamming_scores,
    &block_major_counts,
};

}  // namespace

const KernelBackend* avx2_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // !defined(__AVX2__)

namespace hdlock::util::kernels {

const KernelBackend* avx2_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
