#pragma once

/// \file csa_tree.hpp
/// The carry-save accumulate every kernel backend's block-major kernels
/// (fused_hamming_scores, block_major_counts) share: one Harley–Seal tree,
/// templated on its depth, over whatever vector type a backend holds one
/// slice of a 512-bit block in.
///
/// A tree of depth T keeps T accumulators acc[k] of weight 2^k.  The
/// level-k subtree folds 2^(k+1) rows: two level-(k-1) subtrees each emit a
/// weight-2^k carry, and one CSA against acc[k] turns the pair into a
/// weight-2^(k+1) carry.  A full group of 2^T rows therefore costs 2^T - 1
/// CSAs and a single ripple of its carry into the count planes from plane T
/// up; rows past the last full group run through the smaller subtrees (each
/// at most once), and a final odd row ripples in from plane 0.  Every step
/// is an exact integer add, so the planes equal the column counts whatever
/// T is: the depth is a per-backend speed choice (register file size), never
/// a result change.
///
/// A backend describes its vector type with a Lanes struct:
///
///   struct Lanes {
///       using V = ...;
///       static V load(const Word* p);  // the slice's words at p
///       static V zero();
///       static V bit_xor(V a, V b);
///       static V bit_and(V a, V b);
///       static V sum(V a, V b, V c);    // a ^ b ^ c
///       static V carry(V a, V b, V c);  // majority(a, b, c)
///   };
///
/// The ISA backends declare theirs in their own TU's anonymous namespace,
/// so those instantiations have internal linkage and ISA-specific code
/// never crosses TUs.

#include <cstddef>

#include "util/kernels.hpp"

namespace hdlock::util::kernels::csa_tree {

/// The deepest tree any backend uses (16-row groups); tests sweep row
/// counts up to 3 << kMaxDepth to run every subtree tail.
inline constexpr std::size_t kMaxDepth = 4;

/// Ripples a weight-2^Start carry through planes [Start, Planes).  The
/// chain always dies before plane Planes: column counts never exceed
/// n_rows < 2^Planes.
template <class Lanes, std::size_t Start, std::size_t Planes>
[[gnu::always_inline]] inline void ripple(typename Lanes::V (&planes)[Planes],
                                          typename Lanes::V carry) noexcept {
    for (std::size_t p = Start; p < Planes; ++p) {
        const typename Lanes::V sum = Lanes::bit_xor(planes[p], carry);
        carry = Lanes::bit_and(planes[p], carry);
        planes[p] = sum;
    }
}

/// Block-major rows of one block slice: row r is feature[r * kBlockWords]
/// bound (XOR) with value[levels[r] * kBlockWords].
struct Rows {
    const Word* feature;
    const Word* value;
    const int* levels;
};

template <class Lanes>
[[gnu::always_inline]] inline typename Lanes::V bound(const Rows& rows, std::size_t r) noexcept {
    return Lanes::bit_xor(
        Lanes::load(rows.feature + r * kBlockWords),
        Lanes::load(rows.value + static_cast<std::size_t>(rows.levels[r]) * kBlockWords));
}

/// The level-K subtree: folds rows r .. r + 2^(K+1) - 1 into acc[0..K],
/// advances r past them and returns their weight-2^(K+1) carry.
template <class Lanes, std::size_t K, std::size_t Depth>
[[gnu::always_inline]] inline typename Lanes::V subtree(const Rows& rows, std::size_t& r,
                                                        typename Lanes::V (&acc)[Depth]) noexcept {
    using V = typename Lanes::V;
    V a;
    V b;
    if constexpr (K == 0) {
        a = bound<Lanes>(rows, r);
        b = bound<Lanes>(rows, r + 1);
        r += 2;
    } else {
        a = subtree<Lanes, K - 1>(rows, r, acc);
        b = subtree<Lanes, K - 1>(rows, r, acc);
    }
    const V carry = Lanes::carry(acc[K], a, b);
    acc[K] = Lanes::sum(acc[K], a, b);
    return carry;
}

/// The rows past the last full group, fewer than 2^(K+2) of them: the
/// level-K subtree when at least 2^(K+1) remain, then the smaller ones.
/// n_rows < 2^Planes, so subtrees that cannot fit are not instantiated.
template <class Lanes, std::size_t K, std::size_t Depth, std::size_t Planes>
[[gnu::always_inline]] inline void tail(const Rows& rows, std::size_t& r, std::size_t n_rows,
                                        typename Lanes::V (&acc)[Depth],
                                        typename Lanes::V (&planes)[Planes]) noexcept {
    if constexpr (K + 1 < Planes) {
        if (n_rows - r >= (std::size_t{2} << K)) {
            ripple<Lanes, K + 1>(planes, subtree<Lanes, K>(rows, r, acc));
        }
    }
    if constexpr (K > 0) tail<Lanes, K - 1>(rows, r, n_rows, acc, planes);
}

/// Ripples acc[K..Depth) into the planes.
template <class Lanes, std::size_t K, std::size_t Depth, std::size_t Planes>
[[gnu::always_inline]] inline void flush(const typename Lanes::V (&acc)[Depth],
                                         typename Lanes::V (&planes)[Planes]) noexcept {
    ripple<Lanes, K>(planes, acc[K]);
    if constexpr (K + 1 < Depth) flush<Lanes, K + 1>(acc, planes);
}

/// planes[p] = bit p of the column counts of rows 0 .. n_rows - 1, read in
/// ascending order; bit_width(n_rows) <= Planes.
template <class Lanes, std::size_t Depth, std::size_t Planes>
[[gnu::always_inline]] inline void accumulate(const Rows& rows, std::size_t n_rows,
                                              typename Lanes::V (&planes)[Planes]) noexcept {
    static_assert(Depth >= 2 && Depth <= kMaxDepth);
    using V = typename Lanes::V;
    for (std::size_t p = 0; p < Planes; ++p) planes[p] = Lanes::zero();
    V acc[Depth];
    for (std::size_t k = 0; k < Depth; ++k) acc[k] = Lanes::zero();
    constexpr std::size_t kGroup = std::size_t{1} << Depth;
    std::size_t r = 0;
    if constexpr (Depth < Planes) {
        while (n_rows - r >= kGroup) {
            ripple<Lanes, Depth>(planes, subtree<Lanes, Depth - 1>(rows, r, acc));
        }
    }
    tail<Lanes, Depth - 2>(rows, r, n_rows, acc, planes);
    if (r < n_rows) ripple<Lanes, 0>(planes, bound<Lanes>(rows, r));
    flush<Lanes, 0>(acc, planes);
}

}  // namespace hdlock::util::kernels::csa_tree
