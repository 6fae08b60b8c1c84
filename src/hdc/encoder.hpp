#pragma once

/// \file encoder.hpp
/// The HDC encoding module (Fig. 1 of the paper).
///
/// An Encoder maps a discretized feature vector (N levels in [0, M)) to a
/// hypervector.  The record-based scheme of Eq. 2/3 is implemented here;
/// HDLock's privileged variant (Eq. 10) lives in core/locked_encoder.hpp and
/// shares this interface, which is what lets models, oracles, attacks and
/// benchmarks treat protected and unprotected modules uniformly.
///
/// The encode kernel itself lives once in the base class, written against
/// the subclasses' materialized hypervector arrays (feature_hv_array /
/// value_hv_array): every row bundles the N bound products FeaHV_i ^
/// ValHV_{levels[i]}.  Both uncached paths stream a block-major copy of
/// those arrays (FusedLayout, built once per encoder on first use) through
/// register-resident count planes, the XOR applied on load so no per-row
/// product vector is ever materialized: encode_into unpacks the planes
/// into per-column counts (util::kernels block_major_counts), the fused
/// encode→distance path (fused_hamming_into) binarizes and scores them in
/// place.  The batch entry points (encode_batch / encode_binary_batch)
/// reuse an EncoderScratch across rows, so a served batch performs no
/// per-row heap allocation at all, and can run against a BoundProductCache
/// that precomputes all N x M bound products — each row then folds through
/// a bit-sliced ColumnCounter, as does any encoder with more than
/// util::kernels::kMaxFusedRows features.
///
/// Binarization ties: Eq. 3 assigns sign(0) randomly.  To keep an encoder a
/// *function* (the same input always yields the same output, as a hardware
/// module would), ties are broken by a PRNG seeded from the encoder's tie
/// seed mixed with a hash of the input.  Two encoders with different tie
/// seeds agree on every non-tied element and disagree on about half of the
/// ties — exactly the residual Hamming floor visible in the paper's Fig. 3.
/// Every path below (per-row, batch, cached) derives the identical per-input
/// seed, so all of them are bit-identical to each other.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "util/bitslice.hpp"
#include "util/kernels.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hdlock::hdc {

/// Opt-in precomputation of all N x M bound products FeaHV_i ^ ValHV_m
/// (the tiny product set behind Eq. 2/10).  With the cache in place a row
/// encode performs no XORs at all — one ColumnCounter::add per feature.
/// The trade-off is memory: N * M * D bits (bytes_required()), which is why
/// construction goes through Encoder::make_product_cache with an explicit
/// byte cap.
class BoundProductCache {
public:
    /// Table footprint in bytes for a given encoder shape.
    static std::size_t bytes_required(std::size_t n_features, std::size_t n_levels,
                                      std::size_t dim);

    /// Materializes the full table. Spans must be non-empty and uniform in
    /// dimension; prefer Encoder::make_product_cache, which also enforces a
    /// memory cap.
    BoundProductCache(std::span<const BinaryHV> feature_hvs, std::span<const BinaryHV> value_hvs);

    std::size_t n_features() const noexcept { return n_features_; }
    std::size_t n_levels() const noexcept { return n_levels_; }
    std::size_t dim() const noexcept { return dim_; }
    std::size_t bytes() const noexcept { return words_.size() * sizeof(util::bits::Word); }

    bool matches(std::size_t n_features, std::size_t n_levels, std::size_t dim) const noexcept {
        return n_features == n_features_ && n_levels == n_levels_ && dim == dim_;
    }

    /// The packed product FeaHV_{feature} ^ ValHV_{level}.
    std::span<const util::bits::Word> product(std::size_t feature, std::size_t level) const {
        return std::span<const util::bits::Word>(words_)
            .subspan((feature * n_levels_ + level) * words_per_product_, words_per_product_);
    }

private:
    std::size_t n_features_ = 0;
    std::size_t n_levels_ = 0;
    std::size_t dim_ = 0;
    std::size_t words_per_product_ = 0;
    std::vector<util::bits::Word> words_;  // (feature, level)-major product rows
};

/// The block-major serving layout of an encoder's hypervectors (see
/// util::kernels::BlockMajorRows): the N feature HVs and the M value HVs cut
/// into 512-bit blocks and stored [block][row][8 words], 64-byte aligned,
/// the last block zero-padded.  The fused kernel streams one contiguous
/// block of N rows per step instead of gathering a word group from N
/// hypervectors spaced a whole HV apart.  About (N + M) * D / 8 bytes.
class FusedLayout {
public:
    /// Spans must be non-empty (values) and uniform in dimension.
    FusedLayout(std::span<const BinaryHV> feature_hvs, std::span<const BinaryHV> value_hvs);

    const util::kernels::BlockMajorRows& rows() const noexcept { return rows_; }

private:
    // Over-allocated by one block for alignment; left uninitialized because
    // the pack writes every word rows_ covers, padding included.  rows_
    // points into it, which stays valid across a move (copies are deleted
    // by the unique_ptr).
    std::unique_ptr<util::bits::Word[]> storage_;
    util::kernels::BlockMajorRows rows_;
};

/// Reusable per-worker state for the allocation-free encode paths: the
/// per-column counts of the block-major kernel, the bit-sliced counter of
/// the cached and oversized paths, the non-binary sums buffer feeding
/// binarization, and a levels buffer callers may use for discretization.
/// One scratch per thread; a scratch adapts automatically when used with
/// encoders of different shapes.
class EncoderScratch {
public:
    EncoderScratch() = default;

    /// Caller-side discretization buffer, sized to n entries.
    std::vector<int>& levels(std::size_t n) {
        levels_.resize(n);
        return levels_;
    }

    /// Per-class Hamming distance buffer for the fused encode→distance path
    /// (Encoder::fused_hamming_into), sized to n entries.
    std::vector<std::uint64_t>& distances(std::size_t n) {
        distances_.resize(n);
        return distances_;
    }

private:
    friend class Encoder;

    /// The counter, reset and re-shaped to `dim` columns with `n_planes`
    /// carry-save planes (sized so a whole row's features fit flush-free).
    util::ColumnCounter& counter(std::size_t dim, std::size_t n_planes);

    std::optional<util::ColumnCounter> counter_;
    std::vector<std::int32_t> counts_;  // block_major_counts output, 64 per word
    IntHV sums_;            // non-binary encoding en route to sign()
    std::vector<int> levels_;
    std::vector<const util::bits::Word*> products_;    // cached encode: product rows
    std::vector<const util::bits::Word*> class_rows_;  // fused path: class HV word arrays
    std::vector<std::uint64_t> distances_;
};

class Encoder {
public:
    explicit Encoder(std::uint64_t tie_seed) : tie_seed_(tie_seed) {}
    virtual ~Encoder() = default;

    Encoder(const Encoder&) = default;
    Encoder& operator=(const Encoder&) = default;

    virtual std::size_t dim() const = 0;
    virtual std::size_t n_features() const = 0;
    virtual std::size_t n_levels() const = 0;

    /// Non-binary encoding H_nb (Eq. 2): the bundling sum of ValHV_{f_i} x
    /// FeaHV_i over all features.  `levels[i]` must lie in [0, n_levels).
    virtual IntHV encode(std::span<const int> levels) const;

    /// Binary encoding H_b = sign(H_nb) (Eq. 3) with deterministic-per-input
    /// randomized tie-breaking (see file comment).
    BinaryHV encode_binary(std::span<const int> levels) const;

    /// Allocation-free single-row encode: writes H_nb into `out` (re-shaped
    /// to dim()), reusing the scratch's buffers.  Without a cache the row
    /// streams fused_layout() (built on the first call) through the
    /// backend's block_major_counts kernel; with a cache (built by
    /// make_product_cache), or past util::kernels::kMaxFusedRows features,
    /// it folds through the scratch's ColumnCounter.  Bit-identical to
    /// encode() on every input.
    void encode_into(std::span<const int> levels, EncoderScratch& scratch, IntHV& out,
                     const BoundProductCache* cache = nullptr) const;

    /// Allocation-free binary encode; bit-identical to encode_binary().
    void encode_binary_into(std::span<const int> levels, EncoderScratch& scratch, BinaryHV& out,
                            const BoundProductCache* cache = nullptr) const;

    /// Fused encode→distance: writes Hamming(sign(H_nb), class_hvs[c]) into
    /// distances[c] without ever materializing the query hypervector.  The
    /// bound products stream once through register-resident count planes
    /// inside the kernel backend, read from this encoder's block-major
    /// FusedLayout (built on the first call); binarization and the per-class
    /// XOR+popcount happen per 512-bit block while the planes are still in
    /// registers (no plane unpack, no sign pass, no query round-trip through
    /// memory).  Tie-breaking draws the identical PRNG stream as
    /// encode_binary_into, so on every backend
    ///   distances[c] == class_hvs[c].hamming(encode_binary(levels))
    /// exactly.  Requires n_features() <= util::kernels::kMaxFusedRows and
    /// class_hvs.size() == distances.size().
    void fused_hamming_into(std::span<const int> levels, EncoderScratch& scratch,
                            std::span<const BinaryHV> class_hvs,
                            std::span<std::uint64_t> distances) const;

    /// The block-major layout the fused path streams.  Built on first use,
    /// once per encoder object, thread-safely (concurrent first callers
    /// wait for one build); every session and shard sharing this encoder
    /// reuses it, and it is freed with the encoder.  Copies of an encoder
    /// build their own.
    const FusedLayout& fused_layout() const;

    /// True once fused_layout() has been built for this object.
    bool fused_layout_built() const noexcept { return fused_layout_.get() != nullptr; }

    /// Batch encode: one IntHV per row of `levels_matrix` (rows x
    /// n_features()), scratch reused across rows.  `out` is resized.
    void encode_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                      std::vector<IntHV>& out, const BoundProductCache* cache = nullptr) const;

    /// Batch binary encode with the same per-row tie-breaking as
    /// encode_binary (row hashed independently).
    void encode_binary_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                             std::vector<BinaryHV>& out,
                             const BoundProductCache* cache = nullptr) const;

    /// Builds the N x M bound-product table when it fits in `max_bytes`;
    /// returns nullptr when it would not (callers fall back to the fused
    /// XOR path).
    std::shared_ptr<const BoundProductCache> make_product_cache(std::size_t max_bytes) const;

    std::uint64_t tie_seed() const noexcept { return tie_seed_; }

    /// The generator every binary path breaks sign(0) ties of `levels` with:
    /// seeded hash_mix(tie_seed(), fnv1a_of(levels)), so sign_into of
    /// encode_into's sums with it equals encode_binary_into.  `levels` must
    /// lie in [0, n_levels()): up to 256 levels the hash runs at a
    /// four-byte stride (util::fnv1a_of_small), equal on those inputs.
    util::Xoshiro256ss tie_rng(std::span<const int> levels) const noexcept;

protected:
    /// Validates a level vector against this encoder's shape.
    void check_levels(std::span<const int> levels) const;

    /// The materialized hypervector arrays the shared kernel runs against.
    /// RecordEncoder serves them from its ItemMemory, LockedEncoder and
    /// api::SealedEncoder from their materialized Eq. 9 state.
    virtual std::span<const BinaryHV> feature_hv_array() const = 0;
    virtual std::span<const BinaryHV> value_hv_array() const = 0;

private:
    std::uint64_t tie_seed_;
    mutable util::OnceCell<FusedLayout> fused_layout_;
};

/// The standard record-based encoder of Sec. 2 (Eq. 2/3): one orthogonal
/// FeaHV per feature index and M correlated ValHVs.
class RecordEncoder final : public Encoder {
public:
    RecordEncoder(std::shared_ptr<const ItemMemory> memory, std::uint64_t tie_seed);

    std::size_t dim() const override { return memory_->dim(); }
    std::size_t n_features() const override { return memory_->n_features(); }
    std::size_t n_levels() const override { return memory_->n_levels(); }

    /// Naive per-element reference implementation of Eq. 2, kept for the
    /// bit-slicing equivalence tests and as executable documentation.
    IntHV encode_reference(std::span<const int> levels) const;

    const ItemMemory& memory() const noexcept { return *memory_; }
    std::shared_ptr<const ItemMemory> memory_ptr() const noexcept { return memory_; }

protected:
    std::span<const BinaryHV> feature_hv_array() const override { return memory_->feature_hvs(); }
    std::span<const BinaryHV> value_hv_array() const override { return memory_->value_hvs(); }

private:
    std::shared_ptr<const ItemMemory> memory_;
};

}  // namespace hdlock::hdc
