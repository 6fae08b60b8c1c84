#include "hdc/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace hdlock::hdc {

namespace bits = util::bits;

namespace {

// TieResolver for the fused kernel: draws the same Xoshiro stream that
// IntHV::sign_into draws for zero sums — one next_sign() per tied column, in
// ascending column order (the kernel guarantees ascending word order and at
// most one call per word; set bits walk LSB-first here).  A set bit in the
// result means the tie resolves to -1 (bit 1 == value -1).
util::bits::Word resolve_fused_ties(void* ctx, util::bits::Word eq_mask,
                                    std::size_t /*word_index*/) noexcept {
    auto& rng = *static_cast<util::Xoshiro256ss*>(ctx);
    util::bits::Word negatives = 0;
    while (eq_mask != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(eq_mask));
        if (rng.next_sign() < 0) negatives |= util::bits::Word{1} << bit;
        eq_mask &= eq_mask - 1;
    }
    return negatives;
}

}  // namespace

// ---------------------------------------------------------------------------
// BoundProductCache
// ---------------------------------------------------------------------------

std::size_t BoundProductCache::bytes_required(std::size_t n_features, std::size_t n_levels,
                                              std::size_t dim) {
    return n_features * n_levels * bits::word_count(dim) * sizeof(bits::Word);
}

BoundProductCache::BoundProductCache(std::span<const BinaryHV> feature_hvs,
                                     std::span<const BinaryHV> value_hvs) {
    HDLOCK_EXPECTS(!feature_hvs.empty(), "BoundProductCache: no feature hypervectors");
    HDLOCK_EXPECTS(!value_hvs.empty(), "BoundProductCache: no value hypervectors");
    n_features_ = feature_hvs.size();
    n_levels_ = value_hvs.size();
    dim_ = feature_hvs.front().dim();
    words_per_product_ = bits::word_count(dim_);
    for (const auto& hv : feature_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim_, "BoundProductCache: feature HV dimension mismatch");
    }
    for (const auto& hv : value_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim_, "BoundProductCache: value HV dimension mismatch");
    }

    words_.resize(n_features_ * n_levels_ * words_per_product_);
    std::span<bits::Word> all(words_);
    for (std::size_t i = 0; i < n_features_; ++i) {
        for (std::size_t m = 0; m < n_levels_; ++m) {
            bits::xor_into(all.subspan((i * n_levels_ + m) * words_per_product_,
                                       words_per_product_),
                           feature_hvs[i].words(), value_hvs[m].words());
        }
    }
}

// ---------------------------------------------------------------------------
// FusedLayout
// ---------------------------------------------------------------------------

FusedLayout::FusedLayout(std::span<const BinaryHV> feature_hvs,
                         std::span<const BinaryHV> value_hvs) {
    HDLOCK_EXPECTS(!value_hvs.empty(), "FusedLayout: no value hypervectors");
    const std::size_t dim = value_hvs.front().dim();
    const std::size_t n_words = bits::word_count(dim);
    std::vector<const bits::Word*> rows;
    rows.reserve(std::max(feature_hvs.size(), value_hvs.size()));
    for (const auto& hv : feature_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "FusedLayout: feature HV dimension mismatch");
        rows.push_back(hv.words().data());
    }
    for (const auto& hv : value_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "FusedLayout: value HV dimension mismatch");
    }
    namespace kernels = util::kernels;
    const std::size_t feature_words = kernels::block_major_words(feature_hvs.size(), n_words);
    const std::size_t value_words = kernels::block_major_words(value_hvs.size(), n_words);
    // One spare block lets the start move up to the next 64-byte boundary;
    // feature_words is a whole number of blocks, so the value part is
    // aligned too.
    storage_ = std::make_unique_for_overwrite<bits::Word[]>(feature_words + value_words +
                                                            kernels::kBlockWords);
    const auto address = reinterpret_cast<std::uintptr_t>(storage_.get());
    const std::size_t skip = (64 - address % 64) % 64 / sizeof(bits::Word);
    bits::Word* features = storage_.get() + skip;
    bits::Word* values = features + feature_words;
    kernels::pack_block_major(rows.data(), feature_hvs.size(), n_words, features);
    rows.clear();
    for (const auto& hv : value_hvs) rows.push_back(hv.words().data());
    kernels::pack_block_major(rows.data(), value_hvs.size(), n_words, values);
    rows_.feature_blocks = features;
    rows_.value_blocks = values;
    rows_.n_rows = feature_hvs.size();
    rows_.n_levels = value_hvs.size();
    rows_.n_words = n_words;
}

// ---------------------------------------------------------------------------
// EncoderScratch
// ---------------------------------------------------------------------------

util::ColumnCounter& EncoderScratch::counter(std::size_t dim, std::size_t n_planes) {
    if (!counter_.has_value() || counter_->n_bits() != dim || counter_->n_planes() != n_planes) {
        counter_.emplace(dim, n_planes);
    } else {
        counter_->reset();
    }
    return *counter_;
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

void Encoder::check_levels(std::span<const int> levels) const {
    HDLOCK_EXPECTS(levels.size() == n_features(), "Encoder: level vector has wrong length");
    const auto top = static_cast<int>(n_levels());
    for (const int level : levels) {
        HDLOCK_EXPECTS(level >= 0 && level < top, "Encoder: level out of range");
    }
}

IntHV Encoder::encode(std::span<const int> levels) const {
    EncoderScratch scratch;
    IntHV out;
    encode_into(levels, scratch, out);
    return out;
}

BinaryHV Encoder::encode_binary(std::span<const int> levels) const {
    EncoderScratch scratch;
    BinaryHV out;
    encode_binary_into(levels, scratch, out);
    return out;
}

void Encoder::encode_into(std::span<const int> levels, EncoderScratch& scratch, IntHV& out,
                          const BoundProductCache* cache) const {
    check_levels(levels);
    const std::size_t d = dim();
    if (cache == nullptr && levels.size() <= util::kernels::kMaxFusedRows) {
        // The block-major layout through register-resident count planes,
        // unpacked once per 512-bit block (see block_major_counts).
        const util::kernels::BlockMajorRows& rows = fused_layout().rows();
        scratch.counts_.resize(rows.n_words * bits::kWordBits);
        util::kernels::active().block_major_counts(rows, levels.data(), scratch.counts_.data());
        out.resize(d);
        const auto n = static_cast<std::int32_t>(levels.size());
        const std::span<std::int32_t> sums = out.values();
        for (std::size_t j = 0; j < d; ++j) sums[j] = n - 2 * scratch.counts_[j];
        return;
    }
    // Plane count sized to the feature count: the whole row accumulates
    // without an intermediate flush, and the result is read straight out of
    // the planes (see ColumnCounter::bipolar_sums_into).
    util::ColumnCounter& counter =
        scratch.counter(d, util::ColumnCounter::planes_for_rows(levels.size()));
    if (cache != nullptr) {
        HDLOCK_EXPECTS(cache->matches(n_features(), n_levels(), d),
                       "Encoder::encode_into: product cache built for a different encoder shape");
        // Batch the precomputed products through add_rows: eight-row chunks
        // compress in one csa_rows kernel call instead of eight phase steps.
        scratch.products_.resize(levels.size());
        for (std::size_t i = 0; i < levels.size(); ++i) {
            scratch.products_[i] = cache->product(i, static_cast<std::size_t>(levels[i])).data();
        }
        counter.add_rows(scratch.products_);
    } else {
        const std::span<const BinaryHV> feature_hvs = feature_hv_array();
        const std::span<const BinaryHV> value_hvs = value_hv_array();
        for (std::size_t i = 0; i < levels.size(); ++i) {
            counter.add_xor(feature_hvs[i].words(),
                            value_hvs[static_cast<std::size_t>(levels[i])].words());
        }
    }
    out.resize(d);
    counter.bipolar_sums_into(out.values());
}

void Encoder::encode_binary_into(std::span<const int> levels, EncoderScratch& scratch,
                                 BinaryHV& out, const BoundProductCache* cache) const {
    encode_into(levels, scratch, scratch.sums_, cache);
    util::Xoshiro256ss rng = tie_rng(levels);
    scratch.sums_.sign_into(rng, out);
}

util::Xoshiro256ss Encoder::tie_rng(std::span<const int> levels) const noexcept {
    // Every level lies in [0, n_levels()), so up to 256 levels the
    // four-byte-stride hash equals the bytewise one.
    const std::uint64_t hash =
        n_levels() <= 256 ? util::fnv1a_of_small(levels) : util::fnv1a_of(levels);
    return util::Xoshiro256ss(util::hash_mix(tie_seed_, hash));
}

void Encoder::fused_hamming_into(std::span<const int> levels, EncoderScratch& scratch,
                                 std::span<const BinaryHV> class_hvs,
                                 std::span<std::uint64_t> distances) const {
    check_levels(levels);
    HDLOCK_EXPECTS(class_hvs.size() == distances.size(),
                   "Encoder::fused_hamming_into: class/distance count mismatch");
    HDLOCK_EXPECTS(levels.size() <= util::kernels::kMaxFusedRows,
                   "Encoder::fused_hamming_into: feature count exceeds the fused-path cap");
    const std::size_t d = dim();
    scratch.class_rows_.resize(class_hvs.size());
    for (std::size_t c = 0; c < class_hvs.size(); ++c) {
        HDLOCK_EXPECTS(class_hvs[c].dim() == d,
                       "Encoder::fused_hamming_into: class HV dimension mismatch");
        scratch.class_rows_[c] = class_hvs[c].words().data();
    }

    const util::kernels::BlockMajorRows& rows = fused_layout().rows();
    // An odd number of +-1 terms never sums to zero: no ties, so no seed.
    const bool can_tie = levels.size() % 2 == 0;
    util::Xoshiro256ss rng = can_tie ? tie_rng(levels) : util::Xoshiro256ss(0);
    util::kernels::active().fused_hamming_scores(
        rows, levels.data(), scratch.class_rows_.data(), class_hvs.size(),
        can_tie ? &resolve_fused_ties : nullptr, &rng, distances.data());
}

const FusedLayout& Encoder::fused_layout() const {
    return fused_layout_.get_or_build(
        [this] { return FusedLayout(feature_hv_array(), value_hv_array()); });
}

void Encoder::encode_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                           std::vector<IntHV>& out, const BoundProductCache* cache) const {
    HDLOCK_EXPECTS(levels_matrix.rows() == 0 || levels_matrix.cols() == n_features(),
                   "Encoder::encode_batch: level matrix has wrong feature count");
    out.resize(levels_matrix.rows());
    for (std::size_t r = 0; r < levels_matrix.rows(); ++r) {
        encode_into(levels_matrix.row(r), scratch, out[r], cache);
    }
}

void Encoder::encode_binary_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                                  std::vector<BinaryHV>& out,
                                  const BoundProductCache* cache) const {
    HDLOCK_EXPECTS(levels_matrix.rows() == 0 || levels_matrix.cols() == n_features(),
                   "Encoder::encode_binary_batch: level matrix has wrong feature count");
    out.resize(levels_matrix.rows());
    for (std::size_t r = 0; r < levels_matrix.rows(); ++r) {
        encode_binary_into(levels_matrix.row(r), scratch, out[r], cache);
    }
}

std::shared_ptr<const BoundProductCache> Encoder::make_product_cache(std::size_t max_bytes) const {
    if (BoundProductCache::bytes_required(n_features(), n_levels(), dim()) > max_bytes) {
        return nullptr;
    }
    return std::make_shared<const BoundProductCache>(feature_hv_array(), value_hv_array());
}

// ---------------------------------------------------------------------------
// RecordEncoder
// ---------------------------------------------------------------------------

RecordEncoder::RecordEncoder(std::shared_ptr<const ItemMemory> memory, std::uint64_t tie_seed)
    : Encoder(tie_seed), memory_(std::move(memory)) {
    HDLOCK_EXPECTS(memory_ != nullptr, "RecordEncoder: null item memory");
    HDLOCK_EXPECTS(memory_->n_features() > 0, "RecordEncoder: item memory has no feature HVs");
}

IntHV RecordEncoder::encode_reference(std::span<const int> levels) const {
    check_levels(levels);
    IntHV sums(dim());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const BinaryHV product =
            memory_->feature_hv(i) * memory_->value_hv(static_cast<std::size_t>(levels[i]));
        sums.add(product);
    }
    return sums;
}

}  // namespace hdlock::hdc
