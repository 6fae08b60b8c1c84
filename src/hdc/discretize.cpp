#include "hdc/discretize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace hdlock::hdc {

namespace {

/// Running [min, max] that skips NaN: `v < lo` and `v > hi` are false for
/// NaN, so a NaN anywhere in the training data (the first value included)
/// never reaches the fitted bounds, and every other input gives the same
/// bounds as std::min/std::max seeded with the first value. A range that
/// saw only NaN is the degenerate [0, 0], which maps everything to level 0.
struct RangeAccumulator {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();

    void add(float v) noexcept {
        if (v < lo) lo = v;
        if (v > hi) hi = v;
    }
    float min() const noexcept { return lo <= hi ? lo : 0.0f; }
    float max() const noexcept { return lo <= hi ? hi : 0.0f; }
};

}  // namespace

MinMaxDiscretizer MinMaxDiscretizer::fit(const util::Matrix<float>& X, std::size_t n_levels,
                                         DiscretizerMode mode) {
    HDLOCK_EXPECTS(n_levels >= 2, "MinMaxDiscretizer: at least two levels required");
    HDLOCK_EXPECTS(!X.empty(), "MinMaxDiscretizer: empty training matrix");

    MinMaxDiscretizer d;
    d.n_levels_ = n_levels;
    d.mode_ = mode;

    if (mode == DiscretizerMode::global) {
        RangeAccumulator range;
        for (const float v : X.data()) range.add(v);
        d.mins_ = {range.min()};
        d.maxs_ = {range.max()};
    } else {
        d.mins_.assign(X.cols(), 0.0f);
        d.maxs_.assign(X.cols(), 0.0f);
        for (std::size_t c = 0; c < X.cols(); ++c) {
            RangeAccumulator range;
            for (std::size_t r = 0; r < X.rows(); ++r) range.add(X(r, c));
            d.mins_[c] = range.min();
            d.maxs_[c] = range.max();
        }
    }
    return d;
}

MinMaxDiscretizer MinMaxDiscretizer::with_range(float min_value, float max_value,
                                                std::size_t n_levels) {
    HDLOCK_EXPECTS(n_levels >= 2, "MinMaxDiscretizer: at least two levels required");
    HDLOCK_EXPECTS(min_value <= max_value, "MinMaxDiscretizer: min must not exceed max");
    MinMaxDiscretizer d;
    d.n_levels_ = n_levels;
    d.mode_ = DiscretizerMode::global;
    d.mins_ = {min_value};
    d.maxs_ = {max_value};
    return d;
}

int MinMaxDiscretizer::level_of(float value, std::size_t feature) const {
    HDLOCK_EXPECTS(!mins_.empty(), "MinMaxDiscretizer: not fitted");
    const std::size_t slot = mode_ == DiscretizerMode::global ? 0 : feature;
    HDLOCK_EXPECTS(slot < mins_.size(), "MinMaxDiscretizer: feature out of range");
    const float lo = mins_[slot];
    const float hi = maxs_[slot];
    if (!(hi > lo)) return 0;
    // Non-finite inputs reach this path in practice (std::from_chars parses
    // "nan"/"inf" from CSV fields); a float-to-int cast of the resulting
    // NaN/out-of-range value is undefined behavior, so clamp in the double
    // domain first: NaN maps to level 0, +/-inf clamp to the boundary levels.
    if (std::isnan(value)) return 0;
    const double scaled = (static_cast<double>(value) - lo) / (static_cast<double>(hi) - lo) *
                          static_cast<double>(n_levels_);
    if (std::isnan(scaled)) return 0;  // e.g. a range fitted on infinities
    const double top = static_cast<double>(n_levels_ - 1);
    return static_cast<int>(std::clamp(std::floor(scaled), 0.0, top));
}

namespace {

/// level_of's arithmetic for one value against a non-degenerate range
/// (hi > lo): the same double expression, then a compare-based clamp that
/// equals clamp(floor(scaled), 0, top) everywhere — NaN (from a NaN value
/// or a range fitted on infinities) and -inf fail `scaled > 0` and land on
/// 0, +inf and huge finite values fail `scaled < top` and land on top, and
/// in between truncation is floor — without a libm floor call.
inline int scaled_level(float value, float lo, float hi, double n_levels, double top,
                        int top_level) noexcept {
    const double scaled =
        (static_cast<double>(value) - lo) / (static_cast<double>(hi) - lo) * n_levels;
    return scaled > 0.0 ? (scaled < top ? static_cast<int>(scaled) : top_level) : 0;
}

}  // namespace

void MinMaxDiscretizer::transform_row(std::span<const float> row, std::span<int> levels) const {
    HDLOCK_EXPECTS(row.size() == levels.size(), "MinMaxDiscretizer: size mismatch");
    HDLOCK_EXPECTS(!mins_.empty(), "MinMaxDiscretizer: not fitted");
    const bool global = mode_ == DiscretizerMode::global;
    HDLOCK_EXPECTS(global || row.size() <= mins_.size(),
                   "MinMaxDiscretizer: feature out of range");
    // Bit-identical to level_of per element, with the fitted/range/mode
    // checks hoisted out of the loop.
    const auto n_levels = static_cast<double>(n_levels_);
    const double top = static_cast<double>(n_levels_ - 1);
    const auto top_level = static_cast<int>(n_levels_ - 1);
    if (global) {
        const float lo = mins_[0];
        const float hi = maxs_[0];
        if (!(hi > lo)) {
            std::fill(levels.begin(), levels.end(), 0);
            return;
        }
        for (std::size_t i = 0; i < row.size(); ++i) {
            levels[i] = scaled_level(row[i], lo, hi, n_levels, top, top_level);
        }
        return;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
        const float lo = mins_[i];
        const float hi = maxs_[i];
        levels[i] = hi > lo ? scaled_level(row[i], lo, hi, n_levels, top, top_level) : 0;
    }
}

std::vector<int> MinMaxDiscretizer::transform_row(std::span<const float> row) const {
    std::vector<int> levels(row.size());
    transform_row(row, levels);
    return levels;
}

util::Matrix<int> MinMaxDiscretizer::transform(const util::Matrix<float>& X) const {
    util::Matrix<int> out(X.rows(), X.cols());
    for (std::size_t r = 0; r < X.rows(); ++r) transform_row(X.row(r), out.row(r));
    return out;
}

void MinMaxDiscretizer::save(util::BinaryWriter& writer) const {
    writer.write_tag("DSC1");
    writer.write_u64(n_levels_);
    writer.write_u8(static_cast<std::uint8_t>(mode_));
    writer.write_span(std::span<const float>(mins_));
    writer.write_span(std::span<const float>(maxs_));
}

MinMaxDiscretizer MinMaxDiscretizer::load(util::BinaryReader& reader) {
    reader.expect_tag("DSC1");
    MinMaxDiscretizer d;
    const std::uint64_t n_levels = reader.read_u64();
    if (n_levels < 2 || n_levels > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        throw FormatError("MinMaxDiscretizer::load: n_levels " + std::to_string(n_levels) +
                          " outside [2, INT_MAX]");
    }
    d.n_levels_ = static_cast<std::size_t>(n_levels);
    const auto mode = reader.read_u8();
    if (mode > 1) throw FormatError("MinMaxDiscretizer::load: bad mode");
    d.mode_ = static_cast<DiscretizerMode>(mode);
    d.mins_ = reader.read_vector<float>();
    d.maxs_ = reader.read_vector<float>();
    if (d.mins_.size() != d.maxs_.size()) {
        throw FormatError("MinMaxDiscretizer::load: min/max size mismatch");
    }
    if (d.mins_.empty()) {
        throw FormatError("MinMaxDiscretizer::load: ranges: none stored (not fitted)");
    }
    if (d.mode_ == DiscretizerMode::global && d.mins_.size() != 1) {
        throw FormatError("MinMaxDiscretizer::load: ranges: global mode stores exactly one, got " +
                          std::to_string(d.mins_.size()));
    }
    for (std::size_t i = 0; i < d.mins_.size(); ++i) {
        if (!(d.mins_[i] <= d.maxs_[i])) {
            throw FormatError("MinMaxDiscretizer::load: range " + std::to_string(i) +
                              ": min must not exceed max (or be NaN)");
        }
    }
    return d;
}

}  // namespace hdlock::hdc
