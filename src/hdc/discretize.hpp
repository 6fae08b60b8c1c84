#pragma once

/// \file discretize.hpp
/// Min-max discretization of raw feature values into M levels.
///
/// The paper (Sec. 2, Encoding) discretizes feature values "based on the
/// minimum and maximum values across the entire dataset".  That global mode
/// is the default; a per-feature mode is also provided for datasets whose
/// feature scales differ wildly (e.g. mixed sensor channels).

#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.hpp"
#include "util/serialize.hpp"

namespace hdlock::hdc {

enum class DiscretizerMode : std::uint8_t {
    global = 0,      ///< one [min, max] over all features (paper default)
    per_feature = 1  ///< independent [min, max] per feature column
};

class MinMaxDiscretizer {
public:
    MinMaxDiscretizer() = default;

    /// Learns the value range(s) from a training matrix. NaN values are
    /// skipped; a range that holds only NaN is fitted as [0, 0].
    static MinMaxDiscretizer fit(const util::Matrix<float>& X, std::size_t n_levels,
                                 DiscretizerMode mode = DiscretizerMode::global);

    /// Builds a discretizer with an explicit global range.
    static MinMaxDiscretizer with_range(float min_value, float max_value, std::size_t n_levels);

    std::size_t n_levels() const noexcept { return n_levels_; }
    DiscretizerMode mode() const noexcept { return mode_; }

    /// Number of [min, max] ranges tracked: the feature count in
    /// per_feature mode, 1 in global mode (0 when not fitted).
    std::size_t n_ranges() const noexcept { return mins_.size(); }

    /// Maps one raw value of the given feature to a level in [0, n_levels).
    /// Out-of-range values clamp to the boundary levels; a degenerate range
    /// (min == max) maps everything to level 0.
    int level_of(float value, std::size_t feature = 0) const;

    /// Discretizes a full row. `levels` must have row.size() entries.
    void transform_row(std::span<const float> row, std::span<int> levels) const;
    std::vector<int> transform_row(std::span<const float> row) const;

    /// Discretizes a whole matrix into a row-major level matrix.
    util::Matrix<int> transform(const util::Matrix<float>& X) const;

    void save(util::BinaryWriter& writer) const;
    static MinMaxDiscretizer load(util::BinaryReader& reader);

    bool operator==(const MinMaxDiscretizer& other) const = default;

private:
    std::size_t n_levels_ = 2;
    DiscretizerMode mode_ = DiscretizerMode::global;
    std::vector<float> mins_;  // size 1 (global) or n_features (per_feature)
    std::vector<float> maxs_;
};

}  // namespace hdlock::hdc
