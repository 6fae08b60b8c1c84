// Tests for min-max discretization (src/hdc/discretize.*).

#include "hdc/discretize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <utility>
#include <vector>

using hdlock::ContractViolation;
using hdlock::hdc::DiscretizerMode;
using hdlock::hdc::MinMaxDiscretizer;
using hdlock::util::Matrix;

TEST(Discretizer, GlobalModeMapsRangeLinearly) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 4);
    EXPECT_EQ(d.level_of(0.0f), 0);
    EXPECT_EQ(d.level_of(0.24f), 0);
    EXPECT_EQ(d.level_of(0.25f), 1);
    EXPECT_EQ(d.level_of(0.5f), 2);
    EXPECT_EQ(d.level_of(0.75f), 3);
    EXPECT_EQ(d.level_of(1.0f), 3);  // max clamps into the top level
}

TEST(Discretizer, OutOfRangeValuesClamp) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 10.0f, 8);
    EXPECT_EQ(d.level_of(-100.0f), 0);
    EXPECT_EQ(d.level_of(100.0f), 7);
}

TEST(Discretizer, NonFiniteValuesClampDeterministically) {
    // Regression: NaN reached std::floor + an integer cast, which is
    // undefined behavior ("nan" parses fine from a CSV field).  The contract
    // is now: NaN -> level 0, +inf -> top level, -inf -> level 0.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 8);

    EXPECT_EQ(d.level_of(nan), 0);
    EXPECT_EQ(d.level_of(inf), 7);
    EXPECT_EQ(d.level_of(-inf), 0);

    // Same clamping through the row path, mixed with finite values.
    const std::vector<float> row = {nan, inf, -inf, 0.5f};
    Matrix<float> X(1, 4);
    for (std::size_t c = 0; c < row.size(); ++c) X(0, c) = row[c];
    const auto per_feature = MinMaxDiscretizer::fit(
        Matrix<float>(2, 4, 1.0f), 8, DiscretizerMode::per_feature);
    // fit on constant columns -> degenerate ranges -> all level 0, finite or not.
    for (std::size_t c = 0; c < row.size(); ++c) {
        EXPECT_EQ(per_feature.level_of(row[c], c), 0) << "col " << c;
    }
    const auto levels = d.transform_row(row);
    EXPECT_EQ(levels, (std::vector<int>{0, 7, 0, 4}));
}

TEST(Discretizer, HugeFiniteValuesClampWithoutOverflow) {
    // Values whose scaled position exceeds the int64 range used to overflow
    // in the float -> integer cast; they must clamp like any out-of-range
    // value.
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1e-30f, 4);
    EXPECT_EQ(d.level_of(3e38f), 3);
    EXPECT_EQ(d.level_of(-3e38f), 0);
}

TEST(Discretizer, DegenerateRangeMapsToZero) {
    const auto d = MinMaxDiscretizer::with_range(5.0f, 5.0f, 16);
    EXPECT_EQ(d.level_of(5.0f), 0);
    EXPECT_EQ(d.level_of(123.0f), 0);
}

TEST(Discretizer, FitGlobalUsesDatasetWideRange) {
    // The paper discretizes "based on the minimum and maximum values across
    // the entire dataset" — one range shared by all features.
    Matrix<float> X(2, 2);
    X(0, 0) = 0.0f;
    X(0, 1) = 2.0f;
    X(1, 0) = 6.0f;
    X(1, 1) = 8.0f;
    const auto d = MinMaxDiscretizer::fit(X, 4, DiscretizerMode::global);
    EXPECT_EQ(d.level_of(0.0f), 0);
    EXPECT_EQ(d.level_of(8.0f), 3);
    EXPECT_EQ(d.level_of(2.0f, /*feature=*/1), 1);  // feature ignored in global mode
    EXPECT_EQ(d.level_of(4.1f), 2);
}

TEST(Discretizer, FitPerFeatureUsesColumnRanges) {
    Matrix<float> X(2, 2);
    X(0, 0) = 0.0f;
    X(0, 1) = 100.0f;
    X(1, 0) = 1.0f;
    X(1, 1) = 200.0f;
    const auto d = MinMaxDiscretizer::fit(X, 2, DiscretizerMode::per_feature);
    EXPECT_EQ(d.level_of(0.4f, 0), 0);
    EXPECT_EQ(d.level_of(0.6f, 0), 1);
    EXPECT_EQ(d.level_of(140.0f, 1), 0);
    EXPECT_EQ(d.level_of(160.0f, 1), 1);
    EXPECT_THROW(d.level_of(0.0f, 2), ContractViolation);
}

TEST(Discretizer, TransformRowAndMatrix) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 2);
    const std::vector<float> row = {0.1f, 0.9f, 0.49f, 0.51f};
    const auto levels = d.transform_row(row);
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 0, 1}));

    Matrix<float> X(2, 2);
    X(0, 0) = 0.1f;
    X(0, 1) = 0.9f;
    X(1, 0) = 0.6f;
    X(1, 1) = 0.2f;
    const auto L = d.transform(X);
    EXPECT_EQ(L(0, 0), 0);
    EXPECT_EQ(L(0, 1), 1);
    EXPECT_EQ(L(1, 0), 1);
    EXPECT_EQ(L(1, 1), 0);
}

TEST(Discretizer, AllLevelsReachableOnUniformGrid) {
    const std::size_t n_levels = 16;
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, n_levels);
    std::vector<bool> seen(n_levels, false);
    for (int i = 0; i <= 1000; ++i) {
        const int level = d.level_of(static_cast<float>(i) / 1000.0f);
        ASSERT_GE(level, 0);
        ASSERT_LT(level, static_cast<int>(n_levels));
        seen[static_cast<std::size_t>(level)] = true;
    }
    for (std::size_t l = 0; l < n_levels; ++l) EXPECT_TRUE(seen[l]) << "level " << l;
}

TEST(Discretizer, InvalidConfigsThrow) {
    EXPECT_THROW(MinMaxDiscretizer::with_range(0.0f, 1.0f, 1), ContractViolation);
    EXPECT_THROW(MinMaxDiscretizer::with_range(2.0f, 1.0f, 4), ContractViolation);
    Matrix<float> empty;
    EXPECT_THROW(MinMaxDiscretizer::fit(empty, 4), ContractViolation);
    MinMaxDiscretizer unfitted;
    EXPECT_THROW(unfitted.level_of(0.0f), ContractViolation);
}

TEST(Discretizer, TransformRowSizeMismatchThrows) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 4);
    const std::vector<float> row = {0.1f, 0.2f};
    std::vector<int> levels(3);
    EXPECT_THROW(d.transform_row(row, levels), ContractViolation);
}

TEST(Discretizer, SerializationRoundTrip) {
    Matrix<float> X(3, 2);
    X(0, 0) = -1.0f;
    X(0, 1) = 5.0f;
    X(1, 0) = 2.0f;
    X(1, 1) = 7.5f;
    X(2, 0) = 0.0f;
    X(2, 1) = 6.0f;
    const auto d = MinMaxDiscretizer::fit(X, 8, DiscretizerMode::per_feature);

    std::stringstream stream;
    hdlock::util::BinaryWriter writer(stream);
    d.save(writer);
    hdlock::util::BinaryReader reader(stream);
    const auto loaded = MinMaxDiscretizer::load(reader);
    EXPECT_EQ(loaded, d);
    EXPECT_EQ(loaded.level_of(2.0f, 0), d.level_of(2.0f, 0));
}

// NaN in the training data must never reach the fitted bounds: load()
// rejects NaN bounds, so a NaN range would make the owner's own save fail
// to load. The first value used to seed the range, so a NaN in row 0 is the
// case that leaked; a column holding only NaN fits as the degenerate [0, 0].
TEST(Discretizer, FitSkipsNanAndRoundTripsThroughLoad) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Matrix<float> X(3, 3);
    X(0, 0) = nan;
    X(0, 1) = 5.0f;
    X(0, 2) = nan;
    X(1, 0) = 2.0f;
    X(1, 1) = nan;
    X(1, 2) = nan;
    X(2, 0) = -1.0f;
    X(2, 1) = 7.5f;
    X(2, 2) = nan;

    for (const auto mode : {DiscretizerMode::global, DiscretizerMode::per_feature}) {
        SCOPED_TRACE(mode == DiscretizerMode::global ? "global" : "per_feature");
        const auto d = MinMaxDiscretizer::fit(X, 8, mode);

        std::stringstream stream;
        hdlock::util::BinaryWriter writer(stream);
        d.save(writer);
        hdlock::util::BinaryReader reader(stream);
        const auto loaded = MinMaxDiscretizer::load(reader);
        EXPECT_EQ(loaded, d);

        const std::vector<float> row = {-1.0f, 7.5f, 3.0f};
        if (mode == DiscretizerMode::global) {
            // One range over the non-NaN values: [-1, 7.5].
            EXPECT_EQ(loaded.transform_row(row), (std::vector<int>{0, 7, 3}));
        } else {
            // Columns [-1, 2] and [5, 7.5]; the all-NaN column is [0, 0].
            EXPECT_EQ(loaded.transform_row(row), (std::vector<int>{0, 7, 0}));
            EXPECT_EQ(loaded.level_of(2.0f, 0), 7);
            EXPECT_EQ(loaded.level_of(5.0f, 1), 0);
        }
    }
}

// transform_row hoists the fitted/range/mode checks out of its loop and
// clamps by compare instead of floor; it must stay bit-identical to the
// per-element level_of on every value class (NaN, ±inf, huge finite,
// signed zeros, denormals, range boundaries) against every range class
// (ordinary, degenerate, fitted on infinities, extreme magnitudes), in both
// modes.
TEST(Discretizer, TransformRowMatchesLevelOfOnSpecialValues) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float big = std::numeric_limits<float>::max();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const std::vector<std::pair<float, float>> ranges = {
        {0.0f, 1.0f},    {-3.5f, 7.25f}, {5.0f, 5.0f},     {-inf, 1.0f},   {0.0f, inf},
        {-inf, inf},     {-big, big},    {1e-30f, 2e-30f}, {0.0f, tiny},   {-1e30f, 1e30f},
        {inf, inf},      {-inf, -inf},   {1.0f, 1.0000001f},
    };
    const std::vector<float> values = {
        nan,   -nan,  inf,     -inf,      big,      -big,  0.0f, -0.0f, tiny, -tiny,
        1.0f,  -1.0f, 0.5f,    0.999999f, 1.0000001f, 5.0f, 7.25f, -3.5f, 1e-30f, 1.5e-30f,
        2e30f, 3e38f, -1e-45f, 0.2499999f, 0.25f,     0.75f, 1e30f, -1e30f,
    };
    for (const std::size_t n_levels : {std::size_t{2}, std::size_t{10}, std::size_t{256}}) {
        // Global mode, one range at a time.
        for (const auto& [lo, hi] : ranges) {
            const auto d = MinMaxDiscretizer::with_range(lo, hi, n_levels);
            std::vector<int> levels(values.size(), -1);
            d.transform_row(values, levels);
            for (std::size_t i = 0; i < values.size(); ++i) {
                EXPECT_EQ(levels[i], d.level_of(values[i]))
                    << "global [" << lo << ", " << hi << "] M=" << n_levels << " v=" << values[i];
            }
        }
        // Per-feature mode: one column per range, fitted from its endpoints.
        Matrix<float> X(2, ranges.size());
        for (std::size_t c = 0; c < ranges.size(); ++c) {
            X(0, c) = ranges[c].first;
            X(1, c) = ranges[c].second;
        }
        const auto d = MinMaxDiscretizer::fit(X, n_levels, DiscretizerMode::per_feature);
        for (const float v : values) {
            const std::vector<float> row(ranges.size(), v);
            std::vector<int> levels(row.size(), -1);
            d.transform_row(row, levels);
            for (std::size_t c = 0; c < row.size(); ++c) {
                EXPECT_EQ(levels[c], d.level_of(v, c))
                    << "per-feature column " << c << " M=" << n_levels << " v=" << v;
            }
        }
    }
}

TEST(Discretizer, TransformRowRejectsUnfittedAndTooWideRows) {
    MinMaxDiscretizer unfitted;
    const std::vector<float> row = {0.1f, 0.2f, 0.3f};
    std::vector<int> levels(row.size());
    EXPECT_THROW(unfitted.transform_row(row, levels), ContractViolation);

    Matrix<float> X(2, 2);
    X(0, 0) = 0.0f;
    X(1, 0) = 1.0f;
    X(0, 1) = 0.0f;
    X(1, 1) = 2.0f;
    const auto per_feature = MinMaxDiscretizer::fit(X, 4, DiscretizerMode::per_feature);
    EXPECT_THROW(per_feature.transform_row(row, levels), ContractViolation);
    const auto global = MinMaxDiscretizer::fit(X, 4, DiscretizerMode::global);
    EXPECT_NO_THROW(global.transform_row(row, levels));
}
