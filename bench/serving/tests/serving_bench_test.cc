// Tests for the serving benchmark's own machinery: the percentile helper,
// span self time, and seed determinism of the generated inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "percentile.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace hdlock;
using namespace hdlock::serving_bench;

std::vector<double> ramp(std::size_t n) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    return values;
}

TEST(Percentile, NearestRankOnSortedSamples) {
    const auto values = ramp(100);
    EXPECT_DOUBLE_EQ(percentile_sorted(values, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(values, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(values, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile_sorted(values, 0.5), 1.0);
    EXPECT_TRUE(std::isnan(percentile_sorted(std::vector<double>{}, 50.0)));
    EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, FailuresCountAsInfinitelyLate) {
    auto values = ramp(1000);
    for (std::size_t i = 0; i < 20; ++i) values[i] = std::numeric_limits<double>::infinity();
    const double p99 = percentile(values, 99.0);
    EXPECT_TRUE(std::isinf(p99));
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 520.0);
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
    EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
    EXPECT_EQ(samples_beyond(999, 99.0), 9u);

    // 10000 samples support p99.9 (10 beyond it).
    auto summary = highest_supported(ramp(10000));
    EXPECT_DOUBLE_EQ(summary.pct, 99.9);
    EXPECT_DOUBLE_EQ(summary.value, 9990.0);
    EXPECT_EQ(summary.n, 10000u);

    // 1000 support p99 but not p99.9.
    summary = highest_supported(ramp(1000));
    EXPECT_DOUBLE_EQ(summary.pct, 99.0);
    EXPECT_DOUBLE_EQ(summary.value, 990.0);

    // 999 fall back to p95 (49 beyond); the cap is honoured.
    summary = highest_supported(ramp(999));
    EXPECT_DOUBLE_EQ(summary.pct, 95.0);
    summary = highest_supported(ramp(10000), 90.0);
    EXPECT_DOUBLE_EQ(summary.pct, 90.0);

    // 19 samples: not even the median has 10 beyond it (9).
    summary = highest_supported(ramp(19));
    EXPECT_DOUBLE_EQ(summary.pct, 0.0);
    EXPECT_EQ(summary.n, 19u);
    summary = highest_supported(ramp(20));
    EXPECT_DOUBLE_EQ(summary.pct, 50.0);
    EXPECT_DOUBLE_EQ(summary.value, 10.0);
}

TEST(Percentile, FastQuartileTakesTheQuickSideOfRepeats) {
    // One slow outlier among five repeats never sets the figure, and the
    // single fastest repeat does not either.
    EXPECT_DOUBLE_EQ(fast_quartile({10.0, 11.0, 12.0, 13.0, 90.0}), 11.0);
    EXPECT_DOUBLE_EQ(fast_quartile({100.0, 90.0, 80.0, 70.0, 5.0}, true), 90.0);
    EXPECT_DOUBLE_EQ(fast_quartile({4.0}), 4.0);
}

TEST(Percentile, QuietQuartileKeepsTheLeastStolenQuarter) {
    // Of eight repeats the six with the most steal are dropped whatever their
    // values (5 and 1 among them); the fast-side quartile is then taken over
    // the other two (nearest rank 1 of 2).
    const std::vector<double> values{10.0, 30.0, 5.0, 20.0, 1.0, 40.0, 50.0, 60.0};
    const std::vector<double> steal{0.0, 0.01, 0.2, 0.1, 0.3, 0.1, 0.1, 0.1};
    EXPECT_DOUBLE_EQ(quiet_quartile(values, steal), 10.0);
    EXPECT_DOUBLE_EQ(quiet_quartile(values, steal, true), 30.0);
    // The quarter is rounded up; equal steal keeps repeat order.
    EXPECT_DOUBLE_EQ(quiet_quartile({7.0, 3.0, 9.0, 1.0, 8.0}, {0.0, 0.0, 0.0, 0.0, 0.0}), 3.0);
    EXPECT_DOUBLE_EQ(quiet_quartile({4.0}, {0.5}), 4.0);
    EXPECT_THROW(quiet_quartile({1.0, 2.0}, {0.0}), std::invalid_argument);
}

Span make_span(const char* name, std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end) {
    return Span{name, id, parent, 0, start, end};
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
    const std::vector<Span> spans{
        make_span("root", 1, kNoParent, 0, 100),
        make_span("a", 2, 1, 10, 30),    // 20
        make_span("b", 3, 1, 20, 50),    // overlaps a: union [10, 50) = 40
        make_span("c", 4, 1, 90, 120),   // clipped to [90, 100) = 10
        make_span("leaf", 5, 3, 25, 35), // grandchild: only b loses it
        make_span("other", 6, kNoParent, 0, 7),
    };
    const auto self = self_times(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30 - 10);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 10);
    EXPECT_EQ(self[5], 7);
}

TEST(Trace, DisabledTracerRecordsNothing) {
    Tracer off(1, false);
    { ScopedSpan span(off, "x"); }
    EXPECT_TRUE(off.spans().empty());

    Tracer on(2, true, 4);
    std::uint64_t outer_id = 0;
    {
        ScopedSpan outer(on, "outer", kNoParent, 7);
        outer_id = outer.id();
        ScopedSpan inner(on, "inner", outer.id(), 7);
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_STREQ(on.spans()[0].name, "inner");
    EXPECT_EQ(on.spans()[0].parent_id, outer_id);
    EXPECT_EQ(on.spans()[1].request_id, 7u);
    EXPECT_NE(make_span_id(1, 0), make_span_id(2, 0));
    EXPECT_EQ(durations_us(on.spans(), "outer").size(), 1u);
}

TEST(Workload, SameSeedGivesSameInputsAndReferenceLabels) {
    const WorkloadSpec& spec = *find_workload("online");
    const auto reference = [&](std::uint64_t seed, std::uint64_t* input_digest) {
        const Inputs inputs = make_inputs(spec, seed, /*pool_rows=*/256, /*train_rows=*/150);
        *input_digest = inputs.digest;
        const api::Owner owner = make_owner(inputs, seed, /*dim=*/512);
        return label_digest(owner.make_device().predict(inputs.pool));
    };
    std::uint64_t inputs_a = 0, inputs_b = 0, inputs_c = 0;
    const std::uint64_t labels_a = reference(11, &inputs_a);
    const std::uint64_t labels_b = reference(11, &inputs_b);
    reference(12, &inputs_c);
    EXPECT_EQ(inputs_a, inputs_b);
    EXPECT_EQ(labels_a, labels_b);
    EXPECT_NE(inputs_a, inputs_c);
}

TEST(Workload, ScheduleIsSeededPoissonWithTheRowMix) {
    const auto a = make_schedule(5, 2000.0, 2.0, 4096);
    const auto b = make_schedule(5, 2000.0, 2.0, 4096);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].due_ns, b[i].due_ns);
        EXPECT_EQ(a[i].rows, b[i].rows);
    }
    // ~4000 arrivals; the count and the single-row share sit within a few
    // standard deviations of their expectations.
    EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 300.0);
    std::size_t single = 0;
    for (const auto& arrival : a) {
        EXPECT_LT(arrival.due_ns, 2'000'000'000);
        EXPECT_LT(arrival.begin, 4096u);
        single += arrival.rows == 1 ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(single) / static_cast<double>(a.size()), kSingleRowShare, 0.05);
    EXPECT_NE(make_schedule(6, 2000.0, 2.0, 4096).front().due_ns, a.front().due_ns);
}

}  // namespace
