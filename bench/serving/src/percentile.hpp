#pragma once

/// \file percentile.hpp
/// Order statistics for the serving benchmark.
///
/// Percentiles use the nearest-rank rule (the ceil(p * n)-th smallest
/// sample), so a sample set that contains +inf — a request that failed or was
/// shed counts as infinitely late — still yields a finite median while the
/// tail honestly reads +inf once failures reach it.
///
/// A tail percentile is only reported when the sample supports it: at least
/// kTailSupport samples must lie beyond it.  highest_supported() walks a
/// fixed ladder down from p99.9 and returns the first percentile that
/// qualifies, together with the sample count, so a short run reports p90
/// under its own name instead of a p99 made of one or two samples.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hdlock::serving_bench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSupport = 10;

/// Nearest-rank percentile of an ascending-sorted sample; `p` in (0, 100].
/// Returns NaN for an empty sample.
double percentile_sorted(std::span<const double> sorted, double p);

/// Sorts a copy and takes the nearest-rank percentile.
double percentile(std::vector<double> values, double p);

/// Median (nearest-rank p50) of a copy.
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// The quartile on the fast side of a set of repeats: the 25th percentile
/// of times (lower is better) or the 75th of rates (higher is better).
/// Host interference (steal, a noisy neighbour) only ever slows a repeat
/// down, so this side tracks the code's own speed, while a single lucky
/// repeat cannot set it the way a minimum would.
inline double fast_quartile(std::vector<double> values, bool higher_is_better = false) {
    return percentile(std::move(values), higher_is_better ? 75.0 : 25.0);
}

/// The fast-side quartile over the repeats the host disturbed least: the
/// quarter (rounded up) with the lowest steal share, `steal[i]` being the
/// share measured while `values[i]` ran (ties keep repeat order).  Steal
/// comes and goes over seconds, so this drops the rounds it hit before the
/// quartile is taken; the selection never looks at the values themselves.
double quiet_quartile(const std::vector<double>& values, const std::vector<double>& steal,
                      bool higher_is_better = false);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// True when at least kTailSupport samples lie beyond percentile p.
inline bool supports(std::size_t n, double p) { return samples_beyond(n, p) >= kTailSupport; }

struct TailSummary {
    /// The percentile reported (99.9, 99, 95, 90, 75 or 50), or 0 when even
    /// the median lacks support.
    double pct = 0.0;
    double value = 0.0;
    /// Sample count behind the summary.
    std::size_t n = 0;
};

/// The highest percentile on the ladder, at or below `cap`, with at least
/// kTailSupport samples beyond it; `sorted` ascending.
TailSummary highest_supported(std::span<const double> sorted, double cap = 99.9);

/// FNV-1a over raw bytes: the input and reference-label digests that prove
/// one seed always produces the same run.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace hdlock::serving_bench
