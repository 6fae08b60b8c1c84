#include "percentile.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace hdlock::serving_bench {

namespace {

/// Rank (1-based) of the nearest-rank p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double p) {
    if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
    return sorted[nearest_rank(sorted.size(), p) - 1];
}

double percentile(std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    return percentile_sorted(values, p);
}

double quiet_quartile(const std::vector<double>& values, const std::vector<double>& steal,
                      bool higher_is_better) {
    if (values.size() != steal.size()) {
        throw std::invalid_argument("quiet_quartile: one steal share per value");
    }
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
    order.resize((order.size() + 3) / 4);
    std::vector<double> quiet;
    quiet.reserve(order.size());
    for (const std::size_t i : order) quiet.push_back(values[i]);
    return fast_quartile(std::move(quiet), higher_is_better);
}

std::size_t samples_beyond(std::size_t n, double p) {
    if (n == 0) return 0;
    return n - nearest_rank(n, p);
}

TailSummary highest_supported(std::span<const double> sorted, double cap) {
    static constexpr std::array<double, 6> kLadder{99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    TailSummary summary;
    summary.n = sorted.size();
    for (const double p : kLadder) {
        if (p > cap || !supports(sorted.size(), p)) continue;
        summary.pct = p;
        summary.value = percentile_sorted(sorted, p);
        return summary;
    }
    return summary;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

}  // namespace hdlock::serving_bench
