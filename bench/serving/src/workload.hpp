#pragma once

/// \file workload.hpp
/// The benchmark's workloads and the inputs each one derives from a seed.
///
/// Every workload runs the same protocol (see README.md): owner rotations,
/// cold set-up cycles, a closed loop of fixed-size batches, an open loop at
/// three frozen rates, a max-rate search and bundle swaps.  What differs is
/// the traffic — the dataset shape, hence the cost of a row, and whether
/// epochs are swapped in while requests are in flight.
///
/// The program sees only the generated rows: make_inputs() draws the
/// training set and the serving pool from data::make_benchmark, and
/// make_schedule() draws Poisson arrivals over that pool.  Both are pure
/// functions of the seed.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "data/synthetic.hpp"

namespace hdlock::serving_bench {

/// L = 2 (the paper's two-layer key) and D = 10000 (its default).
inline constexpr std::size_t kLayers = 2;
inline constexpr std::size_t kDim = 10000;
/// Rows each single-thread layer probe of the traced run covers.
inline constexpr std::size_t kProbeRows = 4096;
/// Open-loop request mix: kSingleRowShare of requests carry one row, the
/// rest kMultiRows.
inline constexpr double kSingleRowShare = 0.7;
inline constexpr std::uint32_t kMultiRows = 8;
/// Share of --seconds the max-rate search takes, after the gated rounds.
inline constexpr double kSearchShare = 0.12;

struct WorkloadSpec {
    const char* name = "";
    /// Dataset preset the rows are drawn from.
    data::SyntheticSpec (*preset)() = nullptr;
    /// Serving pool size (a multiple of batch_rows).
    std::size_t pool_rows = 0;
    /// Rows per closed-loop predict call.
    std::size_t batch_rows = 0;
    /// Frozen open-loop rates (requests/s) for low, mid and high.
    std::array<double, 3> rates_rps{};
    /// Frozen median-latency limit of the max-rate search, which starts at
    /// the `high` rate.
    double latency_limit_ms = 0.0;
    /// Share of --seconds spent in the closed loop; the max-rate search
    /// takes kSearchShare and the three fixed rates split the rest.
    double closed_share = 0.0;
    /// Owner rotations run before any traffic (one bundle each).
    std::size_t rotations = 0;
    /// Timed owner rotations spread evenly over the rounds (a divisor of
    /// the round count), on top of the `rotations` before traffic: on the
    /// calibration host a single thread's speed moved by up to 40% for
    /// seconds at a time with no steal to show for it, so back-to-back
    /// rotations could all land in one slow stretch.
    std::size_t timed_rotations = 0;
    /// When positive, install the next epoch every swap_period_s while the
    /// traffic runs; otherwise swaps are timed on an idle router afterwards.
    double swap_period_s = 0.0;
};

const WorkloadSpec* find_workload(std::string_view name);

struct Inputs {
    data::Dataset train;
    util::Matrix<float> pool;
    /// FNV-1a over the training and pool bytes.
    std::uint64_t digest = 0;
};

/// Training set and serving pool for `seed`; the sizes can be shrunk for
/// tests (0 keeps the workload's own).
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, std::size_t pool_rows = 0,
                   std::size_t train_rows = 0);

/// Provisions an L = 2 owner over the inputs and trains it (epoch 0).
api::Owner make_owner(const Inputs& inputs, std::uint64_t seed, std::size_t dim = kDim);

/// Options the owner's i-th rotation uses (seeded, distinct per round).
api::RotateOptions rotate_options(std::uint64_t seed, std::size_t round);

/// One scheduled request: due time from the phase start, and the pool rows
/// [begin, begin + rows) (wrapping) it carries.
struct Arrival {
    std::int64_t due_ns = 0;
    std::uint32_t begin = 0;
    std::uint32_t rows = 1;
};

/// Poisson arrivals at `rate_rps` for `seconds`, with the 1/8-row mix.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_rps, double seconds,
                                   std::size_t pool_rows);

/// Copies pool rows [begin, begin + n) (wrapping) into a fresh matrix.
util::Matrix<float> slice_rows(const util::Matrix<float>& pool, std::size_t begin, std::size_t n);

/// FNV-1a of a label vector.
std::uint64_t label_digest(const std::vector<int>& labels);

}  // namespace hdlock::serving_bench
