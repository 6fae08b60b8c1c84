#include "workload.hpp"

#include <cmath>
#include <stdexcept>

#include "percentile.hpp"
#include "util/rng.hpp"

namespace hdlock::serving_bench {

namespace {

// Rates and latency limits were calibrated once (4 vCPU x86-64 host,
// avx512 backend) and are frozen.  That host's capacity moved 3x with its
// steal time, so low/mid/high sit near 10%, 40% and 70% of the max rate of
// the most contended calibration runs (offline ~5k, online ~20k req/s),
// keeping `high` below saturation there; each limit is a round number
// several times that workload's median latency at `high`.  Later commits
// are judged at these same absolute rates.
const std::array<WorkloadSpec, 3> kWorkloads{{
    {.name = "offline",
     .preset = data::mnist_like,
     .pool_rows = 8192,
     .batch_rows = 4096,
     .rates_rps = {500.0, 2000.0, 3500.0},
     .latency_limit_ms = 5.0,
     .closed_share = 0.3,
     .rotations = 2,
     .timed_rotations = 8,
     .swap_period_s = 0.0},
    {.name = "online",
     .preset = data::pamap_like,
     .pool_rows = 16384,
     .batch_rows = 16384,
     .rates_rps = {2000.0, 8000.0, 14000.0},
     .latency_limit_ms = 2.0,
     .closed_share = 0.3,
     .rotations = 4,
     .timed_rotations = 24,
     .swap_period_s = 0.0},
    {.name = "rotate",
     .preset = data::pamap_like,
     .pool_rows = 16384,
     .batch_rows = 16384,
     .rates_rps = {2000.0, 8000.0, 14000.0},
     .latency_limit_ms = 2.0,
     .closed_share = 0.3,
     .rotations = 4,
     .timed_rotations = 24,
     .swap_period_s = 0.5},
}};

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
    for (const auto& spec : kWorkloads) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, std::size_t pool_rows,
                   std::size_t train_rows) {
    data::SyntheticSpec data_spec = spec.preset();
    data_spec.seed = util::hash_mix(seed, 0xda7a);
    data_spec.n_test = pool_rows != 0 ? pool_rows : spec.pool_rows;
    if (train_rows != 0) data_spec.n_train = train_rows;
    data::SyntheticBenchmark benchmark = data::make_benchmark(data_spec);

    Inputs inputs;
    inputs.train = std::move(benchmark.train);
    inputs.pool = std::move(benchmark.test.X);
    const auto train_bytes = inputs.train.X.data();
    const auto pool_bytes = inputs.pool.data();
    std::uint64_t digest = fnv1a(train_bytes.data(), train_bytes.size_bytes());
    digest = fnv1a(inputs.train.y.data(), inputs.train.y.size() * sizeof(int), digest);
    inputs.digest = fnv1a(pool_bytes.data(), pool_bytes.size_bytes(), digest);
    return inputs;
}

api::Owner make_owner(const Inputs& inputs, std::uint64_t seed, std::size_t dim) {
    DeploymentConfig config;
    config.dim = dim;
    config.n_features = inputs.train.n_features();
    config.n_levels = 16;
    config.n_layers = kLayers;
    config.seed = util::hash_mix(seed, 0x0e1e);
    api::Owner owner = api::Owner::provision(config);
    api::TrainOptions train;
    train.seed = util::hash_mix(seed, 0x7a1e);
    owner.train(inputs.train, train);
    return owner;
}

api::RotateOptions rotate_options(std::uint64_t seed, std::size_t round) {
    api::RotateOptions options;
    options.seed = util::hash_mix(seed, 0x5eed + round);
    options.train.seed = util::hash_mix(seed, 0x7a1e);
    return options;
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_rps, double seconds,
                                   std::size_t pool_rows) {
    if (rate_rps <= 0.0 || seconds <= 0.0 || pool_rows == 0) {
        throw std::invalid_argument("make_schedule: rate, duration and pool must be positive");
    }
    util::Xoshiro256ss rng(util::hash_mix(seed, static_cast<std::uint64_t>(rate_rps * 1e3)));
    std::vector<Arrival> schedule;
    schedule.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
    const double horizon_ns = seconds * 1e9;
    double t_ns = 0.0;
    std::size_t cursor = 0;
    for (;;) {
        // Exponential gaps: 1 - u lies in (0, 1], so the log is finite.
        t_ns += -std::log(1.0 - rng.next_double()) / rate_rps * 1e9;
        if (t_ns >= horizon_ns) break;
        Arrival arrival;
        arrival.due_ns = static_cast<std::int64_t>(t_ns);
        arrival.rows = rng.next_double() < kSingleRowShare ? 1 : kMultiRows;
        arrival.begin = static_cast<std::uint32_t>(cursor % pool_rows);
        cursor += arrival.rows;
        schedule.push_back(arrival);
    }
    return schedule;
}

util::Matrix<float> slice_rows(const util::Matrix<float>& pool, std::size_t begin, std::size_t n) {
    util::Matrix<float> rows(n, pool.cols());
    for (std::size_t r = 0; r < n; ++r) {
        const auto source = pool.row((begin + r) % pool.rows());
        std::copy(source.begin(), source.end(), rows.row(r).begin());
    }
    return rows;
}

std::uint64_t label_digest(const std::vector<int>& labels) {
    return fnv1a(labels.data(), labels.size() * sizeof(int));
}

}  // namespace hdlock::serving_bench
