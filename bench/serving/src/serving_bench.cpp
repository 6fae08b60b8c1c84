/// \file serving_bench.cpp
/// End-to-end serving benchmark over the public api:: surface.
///
///   serving_bench --workload offline|online|rotate --seed N --seconds S
///                 --trace 0|1 --out-dir DIR
///
/// One run: owner rotations, then rounds that each hold a few cold set-up
/// cycles, a closed-loop chunk of batched InferenceSession::predict calls
/// and an open-loop segment through ShardRouter at each of the workload's
/// three frozen rates, then a max-rate search; bundle swaps run under load
/// (rotate) or on the idle router at the start of each round.  Every Ok
/// label is checked against a single-thread Device::predict reference for
/// the epoch that served it, and every request at the frozen rates must come
/// back Ok; a mismatch or a failure makes the run incorrect and the exit
/// code non-zero.  README.md describes the protocol and every metric.
///
/// stdout: one `run` record (host context, digests, phase details) and, as
/// the last line, {"correct", "attempted", "failed", "metrics"}.  With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
/// protocol runs with spans recorded around every layer call, extra
/// per-layer probes run, the spans are written to DIR/<workload>.trace.csv,
/// and the metrics are the per-layer ones.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <exception>
#include <filesystem>
#include <future>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "eval/json.hpp"
#include "host.hpp"
#include "percentile.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace hdlock::serving_bench {

namespace {

namespace fs = std::filesystem;
using eval::Json;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The serving phases are cut into this many rounds, each a few cold set-up
/// cycles, a few idle swaps (workloads that do not swap under load), a
/// closed-loop chunk and one segment per open-loop rate; metrics are taken
/// over the repeats of all rounds (see serve()).
constexpr std::size_t kRounds = 24;
constexpr std::size_t kSetupCyclesPerRound = 4;
constexpr std::size_t kIdleSwapsPerRound = 4;
/// Unmeasured closed-loop warm-up before the first round: the first
/// fraction of a second after the owner rotations ran slow on the
/// calibration host whatever the steal.
constexpr double kWarmupSeconds = 0.5;
/// Max-rate search, after the rounds: one step offers a rate for this long.
constexpr double kSearchStepSeconds = 0.6;
/// Tail percentile kept per open-loop segment in the run record.
constexpr double kTailPct = 90.0;
/// Backlog slack of a search step, in rows.
constexpr std::size_t kBacklogSlackRows = 256;
/// Rate multiplier while the search has not bracketed the limit.
constexpr double kSearchGrowth = 1.5;
/// Longest the collector parks between scans of the outstanding futures.
constexpr std::chrono::microseconds kCollectorWait{50};
/// Scan periods kept per phase for the timestamp-resolution report.
constexpr std::size_t kScanReservoir = 4096;
/// Collector gauge sampling period.
constexpr std::int64_t kGaugePeriodNs = 1'000'000;

// Span namespaces (trace.hpp make_span_id).
constexpr std::uint16_t kTagMain = 1;
constexpr std::uint16_t kTagSender = 2;
constexpr std::uint16_t kTagCollector = 3;
constexpr std::uint16_t kTagSwapper = 4;
constexpr std::uint16_t kTagRequest = 5;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    fs::path out_dir = ".";
};

[[noreturn]] void usage(const std::string& message) {
    std::cerr << "serving_bench: " << message
              << "\nusage: serving_bench --workload offline|online|rotate --seed N"
                 " --seconds S --trace 0|1 --out-dir DIR\n";
    std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
    T value{};
    const auto result = std::from_chars(text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
        usage("bad value for " + std::string(flag) + ": " + std::string(text));
    }
    return value;
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + std::string(flag));
        const std::string_view value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parse_number<std::uint64_t>(flag, value);
        } else if (flag == "--seconds") {
            args.seconds = parse_number<double>(flag, value);
        } else if (flag == "--trace") {
            args.trace = parse_number<int>(flag, value) != 0;
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else {
            usage("unknown flag " + std::string(flag));
        }
    }
    if (find_workload(args.workload) == nullptr) usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0.0)) usage("--seconds is required and must be positive");
    return args;
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::vector<double> sorted(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values;
}

/// Outcome tally of everything the run attempted.  The status counts of
/// typed requests must add up to the requests sent.
struct Tally {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t exception = 0;

    void add(const Tally& other) {
        sent += other.sent;
        ok += other.ok;
        overloaded += other.overloaded;
        deadline_exceeded += other.deadline_exceeded;
        cancelled += other.cancelled;
        exception += other.exception;
    }
    bool adds_up() const {
        return ok + overloaded + deadline_exceeded + cancelled + exception == sent;
    }
};

/// Correctness bookkeeping: the first few mismatches are kept for the run
/// record; any mismatch fails the run.
struct Checks {
    std::uint64_t label_checks = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> errors;

    void fail(std::string message) {
        ++mismatches;
        if (errors.size() < 8) errors.push_back(std::move(message));
    }
    bool passed() const { return mismatches == 0; }
};

/// Reference labels per epoch (single-thread Device::predict on the pool).
struct References {
    std::vector<std::vector<int>> by_epoch;

    const std::vector<int>* find(std::uint64_t epoch) const {
        if (epoch >= by_epoch.size() || by_epoch[epoch].empty()) return nullptr;
        return &by_epoch[epoch];
    }
};

bool labels_match(const std::vector<int>& reference, std::size_t begin,
                  const std::vector<int>& labels, std::size_t n) {
    if (labels.size() != n) return false;
    for (std::size_t r = 0; r < n; ++r) {
        if (labels[r] != reference[(begin + r) % reference.size()]) return false;
    }
    return true;
}

api::RouterOptions router_options(std::size_t nproc) {
    api::RouterOptions options;
    options.n_shards = std::max<std::size_t>(1, nproc / 2);
    options.session.n_threads = 2;
    return options;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

struct OpenLoopResult {
    double offered_rps = 0.0;
    /// Requests sent per second of actual sending.
    double achieved_rps = 0.0;
    Tally tally;
    /// Latency from scheduled send to ready, ms, in send order; +inf when
    /// not Ok.
    std::vector<double> latency_ms;
    std::vector<double> queue_us;
    std::vector<double> service_us;
    std::vector<double> submit_us;
    std::vector<double> late_us;
    std::vector<double> delay_us;
    /// Router in-flight rows, sampled every kGaugePeriodNs.
    std::vector<double> inflight_rows;
    /// Sampled collector scan periods (us): a completion is timestamped at
    /// most one scan period after its future became ready.
    std::vector<double> scan_us;
    /// Host steal share while the segment ran.
    double steal = 0.0;
};

/// Everything an open-loop phase needs besides its schedule.
struct OpenLoopContext {
    const api::ShardRouter& router;
    const util::Matrix<float>& pool;
    const References& references;
    Checks& checks;
    Tracer& sender_tracer;
    Tracer& collector_tracer;
    /// Global request index of this phase's first request (span ids).
    std::uint64_t& next_request;
};

OpenLoopResult run_open_loop(OpenLoopContext& ctx, const std::vector<Arrival>& schedule,
                             double offered_rps, std::uint64_t phase_span) {
    const std::size_t n = schedule.size();
    OpenLoopResult result;
    result.offered_rps = offered_rps;
    result.latency_ms.assign(n, kInf);
    result.queue_us.reserve(n);
    result.service_us.reserve(n);
    result.submit_us.reserve(n);
    result.late_us.reserve(n);
    const std::int64_t phase_ns = n == 0 ? 0 : schedule.back().due_ns;
    result.inflight_rows.reserve(static_cast<std::size_t>(phase_ns / kGaugePeriodNs) + 64);
    result.delay_us.reserve(result.inflight_rows.capacity() * ctx.router.n_shards());
    result.scan_us.reserve(kScanReservoir);

    // Preallocated per-request state: the generator allocates nothing but
    // the Request rows while the phase runs.
    std::vector<std::future<api::Response>> futures(n);
    std::vector<std::int64_t> submit_start(n);
    std::vector<std::int64_t> submit_end(n);
    std::atomic<std::size_t> published{0};
    const std::uint64_t first_request = ctx.next_request;
    ctx.next_request += n;
    const CpuTimes cpu_start = read_cpu_times();
    const std::int64_t t0 = now_ns() + 2'000'000;
    std::int64_t send_end = t0;

    {
        util::Thread sender([&] {
            for (std::size_t i = 0; i < n; ++i) {
                const Arrival& arrival = schedule[i];
                api::Request request;
                request.rows = slice_rows(ctx.pool, arrival.begin, arrival.rows);
                const std::int64_t due = t0 + arrival.due_ns;
                // Spin, never sleep: a parked sender would pay the wake-up
                // latency of an idle vCPU on every request.
                while (now_ns() < due) {
                }
                const std::uint64_t request_span = make_span_id(kTagRequest, first_request + i);
                {
                    ScopedSpan span(ctx.sender_tracer, "api.router.submit", request_span,
                                    first_request + i);
                    submit_start[i] = now_ns();
                    try {
                        futures[i] = ctx.router.submit(std::move(request));
                    } catch (...) {
                        // Hand the failure to the collector, which counts
                        // it as an exception like one thrown by get().
                        std::promise<api::Response> failed;
                        failed.set_exception(std::current_exception());
                        futures[i] = failed.get_future();
                    }
                    submit_end[i] = now_ns();
                }
                published.store(i + 1, std::memory_order_release);
            }
            send_end = now_ns();
        });

        // Collector: scan the outstanding futures and timestamp each one when
        // it is found ready, in whatever order they complete.
        std::vector<std::size_t> outstanding;
        outstanding.reserve(n);
        std::size_t admitted = 0;
        std::size_t completed = 0;
        std::int64_t last_scan = now_ns();
        std::uint64_t scans = 0;
        util::Xoshiro256ss reservoir(first_request);
        std::int64_t next_gauge = last_scan;
        while (completed < n) {
            const std::size_t available = published.load(std::memory_order_acquire);
            while (admitted < available) outstanding.push_back(admitted++);
            bool progressed = false;
            std::size_t kept = 0;
            for (const std::size_t i : outstanding) {
                if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                    outstanding[kept++] = i;  // stays in send order
                    continue;
                }
                const std::int64_t ready = now_ns();
                ++completed;
                progressed = true;

                const Arrival& arrival = schedule[i];
                const std::int64_t due = t0 + arrival.due_ns;
                const std::uint64_t request_id = first_request + i;
                const std::uint64_t request_span = make_span_id(kTagRequest, request_id);
                ++result.tally.sent;
                result.submit_us.push_back(ns_to_us(submit_end[i] - submit_start[i]));
                result.late_us.push_back(ns_to_us(submit_start[i] - due));
                try {
                    const api::Response response = futures[i].get();
                    switch (response.status) {
                        case api::Status::ok: ++result.tally.ok; break;
                        case api::Status::overloaded: ++result.tally.overloaded; break;
                        case api::Status::deadline_exceeded:
                            ++result.tally.deadline_exceeded;
                            break;
                        case api::Status::cancelled: ++result.tally.cancelled; break;
                    }
                    if (response.ok()) {
                        ++ctx.checks.label_checks;
                        const auto* reference = ctx.references.find(response.epoch);
                        if (reference == nullptr) {
                            ctx.checks.fail("request " + std::to_string(request_id) +
                                            ": no reference for epoch " +
                                            std::to_string(response.epoch));
                        } else if (!labels_match(*reference, arrival.begin, response.labels,
                                                 arrival.rows)) {
                            ctx.checks.fail("request " + std::to_string(request_id) +
                                            ": labels differ from the epoch " +
                                            std::to_string(response.epoch) + " reference");
                        }
                        result.latency_ms[i] = ns_to_ms(ready - due);
                        const std::int64_t queue_ns = response.queue_time.count();
                        result.queue_us.push_back(ns_to_us(queue_ns));
                        result.service_us.push_back(ns_to_us(ready - due - queue_ns));
                        if (ctx.collector_tracer.enabled()) {
                            ctx.collector_tracer.record({"api.queue.wait",
                                                         ctx.collector_tracer.next_id(),
                                                         request_span, request_id, submit_end[i],
                                                         submit_end[i] + queue_ns});
                        }
                    }
                } catch (const std::exception& error) {
                    ++result.tally.exception;
                    ctx.checks.fail("request " + std::to_string(request_id) +
                                    " threw: " + error.what());
                } catch (...) {
                    ++result.tally.exception;
                    ctx.checks.fail("request " + std::to_string(request_id) + " threw");
                }
                if (ctx.collector_tracer.enabled()) {
                    ctx.collector_tracer.record({"request", request_span, phase_span, request_id,
                                                 due, ready});
                    ctx.collector_tracer.record({"gen.late", ctx.collector_tracer.next_id(),
                                                 request_span, request_id, due,
                                                 submit_start[i]});
                }
            }
            const std::int64_t now = now_ns();
            // Reservoir sample of scan periods (uniform over the phase).
            ++scans;
            if (result.scan_us.size() < kScanReservoir) {
                result.scan_us.push_back(ns_to_us(now - last_scan));
            } else if (const auto slot = reservoir.next_below(scans); slot < kScanReservoir) {
                result.scan_us[slot] = ns_to_us(now - last_scan);
            }
            last_scan = now;
            if (now >= next_gauge) {
                next_gauge = now + kGaugePeriodNs;
                if (result.inflight_rows.size() < result.inflight_rows.capacity()) {
                    result.inflight_rows.push_back(static_cast<double>(ctx.router.inflight_rows()));
                }
                if (result.delay_us.size() < result.delay_us.capacity()) {
                    for (std::size_t s = 0; s < ctx.router.n_shards(); ++s) {
                        result.delay_us.push_back(static_cast<double>(
                            ctx.router.shard(s).current_queue_delay().count()));
                    }
                }
            }
            outstanding.resize(kept);
            if (!progressed) {
                // Park on the oldest request (they mostly complete in send
                // order) rather than spin: the generator must not compete
                // with the serving threads for the CPUs.
                if (!outstanding.empty()) {
                    futures[outstanding.front()].wait_for(kCollectorWait);
                } else {
                    util::sleep_for(kCollectorWait);
                }
            }
        }
    }
    result.steal = steal_share(cpu_start, read_cpu_times());
    const double send_seconds = static_cast<double>(send_end - t0) / 1e9;
    if (n > 0 && send_seconds > 0.0) {
        const double span_s = static_cast<double>(schedule.back().due_ns) / 1e9;
        result.achieved_rps = static_cast<double>(n) / std::max(send_seconds, span_s);
    }
    return result;
}

/// Mean of samples [begin, end) of `values`.
double mean_of(const std::vector<double>& values, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += values[i];
    return end > begin ? sum / static_cast<double>(end - begin) : 0.0;
}

/// The backlog grew when the mean in-flight rows over a phase's last
/// quarter exceed its first quarter's by more than kBacklogSlackRows (or a
/// quarter of the first-quarter level, whichever is larger).
bool backlog_grew(const std::vector<double>& inflight_rows) {
    const std::size_t quarter = inflight_rows.size() / 4;
    if (quarter == 0) return false;
    const double first = mean_of(inflight_rows, 0, quarter);
    const double last = mean_of(inflight_rows, inflight_rows.size() - quarter, inflight_rows.size());
    return last > first + std::max(static_cast<double>(kBacklogSlackRows), 0.25 * first);
}

// ---------------------------------------------------------------------------
// Swaps
// ---------------------------------------------------------------------------

/// open_mapped + make_snapshot + swap_all of one bundle; returns seconds.
double swap_in(const api::ShardRouter& router, const fs::path& bundle_path, Tracer& tracer,
               std::uint64_t round) {
    ScopedSpan swap(tracer, "swap", kNoParent, round);
    std::optional<api::DeploymentBundle> bundle;
    {
        ScopedSpan span(tracer, "api.bundle.open_mapped", swap.id(), round);
        bundle.emplace(api::DeploymentBundle::open_mapped(bundle_path));
    }
    api::BundleSnapshot snapshot;
    {
        ScopedSpan span(tracer, "api.bundle.snapshot", swap.id(), round);
        snapshot = bundle->make_snapshot();
    }
    {
        ScopedSpan span(tracer, "api.router.swap_all", swap.id(), round);
        router.swap_all(snapshot);
    }
    return static_cast<double>(swap.elapsed_ns()) / 1e9;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Run {
public:
    explicit Run(const Args& args)
        : args_(args),
          spec_(*find_workload(args.workload)),
          host_(read_host_context()),
          main_tracer_(kTagMain, args.trace, 1 << 16),
          sender_tracer_(kTagSender, args.trace, 1 << 20),
          collector_tracer_(kTagCollector, args.trace, 1 << 22),
          swapper_tracer_(kTagSwapper, args.trace, 1 << 12) {}
    // The sender, collector and swapper threads hold `this` while serve()
    // runs.
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    int execute();

private:
    void prepare();
    void rotate_owner();
    void rotate_once(std::size_t round, const fs::path& path);
    void compute_references();
    void setup_cycles(std::size_t round);
    void serve(const api::InferenceSession& session, const api::ShardRouter& router);
    void closed_chunk(const api::InferenceSession& session,
                      const std::vector<util::Matrix<float>>& batches, double seconds);
    void mid_pair(OpenLoopContext& ctx, const std::vector<Arrival>& schedule, std::size_t round);
    void search_step(OpenLoopContext& ctx);
    void idle_swaps(const api::ShardRouter& router, std::size_t round);
    void probes(const api::Device& device, const api::InferenceSession& session);
    Json end_to_end_metrics() const;
    Json per_layer_metrics(const api::ShardRouter& router);
    Json run_record(std::size_t span_count) const;

    double phase_seconds(double share) const { return args_.seconds * share; }
    /// Quiet quartile over closed-loop chunks of each chunk's p-th batch
    /// latency.
    double chunk_quartile(double p) const {
        std::vector<double> values;
        for (const auto& chunk : chunk_batch_ms_) values.push_back(percentile(chunk, p));
        return quiet_quartile(values, chunk_steal_);
    }

    const Args& args_;
    const WorkloadSpec& spec_;
    HostContext host_;
    Tracer main_tracer_;
    Tracer sender_tracer_;
    Tracer collector_tracer_;
    Tracer swapper_tracer_;

    Inputs inputs_;
    std::optional<api::Owner> owner_;
    std::vector<fs::path> bundles_;
    References references_;
    Checks checks_;
    Tally tally_;         // steady phases: closed loop, fixed rates, set-up
    Tally search_tally_;  // max-rate search steps (overload is their signal)
    std::uint64_t next_request_ = 0;

    std::vector<double> rotate_s_;
    std::vector<double> rotate_steal_;
    std::vector<double> setup_s_;
    std::vector<double> swap_s_;
    /// Per closed-loop chunk: batch latencies (ms), rows/s and host steal
    /// share.
    std::vector<std::vector<double>> chunk_batch_ms_;
    std::vector<double> chunk_rows_per_s_;
    std::vector<double> chunk_steal_;
    std::uint64_t closed_calls_ = 0;
    /// Open-loop segments per rate (low, mid, high), one per round.
    std::array<std::vector<OpenLoopResult>, 3> segments_;
    /// Traced run: traced ÷ untraced p50 of each round's mid schedule.
    std::vector<double> trace_ratios_;
    Json search_steps_ = Json::array();
    std::size_t search_step_ = 0;
    double search_rate_ = 0.0;
    double search_pass_rate_ = 0.0;
    double search_fail_rate_ = 0.0;
    bool search_retry_ = false;
    double max_rate_rps_ = 0.0;
    std::vector<double> delay_us_;
    std::size_t inflight_max_ = 0;
    std::vector<double> scan_us_;

    // Probe results (traced run only).
    double discretize_us_ = 0.0;
    double fused_us_ = 0.0;
    double encode_us_ = 0.0;
    double score_us_ = 0.0;
    double predict_row_us_ = 0.0;
    double dispatch_us_ = 0.0;
    double bytes_per_row_ = 0.0;

    CpuTimes cpu_before_;
    double steal_ = 0.0;
};

void Run::prepare() {
    inputs_ = make_inputs(spec_, args_.seed);
    fs::create_directories(args_.out_dir);
    owner_.emplace(make_owner(inputs_, args_.seed));
    bundles_.push_back(args_.out_dir / (std::string(spec_.name) + "-epoch0.hdlk"));
    owner_->export_device_atomic(bundles_.back());
    rotate_owner();
    compute_references();
}

/// K serial rounds of Owner::rotate + export_device_atomic, each to its own
/// path: the bundles the swaps install.
void Run::rotate_owner() {
    for (std::size_t round = 1; round <= spec_.rotations; ++round) {
        const fs::path path =
            args_.out_dir / (std::string(spec_.name) + "-epoch" + std::to_string(round) + ".hdlk");
        rotate_once(round, path);
        bundles_.push_back(path);
    }
}

/// One timed Owner::rotate + export_device_atomic.  The traced run splits
/// the rotation into its rekey and retrain calls so each gets a span.
void Run::rotate_once(std::size_t round, const fs::path& path) {
    const api::RotateOptions options = rotate_options(args_.seed, round);
    const CpuTimes cpu_start = read_cpu_times();
    ScopedSpan span(main_tracer_, "rotate.round", kNoParent, round);
    if (args_.trace) {
        {
            ScopedSpan rekey(main_tracer_, "core.rotate_key", span.id(), round);
            owner_->rotate_key(options.seed);
        }
        {
            ScopedSpan train(main_tracer_, "hdc.train", span.id(), round);
            owner_->train(inputs_.train, options.train);
        }
    } else {
        owner_->rotate(inputs_.train, options);
    }
    {
        ScopedSpan exported(main_tracer_, "api.bundle.export", span.id(), round);
        owner_->export_device_atomic(path);
    }
    rotate_s_.push_back(static_cast<double>(span.elapsed_ns()) / 1e9);
    rotate_steal_.push_back(steal_share(cpu_start, read_cpu_times()));
}

/// Single-thread Device::predict over the pool for every epoch: swaps
/// install the rotated ones on the router between or during the rounds.
void Run::compute_references() {
    references_.by_epoch.resize(bundles_.size());
    for (std::size_t e = 0; e < bundles_.size(); ++e) {
        const api::Device device = api::Device::load(bundles_[e]);
        if (device.epoch() != e) {
            checks_.fail("bundle " + bundles_[e].string() + " carries epoch " +
                         std::to_string(device.epoch()));
        }
        references_.by_epoch[e] = device.predict(inputs_.pool);
    }
}

/// One round's cold cycles of open_mapped -> open_session/open_router ->
/// first Ok 1-row response.
void Run::setup_cycles(std::size_t round) {
    const bool offline = std::string_view(spec_.name) == "offline";
    const auto& reference = references_.by_epoch[0];
    for (std::size_t i = 0; i < kSetupCyclesPerRound; ++i) {
        const std::size_t cycle = round * kSetupCyclesPerRound + i;
        const std::size_t row = cycle * 97 % inputs_.pool.rows();
        std::optional<api::Device> device;
        std::optional<api::InferenceSession> session;
        std::optional<api::ShardRouter> router;
        ScopedSpan span(main_tracer_, "setup.cycle", kNoParent, cycle);
        {
            ScopedSpan open(main_tracer_, "api.device.open_mapped", span.id(), cycle);
            device.emplace(api::Device::open_mapped(bundles_[0]));
        }
        {
            ScopedSpan build(main_tracer_, "api.session.build", span.id(), cycle);
            if (offline) {
                session.emplace(device->open_session({.n_threads = host_.nproc}));
            } else {
                router.emplace(device->open_router(router_options(host_.nproc)));
            }
        }
        std::vector<int> labels;
        bool ok = false;
        {
            ScopedSpan first(main_tracer_, "api.first_response", span.id(), cycle);
            if (offline) {
                labels = session->predict(slice_rows(inputs_.pool, row, 1));
                ok = true;
            } else {
                api::Request request;
                request.rows = slice_rows(inputs_.pool, row, 1);
                api::Response response = router->submit(std::move(request)).get();
                ok = response.ok();
                labels = std::move(response.labels);
            }
        }
        setup_s_.push_back(static_cast<double>(span.elapsed_ns()) / 1e9);
        ++tally_.sent;
        ++checks_.label_checks;
        if (ok) {
            ++tally_.ok;
            if (!labels_match(reference, row, labels, 1)) {
                checks_.fail("set-up cycle " + std::to_string(cycle) + ": label differs");
            }
        } else {
            ++tally_.overloaded;
        }
    }
}

/// One closed-loop chunk: back-to-back batch_rows-row predict calls for
/// `seconds` (at least one call).
void Run::closed_chunk(const api::InferenceSession& session,
                       const std::vector<util::Matrix<float>>& batches, double seconds) {
    const auto& reference = references_.by_epoch[0];
    std::vector<double> batch_ms;
    batch_ms.reserve(4096);
    const CpuTimes cpu_start = read_cpu_times();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    do {
        const std::uint64_t call = closed_calls_++;
        const std::size_t b = call % batches.size();
        std::vector<int> labels;
        std::int64_t elapsed = 0;
        ++tally_.sent;
        try {
            ScopedSpan span(main_tracer_, "api.session.predict", kNoParent, call);
            labels = session.predict(batches[b]);
            elapsed = span.elapsed_ns();
        } catch (const std::exception& error) {
            ++tally_.exception;
            checks_.fail(std::string("closed-loop predict threw: ") + error.what());
            break;
        }
        ++tally_.ok;
        ++checks_.label_checks;
        if (!labels_match(reference, b * spec_.batch_rows, labels, spec_.batch_rows)) {
            checks_.fail("closed-loop batch " + std::to_string(call) + ": labels differ");
        }
        batch_ms.push_back(ns_to_ms(elapsed));
    } while (now_ns() < end);
    chunk_rows_per_s_.push_back(static_cast<double>(batch_ms.size() * spec_.batch_rows) /
                                (static_cast<double>(now_ns() - start) / 1e9));
    chunk_steal_.push_back(steal_share(cpu_start, read_cpu_times()));
    chunk_batch_ms_.push_back(std::move(batch_ms));
}

/// The serving phases, interleaved: kRounds rounds of [set-up cycles, idle
/// swaps (unless swaps run under load), closed-loop chunk, low, mid and high
/// open-loop segments], then the max-rate search.  A few seconds of host
/// trouble (steal, a noisy neighbour) then lands in one round of every phase
/// instead of swallowing one whole phase, and the statistics over rounds
/// step around it.  The search is an overload probe and is not gated, so it
/// runs once the gated rounds are done.
void Run::serve(const api::InferenceSession& session, const api::ShardRouter& router) {
    const std::size_t n_batches = inputs_.pool.rows() / spec_.batch_rows;
    std::vector<util::Matrix<float>> batches;
    for (std::size_t b = 0; b < n_batches; ++b) {
        batches.push_back(slice_rows(inputs_.pool, b * spec_.batch_rows, spec_.batch_rows));
    }
    // Warm-up: the session's pool and per-slot scratch, then a short
    // closed burst through the router so shard scratch and the governor
    // settle.
    const std::int64_t warm_end = now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
    for (std::size_t b = 0; b == 0 || now_ns() < warm_end; ++b) {
        session.predict(batches[b % batches.size()]);
    }
    for (std::size_t i = 0; i < 64; ++i) {
        api::Request request;
        request.rows = slice_rows(inputs_.pool, i * 3, 1 + i % kMultiRows);
        router.submit(std::move(request)).get();
    }

    // Writer: installs the next epoch every swap_period_s while the rounds
    // run (rotate workload only).
    const bool swap_under_load = spec_.swap_period_s > 0.0;
    std::atomic<bool> stop_swaps{false};
    std::string swap_error;  // written by the swapper, read after the join
    std::optional<util::Thread> swapper;
    if (swap_under_load) {
        swapper.emplace([&] {
            std::uint64_t round = 0;
            std::int64_t next = now_ns() + static_cast<std::int64_t>(spec_.swap_period_s * 1e9);
            while (!stop_swaps.load(std::memory_order_acquire)) {
                if (now_ns() < next) {
                    util::sleep_for(std::chrono::microseconds(2000));
                    continue;
                }
                const std::size_t bundle = 1 + round % (bundles_.size() - 1);
                try {
                    swap_s_.push_back(swap_in(router, bundles_[bundle], swapper_tracer_, round));
                } catch (const std::exception& error) {
                    swap_error = error.what();
                    return;
                }
                ++round;
                next += static_cast<std::int64_t>(spec_.swap_period_s * 1e9);
            }
        });
    }

    OpenLoopContext ctx{router,        inputs_.pool,     references_,  checks_,
                        sender_tracer_, collector_tracer_, next_request_};
    const double closed_s = phase_seconds(spec_.closed_share) / kRounds;
    const double segment_s =
        phase_seconds((1.0 - spec_.closed_share - kSearchShare) / 3.0) / kRounds;
    static constexpr std::array<const char*, 3> kPhaseNames{"phase.low", "phase.mid", "phase.high"};
    // Timed rotations in the rounds overwrite one path; no session ever
    // serves it.
    const fs::path spare = args_.out_dir / (std::string(spec_.name) + "-spare.hdlk");
    for (std::size_t round = 0; round < kRounds; ++round) {
        if (round % (kRounds / spec_.timed_rotations) == 0) {
            rotate_once(spec_.rotations + 1 + round / (kRounds / spec_.timed_rotations), spare);
        }
        setup_cycles(round);
        if (!swap_under_load) idle_swaps(router, round);
        closed_chunk(session, batches, closed_s);
        for (std::size_t r = 0; r < 3; ++r) {
            const double rate = spec_.rates_rps[r];
            const auto schedule = make_schedule(util::hash_mix(args_.seed, r * kRounds + round),
                                                rate, segment_s, inputs_.pool.rows());
            if (args_.trace && r == 1) {
                mid_pair(ctx, schedule, round);
                continue;
            }
            ScopedSpan phase(main_tracer_, kPhaseNames[r], kNoParent, round);
            segments_[r].push_back(run_open_loop(ctx, schedule, rate, phase.id()));
            tally_.add(segments_[r].back().tally);
        }
    }
    stop_swaps.store(true, std::memory_order_release);
    swapper.reset();  // joins
    if (!swap_error.empty()) checks_.fail("swap under load threw: " + swap_error);

    search_rate_ = spec_.rates_rps[2];
    const auto search_steps = static_cast<std::size_t>(
        std::max(2.0, std::floor(phase_seconds(kSearchShare) / kSearchStepSeconds)));
    while (search_step_ < search_steps) search_step(ctx);

    for (const auto& rate : segments_) {
        for (const auto& segment : rate) {
            delay_us_.insert(delay_us_.end(), segment.delay_us.begin(), segment.delay_us.end());
            for (const double rows : segment.inflight_rows) {
                inflight_max_ = std::max(inflight_max_, static_cast<std::size_t>(rows));
            }
            scan_us_.insert(scan_us_.end(), segment.scan_us.begin(), segment.scan_us.end());
        }
    }
}

/// Traced run, mid rate: the round's schedule once untraced and once traced,
/// in alternating order across rounds so that neither always runs first;
/// the traced segment is the one the mid metrics use.
void Run::mid_pair(OpenLoopContext& ctx, const std::vector<Arrival>& schedule, std::size_t round) {
    const double rate = spec_.rates_rps[1];
    const auto untraced = [&] {
        sender_tracer_.set_enabled(false);
        collector_tracer_.set_enabled(false);
        OpenLoopResult result = run_open_loop(ctx, schedule, rate, kNoParent);
        sender_tracer_.set_enabled(true);
        collector_tracer_.set_enabled(true);
        tally_.add(result.tally);
        return percentile(result.latency_ms, 50.0);
    };
    double untraced_p50 = round % 2 == 1 ? untraced() : 0.0;
    {
        ScopedSpan phase(main_tracer_, "phase.mid", kNoParent, round);
        segments_[1].push_back(run_open_loop(ctx, schedule, rate, phase.id()));
        tally_.add(segments_[1].back().tally);
    }
    if (round % 2 == 0) untraced_p50 = untraced();
    trace_ratios_.push_back(percentile(segments_[1].back().latency_ms, 50.0) / untraced_p50);
}

/// One max-rate search step: offers search_rate_ for kSearchStepSeconds.
/// The rate grows geometrically until a step fails, then bisects
/// (geometric midpoint) between the best pass and the lowest fail; a rate
/// fails only when two steps in a row at it fail.  A step passes when its
/// median latency (failures infinitely late) meets the frozen limit and its
/// backlog did not grow (backlog_grew).  max_rate_rps_ is the highest passing
/// step's achieved rate.
void Run::search_step(OpenLoopContext& ctx) {
    const std::size_t step = search_step_++;
    const double rate = search_rate_;
    const auto schedule = make_schedule(util::hash_mix(args_.seed, 0x5ea7c4 + step), rate,
                                        kSearchStepSeconds, inputs_.pool.rows());
    ScopedSpan phase(main_tracer_, "phase.search", kNoParent, step);
    // Search steps are overload probes: their requests are not traced.
    sender_tracer_.set_enabled(false);
    collector_tracer_.set_enabled(false);
    const OpenLoopResult result = run_open_loop(ctx, schedule, rate, phase.id());
    sender_tracer_.set_enabled(args_.trace);
    collector_tracer_.set_enabled(args_.trace);
    search_tally_.add(result.tally);
    const double p50 = percentile(result.latency_ms, 50.0);
    const bool backlog = backlog_grew(result.inflight_rows);
    const bool pass = p50 <= spec_.latency_limit_ms && !backlog;
    Json record = Json::object();
    record["offered_rps"] = rate;
    record["achieved_rps"] = result.achieved_rps;
    record["p50_ms"] = p50;
    record["p90_ms"] = percentile(result.latency_ms, kTailPct);
    record["backlog_grew"] = backlog;
    record["pass"] = pass;
    search_steps_.push_back(std::move(record));
    if (pass) {
        max_rate_rps_ = std::max(max_rate_rps_, result.achieved_rps);
        search_pass_rate_ = rate;
        search_retry_ = false;
    } else if (!search_retry_) {
        // A first failure is offered once more before it bounds the search:
        // a burst of host stalls should not cap the rate.
        search_retry_ = true;
        return;
    } else {
        search_fail_rate_ = rate;
        search_retry_ = false;
    }
    if (search_fail_rate_ == 0.0) {
        search_rate_ = rate * kSearchGrowth;
    } else if (search_pass_rate_ == 0.0) {
        search_rate_ = rate / kSearchGrowth;
    } else {
        search_rate_ = std::sqrt(search_pass_rate_ * search_fail_rate_);
    }
}

/// One round's idle swaps, for the workloads that do not swap under load;
/// the round's segments are then served by the last epoch installed.
void Run::idle_swaps(const api::ShardRouter& router, std::size_t round) {
    for (std::size_t i = 0; i < kIdleSwapsPerRound; ++i) {
        const std::size_t swap = round * kIdleSwapsPerRound + i;
        const std::size_t bundle = 1 + swap % (bundles_.size() - 1);
        swap_s_.push_back(swap_in(router, bundles_[bundle], swapper_tracer_, swap));
    }
}

/// Per-layer probes (traced run): single-thread timings of the hdc layer
/// calls a served row goes through, the pool's dispatch cost, and the
/// session's single-row path.  Each probe's labels are checked too.
void Run::probes(const api::Device& device, const api::InferenceSession& session) {
    const hdc::Encoder& encoder = device.encoder();
    const hdc::HdcModel& model = device.model();
    const hdc::MinMaxDiscretizer& discretizer = device.discretizer();
    const auto& reference = references_.by_epoch[0];
    const std::size_t rows = std::min<std::size_t>(kProbeRows, inputs_.pool.rows());
    const util::Matrix<float> block = slice_rows(inputs_.pool, 0, rows);
    const auto per_row_us = [&](std::int64_t ns) { return ns_to_us(ns) / static_cast<double>(rows); };
    const auto check = [&](const char* what, std::size_t r, int label) {
        ++checks_.label_checks;
        if (label != reference[r]) checks_.fail(std::string(what) + " row " + std::to_string(r) + ": label differs");
    };

    util::Matrix<int> levels;
    {
        ScopedSpan span(main_tracer_, "hdc.discretize", kNoParent, rows);
        levels = discretizer.transform(block);
        discretize_us_ = per_row_us(span.elapsed_ns());
    }
    hdc::EncoderScratch scratch;
    {
        ScopedSpan span(main_tracer_, "hdc.fused", kNoParent, rows);
        std::vector<int> labels(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            labels[r] = model.predict_fused(encoder, levels.row(r), scratch);
        }
        fused_us_ = per_row_us(span.elapsed_ns());
        for (std::size_t r = 0; r < rows; ++r) check("fused", r, labels[r]);
    }
    std::vector<hdc::BinaryHV> queries(rows);
    {
        ScopedSpan span(main_tracer_, "hdc.encode", kNoParent, rows);
        for (std::size_t r = 0; r < rows; ++r) {
            encoder.encode_binary_into(levels.row(r), scratch, queries[r]);
        }
        encode_us_ = per_row_us(span.elapsed_ns());
    }
    {
        ScopedSpan span(main_tracer_, "hdc.score", kNoParent, rows);
        std::vector<int> labels(rows);
        for (std::size_t r = 0; r < rows; ++r) labels[r] = model.predict(queries[r]);
        score_us_ = per_row_us(span.elapsed_ns());
        for (std::size_t r = 0; r < rows; ++r) check("two-step", r, labels[r]);
    }
    {
        ScopedSpan span(main_tracer_, "api.session.predict_row", kNoParent, rows);
        std::vector<int> labels(rows);
        for (std::size_t r = 0; r < rows; ++r) labels[r] = session.predict_row(block.row(r));
        predict_row_us_ = per_row_us(span.elapsed_ns());
        for (std::size_t r = 0; r < rows; ++r) check("predict_row", r, labels[r]);
    }
    {
        util::ThreadPool pool(host_.nproc);
        constexpr std::size_t kDispatches = 2000;
        const auto empty = [](std::size_t, std::size_t, std::size_t) {};
        util::parallel_for(pool, host_.nproc, host_.nproc, empty);  // wake every worker once
        std::vector<double> samples;
        samples.reserve(kDispatches);
        for (std::size_t i = 0; i < kDispatches; ++i) {
            const std::int64_t start = now_ns();
            util::parallel_for(pool, host_.nproc, host_.nproc, empty);
            samples.push_back(ns_to_us(now_ns() - start));
        }
        dispatch_us_ = median(std::move(samples));
    }
    // Bytes the fused kernel touches per row: one materialized feature HV
    // and one value HV per feature, plus every class HV (computed from the
    // shapes, not measured).
    const double hv_bytes = static_cast<double>((encoder.dim() + 63) / 64 * 8);
    bytes_per_row_ =
        hv_bytes * static_cast<double>(2 * encoder.n_features() + static_cast<std::size_t>(model.n_classes()));
}

/// p50/p75/p90/p95/p99 of a sample, for the run record.
Json ladder(const std::vector<double>& values) {
    const auto ordered = sorted(values);
    Json out = Json::object();
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
        std::string key = "p";
        key += std::to_string(static_cast<int>(p));
        out[key] = percentile_sorted(ordered, p);
    }
    return out;
}

/// Quiet quartile over open-loop segments of each segment's p-th latency
/// percentile.
double segment_quartile(const std::vector<OpenLoopResult>& segments, double p) {
    std::vector<double> values;
    std::vector<double> steal;
    for (const auto& segment : segments) {
        values.push_back(percentile(segment.latency_ms, p));
        steal.push_back(segment.steal);
    }
    return quiet_quartile(values, steal);
}

/// Every segment's samples of one field, pooled.
std::vector<double> pooled(const std::array<std::vector<OpenLoopResult>, 3>& rates,
                           std::vector<double> OpenLoopResult::*field) {
    std::vector<double> out;
    for (const auto& segments : rates) {
        for (const auto& segment : segments) {
            out.insert(out.end(), (segment.*field).begin(), (segment.*field).end());
        }
    }
    return sorted(std::move(out));
}

Json metric(double value, const char* unit) {
    Json entry = Json::object();
    entry["value"] = value;
    entry["unit"] = unit;
    return entry;
}

Json Run::end_to_end_metrics() const {
    Json metrics = Json::object();
    metrics["rows_per_s"] = metric(quiet_quartile(chunk_rows_per_s_, chunk_steal_, true), "rows/s");
    metrics["batch_p50_ms"] = metric(chunk_quartile(50.0), "ms");
    static constexpr std::array<const char*, 3> kRates{"low", "mid", "high"};
    for (std::size_t r = 0; r < 3; ++r) {
        metrics[std::string("p50_ms.") + kRates[r]] = metric(segment_quartile(segments_[r], 50.0), "ms");
    }
    metrics["ok_frac"] =
        metric(static_cast<double>(tally_.ok) / static_cast<double>(tally_.sent), "ratio");
    metrics["setup_s"] = metric(median(setup_s_), "s");
    metrics["rotate_s"] = metric(median(rotate_s_), "s");
    metrics["swap_s"] = metric(fast_quartile(swap_s_), "s");
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MiB");
    return metrics;
}

Json Run::per_layer_metrics(const api::ShardRouter& router) {
    std::vector<Span> spans;
    for (const Tracer* tracer : {&main_tracer_, &sender_tracer_, &collector_tracer_, &swapper_tracer_}) {
        spans.insert(spans.end(), tracer->spans().begin(), tracer->spans().end());
    }
    const auto self = self_times(spans);
    write_trace_csv(args_.out_dir / (std::string(spec_.name) + ".trace.csv"), spans, self);
    const auto median_ms = [&](const char* name) { return median(durations_us(spans, name)) / 1e3; };

    const auto queue = pooled(segments_, &OpenLoopResult::queue_us);
    const auto service = pooled(segments_, &OpenLoopResult::service_us);
    const auto submit = pooled(segments_, &OpenLoopResult::submit_us);
    const auto late = pooled(segments_, &OpenLoopResult::late_us);

    const api::RouterStats stats = router.stats();
    double routed_max = 0.0;
    double routed_sum = 0.0;
    for (const auto routed : stats.routed_per_shard) {
        routed_max = std::max(routed_max, static_cast<double>(routed));
        routed_sum += static_cast<double>(routed);
    }
    const double routed_mean = routed_sum / static_cast<double>(stats.routed_per_shard.size());
    const double batch_p50_us = chunk_quartile(50.0) * 1e3;
    Tally all = tally_;
    all.add(search_tally_);

    Json metrics = Json::object();
    metrics["hdc.discretize.us_per_row"] = metric(discretize_us_, "us");
    metrics["hdc.fused.us_per_row"] = metric(fused_us_, "us");
    metrics["hdc.encode.us_per_row"] = metric(encode_us_, "us");
    metrics["hdc.score.us_per_row"] = metric(score_us_, "us");
    metrics["util.kernels.bytes_per_row"] = metric(bytes_per_row_, "bytes");
    metrics["util.pool.efficiency"] =
        metric((discretize_us_ + fused_us_) * static_cast<double>(spec_.batch_rows) /
                   (static_cast<double>(host_.nproc) * batch_p50_us),
               "ratio");
    metrics["util.pool.dispatch_us"] = metric(dispatch_us_, "us");
    metrics["api.session.predict_row_us"] = metric(predict_row_us_, "us");
    metrics["api.queue.wait_p50_us"] = metric(percentile_sorted(queue, 50.0), "us");
    metrics["api.queue.wait_p99_us"] = metric(percentile_sorted(queue, 99.0), "us");
    metrics["api.queue.service_p50_us"] = metric(percentile_sorted(service, 50.0), "us");
    metrics["api.queue.service_p99_us"] = metric(percentile_sorted(service, 99.0), "us");
    metrics["api.router.submit_p50_us"] = metric(percentile_sorted(submit, 50.0), "us");
    metrics["api.router.submit_p99_us"] = metric(percentile_sorted(submit, 99.0), "us");
    metrics["api.router.shed_frac"] =
        metric(static_cast<double>(stats.shed) / static_cast<double>(stats.accepted + stats.shed),
               "ratio");
    metrics["api.router.skew"] = metric(routed_max / routed_mean, "ratio");
    metrics["api.router.inflight_rows_max"] = metric(static_cast<double>(inflight_max_), "rows");
    metrics["api.bundle.open_ms"] = metric(median_ms("api.bundle.open_mapped"), "ms");
    metrics["api.session.build_ms"] = metric(median_ms("api.session.build"), "ms");
    metrics["api.bundle.snapshot_ms"] = metric(median_ms("api.bundle.snapshot"), "ms");
    metrics["api.router.swap_all_ms"] = metric(median_ms("api.router.swap_all"), "ms");
    metrics["core.rotate_key_ms"] = metric(median_ms("core.rotate_key"), "ms");
    metrics["hdc.train_ms"] = metric(median_ms("hdc.train"), "ms");
    metrics["api.bundle.export_ms"] = metric(median_ms("api.bundle.export"), "ms");
    metrics["api.status.ok"] = metric(static_cast<double>(all.ok), "count");
    metrics["api.status.overloaded"] = metric(static_cast<double>(all.overloaded), "count");
    metrics["api.status.deadline_exceeded"] =
        metric(static_cast<double>(all.deadline_exceeded), "count");
    metrics["api.status.cancelled"] = metric(static_cast<double>(all.cancelled), "count");
    metrics["api.status.exception"] = metric(static_cast<double>(all.exception), "count");
    metrics["gen.late_p99_ms"] = metric(percentile_sorted(late, 99.0) / 1e3, "ms");
    // Median over rounds of the paired traced ÷ untraced mid p50.
    metrics["trace.overhead_frac"] = metric(median(trace_ratios_) - 1.0, "ratio");
    metrics["host.steal_frac"] = metric(steal_, "ratio");
    return metrics;
}

Json Run::run_record(std::size_t span_count) const {
    Json record = Json::object();
    record["record"] = "run";
    record["workload"] = spec_.name;
    record["seed"] = args_.seed;
    record["seconds"] = args_.seconds;
    record["trace"] = args_.trace;
    Json host = Json::object();
    host["nproc"] = host_.nproc;
    host["kernel_backend"] = host_.kernel_backend;
    host["cpu_model"] = host_.cpu_model;
    host["loadavg_1m"] = host_.loadavg_1m;
    host["steal_frac"] = steal_;
    record["host"] = std::move(host);
    record["input_digest"] = inputs_.digest;
    record["reference_digest"] = label_digest(references_.by_epoch[0]);
    record["label_checks"] = checks_.label_checks;
    record["mismatches"] = checks_.mismatches;
    Json errors = Json::array();
    for (const auto& error : checks_.errors) errors.push_back(error);
    record["errors"] = std::move(errors);
    Json timestamp = Json::object();
    // Completion times are taken when the collector finds a future ready;
    // its scan period bounds how late that can be.
    timestamp["clock"] = "steady_clock (ns)";
    timestamp["collector_scan_p50_us"] = percentile(scan_us_, 50.0);
    timestamp["collector_scan_p99_us"] = percentile(scan_us_, 99.0);
    record["timestamp_resolution"] = std::move(timestamp);
    // The router governor's coalescing delay, sampled by the collector
    // (current_queue_delay); a configuration gauge, so it stays out of the
    // metrics.
    Json delay = Json::object();
    delay["p50_us"] = percentile(delay_us_, 50.0);
    delay["max_us"] = percentile(delay_us_, 100.0);
    record["queue_delay"] = std::move(delay);
    Json phases = Json::array();
    static constexpr std::array<const char*, 3> kRates{"low", "mid", "high"};
    for (std::size_t r = 0; r < 3; ++r) {
        std::vector<double> latency, late;
        Json segment_medians = Json::array();
        Json segment_tails = Json::array();
        Json segment_steal = Json::array();
        Tally tally;
        double achieved = 0.0;
        for (const auto& segment : segments_[r]) {
            latency.insert(latency.end(), segment.latency_ms.begin(), segment.latency_ms.end());
            late.insert(late.end(), segment.late_us.begin(), segment.late_us.end());
            segment_medians.push_back(percentile(segment.latency_ms, 50.0));
            segment_tails.push_back(percentile(segment.latency_ms, kTailPct));
            segment_steal.push_back(segment.steal);
            tally.add(segment.tally);
            achieved += segment.achieved_rps / static_cast<double>(segments_[r].size());
        }
        latency = sorted(std::move(latency));
        const TailSummary tail = highest_supported(latency, 99.0);
        Json phase = Json::object();
        phase["rate"] = kRates[r];
        phase["offered_rps"] = spec_.rates_rps[r];
        phase["achieved_rps"] = achieved;
        phase["sent"] = tally.sent;
        phase["ok"] = tally.ok;
        // Whole-phase tail: the highest percentile with >= 10 samples beyond.
        phase["tail_pct"] = tail.pct;
        phase["tail_ms"] = tail.value;
        phase["ladder_ms"] = ladder(latency);
        phase["segment_p50_ms"] = std::move(segment_medians);
        phase["segment_p90_ms"] = std::move(segment_tails);
        phase["segment_steal"] = std::move(segment_steal);
        phase["late_p99_us"] = percentile(late, 99.0);
        phases.push_back(std::move(phase));
    }
    record["open_loop"] = std::move(phases);
    std::vector<double> batches;
    for (const auto& chunk : chunk_batch_ms_) batches.insert(batches.end(), chunk.begin(), chunk.end());
    Json closed = Json::object();
    closed["batches"] = batches.size();
    closed["tail_pct"] = highest_supported(sorted(batches), 90.0).pct;
    closed["ladder_ms"] = ladder(batches);
    Json chunk_rates = Json::array();
    for (const double rate : chunk_rows_per_s_) chunk_rates.push_back(rate);
    closed["chunk_rows_per_s"] = std::move(chunk_rates);
    Json chunk_medians = Json::array();
    for (const auto& chunk : chunk_batch_ms_) chunk_medians.push_back(percentile(chunk, 50.0));
    closed["chunk_p50_ms"] = std::move(chunk_medians);
    Json chunk_steal = Json::array();
    for (const double steal : chunk_steal_) chunk_steal.push_back(steal);
    closed["chunk_steal"] = std::move(chunk_steal);
    // Reported, not gated: on a host with bursty steal one stolen vCPU
    // stalls a whole fanned-out batch, and this tail moved 20-30% between
    // identical runs.
    closed["batch_p90_ms"] = chunk_quartile(90.0);
    record["closed_loop"] = std::move(closed);
    // Reported, not gated: the knee moved with the host's steal time (25-50%
    // between identical runs).
    record["max_rate_rps"] = max_rate_rps_;
    record["max_rate_search"] = search_steps_;
    record["search_sent"] = search_tally_.sent;
    record["search_ok"] = search_tally_.ok;
    Json rotations = Json::array();
    for (const double seconds : rotate_s_) rotations.push_back(seconds);
    record["rotations_s"] = std::move(rotations);
    Json rotation_steal = Json::array();
    for (const double steal : rotate_steal_) rotation_steal.push_back(steal);
    record["rotation_steal"] = std::move(rotation_steal);
    record["swaps"] = swap_s_.size();
    record["spans"] = span_count;
    return record;
}

int Run::execute() {
    prepare();

    cpu_before_ = read_cpu_times();
    const api::Device device = api::Device::open_mapped(bundles_[0]);
    const api::InferenceSession session = device.open_session({.n_threads = host_.nproc});
    const api::ShardRouter router = device.open_router(router_options(host_.nproc));
    serve(session, router);
    steal_ = steal_share(cpu_before_, read_cpu_times());
    if (args_.trace) probes(device, session);

    if (!tally_.adds_up() || !search_tally_.adds_up()) {
        checks_.fail("status counts do not add up to the requests sent");
    }
    if (tally_.ok != tally_.sent) {
        // The frozen rates sit below capacity: every request there, in the
        // closed loop and in set-up must come back Ok.
        checks_.fail(std::to_string(tally_.sent - tally_.ok) + " of " +
                     std::to_string(tally_.sent) + " steady-phase requests were not Ok");
    }

    Json metrics = args_.trace ? per_layer_metrics(router) : end_to_end_metrics();
    std::size_t span_count = 0;
    for (const Tracer* tracer : {&main_tracer_, &sender_tracer_, &collector_tracer_, &swapper_tracer_}) {
        span_count += tracer->spans().size();
    }
    std::cout << run_record(span_count).dump() << '\n';

    Json result = Json::object();
    result["correct"] = checks_.passed();
    result["attempted"] = tally_.sent;
    result["failed"] = tally_.sent - tally_.ok;
    result["metrics"] = std::move(metrics);
    std::cout << result.dump() << std::endl;
    return checks_.passed() ? 0 : 1;
}

}  // namespace

}  // namespace hdlock::serving_bench

int main(int argc, char** argv) {
    using namespace hdlock::serving_bench;
    const Args args = parse_args(argc, argv);
    try {
        Run run(args);
        return run.execute();
    } catch (const std::exception& error) {
        std::cerr << "serving_bench: " << error.what() << '\n';
        return 1;
    }
}
