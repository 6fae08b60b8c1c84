#pragma once

/// \file trace.hpp
/// In-memory spans for the benchmark's traced run.
///
/// A span is one timed call into a layer's public function, recorded from
/// the benchmark's own code around that call (the library itself carries no
/// tracing).  Each span has a name, start and end on the steady clock, the
/// id of the span that caused it, and the request or batch id it served.
/// Spans of one request share that id, so a request's family can be pulled
/// out of the dump with one filter.
///
/// Every thread records into its own Tracer (no locking on the record
/// path); buffers are reserved up front and merged when the run ends.
/// self_times() then subtracts from each span the union of its children's
/// intervals, which is the time the layer spent in its own code.
///
/// A disabled Tracer records nothing, so the untraced run pays only a
/// branch per span site.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string_view>
#include <vector>

#include "util/deadline.hpp"

namespace hdlock::serving_bench {

/// Steady-clock nanoseconds (the util clock funnel, as an integer).
inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               util::steady_now().time_since_epoch())
        .count();
}

/// Root spans have parent 0.
inline constexpr std::uint64_t kNoParent = 0;

struct Span {
    /// Static string naming the layer call ("api.router.submit", ...).
    const char* name = "";
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = kNoParent;
    /// Request or batch id the span served (0 for set-up work).
    std::uint64_t request_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Span ids carry a namespace tag in the top 16 bits so ids minted on
/// different threads (and the per-request ids the sender and the collector
/// both derive) never collide.
constexpr std::uint64_t make_span_id(std::uint16_t tag, std::uint64_t index) noexcept {
    return (static_cast<std::uint64_t>(tag) << 48) | (index + 1);
}

/// One thread's span buffer.  Not thread-safe: each thread owns its own.
class Tracer {
public:
    Tracer(std::uint16_t tag, bool enabled, std::size_t reserve = 0);

    bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

    /// A fresh span id in this tracer's namespace.
    std::uint64_t next_id() noexcept { return make_span_id(tag_, counter_++); }

    void record(const Span& span) {
        if (enabled_) spans_.push_back(span);
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::uint16_t tag_;
    bool enabled_;
    std::uint64_t counter_ = 0;
    std::vector<Span> spans_;
};

/// RAII span: starts at construction, records at destruction.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent_id = kNoParent,
               std::uint64_t request_id = 0)
        : tracer_(tracer) {
        span_.name = name;
        span_.span_id = tracer.next_id();
        span_.parent_id = parent_id;
        span_.request_id = request_id;
        span_.start_ns = now_ns();
    }
    ~ScopedSpan() {
        span_.end_ns = now_ns();
        tracer_.record(span_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const noexcept { return span_.span_id; }
    /// Elapsed time so far; the benchmark's untraced metrics read their
    /// timings from here, so both runs time exactly the same interval.
    std::int64_t elapsed_ns() const noexcept { return now_ns() - span_.start_ns; }

private:
    Tracer& tracer_;
    Span span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent,
/// overlapping children counted once).  Result is index-aligned with
/// `spans`.
std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Durations (or self times) in microseconds of every span named `name`.
std::vector<double> durations_us(std::span<const Span> spans, std::string_view name);

/// Writes one line per span:
///   name,span_id,parent_id,request_id,start_ns,end_ns,self_ns
/// with a header line; start/end are relative to the earliest span.
void write_trace_csv(const std::filesystem::path& path, std::span<const Span> spans,
                     std::span<const std::int64_t> self);

}  // namespace hdlock::serving_bench
