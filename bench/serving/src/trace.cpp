#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace hdlock::serving_bench {

Tracer::Tracer(std::uint16_t tag, bool enabled, std::size_t reserve)
    : tag_(tag), enabled_(enabled) {
    if (enabled) spans_.reserve(reserve);
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent_id != kNoParent) children[spans[i].parent_id].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        self[i] = span.duration_ns();
        const auto found = children.find(span.span_id);
        if (found == children.end()) continue;
        covered.clear();
        for (const std::size_t c : found->second) {
            const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
            const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
            if (hi > lo) covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t union_ns = 0;
        std::int64_t run_lo = 0;
        std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
        for (const auto& [lo, hi] : covered) {
            if (lo > run_hi) {
                if (run_hi > run_lo) union_ns += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        self[i] -= union_ns;
    }
    return self;
}

std::vector<double> durations_us(std::span<const Span> spans, std::string_view name) {
    std::vector<double> out;
    for (const Span& span : spans) {
        if (name == span.name) out.push_back(static_cast<double>(span.duration_ns()) / 1e3);
    }
    return out;
}

void write_trace_csv(const std::filesystem::path& path, std::span<const Span> spans,
                     std::span<const std::int64_t> self) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace dump " + path.string());
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const Span& span : spans) origin = std::min(origin, span.start_ns);
    out << "name,span_id,parent_id,request_id,start_ns,end_ns,self_ns\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        out << span.name << ',' << span.span_id << ',' << span.parent_id << ','
            << span.request_id << ',' << span.start_ns - origin << ','
            << span.end_ns - origin << ',' << self[i] << '\n';
    }
    if (!out) throw std::runtime_error("short write to trace dump " + path.string());
}

}  // namespace hdlock::serving_bench
