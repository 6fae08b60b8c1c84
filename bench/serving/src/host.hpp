#pragma once

/// \file host.hpp
/// Host context stamped into every run record: CPU count, active kernel
/// backend, CPU model, load average, and the share of CPU time the
/// hypervisor stole while the run measured (from two /proc/stat reads).
/// A result measured on a host that lost a fifth of its cycles to steal is
/// not comparable to one that lost none; the record says which it was.

#include <cstdint>
#include <string>

namespace hdlock::serving_bench {

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool valid = false;
};

CpuTimes read_cpu_times();

/// Stolen share of all jiffies between two reads (0 when unavailable).
double steal_share(const CpuTimes& before, const CpuTimes& after);

struct HostContext {
    std::size_t nproc = 1;
    std::string kernel_backend;
    std::string cpu_model;
    double loadavg_1m = 0.0;
};

HostContext read_host_context();

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

}  // namespace hdlock::serving_bench
