#include "host.hpp"

#include <fstream>
#include <sstream>

#include "util/kernels.hpp"
#include "util/sync.hpp"

namespace hdlock::serving_bench {

CpuTimes read_cpu_times() {
    CpuTimes times;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu") return times;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest fields are already counted inside user/nice.
    std::uint64_t field = 0;
    for (int i = 0; i < 8 && (in >> field); ++i) {
        times.total += field;
        if (i == 7) {
            times.steal = field;
            times.valid = true;
        }
    }
    return times;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
    if (!before.valid || !after.valid || after.total <= before.total) return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

HostContext read_host_context() {
    HostContext host;
    host.nproc = util::hardware_concurrency();
    host.kernel_backend = util::kernels::active_name();
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
            break;
        }
    }
    std::ifstream loadavg("/proc/loadavg");
    loadavg >> host.loadavg_1m;
    return host;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

}  // namespace hdlock::serving_bench
