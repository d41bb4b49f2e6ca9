#include "host.h"

#include <sys/resource.h>
#include <time.h>

#include <fstream>
#include <sstream>
#include <string>

namespace solvebench {

namespace {

double
timeval_ms(const timeval& tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
}

long
involuntary_switches()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_nivcsw;
}

/** Fixed arithmetic loop: integer mixing plus a dependent floating-point
 *  chain, so it measures core speed. */
double
probe_alu()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 1.0;
    for (int i = 0; i < 150000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999999 + static_cast<double>(x & 0xff) * 1e-9;
    }
    return acc + static_cast<double>(x & 1);
}

/** Read-modify-write sweep over a buffer larger than a core's L2, so it
 *  also sees the shared-cache and memory-bandwidth drift the simulator's
 *  2^n state vectors feel. */
double
probe_memory(std::vector<std::uint64_t>& buffer)
{
    std::uint64_t acc = 0;
    for (auto& word : buffer) {
        acc += word;
        word = acc;
    }
    return static_cast<double>(acc & 0xffff);
}

volatile double probe_sink = 0.0;

} // namespace

double
process_cpu_ms()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
}

double
thread_cpu_ms()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream in(line.substr(6));
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
    return 0.0;
}

HostMonitor::CpuTicks
HostMonitor::read_proc_stat()
{
    CpuTicks ticks;
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label; // aggregate "cpu" line
    if (label != "cpu")
        return ticks;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice, so the total stops at
    // steal.
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        stat >> v;
        ticks.total += v;
        if (field == 7)
            ticks.steal = v;
    }
    return ticks;
}

void
HostMonitor::start()
{
    if (probe_buffer_.empty())
        probe_buffer_.assign(kProbeWords, 1); // touched before timing
    t0_ = Clock::now();
    ticks0_ = read_proc_stat();
    invol0_ = involuntary_switches();
    cpu_start_ms_ = process_cpu_ms();
}

void
HostMonitor::stop()
{
    cpu_end_ms_ = process_cpu_ms();
    window_s_ = ms_between(t0_, Clock::now()) / 1e3;
    const CpuTicks ticks = read_proc_stat();
    const auto total = ticks.total - ticks0_.total;
    steal_pct_ = total == 0 ? 0.0
                            : 100.0 *
                                  static_cast<double>(ticks.steal -
                                                      ticks0_.steal) /
                                  static_cast<double>(total);
    invol_per_s_ =
        window_s_ > 0.0
            ? static_cast<double>(involuntary_switches() - invol0_) /
                  window_s_
            : 0.0;
}

void
HostMonitor::probe()
{
    const double cpu0 = thread_cpu_ms();
    const auto t0 = Clock::now();
    probe_sink = probe_alu() + probe_memory(probe_buffer_);
    probe_ms_.push_back(ms_between(t0, Clock::now()));
    probe_cpu_ms_ += thread_cpu_ms() - cpu0;
}

} // namespace solvebench
