/**
 * @file
 * Host-drift record: a fixed benchmark-own probe loop timed between
 * requests, the /proc/stat steal delta and the process's involuntary
 * context switches over the timed window — so a run set that drifts can
 * be blamed on the host or on the program from its own output. Also the
 * process CPU and memory readings the end-to-end metrics use.
 */
#ifndef SOLVEBENCH_HOST_H
#define SOLVEBENCH_HOST_H

#include <cstdint>
#include <vector>

#include "common.h"

namespace solvebench {

/** Process CPU time (user + sys, all threads), ms. */
double process_cpu_ms();
/** CPU time of the calling thread, ms. */
double thread_cpu_ms();
/** Peak resident set (VmHWM), MB; 0 when unreadable. */
double peak_rss_mb();

class HostMonitor
{
  public:
    /** Snapshot /proc/stat and getrusage at the window start. */
    void start();
    /** Snapshot at the window end. */
    void stop();

    /** Run the fixed probe (an arithmetic loop and a 16 MiB memory
     *  sweep) once on the calling thread; records its wall time and the
     *  thread CPU it burned. */
    void probe();

    double probe_ms() const { return median(probe_ms_); }
    std::size_t probes() const { return probe_ms_.size(); }
    /** Thread CPU the probes consumed (excluded from cpu_ms_per_solve). */
    double probe_cpu_ms() const { return probe_cpu_ms_; }
    double steal_pct() const { return steal_pct_; }
    double involuntary_switches_per_s() const { return invol_per_s_; }
    double window_s() const { return window_s_; }
    double cpu_ms() const { return cpu_end_ms_ - cpu_start_ms_; }

  private:
    struct CpuTicks
    {
        std::uint64_t steal = 0;
        std::uint64_t total = 0;
    };
    static CpuTicks read_proc_stat();

    /** 16 MiB: beyond one core's L2 on current server parts. */
    static constexpr std::size_t kProbeWords = 2u << 20;
    std::vector<std::uint64_t> probe_buffer_;
    Clock::time_point t0_{};
    CpuTicks ticks0_{};
    long invol0_ = 0;
    double cpu_start_ms_ = 0.0;
    double cpu_end_ms_ = 0.0;
    std::vector<double> probe_ms_;
    double probe_cpu_ms_ = 0.0;
    double steal_pct_ = 0.0;
    double invol_per_s_ = 0.0;
    double window_s_ = 0.0;
};

} // namespace solvebench

#endif // SOLVEBENCH_HOST_H
