/**
 * @file
 * The traced run's instruments, all outside the library:
 *
 *   SpanRecorder        — in-memory spans (name, start, end, parent,
 *                         request id), written out at the end with self
 *                         time;
 *   TimingLeafExecutor  — a LeafExecutor decorator installed with
 *                         ExecutionEngine::set_leaf_executor: times every
 *                         wave and every leaf from WaveHooks::admit to
 *                         folded, on the real execution path;
 *   LocalArmMarker      — wraps a WorkerPool's local arm so the timing
 *                         decorator can tell local leaves from remote ones;
 *   Replayer            — re-runs a request stage by stage through the
 *                         library's public functions (build_solve_tree,
 *                         make_schedule, optimize_p1, get_or_fuse,
 *                         FusedProgram::run, sample_noisy_counts,
 *                         StreamingReducer::fold/finish) on one thread,
 *                         timing each call; its result must be
 *                         bit-identical to the engine's.
 */
#ifndef SOLVEBENCH_TRACE_H
#define SOLVEBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "device/catalog.h"
#include "engine/batch_executor.h"
#include "engine/template_cache.h"
#include "engine/wave_loop.h"

namespace solvebench {

struct Span
{
    const char* name = "";
    double start_ms = 0.0; ///< since the recorder's origin
    double end_ms = 0.0;
    int parent = -1;
    int request = -1; ///< -1 = not owned by one request (a shared wave)
};

class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Open a span starting now; returns its id. Thread-safe. */
    int open(const char* name, int parent, int request);
    /** End span @p id now. */
    void close(int id);
    /** Record a finished span. */
    int add(const char* name, Clock::time_point start, Clock::time_point end,
            int parent, int request);

    std::vector<Span> spans() const;

    /** Per span: duration minus the union of its children's intervals. */
    static std::vector<double> self_times(const std::vector<Span>& spans);

    /** One JSON object per line, self time included; false on I/O error. */
    bool write(const std::string& path) const;

  private:
    double since_origin(Clock::time_point t) const
    {
        return ms_between(origin_, t);
    }

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** One leaf as the timing decorator saw it. */
struct LeafTiming
{
    double ms = 0.0; ///< admit -> folded
    bool local = true;
};

/** One wave as the timing decorator saw it. */
struct WaveTiming
{
    double ms = 0.0;
    double local_busy_ms = 0.0; ///< sum of local leaves' admit -> folded
};

class TimingLeafExecutor final : public fq::engine::LeafExecutor
{
  public:
    /** @p remote_capable: the inner executor is a WorkerPool whose local
     *  arm is wrapped in a LocalArmMarker; otherwise every leaf is local. */
    TimingLeafExecutor(fq::engine::LeafExecutor& inner, SpanRecorder& spans,
                       bool remote_capable);

    int execute_wave(const std::vector<fq::engine::WaveSlot>& wave,
                     const fq::engine::WaveHooks& hooks = {}) override;
    fq::engine::LeafExecutorStats request_stats(
        const fq::engine::WaveRequest* request) override
    {
        return inner_.request_stats(request);
    }
    void finish_request(const fq::engine::WaveRequest* request) override
    {
        inner_.finish_request(request);
    }

    /** Request id for spans of waves/leaves with this request seed. */
    void map_request(std::uint64_t seed, int request);
    /** Parent span for the next waves (the solo request's span). */
    void set_parent_span(int span) { parent_span_ = span; }

    /** Called from the local arm before a slot simulates there. */
    void mark_local(const fq::engine::WaveSlot& slot);

    std::vector<LeafTiming> leaves() const;
    std::vector<WaveTiming> waves() const;

  private:
    using Key = std::pair<const fq::engine::WaveRequest*, int>;
    int request_of(const fq::engine::WaveSlot& slot) const;

    fq::engine::LeafExecutor& inner_;
    SpanRecorder& spans_;
    const bool remote_capable_;
    int parent_span_ = -1;
    int wave_span_ = -1;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, int> request_ids_; ///< guarded by mutex_
    std::map<Key, Clock::time_point> started_; ///< guarded by mutex_
    std::set<Key> local_;                      ///< guarded by mutex_
    double wave_local_busy_ms_ = 0.0;          ///< guarded by mutex_
    std::vector<LeafTiming> leaves_;           ///< guarded by mutex_
    std::vector<WaveTiming> waves_;            ///< guarded by mutex_
};

/** A WorkerPool's local arm. Once report_to() names a timing decorator
 *  (traced runs), every slot it runs is marked local there. */
class LocalArmMarker final : public fq::engine::LeafExecutor
{
  public:
    explicit LocalArmMarker(fq::engine::LeafExecutor& inner) : inner_(inner)
    {
    }

    void report_to(TimingLeafExecutor* timing) { timing_ = timing; }

    int execute_wave(const std::vector<fq::engine::WaveSlot>& wave,
                     const fq::engine::WaveHooks& hooks = {}) override;

  private:
    fq::engine::LeafExecutor& inner_;
    TimingLeafExecutor* timing_ = nullptr;
};

/** Per-leaf stage times of one replayed leaf. */
struct LeafStages
{
    int width = 0;
    double optimize_ms = 0.0;
    int evaluations = 0;
    double materialize_ms = 0.0;
    double kernel_ms = 0.0;
    double kernel_bytes = 0.0; ///< computed traffic of the fused passes
    double sample_ms = 0.0;
    double fold_ms = 0.0;
};

/** Stage times of one replayed request. */
struct RequestStages
{
    double wall_ms = 0.0;
    double build_ms = 0.0;
    double schedule_ms = 0.0; ///< make_schedule plus post-barrier re-ranks
    double finish_ms = 0.0;
    std::vector<LeafStages> leaves;
};

class Replayer
{
  public:
    /**
     * Solve (model, config, shots, seed) stage by stage on the calling
     * thread, mirroring ExecutionEngine::solve's wave loop (one wave per
     * re-rank epoch). With @p stages and @p spans null it only warms this
     * replayer's own template cache.
     */
    fq::frozenqubits::SampledSolve
    replay(const fq::ising::IsingModel& model, const fq::device::Device& dev,
           const fq::frozenqubits::DriverConfig& config, int shots,
           std::uint64_t seed, int request, RequestStages* stages,
           SpanRecorder* spans);

  private:
    fq::engine::TemplateCache cache_;
    fq::engine::BatchExecutor::Scratch scratch_;
};

} // namespace solvebench

#endif // SOLVEBENCH_TRACE_H
