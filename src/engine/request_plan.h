/**
 * @file
 * One solve request's plan, and the record of how it ran — shared by the
 * solo ExecutionEngine and the multi-tenant SolveService, whose requests
 * plan identically and differ only in how their waves are dispatched.
 *
 * SolveRecord is the diagnostics both drivers report; RequestPlan fills
 * it from two places only: record_plan (final tree and schedule) and
 * record_execution (the LeafExecutor's per-request accounting).
 */
#ifndef FQ_ENGINE_REQUEST_PLAN_H
#define FQ_ENGINE_REQUEST_PLAN_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/checkpoint.h"
#include "engine/reducer.h"
#include "engine/template_cache.h"
#include "engine/wave_loop.h"

namespace fq::engine {

/** What every solve reports, wherever it ran. */
struct SolveRecord
{
    // ------------------------------------------------ final schedule --
    /** Template-tier split of the scheduled leaves (plan-time preview;
     *  see SolveLeaf::tier): fused program already resident / family
     *  skeleton to patch / from-scratch build. */
    int leaves_tier_hit = 0;
    int leaves_tier_bind = 0;
    int leaves_tier_compile = 0;
    /**
     * Per-reduction-arm counters, indexed by node_kind_index() over the
     * kind-metadata table (engine/expander.h). A scheduled leaf's arm is
     * its parent node's kind (leaf_arm_kind): executed = leaves scheduled
     * to run under that arm, pruned = leaves dropped by domination
     * pruning or the circuit budget, budget units = 2^width slot cost the
     * executed leaves spend.
     */
    std::array<int, kNumNodeKinds> kind_leaves_executed{};
    std::array<int, kNumNodeKinds> kind_leaves_pruned{};
    std::array<long long, kNumNodeKinds> kind_budget_units{};
    /** Adaptive re-ranking activity (0 when rerank_interval is off). */
    int reranks = 0;
    int rerank_pruned = 0;   ///< stale dominated leaves dropped mid-run
    int rerank_promoted = 0; ///< beyond-budget leaves re-admitted
    int rerank_demoted = 0;  ///< scheduled leaves cut by a re-rank

    // ---------------------------------------------------- durability --
    int checkpoints = 0; ///< snapshots handed to the checkpoint sink
    /** Schedule cursor the request resumed from; -1 = fresh request. */
    int resumed_from = -1;
    /** Leaves demoted by the deadline trim (plan time + re-ranks). */
    int deadline_trimmed = 0;

    // ----------------------------------------- distributed execution --
    /** Leaves folded from remote worker replies (0 without a
     *  net::WorkerPool attached). */
    long long leaves_remote = 0;
    /** Leaves simulated in this process during this run. Leaves a resume
     *  re-folded from its snapshot count as neither local nor remote. */
    long long leaves_local = 0;
    /** Remote leaves re-run locally after their worker died. */
    long long leaves_redispatched = 0;
    long long remote_bytes_sent = 0;     ///< wire bytes out
    long long remote_bytes_received = 0; ///< wire bytes in
    /** Per-worker leaf dispatch counts, keyed by worker address. */
    std::vector<std::pair<std::string, long long>> worker_dispatches;

    /** Request start (solve entry, or submit() return for a tenant) to
     *  its reduced result. */
    double wall_ms = 0.0;
};

/**
 * One planned solve request. Pinned in place: the reducer and the wave
 * view point into its own members, and @p model, @p dev and @p config
 * must outlive it.
 */
class RequestPlan
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * build_solve_tree drawing on @p rng, then make_schedule (per-leaf
     * scoring on @p scoring when given; the schedule is the same either
     * way). A fresh request (@p restore_from null) is then trimmed to its
     * deadline (DeadlineError when no leaf fits) and armed for re-ranking;
     * a resume restores @p restore_from instead (CheckpointError on any
     * mismatch). @p durable arms checkpoint boundaries — only set it when
     * a sink consumes the snapshots, since boundaries fragment waves.
     */
    RequestPlan(const ising::IsingModel& model, const device::Device& dev,
                const frozenqubits::DriverConfig& config, int shots,
                TemplateCache& cache, Rng& rng, std::uint64_t seed,
                const SolveCheckpoint* restore_from, bool durable,
                BatchExecutor* scoring = nullptr);

    RequestPlan(const RequestPlan&) = delete;
    RequestPlan& operator=(const RequestPlan&) = delete;

    /** Snapshot the request at its current checkpoint boundary, counted
     *  into SolveRecord::checkpoints. */
    SolveCheckpoint capture();

    /** Fill a default-constructed @p record's schedule and durability
     *  fields from the final tree and schedule (re-ranks and suspension
     *  rewrite it mid-run). */
    void record_plan(SolveRecord& record) const;

    /**
     * Fill @p record's execution fields from @p executor's accounting of
     * this request, then release that state (finish_request). @p folded
     * counts the leaves folded so far, restored ones included; wall_ms
     * runs from @p start to now. Call once, after the request's last
     * wave.
     */
    void record_execution(SolveRecord& record, LeafExecutor& executor,
                          std::size_t folded, Clock::time_point start);

    SolveTree tree;
    LeafSchedule schedule;
    StreamingReducer reducer;
    WaveRequest wave;
    /** Schedule order before any re-rank rewrote its tail (leaf ids);
     *  kept only when re-ranking is on. */
    std::vector<int> planned;
    /** Schedule cursor restored from; -1 = fresh request. */
    int resumed_from = -1;
    /** Waves the restored snapshot had already ridden (0 when fresh). */
    int restored_epochs = 0;

  private:
    int checkpoints_ = 0;
};

} // namespace fq::engine

#endif // FQ_ENGINE_REQUEST_PLAN_H
