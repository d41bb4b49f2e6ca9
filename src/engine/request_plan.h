/**
 * @file
 * One solve request's plan, and the record of how it ran — shared by the
 * solo ExecutionEngine and the multi-tenant SolveService, whose requests
 * plan identically and differ only in how their waves are dispatched.
 *
 * SolveRecord is the diagnostics both drivers report; RequestPlan fills
 * it from two places only: record_plan (final tree and schedule) and
 * record_execution (the request's own fold accounting plus the
 * LeafExecutor's). Both drivers run the same epoch step over their
 * plans: engine::assemble_wave, LeafExecutor::execute_wave with
 * RequestPlan::on_folded as the `folded` hook, then post_barrier() for
 * each live request — the solo solve as the one-tenant case, on the
 * caller's thread.
 */
#ifndef FQ_ENGINE_REQUEST_PLAN_H
#define FQ_ENGINE_REQUEST_PLAN_H

#include <array>
#include <atomic>
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
    /** Completed early (deadline trim or checkpoint suspension): the
     *  result is the anytime incumbent, not the full schedule. */
    bool degraded = false;
    /** Final schedule size: the plan-time budget cut, minus leaves an
     *  adaptive re-rank pruned or demoted mid-run. */
    int leaves_scheduled = 0;

    // ----------------------------------------------------- execution --
    /** Folded leaves, restored ones included (== scheduled on
     *  success). */
    int leaves_executed = 0;
    int waves = 0; ///< waves this run rode (not a snapshot's)
    /** Fused-program cache traffic of the leaves this run executed. */
    std::uint64_t fused_lookups = 0;
    std::uint64_t fused_hits = 0;
    /** Split by plan-time leaf backend (scalar + simd == totals). */
    std::uint64_t fused_lookups_scalar = 0;
    std::uint64_t fused_hits_scalar = 0;
    std::uint64_t fused_lookups_simd = 0;
    std::uint64_t fused_hits_simd = 0;
    /** fused_hits / fused_lookups (0 when the request never fused). */
    double cache_hit_share = 0.0;
    /** Fused programs materialized by patching a family skeleton instead
     *  of rebuilding circuits (exec-time count; a subset of
     *  fused_lookups - fused_hits). */
    std::uint64_t family_binds = 0;

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
     * mismatch). A non-null @p sink makes the request durable: it arms
     * checkpoint boundaries and post_barrier() hands it each snapshot
     * (a false return suspends the request). Leave it null unless
     * something consumes the snapshots, since boundaries fragment waves.
     */
    RequestPlan(const ising::IsingModel& model, const device::Device& dev,
                const frozenqubits::DriverConfig& config, int shots,
                TemplateCache& cache, Rng& rng, std::uint64_t seed,
                const SolveCheckpoint* restore_from, CheckpointSink sink,
                BatchExecutor* scoring = nullptr);

    RequestPlan(const RequestPlan&) = delete;
    RequestPlan& operator=(const RequestPlan&) = delete;

    /** The plan whose wave view @p request is (WaveRequest::context). */
    static RequestPlan& of(const WaveRequest& request)
    {
        return *static_cast<RequestPlan*>(request.context);
    }

    /** WaveHooks::folded for any RequestPlan's slot, on the folding
     *  thread: counts the fold and the leaf's fused-cache traffic. */
    static void on_folded(const WaveSlot& slot, bool fused_hit,
                          TemplateTier fuse_tier);

    /** One epoch's post-barrier step, once every dispatched leaf folded:
     *  re-rank at a due boundary (post_barrier_rerank), then hand the
     *  sink a snapshot at a due checkpoint — suspending the request when
     *  it returns false. */
    void post_barrier();

    /** Leaves folded so far, restored ones included. */
    std::size_t folded() const
    {
        return static_cast<std::size_t>(
            folded_.load(std::memory_order_acquire));
    }

    /** Fill a default-constructed @p record's schedule and durability
     *  fields from the final tree and schedule (re-ranks and suspension
     *  rewrite it mid-run). */
    void record_plan(SolveRecord& record) const;

    /** Fill @p record's execution fields from this request's fold
     *  accounting and @p executor's, then release the executor's state
     *  (finish_request); wall_ms runs from @p start. Call once, after
     *  the request's last wave. */
    void record_execution(SolveRecord& record, LeafExecutor& executor,
                          Clock::time_point start);

    SolveTree tree;
    LeafSchedule schedule;
    StreamingReducer reducer;
    /** The wave-loop view; its context points back at this plan. */
    WaveRequest wave;
    /** Schedule order before any re-rank rewrote its tail (leaf ids);
     *  kept only when re-ranking is on. */
    std::vector<int> planned;
    /** Schedule cursor restored from; -1 = fresh request. */
    int resumed_from = -1;
    /** Waves the restored snapshot had already ridden (0 when fresh). */
    int restored_epochs = 0;
    /** The SolveService's Request; null for a solo solve. */
    void* owner = nullptr;

  private:
    CheckpointSink sink_;
    int checkpoints_ = 0;
    /** Written by on_folded; fused counters indexed [scalar, simd]. */
    std::atomic<int> folded_{0};
    std::array<std::atomic<std::uint64_t>, 2> fused_lookups_{};
    std::array<std::atomic<std::uint64_t>, 2> fused_hits_{};
    std::atomic<std::uint64_t> family_binds_{0};
};

} // namespace fq::engine

#endif // FQ_ENGINE_REQUEST_PLAN_H
