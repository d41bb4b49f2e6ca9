/**
 * @file
 * Wave-synchronous execution epochs: the ONE schedule→dispatch→fold→barrier
 * cycle. Requests are planned through RequestPlan (request_plan.h), which
 * arms the boundaries below; this file holds the epoch primitives both
 * drivers run. The multi-tenant SolveService runs them on its assembler
 * thread over every live tenant; a solo ExecutionEngine::solve runs the
 * same step on the caller's thread with a one-element tenant list and no
 * wave cap.
 *
 * An epoch is one wave: dispatch a slice of each participating request's
 * ranked leaf schedule onto the executor (assemble_wave), run it to the
 * fork-join barrier, fold every result into its request's
 * StreamingReducer (LeafExecutor::execute_wave) — then run each request's
 * post-barrier step (RequestPlan::post_barrier), where adaptive budget
 * re-ranking and checkpoints live. After each wave, a request whose fold
 * count reached its next re-rank boundary (multiples of
 * DriverConfig::rerank_interval) re-scores its not-yet-dispatched leaves
 * against the reducer's epoch snapshot, prunes stale dominated leaves and
 * re-cuts the remaining budget (scheduler.h: rerank_schedule).
 *
 * Determinism contract: a re-rank at boundary b sees the incumbent over
 * exactly the first b scheduled leaves (StreamingReducer::epoch_snapshot),
 * and dispatch NEVER overshoots a pending boundary (dispatch_limit), so the
 * rewritten tail always starts at b. Re-rank inputs are therefore a pure
 * function of the request's own fold count — never of wave composition,
 * co-tenant interleaving or thread count — and a request's results are
 * bit-identical between a solo solve and any service schedule. With
 * rerank_interval = 0 and no checkpoints a solo solve is one wave spanning
 * the whole schedule: exactly the pre-epoch engine, bit for bit.
 *
 * Wave packing is cost-weighted: a leaf charges 2^width units (its
 * statevector simulation cost), and a shared wave closes at wave_size
 * slots OR wave_size × (cheapest pending leaf) cost units, whichever
 * first — so one wide tenant consumes proportionally more of the wave
 * instead of stalling its tail with equal-slot accounting. Packing shapes
 * only WHEN a leaf runs, never what it produces.
 */
#ifndef FQ_ENGINE_WAVE_LOOP_H
#define FQ_ENGINE_WAVE_LOOP_H

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_executor.h"
#include "engine/reducer.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"

namespace fq::engine {

class TemplateCache;

/**
 * One request's execution state inside the wave loop. Plain pointers into
 * storage the driver owns (and keeps pinned for the request's lifetime):
 * the loop advances `dispatched` and may rewrite the schedule's
 * un-dispatched tail via re-ranking; everything else is read-only here.
 */
struct WaveRequest
{
    const ising::IsingModel* model = nullptr;
    const SolveTree* tree = nullptr;
    LeafSchedule* schedule = nullptr;
    StreamingReducer* reducer = nullptr;
    const device::Device* dev = nullptr;
    const frozenqubits::DriverConfig* config = nullptr;
    int shots = 0;
    /** Back-pointer to the owning RequestPlan (RequestPlan::of). */
    void* context = nullptr;
    /** Seed the plan was derived from (`Rng rng(seed)` before
     *  build_solve_tree) — the checkpoint identity field that lets a
     *  resume replan the identical tree in another process. Unused (0)
     *  when the solve is not durable. */
    std::uint64_t seed = 0;

    /** Cursor into schedule->executed: leaves before it are dispatched. */
    std::size_t dispatched = 0;
    /** Next re-rank boundary (schedule index); 0 = re-ranking off. Armed
     *  by arm_rerank(), advanced by post_barrier_rerank(). */
    std::size_t next_rerank = 0;
    /** Next checkpoint boundary (schedule index); 0 = checkpointing off.
     *  Armed and advanced by RequestPlan (durable requests only).
     *  Checkpoint barriers only add fold-count synchronization points —
     *  they never change what any leaf produces, so a checkpointed run is
     *  bit-identical to an uncheckpointed one. */
    std::size_t next_checkpoint = 0;
    /** Waves this request rode (telemetry). */
    int epochs = 0;

    bool done() const { return dispatched >= schedule->executed.size(); }

    /**
     * Highest exclusive schedule index dispatch may reach before the next
     * pending boundary (re-rank or checkpoint) must run — the invariant
     * that keeps the re-ranked tail independent of wave composition and
     * checkpoints landing on exact fold counts.
     */
    std::size_t dispatch_limit() const
    {
        std::size_t limit = schedule->executed.size();
        if (next_rerank != 0)
            limit = std::min(limit, next_rerank);
        if (next_checkpoint != 0)
            limit = std::min(limit, next_checkpoint);
        return limit;
    }
};

/** Arm the request's first re-rank boundary from its config. */
inline void
arm_rerank(WaveRequest& request)
{
    const long long interval = request.config->rerank_interval;
    request.next_rerank =
        interval > 0 ? static_cast<std::size_t>(interval) : 0;
}

/**
 * Slot cost of one leaf for cost-weighted wave packing: 2^width units
 * (statevector simulation cost), capped to keep the arithmetic safe.
 */
long long leaf_slot_cost(const SolveTree& tree, int leaf_id);

/** One wave slot: a leaf bound to its request. */
struct WaveSlot
{
    WaveRequest* request = nullptr;
    int leaf_id = 0;
};

/**
 * Assemble one wave across @p tenants: fair round-robin in the given order
 * starting at @p rotate (one leaf per tenant per pass), honoring each
 * request's DriverConfig::wave_share self-cap and its re-rank
 * dispatch_limit. The wave is bounded by @p wave_size slots AND by the
 * cost budget (@p wave_size × cheapest pending leaf); the first leaf is
 * always admitted, so an over-budget wide leaf rides alone rather than
 * wedging the queue. Advances each admitted request's `dispatched` cursor
 * and bumps its epoch count. Equal-width tenants reproduce the legacy
 * equal-slot packing exactly; the rotating start keeps budget-closed
 * waves from starving any tenant across waves.
 *
 * @p wave_size <= 0 is the solo epoch: no slot, cost or wave_share cap,
 * so every tenant dispatches everything up to its dispatch_limit.
 *
 * @p taken, when non-null, receives the per-tenant slot counts (indexed
 * like @p tenants) — the occupancy bookkeeping drivers would otherwise
 * have to reconstruct from the wave.
 */
std::vector<WaveSlot> assemble_wave(const std::vector<WaveRequest*>& tenants,
                                    int wave_size, std::size_t rotate,
                                    std::vector<int>* taken = nullptr);

/**
 * Driver customization points for execute_wave. All optional. Both
 * drivers set `folded` to RequestPlan::on_folded (the per-request fold
 * accounting); only the SolveService sets `admit` and `failed`, for
 * per-tenant failure isolation — a solo solve's leaf throw propagates.
 */
struct WaveHooks
{
    /** Pre-simulation gate; return false to skip the slot (dead weight of
     *  an already-failed tenant). Runs on the worker thread. */
    std::function<bool(const WaveSlot&)> admit;
    /** After the slot's counts folded into its request's reducer.
     *  @p fuse_tier reports how the fused program materialized (Hit /
     *  Bind / Compile — see TemplateTier); gate-by-gate slots report
     *  Compile. */
    std::function<void(const WaveSlot&, bool fused_hit,
                       TemplateTier fuse_tier)>
        folded;
    /** A slot threw; when unset the exception propagates out of the wave
     *  (run_queue semantics: lowest failing index wins). */
    std::function<void(const WaveSlot&, std::exception_ptr)> failed;
};

/**
 * Execute one assembled wave to its barrier: simulate every slot through
 * simulate_scheduled_leaf on @p executor and fold into the owning request's
 * reducer. Returns how many slots actually simulated (admit-skipped slots
 * do not count). On return every admitted slot has folded — the barrier
 * the post-barrier scan relies on.
 */
int execute_wave(TemplateCache& cache, BatchExecutor& executor,
                 const std::vector<WaveSlot>& wave,
                 const WaveHooks& hooks = {});

/**
 * Per-request accounting a LeafExecutor backend can report (all zeros for
 * the purely local backend — drivers then attribute every folded leaf to
 * the local BatchExecutor).
 */
struct LeafExecutorStats
{
    long long leaves_remote = 0;       ///< leaves folded from remote replies
    long long leaves_redispatched = 0; ///< re-run locally after a worker died
    long long bytes_sent = 0;          ///< wire bytes out (frames included)
    long long bytes_received = 0;      ///< wire bytes in
    /** Per-worker leaf dispatch counts, keyed by worker address. */
    std::vector<std::pair<std::string, long long>> worker_dispatches;
};

/**
 * The executor seam every wave dispatches through. ONE implementation
 * requirement: on return from execute_wave every admitted slot has folded
 * into its request's reducer (the wave barrier), with hooks invoked
 * exactly as the local path does — WHERE a slot simulated (this process,
 * a remote worker, a re-dispatch after a worker death) must be
 * observationally irrelevant, because simulate_scheduled_leaf is a pure
 * function of (cache contents, tree, leaf, dev, config, shots).
 *
 * Backends: LocalLeafExecutor (the default, wrapping the engine's own
 * BatchExecutor) and net::WorkerPool (remote workers with cost-weighted
 * assignment and hedged re-dispatch).
 */
class LeafExecutor
{
  public:
    virtual ~LeafExecutor() = default;

    /** Run one assembled wave to its barrier; returns slots simulated
     *  (admit-skipped slots do not count), like the free execute_wave. */
    virtual int execute_wave(const std::vector<WaveSlot>& wave,
                             const WaveHooks& hooks = {}) = 0;

    /** Accounting accumulated for @p request since it first appeared in a
     *  wave. Call after the request's last wave, before finish_request. */
    virtual LeafExecutorStats request_stats(const WaveRequest* request)
    {
        (void)request;
        return {};
    }

    /** The request is complete (or failed): release any per-request state
     *  (remote sessions, stats). Drivers MUST call this for every request
     *  they dispatched, since WaveRequest storage is reused. */
    virtual void finish_request(const WaveRequest* request)
    {
        (void)request;
    }
};

/** The default backend: the free execute_wave over the engine's own
 *  template cache and thread pool. */
class LocalLeafExecutor final : public LeafExecutor
{
  public:
    LocalLeafExecutor(TemplateCache& cache, BatchExecutor& executor)
        : cache_(cache), executor_(executor)
    {
    }

    int execute_wave(const std::vector<WaveSlot>& wave,
                     const WaveHooks& hooks = {}) override
    {
        return engine::execute_wave(cache_, executor_, wave, hooks);
    }

  private:
    TemplateCache& cache_;
    BatchExecutor& executor_;
};

/**
 * Post-barrier scan step for one request: when its fold count sits on the
 * pending re-rank boundary, snapshot the incumbent and re-rank the tail —
 * then re-apply the deadline trim (DriverConfig::deadline_cost_units)
 * against the units the folded prefix consumed, since re-rank promotions
 * may have overfilled the remaining deadline. Both are pure functions of
 * the request's own fold count, so trim points are independent of
 * checkpoint barriers and wave composition. Call after a wave barrier
 * (never while leaves are in flight) and only for requests whose
 * dispatched leaves all folded. Returns what the re-rank did
 * (applied == false when none was due).
 */
RerankOutcome post_barrier_rerank(WaveRequest& request);

} // namespace fq::engine

#endif // FQ_ENGINE_WAVE_LOOP_H
