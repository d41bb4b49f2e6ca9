/**
 * @file
 * ExecutionEngine: a thread pool, a template cache and a leaf-executor
 * seam, plus the solo drivers over them.
 *
 * FrozenQubits' core cost is running 2^{m-1} independent sub-problem
 * circuits per instance (Sections 3.5/3.7). A sampled solve takes three
 * steps:
 *
 *   plan     (request_plan.h) — serial; the SolveTree, its ranked and
 *                               budget-cut LeafSchedule, the streaming
 *                               reducer and the wired WaveRequest — the
 *                               same step a SolveService tenant takes;
 *   execute  (wave_loop.h)    — wave-synchronous epochs through the
 *                               LeafExecutor seam: this engine's
 *                               BatchExecutor pool, or a net::WorkerPool;
 *   reduce   (reducer.h)      — the StreamingReducer folds each leaf's
 *                               counts as they land.
 *
 * Determinism guarantee: the plan fixes every order-dependent decision
 * before any leaf runs, each leaf samples on a private RNG stream derived
 * from its root path, and the streaming fold is order independent — so
 * any thread count, backend or co-tenant mix produces bit-identical
 * results. Adaptive budget re-ranking (DriverConfig::rerank_interval)
 * rewrites the schedule's un-dispatched tail between epochs as a pure
 * function of the fold count, preserving the guarantee.
 *
 * run() and evaluate() are the analytic report arms over the flat
 * ExecutionPlan (plan.h); they simulate nothing. The legacy driver API
 * (run_pipeline / evaluate_instance / solve_with_sampling) is a thin
 * facade over this class; hold an engine directly to reuse its thread
 * pool and template cache across calls (benchmark sweeps, servers). One
 * engine instance must be driven from one thread at a time; parallelism
 * lives inside.
 */
#ifndef FQ_ENGINE_ENGINE_H
#define FQ_ENGINE_ENGINE_H

#include <vector>

#include "engine/batch_executor.h"
#include "engine/checkpoint.h"
#include "engine/expander.h"
#include "engine/plan.h"
#include "engine/reducer.h"
#include "engine/request_plan.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "engine/template_cache.h"
#include "engine/wave_loop.h"
#include "frozenqubits/driver.h"

namespace fq::engine {

class SolveService;

/**
 * Simulate one scheduled leaf of @p tree: tune its angles, resolve noise
 * quantities from the freeze level's shared template (or compile the leaf
 * directly when the structure diverged), run the fused or gate-by-gate
 * statevector into @p scratch and sample noisy counts on the leaf's private
 * plan-derived RNG stream.
 *
 * The ONE leaf-execution definition, shared by ExecutionEngine::solve and
 * the SolveService's cross-request waves: a pure function of
 * (cache contents, tree, leaf, dev, config, shots), so WHERE a leaf runs —
 * which worker, which wave, alongside whose leaves — can never change its
 * counts. @p fused_hit, when non-null, reports whether the fused program
 * was served from @p cache (per-tenant cache-share accounting).
 * @p fuse_tier, when non-null, reports HOW the fused program materialized
 * (Hit / Bind / Compile — see TemplateTier); gate-by-gate leaves report
 * Compile.
 */
sim::Counts simulate_scheduled_leaf(TemplateCache& cache,
                                    const SolveTree& tree, int leaf_id,
                                    const device::Device& dev,
                                    const frozenqubits::DriverConfig& config,
                                    int shots,
                                    BatchExecutor::Scratch& scratch,
                                    bool* fused_hit = nullptr,
                                    TemplateTier* fuse_tier = nullptr);

class ExecutionEngine
{
  public:
    /**
     * Per-invocation observability, reset on entry to each run/solve.
     * The SolveRecord base holds what a SolveService tenant reports too.
     */
    struct Diagnostics : SolveRecord
    {
        int num_subproblems = 0;     ///< 2^m
        int tasks_executed = 0;      ///< 2^{m-1} with pruning
        int mirrors_inferred = 0;    ///< sub-spaces served by bit flipping
        /** Circuits served by the shared template (an RZ-angle edit away,
         *  Section 3.7.1) instead of their own transpiler run. */
        int template_edits = 0;
        bool template_cache_hit = false;
        /** Sampled tasks simulated through the fused QAOA fast path.
         *  Only solve() simulates; run()/evaluate() are analytic and
         *  always report false. */
        bool fused_simulation = false;
        std::vector<int> executed_subproblems; ///< solved indices
        std::vector<int> pruned_subproblems;   ///< mirror (never-run) indices
        int threads = 1;

        // --------------------------------------- SolveTree solves only --
        int tree_depth = 0;           ///< deepest node level (flat = 1)
        int tree_nodes = 0;           ///< total tree nodes
        int leaves_total = 0;         ///< executable leaves planned
        int leaves_beyond_budget = 0; ///< ranked leaves cut by max_circuits
        int leaves_pruned = 0;        ///< dropped by bound domination
        bool scheduler_scored = false;///< SA-ranked (vs plan order)
        /** Scheduled-leaf kernel backends (plan-time choice; see
         *  SolveLeaf::backend). Non-fused leaves run gate-by-gate and
         *  count under neither. */
        int leaves_scalar_backend = 0;
        int leaves_simd_backend = 0;

        // --------------------------------- wave-synchronous epochs only --
        /** Waves the schedule rode, a resumed snapshot's included
         *  (SolveRecord::waves counts this run's); 1 = flat batch. */
        int epochs = 0;
        /** Plan-time scheduled order (same index space as
         *  executed_subproblems), captured before any re-rank rewrote the
         *  tail — the plan side of a plan-vs-adaptive trace. Only filled
         *  when re-ranking is active. */
        std::vector<int> planned_subproblems;
    };

    /** @p num_threads: 0 = auto (hardware concurrency). */
    explicit ExecutionEngine(int num_threads = 0);

    int num_threads() const { return executor_.num_threads(); }

    /** Full baseline-vs-FrozenQubits comparison (run_pipeline semantics). */
    frozenqubits::Report run(const ising::IsingModel& model,
                             const device::Device& dev,
                             const frozenqubits::DriverConfig& config);

    /** One circuit-arm evaluation (evaluate_instance semantics). */
    frozenqubits::CircuitStats evaluate(const ising::IsingModel& model,
                                        const device::Device& dev,
                                        const frozenqubits::DriverConfig&
                                            config);

    /**
     * Sampled end-to-end solve (solve_with_sampling semantics), executed
     * over the hierarchical SolveTree: recursive freezing
     * (config.max_depth), hybrid bisection (config.partition_width),
     * best-first budgeted leaf scheduling (config.max_circuits) and
     * streaming reduction. A default config (flat, unlimited) reproduces
     * the flat engine bit for bit.
     */
    frozenqubits::SampledSolve solve(const ising::IsingModel& model,
                                     const device::Device& dev,
                                     const frozenqubits::DriverConfig&
                                         config,
                                     int shots, Rng& rng);

    /**
     * Durable solve: identical to the Rng overload with `Rng rng(seed)`,
     * plus checkpointing. When @p sink is set and
     * config.checkpoint_interval > 0, the wave loop pauses every
     * interval folded leaves and hands @p sink a SolveCheckpoint
     * (engine/checkpoint.h); a false return suspends the solve, which
     * then completes with its anytime incumbent flagged degraded while
     * the last snapshot resumes the full solve elsewhere. Checkpoint
     * barriers never change results — this overload without a sink is
     * bit-identical to the Rng overload.
     *
     * Deadline admission: when config.deadline_cost_units > 0 the
     * schedule is trimmed to the leaves that fit at plan time (typed
     * DeadlineError when not even one does) and re-trimmed after each
     * adaptive re-rank; a trimmed result is flagged degraded.
     * (The Rng overload applies the same deadline semantics.)
     */
    frozenqubits::SampledSolve solve(const ising::IsingModel& model,
                                     const device::Device& dev,
                                     const frozenqubits::DriverConfig&
                                         config,
                                     int shots, std::uint64_t seed,
                                     const CheckpointSink& sink = {});

    /**
     * Resume a durable solve from @p snapshot: replan from the snapshot's
     * seed, fingerprint-check identity (CheckpointError on any mismatch —
     * see restore_checkpoint), re-fold the recorded outcomes and continue
     * mid-schedule. The combined checkpoint-then-resume result is
     * bit-identical to the uninterrupted solve, at any thread count.
     * @p sink re-arms checkpointing for the resumed run.
     */
    frozenqubits::SampledSolve resume(const ising::IsingModel& model,
                                      const device::Device& dev,
                                      const frozenqubits::DriverConfig&
                                          config,
                                      int shots,
                                      const SolveCheckpoint& snapshot,
                                      const CheckpointSink& sink = {});

    const TemplateCache& template_cache() const { return cache_; }
    const Diagnostics& last_diagnostics() const { return diagnostics_; }

    /**
     * The executor seam (engine/wave_loop.h): every wave this engine (or
     * a SolveService over it) dispatches goes through leaf_executor().
     * Default: the engine's own LocalLeafExecutor. Attach a
     * net::WorkerPool (or any other backend) with set_leaf_executor —
     * the pool must outlive the engine's solves; nullptr restores the
     * local default. Where leaves execute never changes results
     * (simulate_scheduled_leaf is pure), so swapping backends is always
     * safe mid-lifetime, between solves.
     */
    void set_leaf_executor(LeafExecutor* executor)
    {
        leaf_executor_override_ = executor;
    }
    LeafExecutor& leaf_executor()
    {
        return leaf_executor_override_ ? *leaf_executor_override_
                                       : local_leaf_executor_;
    }
    /** The engine's own local backend — the WorkerPool's fallback arm. */
    LocalLeafExecutor& local_leaf_executor() { return local_leaf_executor_; }

    /**
     * Drop all cached templates (counters are kept). For callers that need
     * cold-compile semantics on a long-lived engine — e.g. timing loops
     * that must keep transpilation in the measurement.
     */
    void clear_template_cache() { cache_.clear(); }

  private:
    /** The SolveService multiplexes requests over this engine's executor
     *  and cache; it is the one sanctioned external driver. */
    friend class SolveService;

    frozenqubits::CircuitStats run_task(
        const ExecutionPlan& plan, const SubProblemTask& task,
        const device::Device& dev,
        const frozenqubits::DriverConfig& config);

    /** Shared body of the three solve entry points: plan (or replan and
     *  restore @p restore_from), run the wave loop with an optional
     *  checkpoint sink, reduce. */
    frozenqubits::SampledSolve solve_impl(
        const ising::IsingModel& model, const device::Device& dev,
        const frozenqubits::DriverConfig& config, int shots, Rng& rng,
        std::uint64_t seed, const SolveCheckpoint* restore_from,
        const CheckpointSink& sink);

    void start_diagnostics(const ExecutionPlan& plan);
    /** Reset diagnostics_ to what @p plan's current tree and schedule
     *  describe. */
    void describe_plan(const RequestPlan& plan);

    TemplateCache cache_;
    BatchExecutor executor_;
    LocalLeafExecutor local_leaf_executor_{cache_, executor_};
    LeafExecutor* leaf_executor_override_ = nullptr;
    Diagnostics diagnostics_;
};

} // namespace fq::engine

#endif // FQ_ENGINE_ENGINE_H
