#include "engine/request_plan.h"

#include <algorithm>
#include <utility>

namespace fq::engine {

namespace {

/** make_schedule, plus the plan-time deadline trim for a fresh request.
 *  A resume takes the snapshot's trimmed-and-re-ranked schedule wholesale
 *  instead. */
LeafSchedule
initial_schedule(const ising::IsingModel& model, const SolveTree& tree,
                 const frozenqubits::DriverConfig& config, bool fresh,
                 BatchExecutor* scoring)
{
    auto schedule =
        make_schedule(model, tree, config, /*force_scoring=*/false, scoring);
    if (fresh)
        apply_deadline_trim(schedule, tree, config.deadline_cost_units,
                            /*folded=*/0);
    return schedule;
}

} // namespace

RequestPlan::RequestPlan(const ising::IsingModel& model,
                         const device::Device& dev,
                         const frozenqubits::DriverConfig& config, int shots,
                         TemplateCache& cache, Rng& rng, std::uint64_t seed,
                         const SolveCheckpoint* restore_from,
                         CheckpointSink sink, BatchExecutor* scoring)
    : tree(build_solve_tree(model, dev, config, cache, rng)),
      schedule(initial_schedule(model, tree, config, !restore_from,
                                scoring)),
      reducer(model, tree, schedule), sink_(std::move(sink))
{
    wave.context = this;
    wave.model = &model;
    wave.tree = &tree;
    wave.schedule = &schedule;
    wave.reducer = &reducer;
    wave.dev = &dev;
    wave.config = &config;
    wave.shots = shots;
    wave.seed = seed;
    if (config.rerank_interval > 0)
        planned = schedule.executed;

    if (restore_from) {
        restore_checkpoint(*restore_from, wave);
        resumed_from = static_cast<int>(restore_from->cursor);
        restored_epochs = wave.epochs;
    } else {
        arm_rerank(wave);
    }
    folded_.store(static_cast<int>(wave.dispatched),
                  std::memory_order_relaxed);
    // A durable request's first checkpoint boundary: the first multiple
    // of the interval past the cursor (fresh or resumed).
    const auto every = static_cast<std::size_t>(
        std::max(0LL, config.checkpoint_interval));
    if (sink_ && every > 0)
        wave.next_checkpoint = (wave.dispatched / every + 1) * every;
}

void
RequestPlan::on_folded(const WaveSlot& slot, bool fused_hit,
                       TemplateTier fuse_tier)
{
    RequestPlan& plan = of(*slot.request);
    const auto& leaf =
        plan.tree.leaves[static_cast<std::size_t>(slot.leaf_id)];
    if (leaf.fuse) {
        // Attribute the traffic to the leaf's plan-time backend tag.
        const std::size_t arm =
            leaf.backend == sim::BackendKind::VectorizedFused ? 1 : 0;
        plan.fused_lookups_[arm].fetch_add(1, std::memory_order_relaxed);
        if (fused_hit)
            plan.fused_hits_[arm].fetch_add(1, std::memory_order_relaxed);
        if (fuse_tier == TemplateTier::Bind)
            plan.family_binds_.fetch_add(1, std::memory_order_relaxed);
    }
    plan.folded_.fetch_add(1, std::memory_order_acq_rel);
}

void
RequestPlan::post_barrier()
{
    post_barrier_rerank(wave);
    // Due only when the fold count sits exactly on the armed boundary
    // (dispatch_limit never lets it overshoot) and a tail remains.
    if (wave.next_checkpoint == 0 ||
        wave.dispatched != wave.next_checkpoint || wave.done())
        return;
    ++checkpoints_;
    const bool keep_going = sink_(capture_checkpoint(wave));
    wave.next_checkpoint +=
        static_cast<std::size_t>(wave.config->checkpoint_interval);
    if (keep_going)
        return;
    // Suspend: demote the un-dispatched tail to beyond_budget so the
    // request completes as a degraded anytime result; the folded prefix
    // still counts, and the snapshot just taken resumes the rest.
    schedule.beyond_budget.insert(schedule.beyond_budget.end(),
                                  schedule.executed.begin() +
                                      static_cast<long>(wave.dispatched),
                                  schedule.executed.end());
    schedule.executed.resize(wave.dispatched);
    schedule.suspended = true;
}

void
RequestPlan::record_plan(SolveRecord& record) const
{
    for (int leaf_id : schedule.executed) {
        switch (tree.leaves[static_cast<std::size_t>(leaf_id)].tier) {
        case TemplateTier::Hit: ++record.leaves_tier_hit; break;
        case TemplateTier::Bind: ++record.leaves_tier_bind; break;
        case TemplateTier::Compile: ++record.leaves_tier_compile; break;
        }
        const auto arm = node_kind_index(leaf_arm_kind(tree, leaf_id));
        ++record.kind_leaves_executed[arm];
        record.kind_budget_units[arm] += leaf_slot_cost(tree, leaf_id);
    }
    // Per-arm pruned = domination-pruned + budget-cut: the leaves each
    // reduction arm planned but will never run.
    for (const auto* dropped : {&schedule.beyond_budget, &schedule.pruned})
        for (int leaf_id : *dropped)
            ++record.kind_leaves_pruned[node_kind_index(
                leaf_arm_kind(tree, leaf_id))];

    record.reranks = schedule.reranks;
    record.rerank_pruned = schedule.rerank_pruned;
    record.rerank_promoted = schedule.rerank_promoted;
    record.rerank_demoted = schedule.rerank_demoted;
    record.checkpoints = checkpoints_;
    record.resumed_from = resumed_from;
    record.deadline_trimmed = schedule.deadline_trimmed;
    record.degraded = schedule.deadline_trimmed > 0 || schedule.suspended;
    record.leaves_scheduled = static_cast<int>(schedule.executed.size());
}

void
RequestPlan::record_execution(SolveRecord& record, LeafExecutor& executor,
                              Clock::time_point start)
{
    record.leaves_executed = static_cast<int>(folded());
    record.waves = wave.epochs - restored_epochs;
    record.fused_lookups_scalar = fused_lookups_[0].load();
    record.fused_lookups_simd = fused_lookups_[1].load();
    record.fused_hits_scalar = fused_hits_[0].load();
    record.fused_hits_simd = fused_hits_[1].load();
    record.fused_lookups =
        record.fused_lookups_scalar + record.fused_lookups_simd;
    record.fused_hits = record.fused_hits_scalar + record.fused_hits_simd;
    record.cache_hit_share =
        record.fused_lookups == 0
            ? 0.0
            : static_cast<double>(record.fused_hits) /
                  static_cast<double>(record.fused_lookups);
    record.family_binds = family_binds_.load();

    // All zeros on the local backend. finish_request releases the
    // backend's per-request state (sessions, stats): WaveRequest storage
    // is reused once this request is gone.
    const LeafExecutorStats remote = executor.request_stats(&wave);
    executor.finish_request(&wave);
    const std::size_t restored =
        resumed_from < 0 ? 0 : static_cast<std::size_t>(resumed_from);
    record.leaves_remote = remote.leaves_remote;
    record.leaves_local =
        static_cast<long long>(folded() - restored) - remote.leaves_remote;
    record.leaves_redispatched = remote.leaves_redispatched;
    record.remote_bytes_sent = remote.bytes_sent;
    record.remote_bytes_received = remote.bytes_received;
    record.worker_dispatches = remote.worker_dispatches;
    record.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
}

} // namespace fq::engine
