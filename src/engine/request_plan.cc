#include "engine/request_plan.h"

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
                         const SolveCheckpoint* restore_from, bool durable,
                         BatchExecutor* scoring)
    : tree(build_solve_tree(model, dev, config, cache, rng)),
      schedule(initial_schedule(model, tree, config, !restore_from,
                                scoring)),
      reducer(model, tree, schedule)
{
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
    if (durable)
        arm_checkpoint(wave);
}

SolveCheckpoint
RequestPlan::capture()
{
    ++checkpoints_;
    return capture_checkpoint(wave);
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
}

void
RequestPlan::record_execution(SolveRecord& record, LeafExecutor& executor,
                              std::size_t folded, Clock::time_point start)
{
    // All zeros on the local backend. finish_request releases the
    // backend's per-request state (sessions, stats): WaveRequest storage
    // is reused once this request is gone.
    const LeafExecutorStats remote = executor.request_stats(&wave);
    executor.finish_request(&wave);
    const std::size_t restored =
        resumed_from < 0 ? 0 : static_cast<std::size_t>(resumed_from);
    record.leaves_remote = remote.leaves_remote;
    record.leaves_local =
        static_cast<long long>(folded - restored) - remote.leaves_remote;
    record.leaves_redispatched = remote.leaves_redispatched;
    record.remote_bytes_sent = remote.bytes_sent;
    record.remote_bytes_received = remote.bytes_received;
    record.worker_dispatches = remote.worker_dispatches;
    record.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
}

} // namespace fq::engine
