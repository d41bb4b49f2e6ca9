#include "engine/wave_loop.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/error.h"
#include "engine/engine.h"

namespace fq::engine {

namespace {

/** Cost-exponent cap: beyond this width the cost model saturates; leaves
 *  that wide cannot simulate anyway (kMaxSimQubits), so relative packing
 *  between them no longer matters. */
constexpr int kMaxCostExponent = 40;

} // namespace

long long
leaf_slot_cost(const SolveTree& tree, int leaf_id)
{
    return 1LL << std::min(tree.leaf_width(leaf_id), kMaxCostExponent);
}

std::vector<WaveSlot>
assemble_wave(const std::vector<WaveRequest*>& tenants, int wave_size,
              std::size_t rotate, std::vector<int>* taken_out)
{
    std::vector<WaveSlot> wave;
    if (taken_out)
        taken_out->assign(tenants.size(), 0);
    if (tenants.empty())
        return wave;
    const std::size_t n = tenants.size();
    const bool capped = wave_size > 0; // uncapped = the solo epoch

    // Cost budget: wave_size slots priced at the cheapest pending leaf, so
    // equal-width tenants pack exactly wave_size leaves per wave and wider
    // leaves charge proportionally more of the wave.
    long long min_cost = 0;
    for (const auto* r : tenants) {
        if (r->dispatched >= r->dispatch_limit())
            continue;
        const long long cost = leaf_slot_cost(
            *r->tree, r->schedule->executed[r->dispatched]);
        min_cost = min_cost == 0 ? cost : std::min(min_cost, cost);
    }
    if (min_cost == 0)
        return wave; // nothing pending anywhere
    const long long budget =
        static_cast<long long>(wave_size) * min_cost;

    // Fair round-robin with a rotating start, one leaf per tenant per
    // pass: under contention every tenant advances at the same rate, and
    // the rotation keeps the leftover capacity of a non-full pass from
    // always favouring the first tenant (so no tenant starves across
    // waves, even when the budget closes a wave early). The wave is
    // bounded both by wave_size SLOTS (the legacy latency/memory cap)
    // and by the cost budget; a wave's first leaf is always admitted
    // (progress guarantee), so an over-budget wide leaf rides a wave of
    // its own instead of wedging the queue.
    std::vector<int> taken(n, 0);
    const std::size_t start = rotate % n;
    long long spent = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t slot = (start + k) % n;
            WaveRequest& r = *tenants[slot];
            if (r.dispatched >= r.dispatch_limit())
                continue;
            // Per-request wave-share SELF-cap: a bulk tenant bounds how
            // many of its OWN leaves ride one wave, leaving the rest of
            // the capacity to co-tenants.
            if (capped && r.config->wave_share > 0 &&
                taken[slot] >= r.config->wave_share)
                continue;
            if (capped && !wave.empty() &&
                (static_cast<int>(wave.size()) >= wave_size ||
                 spent >= budget))
                continue; // slot cap / cost budget (first leaf exempt)
            const int leaf_id = r.schedule->executed[r.dispatched];
            wave.push_back({&r, leaf_id});
            spent += leaf_slot_cost(*r.tree, leaf_id);
            ++r.dispatched;
            ++taken[slot];
            progress = true;
        }
    }
    for (std::size_t slot = 0; slot < n; ++slot)
        if (taken[slot] > 0)
            ++tenants[slot]->epochs;
    if (taken_out)
        *taken_out = std::move(taken);
    return wave;
}

int
execute_wave(TemplateCache& cache, BatchExecutor& executor,
             const std::vector<WaveSlot>& wave, const WaveHooks& hooks)
{
    std::atomic<int> executed{0};
    std::vector<BatchExecutor::QueuedTask> queue;
    queue.reserve(wave.size());
    for (const auto& slot : wave) {
        queue.push_back([&cache, &hooks, &executed,
                         slot](BatchExecutor::Scratch& scratch) {
            if (hooks.admit && !hooks.admit(slot))
                return;
            executed.fetch_add(1, std::memory_order_relaxed);
            try {
                WaveRequest& r = *slot.request;
                bool fused_hit = false;
                TemplateTier fuse_tier = TemplateTier::Compile;
                auto counts = simulate_scheduled_leaf(
                    cache, *r.tree, slot.leaf_id, *r.dev, *r.config,
                    r.shots, scratch, &fused_hit, &fuse_tier);
                r.reducer->fold(slot.leaf_id, std::move(counts));
                if (hooks.folded)
                    hooks.folded(slot, fused_hit, fuse_tier);
            } catch (...) {
                if (!hooks.failed)
                    throw;
                hooks.failed(slot, std::current_exception());
            }
        });
    }
    executor.run_queue(queue);
    return executed.load(std::memory_order_acquire);
}

RerankOutcome
post_barrier_rerank(WaveRequest& request)
{
    RerankOutcome out;
    // Due only when the fold count landed exactly on the boundary — the
    // dispatch_limit cap guarantees it never overshoots — and the schedule
    // still has an un-dispatched tail (or budget-cut leaves) to re-rank.
    if (request.next_rerank == 0 ||
        request.dispatched != request.next_rerank || request.done())
        return out;
    const auto snapshot =
        request.reducer->epoch_snapshot(request.dispatched);
    out = rerank_schedule(*request.schedule, *request.model, *request.tree,
                          request.dispatched, snapshot);
    // Re-apply the deadline trim after the re-rank: promotions may have
    // refilled the tail past what the remaining deadline covers. Trimming
    // ONLY at plan time and re-rank boundaries keeps the trim a pure
    // function of the fold count — checkpoint barriers (whose placement
    // must not change results) never trigger one.
    apply_deadline_trim(*request.schedule, *request.tree,
                        request.config->deadline_cost_units,
                        request.dispatched);
    request.next_rerank +=
        static_cast<std::size_t>(request.config->rerank_interval);
    return out;
}

} // namespace fq::engine
