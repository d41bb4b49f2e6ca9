#include "engine/reducer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/bitops.h"
#include "common/error.h"
#include "frozenqubits/decoder.h"
#include "ising/sa_solver.h"
#include "sim/noise_model.h"

namespace fq::engine {

frozenqubits::Report
reduce_report(const ExecutionPlan& plan,
              const frozenqubits::CircuitStats& baseline,
              std::vector<frozenqubits::CircuitStats> per_task)
{
    FQ_REQUIRE(per_task.size() == plan.tasks.size(),
               "per-task stats do not match the plan");

    frozenqubits::Report report;
    report.baseline = baseline;
    report.arg_baseline = sim::approximation_ratio_gap(
        baseline.ev_ideal, baseline.ev_noisy);

    report.hotspots = plan.hotspots;
    report.num_subproblems = plan.num_subproblems();
    report.num_executed = plan.num_executed();

    double best_ideal = std::numeric_limits<double>::infinity();
    double best_noisy = std::numeric_limits<double>::infinity();
    for (const auto& stats : per_task) {
        best_ideal = std::min(best_ideal, stats.ev_ideal);
        best_noisy = std::min(best_noisy, stats.ev_noisy);
        // Mirror sub-problems share the executed circuit's spectrum
        // (H_mirror(z) = H(-z)), so their EVs equal the solved one and need
        // no separate accounting.
    }
    report.executed = std::move(per_task);

    // An empty task list (or all-skipped execution) would leave both EVs at
    // +infinity and silently report a bogus approximation-ratio gap — fail
    // loudly instead of producing an unsolved report that looks solved.
    FQ_REQUIRE(std::isfinite(best_ideal) && std::isfinite(best_noisy),
               "no executed sub-problem produced a finite EV — the report "
               "has nothing to reduce");

    report.ev_ideal_fq = best_ideal;
    report.ev_noisy_fq = best_noisy;
    report.arg_fq = sim::approximation_ratio_gap(best_ideal, best_noisy);
    return report;
}

frozenqubits::SampledSolve
reduce_sampling(const ising::IsingModel& model, const ExecutionPlan& plan,
                std::vector<sim::Counts> per_task)
{
    FQ_REQUIRE(per_task.size() == plan.tasks.size(),
               "per-task counts do not match the plan");

    const int sub_width =
        model.num_spins() - static_cast<int>(plan.hotspots.size());
    std::vector<sim::Counts> distributions(
        plan.subproblems.size(), sim::Counts(sub_width));
    for (std::size_t k = 0; k < plan.tasks.size(); ++k) {
        const auto& task = plan.tasks[k];
        // Mirror distributions: flip every bit (Section 3.7.2).
        for (int mirror : task.mirrors)
            distributions[mirror] = per_task[k].flip_all_bits();
        distributions[task.solve] = std::move(per_task[k]);
    }

    const auto decoded =
        frozenqubits::decode_best(model, plan.subproblems, distributions);
    frozenqubits::SampledSolve out;
    out.best_assignment = decoded.assignment;
    out.best_cost = decoded.cost;
    out.from_subproblem = decoded.subproblem_index;
    out.distributions = std::move(distributions);
    return out;
}

namespace {

/**
 * True when offset, h and J are finite integers with sum |c| <= 2^52:
 * every partial sum of IsingModel::evaluate (and of any model derived by
 * freezing spins) is then an exact integer, so a sub-model cost equals
 * the original-model cost of the lifted state bit for bit.
 */
bool
has_exact_integral_costs(const ising::IsingModel& model)
{
    constexpr std::int64_t kLimit = std::int64_t(1) << 52;
    std::int64_t magnitude = 0;
    const auto add = [&](double c) {
        if (!(std::abs(c) <= static_cast<double>(kLimit)) ||
            c != std::trunc(c))
            return false;
        magnitude += static_cast<std::int64_t>(std::abs(c));
        return magnitude <= kLimit;
    };
    if (!add(model.offset()))
        return false;
    for (double h : model.linear_terms())
        if (!add(h))
            return false;
    for (const auto& term : model.quadratic_terms())
        if (!add(term.coefficient))
            return false;
    return true;
}

/**
 * Basis-state costs of a model that has_exact_integral_costs, in int64:
 * with z_i = 1 - 2 b_i, C(s) = (offset + sum h + sum J) - 2 (sum of h_i
 * over set bits + sum of J_ij over couplings whose bits differ). The values
 * are exactly evaluate_state's, from independent integer adds instead of
 * one dependent floating-point chain.
 */
class IntegralStateCosts
{
  public:
    explicit IntegralStateCosts(const ising::IsingModel& model)
        : base_(static_cast<std::int64_t>(model.offset()))
    {
        for (int i = 0; i < model.num_spins(); ++i) {
            const auto h = static_cast<std::int64_t>(model.linear(i));
            base_ += h;
            if (h != 0)
                fields_.push_back({i, i, h});
        }
        for (const auto& term : model.quadratic_terms()) {
            const auto J = static_cast<std::int64_t>(term.coefficient);
            base_ += J;
            couplings_.push_back({term.i, term.j, J});
        }
    }

    std::int64_t
    operator()(std::uint64_t state) const
    {
        std::int64_t flipped = 0;
        for (const auto& f : fields_)
            flipped += f.c & -static_cast<std::int64_t>((state >> f.i) & 1);
        for (const auto& t : couplings_)
            flipped +=
                t.c & -static_cast<std::int64_t>(
                          ((state >> t.i) ^ (state >> t.j)) & 1);
        return base_ - 2 * flipped;
    }

  private:
    struct Term
    {
        int i, j;
        std::int64_t c;
    };
    std::int64_t base_;
    std::vector<Term> fields_;
    std::vector<Term> couplings_;
};

/** First histogram state (ascending) at the minimum of @p cost; false
 *  for an empty histogram. */
template <class Cost>
bool
first_min_state(const sim::Counts& counts, const Cost& cost,
                std::uint64_t& best_state)
{
    bool have_state = false;
    decltype(cost(0)) best_cost{};
    for (const auto& [state, _] : counts.histogram()) {
        const auto c = cost(state);
        if (!have_state || c < best_cost) {
            have_state = true;
            best_state = state;
            best_cost = c;
        }
    }
    return have_state;
}

} // namespace

// ---------------------------------------------------------------------------
// StreamingReducer

StreamingReducer::StreamingReducer(const ising::IsingModel& original,
                                   const SolveTree& tree,
                                   const LeafSchedule& schedule)
    : original_(original), tree_(tree), schedule_(schedule),
      outcomes_(tree.leaves.size())
{
    if (schedule_.has_presolve) {
        base_ = schedule_.presolve_assignment;
        incumbent_.valid = true;
        incumbent_.cost = schedule_.presolve_cost;
        incumbent_.assignment = schedule_.presolve_assignment;
        incumbent_.leaf = -1;
    } else {
        base_.assign(static_cast<std::size_t>(original.num_spins()), 1);
    }
}

StreamingReducer::LeafOutcome
StreamingReducer::decode(int leaf_id, sim::Counts counts) const
{
    const auto& leaf = tree_.leaves[static_cast<std::size_t>(leaf_id)];
    const auto& sub =
        tree_.nodes[static_cast<std::size_t>(leaf.node)].sub;

    LeafOutcome out;
    out.done = true;

    // Argmin over the histogram by SUB-MODEL cost: for freeze lineages the
    // offset bookkeeping makes this exactly the original-model cost of the
    // lifted outcome, at O(sub terms) per state instead of O(N + |J|).
    // Integral sub-models take exact integer costs: the same order and
    // ties as evaluate_state, so the same state.
    std::uint64_t best_state = 0;
    const bool have_state =
        has_exact_integral_costs(sub.model)
            ? first_min_state(counts, IntegralStateCosts(sub.model),
                              best_state)
            : first_min_state(
                  counts,
                  [&sub](std::uint64_t state) {
                      return sub.model.evaluate_state(state);
                  },
                  best_state);
    out.counts = std::move(counts);
    if (!have_state)
        return out;
    out.min_state = best_state;

    out.best_assignment =
        lift_leaf_state(tree_, leaf, best_state, base_);
    if (leaf.needs_repair)
        ising::greedy_descent(original_, out.best_assignment);
    out.best_cost = original_.evaluate(out.best_assignment);

    // Mirror candidates: the bit-flipped best outcome lifted through each
    // mirror node's frozen values (Section 3.7.2 at decode level). For
    // pure-freeze lineages on a symmetric model this ties the canonical
    // cost; for partition fragments the flip composes with the unflipped
    // rest of the base and can genuinely improve the repair.
    if (!leaf.mirror_nodes.empty()) {
        const std::uint64_t flipped =
            (~best_state) & low_bits_mask(sub.model.num_spins());
        for (int mirror_node : leaf.mirror_nodes) {
            SolveLeaf mirror_view = leaf;
            mirror_view.node = mirror_node;
            auto candidate =
                lift_leaf_state(tree_, mirror_view, flipped, base_);
            if (leaf.needs_repair)
                ising::greedy_descent(original_, candidate);
            const double cost = original_.evaluate(candidate);
            if (cost < out.best_cost) {
                out.best_cost = cost;
                out.best_assignment = std::move(candidate);
            }
        }
    }
    return out;
}

void
StreamingReducer::fold(int leaf_id, sim::Counts counts)
{
    auto outcome = decode(leaf_id, std::move(counts));

    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome.done && incumbent_.accepts(outcome.best_cost, leaf_id)) {
        incumbent_.valid = true;
        incumbent_.cost = outcome.best_cost;
        incumbent_.assignment = outcome.best_assignment;
        incumbent_.leaf = leaf_id;
    }
    outcomes_[static_cast<std::size_t>(leaf_id)] = std::move(outcome);
}

StreamingReducer::Incumbent
StreamingReducer::incumbent() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return incumbent_;
}

EpochIncumbent
StreamingReducer::epoch_snapshot(std::size_t folded) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(folded <= schedule_.executed.size(),
               "epoch snapshot beyond the schedule");

    // Replay the live merge rule over the schedule prefix only: folds are
    // order-independent and keyed by leaf id, so this is identical whether
    // the prefix folded serially, across threads, or interleaved with
    // later leaves the snapshot must not see.
    Incumbent running;
    if (schedule_.has_presolve) {
        running.valid = true;
        running.cost = schedule_.presolve_cost;
        running.assignment = schedule_.presolve_assignment;
        running.leaf = -1;
    }
    for (std::size_t k = 0; k < folded; ++k) {
        const int leaf_id = schedule_.executed[k];
        const auto& outcome =
            outcomes_[static_cast<std::size_t>(leaf_id)];
        FQ_REQUIRE(outcome.done,
                   "epoch snapshot over a leaf that has not folded");
        if (running.accepts(outcome.best_cost, leaf_id)) {
            running.valid = true;
            running.cost = outcome.best_cost;
            running.assignment = outcome.best_assignment;
            running.leaf = leaf_id;
        }
    }

    EpochIncumbent snap;
    snap.valid = running.valid;
    snap.cost = running.cost;
    snap.assignment = running.assignment;
    snap.leaf = running.leaf;
    return snap;
}

std::vector<std::pair<int, sim::Counts>>
StreamingReducer::export_folded(std::size_t folded) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(!finished_,
               "checkpoint export after finish() moved the histograms");
    FQ_REQUIRE(folded <= schedule_.executed.size(),
               "checkpoint export beyond the schedule");
    std::vector<std::pair<int, sim::Counts>> out;
    out.reserve(folded);
    for (std::size_t k = 0; k < folded; ++k) {
        const int leaf_id = schedule_.executed[k];
        const auto& outcome = outcomes_[static_cast<std::size_t>(leaf_id)];
        FQ_REQUIRE(outcome.done,
                   "checkpoint export over a leaf that has not folded");
        out.emplace_back(leaf_id, outcome.counts);
    }
    return out;
}

frozenqubits::SampledSolve
StreamingReducer::finish_flat()
{
    // The legacy 2^m-distribution result: per-sub-problem histograms in
    // plan order (budget-skipped tasks leave theirs and their mirrors'
    // empty) and decode_best's pick over them — bit-identical to the flat
    // engine for a full (unbudgeted) schedule.
    const auto& plan = tree_.nodes.front().plan;
    const int n = original_.num_spins();
    const int sub_width = n - static_cast<int>(plan.hotspots.size());
    // Map each leaf to its plan task through the node-local sub-problem
    // index, never by position: today the tree builder emits flat leaves in
    // task order, but a planner change that reorders them must trip the
    // requirements below instead of silently permuting distributions.
    std::vector<int> task_of_solve(plan.subproblems.size(), -1);
    for (std::size_t j = 0; j < plan.tasks.size(); ++j)
        task_of_solve[static_cast<std::size_t>(plan.tasks[j].solve)] =
            static_cast<int>(j);
    std::vector<int> leaf_of_task(plan.tasks.size(), -1);
    for (std::size_t k = 0; k < tree_.leaves.size(); ++k) {
        if (!outcomes_[k].done)
            continue;
        const auto& leaf = tree_.leaves[k];
        FQ_REQUIRE(leaf.local_solve >= 0 &&
                       leaf.local_solve <
                           static_cast<int>(task_of_solve.size()),
                   "flat leaf lacks a node-local sub-problem index");
        const int task =
            task_of_solve[static_cast<std::size_t>(leaf.local_solve)];
        FQ_REQUIRE(task >= 0,
                   "flat leaf's sub-problem has no matching plan task");
        leaf_of_task[static_cast<std::size_t>(task)] = static_cast<int>(k);
    }

    if (!has_exact_integral_costs(original_)) {
        // Rounded costs: a sub-model argmin need not be the lifted one, so
        // decode every sampled state on the original model.
        std::vector<sim::Counts> per_task(plan.tasks.size(),
                                          sim::Counts(sub_width));
        for (std::size_t j = 0; j < plan.tasks.size(); ++j)
            if (leaf_of_task[j] >= 0)
                per_task[j] = std::move(
                    outcomes_[static_cast<std::size_t>(leaf_of_task[j])]
                        .counts);
        return reduce_sampling(original_, plan, std::move(per_task));
    }

    // Exact costs: each fold's sub-model argmin already is decode_best's
    // pick for its sub-problem — the first state (ascending) at the
    // minimum. A mirror sub-problem never wins decode_best's first strict
    // minimum: its costs are its solve partner's (mirrors are planned only
    // for h = 0, where C(-z) = C(z)), and the partner comes first in plan
    // order. So one candidate per executed task is the whole decode.
    frozenqubits::SampledSolve out;
    out.distributions.assign(plan.subproblems.size(),
                             sim::Counts(sub_width));
    std::vector<std::optional<std::uint64_t>> picks(
        plan.subproblems.size());
    for (std::size_t j = 0; j < plan.tasks.size(); ++j) {
        if (leaf_of_task[j] < 0)
            continue;
        const auto& task = plan.tasks[j];
        auto& outcome =
            outcomes_[static_cast<std::size_t>(leaf_of_task[j])];
        if (outcome.counts.total_shots() != 0)
            picks[static_cast<std::size_t>(task.solve)] = outcome.min_state;
        for (int mirror : task.mirrors) {
            FQ_REQUIRE(mirror > task.solve,
                       "flat plan lists a mirror before its solve task");
            out.distributions[static_cast<std::size_t>(mirror)] =
                outcome.counts.flip_all_bits();
        }
        out.distributions[static_cast<std::size_t>(task.solve)] =
            std::move(outcome.counts);
    }

    out.best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < picks.size(); ++s) {
        if (!picks[s])
            continue;
        auto lifted =
            frozenqubits::lift_state(plan.subproblems[s], *picks[s], n);
        const double cost = original_.evaluate(lifted);
        if (cost < out.best_cost) {
            out.best_cost = cost;
            out.best_assignment = std::move(lifted);
            out.from_subproblem = static_cast<int>(s);
        }
    }
    FQ_REQUIRE(out.from_subproblem >= 0,
               "no outcomes to decode (all distributions empty)");
    return out;
}

frozenqubits::SampledSolve
StreamingReducer::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    FQ_REQUIRE(!finished_, "StreamingReducer::finish() runs once");
    finished_ = true;

    frozenqubits::SampledSolve out;
    if (tree_.flat()) {
        out = finish_flat();
    } else {
        // Quantum-only best: scan in leaf order — deterministic regardless
        // of arrival order.
        int best_leaf = -1;
        for (std::size_t id = 0; id < outcomes_.size(); ++id) {
            const auto& outcome = outcomes_[id];
            if (!outcome.done ||
                outcome.best_cost ==
                    std::numeric_limits<double>::infinity())
                continue;
            if (best_leaf < 0 ||
                outcome.best_cost <
                    outcomes_[static_cast<std::size_t>(best_leaf)]
                        .best_cost)
                best_leaf = static_cast<int>(id);
        }
        FQ_REQUIRE(best_leaf >= 0,
                   "no decodable outcome (no leaf executed)");
        const auto& best = outcomes_[static_cast<std::size_t>(best_leaf)];
        out.best_assignment = best.best_assignment;
        out.best_cost = best.best_cost;
        out.from_subproblem = best_leaf;
        for (int leaf_id : schedule_.executed) {
            auto& outcome = outcomes_[static_cast<std::size_t>(leaf_id)];
            if (outcome.done)
                out.distributions.push_back(std::move(outcome.counts));
        }
    }
    out.best_quantum_cost = out.best_cost;
    out.best_quantum_leaf = out.from_subproblem;
    // The reported best is the overall incumbent — what the anytime trace
    // converges to. A presolve that strictly beats every quantum decode
    // wins (from_subproblem -1); ties keep the quantum answer, matching
    // Incumbent::accepts.
    if (schedule_.has_presolve &&
        schedule_.presolve_cost < out.best_cost) {
        out.best_cost = schedule_.presolve_cost;
        out.best_assignment = schedule_.presolve_assignment;
        out.from_subproblem = -1;
    }

    out.leaves_total = tree_.num_executable_leaves();
    // Rank-order anytime trajectory, replayed deterministically.
    Incumbent running;
    if (schedule_.has_presolve) {
        running.valid = true;
        running.cost = schedule_.presolve_cost;
        running.leaf = -1;
        out.anytime.push_back({0, running.cost, -1});
    }
    int circuits = 0;
    for (int leaf_id : schedule_.executed) {
        const auto& outcome =
            outcomes_[static_cast<std::size_t>(leaf_id)];
        if (!outcome.done)
            continue;
        ++circuits;
        if (running.accepts(outcome.best_cost, leaf_id)) {
            running.valid = true;
            running.cost = outcome.best_cost;
            running.leaf = leaf_id;
        }
        out.anytime.push_back({circuits, running.cost, running.leaf});
    }
    out.leaves_executed = circuits;
    // Durability flags: a deadline trim or a checkpoint-sink suspension
    // shortened the schedule, so the answer above is the valid anytime
    // incumbent over what DID fold — degraded, not wrong.
    out.deadline_trimmed = schedule_.deadline_trimmed;
    out.degraded = schedule_.deadline_trimmed > 0 || schedule_.suspended;
    return out;
}

} // namespace fq::engine
