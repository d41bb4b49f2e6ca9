#include "engine/plan.h"

#include "common/error.h"
#include "frozenqubits/hotspot.h"
#include "sim/statevector.h"

namespace fq::engine {

qaoa::BuildOptions
default_build_options()
{
    qaoa::BuildOptions build;
    build.num_layers = 1;
    build.keep_zero_linear_rz = true;
    return build;
}

ExecutionPlan
make_plan(const ising::IsingModel& model, const device::Device& dev,
          const frozenqubits::DriverConfig& config, TemplateCache& cache,
          Rng& rng)
{
    FQ_REQUIRE(config.num_freeze >= 1,
               "execution plan needs at least one frozen qubit");

    ExecutionPlan plan;
    plan.hotspots = frozenqubits::select_hotspots(model, config.num_freeze,
                                                  config.policy, rng);
    plan.stream_seed = rng();
    const std::uint64_t stream_seed = plan.stream_seed;
    plan.subproblems = frozenqubits::freeze_all(model, plan.hotspots);
    const auto entries = frozenqubits::plan_executions(
        model, config.num_freeze, config.symmetry_pruning);

    plan.tasks.reserve(entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
        SubProblemTask task;
        task.plan_index = static_cast<int>(k);
        task.solve = entries[k].solve;
        task.mirrors = entries[k].mirrors;
        task.rng_seed = subproblem_stream_seed(
            stream_seed, static_cast<std::uint64_t>(task.solve));
        plan.tasks.push_back(std::move(task));
    }

    plan.build = default_build_options();

    // Mark the plan fusable: every sub-problem of one freeze shares the
    // template's quadratic structure, so if one fits the fused-simulation
    // table width they all do. The fused program cache is keyed on
    // coefficient values, so each executed sibling compiles its own weight
    // tables once and reuses them across engine invocations.
    plan.fuse_simulation =
        config.fuse_simulation &&
        (plan.subproblems.empty() ||
         plan.subproblems.front().model.num_spins() <= sim::kMaxSimQubits);

    // Pre-resolve the shared template serially so parallel tasks never race
    // to compile: every sibling is edit-compatible with the first planned
    // sub-problem (identical quadratic structure by construction). On the
    // family tier (the default) the skeleton rides along, so leaf
    // execution binds coefficients instead of rebuilding circuits.
    if (config.use_template_editing && !plan.tasks.empty()) {
        const auto& owner = plan.subproblems[plan.tasks.front().solve];
        auto resolved =
            cache.resolve_template(owner.model, dev, config.compile,
                                   plan.build, config.parametric_templates);
        plan.compiled_template = std::move(resolved.tpl);
        plan.family = std::move(resolved.family);
        plan.template_cache_hit = resolved.cache_hit;
    }
    return plan;
}

} // namespace fq::engine
