/**
 * @file
 * Cold-start planning latency study: what the parametric family tier buys.
 * For each (n, p) BA family the same leaf-materialization work is timed at
 * all three template tiers:
 *
 *   cold compile — fresh cache: get_or_bind pays the full structural
 *     pipeline (circuit build + transpile + fusion skeleton), then the
 *     member's fused circuit is produced by a coefficient patch;
 *   family-warm bind — the family structure is resident: get_or_bind is a
 *     hash plus an O(E) labeled verification, and the member costs one
 *     coefficient patch — no transpiler involvement;
 *   fully-warm hit — the member's own fused program is resident: the
 *     lookup returns the shared artifact.
 *
 * Those three arms are structure-only: they stop at the member's fused
 * circuit and leave out its 2^n weight tables, which every tier builds
 * identically (bit-for-bit — see the bind-vs-recompile property tests).
 * A fresh leaf pays those tables too, so two more columns carry the
 * family-warm bind through get_or_fuse — the full leaf cost, tables
 * included:
 *
 *   +-1 members — integral values, as on every leaf of the paper's
 *     +-1-weighted classes: the one-pass integer table build;
 *   real members — the fractional values of the arms above: one table
 *     pass per term (sim/qaoa_kernel.h).
 *
 * Emits BENCH_plan_latency.json and FAILS (exit 1) unless the family-warm
 * bind is at least 5x faster than the cold compile on the p=2 n=20 BA
 * family (structure-only arms).
 */
#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "circuit/fusion.h"
#include "engine/template_cache.h"
#include "transpiler/pipeline.h"

namespace {

using namespace fq;

constexpr int kDegree = 2;      ///< BA attachment factor
constexpr int kRepeats = 7;     ///< best-of per tier
constexpr std::uint64_t kSeed = 71;

/** The acceptance-gated configuration. */
constexpr int kGateN = 20;
constexpr int kGateP = 2;
constexpr double kRequiredSpeedup = 5.0;

using Clock = std::chrono::steady_clock;

double
us_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

/** Same labeled structure as @p base, re-randomized coefficients. */
ising::IsingModel
with_new_values(const ising::IsingModel& base, std::uint64_t seed)
{
    auto model = base;
    Rng rng(seed);
    for (const auto& term : model.quadratic_terms())
        model.add_quadratic(term.i, term.j,
                            rng.uniform(-1.0, 1.0) - term.coefficient);
    return model;
}

/** Same labeled structure as @p base, couplings re-drawn from +-1. */
ising::IsingModel
with_pm1_values(const ising::IsingModel& base, std::uint64_t seed)
{
    auto model = base;
    Rng rng(seed);
    for (const auto& term : model.quadratic_terms())
        model.add_quadratic(term.i, term.j,
                            (rng.uniform() < 0.5 ? -1.0 : 1.0) -
                                term.coefficient);
    return model;
}

struct TierLatencies
{
    double cold_us = 0.0;
    double bind_us = 0.0;
    double hit_us = 0.0;
    double leaf_pm1_us = 0.0;  ///< family bind + tables, +-1 members
    double leaf_real_us = 0.0; ///< family bind + tables, real members
    double speedup() const { return cold_us / bind_us; }
};

/**
 * One leaf materialization at the planning layer: resolve the family
 * artifact, then produce the member's fused circuit via the coefficient
 * patch. The returned tier reports how the lookup was satisfied.
 */
engine::TemplateTier
materialize(engine::TemplateCache& cache, const ising::IsingModel& model,
            const device::Device& dev,
            const transpiler::CompileOptions& compile,
            const qaoa::BuildOptions& build)
{
    const auto binding = cache.get_or_bind(model, dev, compile, build);
    if (binding.family->has_skeleton) {
        const auto bound = circuit::bind_fused(
            binding.family->skeleton, engine::fused_slot_values(model));
        benchmark::DoNotOptimize(bound.ops.size());
    }
    return binding.tier;
}

/**
 * Best-of latency of a fresh leaf on a family-warm cache, tables
 * included: get_or_bind, then get_or_fuse through the bound family (the
 * coefficient patch plus the member's 2^n table builds).
 */
double
leaf_with_tables_us(engine::TemplateCache& warm,
                    const ising::IsingModel& base, const device::Device& dev,
                    const transpiler::CompileOptions& compile,
                    const qaoa::BuildOptions& build, bool pm1_members,
                    std::uint64_t seed)
{
    double best = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
        const std::uint64_t member_seed =
            seed + static_cast<std::uint64_t>(rep);
        const auto member = pm1_members
                                ? with_pm1_values(base, member_seed)
                                : with_new_values(base, member_seed);
        const auto start = Clock::now();
        const auto binding = warm.get_or_bind(member, dev, compile, build);
        bool hit = true;
        const auto program =
            warm.get_or_fuse(member, build, &hit, binding.family.get());
        benchmark::DoNotOptimize(program.get());
        const double us = us_since(start);
        if (binding.tier != engine::TemplateTier::Bind || hit)
            std::abort(); // a fresh member binds and builds its tables
        if (rep == 0 || us < best)
            best = us;
    }
    return best;
}

TierLatencies
measure(int n, int p, const device::Device& dev)
{
    const auto base = bench::ba_model(n, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = p;
    transpiler::CompileOptions compile;

    TierLatencies out;

    // Cold: a fresh cache per repetition — every rep pays the transpile.
    for (int rep = 0; rep < kRepeats; ++rep) {
        engine::TemplateCache cache;
        const auto member = with_new_values(
            base, kSeed + static_cast<std::uint64_t>(100 + rep));
        const auto start = Clock::now();
        const auto tier = materialize(cache, member, dev, compile, build);
        const double us = us_since(start);
        if (tier != engine::TemplateTier::Compile)
            std::abort(); // cold lookups must pay the structural compile
        if (rep == 0 || us < out.cold_us)
            out.cold_us = us;
    }

    // Family-warm: one persistent cache, structure resident, fresh values
    // each repetition — the tier the 2^m sibling fan-out lives in.
    engine::TemplateCache warm;
    (void)materialize(warm, base, dev, compile, build);
    ising::IsingModel last = base;
    for (int rep = 0; rep < kRepeats; ++rep) {
        last = with_new_values(
            base, kSeed + static_cast<std::uint64_t>(200 + rep));
        const auto start = Clock::now();
        const auto tier = materialize(warm, last, dev, compile, build);
        const double us = us_since(start);
        if (tier != engine::TemplateTier::Bind)
            std::abort(); // warm-family lookups must never transpile
        if (rep == 0 || us < out.bind_us)
            out.bind_us = us;
    }

    out.leaf_pm1_us = leaf_with_tables_us(warm, base, dev, compile, build,
                                          /*pm1_members=*/true, kSeed + 500);
    out.leaf_real_us = leaf_with_tables_us(warm, base, dev, compile, build,
                                           /*pm1_members=*/false,
                                           kSeed + 600);

    // Fully-warm: the exact member's fused program resident too.
    (void)warm.get_or_fuse(last, build);
    for (int rep = 0; rep < kRepeats; ++rep) {
        const auto start = Clock::now();
        const auto binding = warm.get_or_bind(last, dev, compile, build);
        const auto program = warm.get_or_fuse(last, build);
        benchmark::DoNotOptimize(program.get());
        const double us = us_since(start);
        if (binding.tier != engine::TemplateTier::Hit)
            std::abort();
        if (rep == 0 || us < out.hit_us)
            out.hit_us = us;
    }
    return out;
}

void
print_figure()
{
    bench::banner("plan latency",
                  "cold-start planning cost per template tier: "
                  "O(transpile) compile vs O(parameter-patch) bind");
    const auto dev = device::make_device("ibm-montreal");

    struct Row
    {
        int n = 0;
        int p = 0;
        TierLatencies tiers;
    };
    std::vector<Row> rows;
    for (int n : {12, 16, 20})
        for (int p : {1, 2})
            rows.push_back({n, p, measure(n, p, dev)});

    Table t("BA" + Table::num(kDegree) + " families on ibm-montreal, best of " +
            Table::num(kRepeats) + " (compile/bind/hit: structure only; "
            "bind+tables: the full fresh-leaf cost)");
    t.set_header({"n", "p", "cold compile us", "family bind us", "hit us",
                  "cold/bind", "bind+tables +-1 us", "bind+tables real us"});
    bool pass = false;
    double gate_speedup = 0.0;
    for (const auto& row : rows) {
        t.add_row({Table::num(row.n), Table::num(row.p),
                   Table::num(row.tiers.cold_us, 1),
                   Table::num(row.tiers.bind_us, 1),
                   Table::num(row.tiers.hit_us, 1),
                   Table::num(row.tiers.speedup(), 1),
                   Table::num(row.tiers.leaf_pm1_us, 1),
                   Table::num(row.tiers.leaf_real_us, 1)});
        if (row.n == kGateN && row.p == kGateP) {
            gate_speedup = row.tiers.speedup();
            pass = gate_speedup >= kRequiredSpeedup;
        }
    }
    bench::emit(t);
    std::cout << "acceptance: p=" << kGateP << " n=" << kGateN
              << " BA bind speedup " << gate_speedup << "x (required >= "
              << kRequiredSpeedup << "x): " << (pass ? "PASS" : "FAIL")
              << "\n";

    std::ofstream json("BENCH_plan_latency.json");
    json << "{\n"
         << "  \"benchmark\": \"plan_latency\",\n"
         << "  \"workload\": {\"graph\": \"ba" << kDegree
         << "\", \"device\": \"ibm-montreal\", \"repeats\": " << kRepeats
         << "},\n"
         << "  \"series\": [\n";
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const auto& row = rows[k];
        json << "    {\"n\": " << row.n << ", \"p\": " << row.p
             << ", \"cold_compile_us\": " << row.tiers.cold_us
             << ", \"family_bind_us\": " << row.tiers.bind_us
             << ", \"warm_hit_us\": " << row.tiers.hit_us
             << ", \"speedup\": " << row.tiers.speedup()
             << ", \"bind_with_tables_pm1_us\": " << row.tiers.leaf_pm1_us
             << ", \"bind_with_tables_real_us\": " << row.tiers.leaf_real_us
             << "}"
             << (k + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"gate\": {\"n\": " << kGateN << ", \"p\": " << kGateP
         << ", \"required_speedup\": " << kRequiredSpeedup
         << ", \"speedup\": " << gate_speedup << ", \"pass\": "
         << (pass ? "true" : "false") << "}\n"
         << "}\n";
    std::cout << "wrote BENCH_plan_latency.json\n";

    if (!pass)
        std::exit(1);
}

void
BM_ColdStructuralCompile(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto base = bench::ba_model(16, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    transpiler::CompileOptions compile;
    std::uint64_t rep = 0;
    for (auto _ : state) {
        engine::TemplateCache cache;
        const auto member = with_new_values(base, kSeed + 300 + rep++);
        benchmark::DoNotOptimize(
            materialize(cache, member, dev, compile, build));
    }
}
BENCHMARK(BM_ColdStructuralCompile)->Unit(benchmark::kMicrosecond);

void
BM_FamilyWarmBind(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto base = bench::ba_model(16, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    transpiler::CompileOptions compile;
    engine::TemplateCache cache;
    (void)cache.get_or_bind(base, dev, compile, build);
    std::uint64_t rep = 0;
    for (auto _ : state) {
        const auto member = with_new_values(base, kSeed + 400 + rep++);
        benchmark::DoNotOptimize(
            materialize(cache, member, dev, compile, build));
    }
}
BENCHMARK(BM_FamilyWarmBind)->Unit(benchmark::kMicrosecond);

void
BM_FullyWarmHit(benchmark::State& state)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto base = bench::ba_model(16, kDegree, kSeed);
    qaoa::BuildOptions build;
    build.num_layers = 2;
    transpiler::CompileOptions compile;
    engine::TemplateCache cache;
    (void)cache.get_or_bind(base, dev, compile, build);
    (void)cache.get_or_fuse(base, build);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.get_or_bind(base, dev, compile, build).tier);
        benchmark::DoNotOptimize(cache.get_or_fuse(base, build).get());
    }
}
BENCHMARK(BM_FullyWarmHit)->Unit(benchmark::kMicrosecond);

} // namespace

FQ_BENCH_MAIN(print_figure)
