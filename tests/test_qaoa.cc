/**
 * @file
 * Tests for the QAOA layer. The load-bearing suite is the parameterized
 * property check that the closed-form p=1 expectation (Ozaeta et al.)
 * matches the dense statevector simulation for random Ising instances —
 * the analytic evaluator underpins every fidelity figure at scale.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "graph/generators.h"
#include "ising/ising_model.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/statevector.h"

namespace {

using namespace fq;
using namespace fq::qaoa;

/** Statevector reference for <Z_i>, <Z_i Z_j> and <C> at p=1. */
struct SvReference
{
    std::vector<double> z;
    std::vector<double> zz;
    double energy = 0.0;
};

SvReference
statevector_reference(const ising::IsingModel& model, const P1Angles& angles)
{
    BuildOptions opts;
    opts.num_layers = 1;
    opts.include_measurements = false;
    const auto circuit = build_qaoa_circuit(model, opts);
    const auto bound = circuit.bind({angles.gamma}, {angles.beta});
    const auto sv = sim::run_circuit(bound);

    const int n = model.num_spins();
    SvReference ref;
    ref.z.assign(n, 0.0);
    ref.zz.assign(model.quadratic_terms().size(), 0.0);
    const auto probs = sv.probabilities();
    for (std::uint64_t s = 0; s < probs.size(); ++s) {
        const double p = probs[s];
        if (p == 0.0)
            continue;
        for (int i = 0; i < n; ++i)
            ref.z[i] += p * spin_of_bit(s, i);
        const auto& terms = model.quadratic_terms();
        for (std::size_t t = 0; t < terms.size(); ++t)
            ref.zz[t] += p * spin_of_bit(s, terms[t].i) *
                         spin_of_bit(s, terms[t].j);
    }
    ref.energy = sv.expectation_ising(model);
    return ref;
}

TEST(QaoaBuilder, GateCountsMatchPrediction)
{
    Rng rng(1);
    auto g = graph::barabasi_albert(9, 2, rng);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    model.set_linear(3, 0.5); // one non-zero linear term

    for (int p : {1, 2, 3}) {
        BuildOptions opts;
        opts.num_layers = p;
        const auto c = build_qaoa_circuit(model, opts);
        const auto budget = predict_gate_budget(model, opts);
        EXPECT_EQ(c.count(circuit::GateType::CX), budget.cx);
        EXPECT_EQ(c.count(circuit::GateType::RZ), budget.rz);
        EXPECT_EQ(c.count(circuit::GateType::RX), budget.rx);
        EXPECT_EQ(c.count(circuit::GateType::H), budget.h);
        EXPECT_EQ(c.count(circuit::GateType::MEASURE), budget.measure);
        // Two CNOTs per edge per layer — the paper's core cost relation.
        EXPECT_EQ(budget.cx, 2 * model.num_quadratic_terms() * p);
    }
}

TEST(QaoaBuilder, ZeroLinearPlaceholdersKeptOnRequest)
{
    ising::IsingModel model(4);
    model.add_quadratic(0, 1, 1.0);

    BuildOptions drop;
    drop.num_layers = 1;
    const auto without = build_qaoa_circuit(model, drop);

    BuildOptions keep = drop;
    keep.keep_zero_linear_rz = true;
    const auto with = build_qaoa_circuit(model, keep);

    EXPECT_EQ(with.count(circuit::GateType::RZ) -
                  without.count(circuit::GateType::RZ),
              4); // one placeholder per spin
}

TEST(QaoaBuilder, TermTagsIdentifyCoefficients)
{
    ising::IsingModel model(3);
    model.set_linear(1, 0.25);
    model.add_quadratic(0, 2, -1.0);
    BuildOptions opts;
    opts.num_layers = 1;
    opts.keep_zero_linear_rz = true;
    const auto c = build_qaoa_circuit(model, opts);

    bool found_linear = false, found_quadratic = false;
    for (const auto& g : c.gates()) {
        if (g.type != circuit::GateType::RZ || g.angle.is_constant())
            continue;
        if (g.angle.tag == 1) {
            EXPECT_DOUBLE_EQ(g.angle.coefficient, 0.5); // 2*h_1
            found_linear = true;
        }
        if (g.angle.tag == 3) { // N + t = 3 + 0
            EXPECT_DOUBLE_EQ(g.angle.coefficient, -2.0); // 2*J
            found_quadratic = true;
        }
    }
    EXPECT_TRUE(found_linear);
    EXPECT_TRUE(found_quadratic);
}

TEST(QaoaBuilder, UniformSuperpositionAtZeroAngles)
{
    ising::IsingModel model(3);
    model.add_quadratic(0, 1, 1.0);
    model.add_quadratic(1, 2, -1.0);
    BuildOptions opts;
    opts.num_layers = 1;
    opts.include_measurements = false;
    const auto c = build_qaoa_circuit(model, opts).bind({0.0}, {0.0});
    const auto sv = sim::run_circuit(c);
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_NEAR(sv.probability(s), 1.0 / 8.0, 1e-12);
    // EV at zero angles is the uniform mean = offset (= 0 here).
    EXPECT_NEAR(sv.expectation_ising(model), 0.0, 1e-12);
}

/** Parameterized sweep: instance seed for the analytic-vs-statevector law. */
class AnalyticP1Property : public ::testing::TestWithParam<int>
{
};

TEST_P(AnalyticP1Property, MatchesStatevectorOnRandomInstances)
{
    Rng rng(1000 + GetParam());
    const int n = 3 + static_cast<int>(rng.uniform_int(std::uint64_t(5)));

    ising::IsingModel model(n);
    // Random h (sometimes zero), random sparse J, random offset.
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.6))
            model.set_linear(i, rng.uniform(-1.5, 1.5));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.bernoulli(0.5))
                model.add_quadratic(i, j, rng.uniform(-1.5, 1.5));
    model.set_offset(rng.uniform(-1.0, 1.0));

    for (int angle_trial = 0; angle_trial < 3; ++angle_trial) {
        const P1Angles angles{rng.uniform(0.0, M_PI),
                              rng.uniform(0.0, M_PI)};
        const auto analytic = evaluate_p1(model, angles);
        const auto reference = statevector_reference(model, angles);

        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(analytic.z[i], reference.z[i], 1e-8)
                << "<Z_" << i << "> mismatch";
        for (std::size_t t = 0; t < analytic.zz.size(); ++t)
            EXPECT_NEAR(analytic.zz[t], reference.zz[t], 1e-8)
                << "<ZZ> term " << t << " mismatch";
        EXPECT_NEAR(analytic.energy, reference.energy, 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AnalyticP1Property,
                         ::testing::Range(0, 12));

TEST(AnalyticP1, EnergyOnlyPathAgrees)
{
    Rng rng(2);
    auto g = graph::barabasi_albert(10, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const P1Angles angles{0.4, 0.3};
    EXPECT_DOUBLE_EQ(evaluate_p1_energy(model, angles),
                     evaluate_p1(model, angles).energy);
}

TEST(AnalyticP1, ZeroAnglesGiveUniformEnergy)
{
    Rng rng(3);
    auto g = graph::complete(6);
    graph::assign_random_pm1_weights(g, rng);
    auto model = ising::IsingModel::from_graph(g);
    model.set_offset(1.25);
    EXPECT_NEAR(evaluate_p1_energy(model, {0.0, 0.0}), 1.25, 1e-12);
}

TEST(AnalyticP1, OptimizerBeatsRandomAngles)
{
    Rng rng(4);
    auto g = graph::barabasi_albert(14, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);

    const auto tuned = optimize_p1(model, 24, 16);
    for (int trial = 0; trial < 10; ++trial) {
        const P1Angles random_angles{rng.uniform(0.0, M_PI),
                                     rng.uniform(0.0, M_PI)};
        EXPECT_LE(tuned.energy,
                  evaluate_p1_energy(model, random_angles) + 1e-9);
    }
    // A tuned p=1 EV on a nontrivial instance must beat the uniform mean.
    EXPECT_LT(tuned.energy, -1e-3);
}

TEST(AnalyticP1, ScalesToPracticalSizes)
{
    // 500-qubit instance (the Section 6 scale) — evaluates instantly.
    Rng rng(5);
    auto g = graph::barabasi_albert(500, 1, rng);
    graph::assign_random_pm1_weights(g, rng);
    const auto model = ising::IsingModel::from_graph(g);
    const double e = evaluate_p1_energy(model, {0.35, 0.2});
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_LT(std::abs(e), 499.0); // |EV| bounded by total coupling weight
}

// ---------------------------------------------------------------------------
// Bitwise oracle: the library builds the formulas' structure once per model
// and interns the cos/sin arguments; these per-call formulas evaluate every
// factor directly. Both must agree to the last bit.

namespace reference {

double
neighbor_cos_product(const ising::IsingModel& model, int i, double gamma,
                     int exclude)
{
    double prod = 1.0;
    for (const auto& [k, J] : model.couplings_of(i)) {
        if (k == exclude)
            continue;
        prod *= std::cos(2.0 * gamma * J);
    }
    return prod;
}

void
union_cos_products(const ising::IsingModel& model, int i, int j, double gamma,
                   double& prod_sum, double& prod_diff)
{
    prod_sum = 1.0;
    prod_diff = 1.0;
    std::unordered_map<int, std::pair<double, double>> merged;
    for (const auto& [k, J] : model.couplings_of(i)) {
        if (k != j)
            merged[k].first = J;
    }
    for (const auto& [k, J] : model.couplings_of(j)) {
        if (k != i)
            merged[k].second = J;
    }
    for (const auto& [k, Js] : merged) {
        (void)k;
        prod_sum *= std::cos(2.0 * gamma * (Js.first + Js.second));
        prod_diff *= std::cos(2.0 * gamma * (Js.first - Js.second));
    }
}

P1Expectations
evaluate(const ising::IsingModel& model, const P1Angles& angles)
{
    const double g = angles.gamma;
    const double b = angles.beta;
    const int n = model.num_spins();

    P1Expectations out;
    out.z.resize(n);
    const double sin_2b = std::sin(2.0 * b);
    const double sin_4b = std::sin(4.0 * b);
    for (int i = 0; i < n; ++i) {
        out.z[i] = sin_2b * std::sin(2.0 * g * model.linear(i)) *
                   neighbor_cos_product(model, i, g, /*exclude=*/-1);
    }
    for (const auto& term : model.quadratic_terms()) {
        const int i = term.i, j = term.j;
        const double hi = model.linear(i), hj = model.linear(j);
        const double prod_i = neighbor_cos_product(model, i, g, j);
        const double prod_j = neighbor_cos_product(model, j, g, i);
        const double first =
            0.5 * sin_4b * std::sin(2.0 * g * term.coefficient) *
            (std::cos(2.0 * g * hi) * prod_i +
             std::cos(2.0 * g * hj) * prod_j);
        double prod_sum, prod_diff;
        union_cos_products(model, i, j, g, prod_sum, prod_diff);
        const double second =
            0.5 * sin_2b * sin_2b *
            (std::cos(2.0 * g * (hi + hj)) * prod_sum -
             std::cos(2.0 * g * (hi - hj)) * prod_diff);
        out.zz.push_back(first - second);
    }
    out.energy = model.offset();
    for (int i = 0; i < n; ++i)
        out.energy += model.linear(i) * out.z[i];
    const auto& terms = model.quadratic_terms();
    for (std::size_t t = 0; t < terms.size(); ++t)
        out.energy += terms[t].coefficient * out.zz[t];
    return out;
}

P1OptimizationResult
optimize(const ising::IsingModel& model, int grid_resolution,
         int refine_iterations)
{
    P1OptimizationResult result;
    result.energy = std::numeric_limits<double>::infinity();
    const double pi = M_PI;
    for (int a = 0; a < grid_resolution; ++a) {
        for (int c = 0; c < grid_resolution; ++c) {
            P1Angles angles{a * pi / grid_resolution,
                            c * pi / grid_resolution};
            const double e = evaluate(model, angles).energy;
            ++result.evaluations;
            if (e < result.energy) {
                result.energy = e;
                result.angles = angles;
            }
        }
    }
    double step = pi / grid_resolution;
    for (int it = 0; it < refine_iterations; ++it) {
        bool improved = false;
        const P1Angles base = result.angles;
        const P1Angles candidates[] = {
            {base.gamma + step, base.beta}, {base.gamma - step, base.beta},
            {base.gamma, base.beta + step}, {base.gamma, base.beta - step},
        };
        for (const auto& cand : candidates) {
            const double e = evaluate(model, cand).energy;
            ++result.evaluations;
            if (e < result.energy) {
                result.energy = e;
                result.angles = cand;
                improved = true;
            }
        }
        if (!improved)
            step *= 0.5;
    }
    return result;
}

} // namespace reference

std::uint64_t
bits_of(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

/** Oracle models: ±1 BA, Gaussian, integer fields, an isolated spin and
 *  −0.0 coefficients (h, J and offset). */
std::vector<std::pair<std::string, ising::IsingModel>>
oracle_models()
{
    std::vector<std::pair<std::string, ising::IsingModel>> models;
    Rng rng(77);
    for (int n : {6, 13, 18}) {
        auto g = graph::barabasi_albert(n, 3, rng);
        graph::assign_random_pm1_weights(g, rng);
        models.emplace_back("pm1-ba3-n" + std::to_string(n),
                            ising::IsingModel::from_graph(g));
    }
    {
        auto g = graph::barabasi_albert(12, 2, rng);
        graph::assign_gaussian_weights(g, rng);
        auto model = ising::IsingModel::from_graph(g);
        for (int i = 0; i < model.num_spins(); ++i)
            model.set_linear(i, rng.normal());
        model.set_offset(rng.normal());
        models.emplace_back("gaussian", std::move(model));
    }
    {
        auto g = graph::barabasi_albert(14, 3, rng);
        graph::assign_random_pm1_weights(g, rng);
        auto model = ising::IsingModel::from_graph(g);
        for (int i = 0; i < model.num_spins(); ++i)
            model.set_linear(
                i, static_cast<double>(rng.uniform_int(std::int64_t(-4),
                                                       std::int64_t(4))));
        model.set_offset(-3.0);
        models.emplace_back("integer-fields", std::move(model));
    }
    {
        ising::IsingModel model(5); // spin 4 has no couplings
        model.add_quadratic(0, 1, 1.0);
        model.add_quadratic(1, 2, -1.0);
        model.add_quadratic(0, 2, 1.0);
        model.add_quadratic(2, 3, -1.0);
        model.set_linear(4, 1.0);
        model.set_linear(1, 2.0);
        models.emplace_back("isolated-spin", std::move(model));
    }
    {
        ising::IsingModel model(5);
        model.add_quadratic(0, 1, 1.0);
        model.add_quadratic(1, 2, -0.0);
        model.add_quadratic(2, 3, -1.0);
        model.add_quadratic(3, 4, 0.5);
        model.add_quadratic(0, 3, 1.0);
        model.set_linear(2, -0.0);
        model.set_linear(3, 1.0);
        model.set_offset(-0.0);
        models.emplace_back("negative-zero", std::move(model));
    }
    return models;
}

TEST(AnalyticP1Oracle, EvaluateIsBitwiseThePerCallFormulas)
{
    Rng rng(91);
    for (const auto& [name, model] : oracle_models()) {
        for (int trial = 0; trial < 40; ++trial) {
            // Zero, grid-like and random angles, including one period out.
            const P1Angles angles =
                trial == 0 ? P1Angles{0.0, 0.0}
                           : P1Angles{rng.uniform(-M_PI, 2.0 * M_PI),
                                      rng.uniform(-M_PI, 2.0 * M_PI)};
            const auto got = evaluate_p1(model, angles);
            const auto want = reference::evaluate(model, angles);
            ASSERT_EQ(got.z.size(), want.z.size()) << name;
            ASSERT_EQ(got.zz.size(), want.zz.size()) << name;
            for (std::size_t i = 0; i < want.z.size(); ++i)
                ASSERT_EQ(bits_of(got.z[i]), bits_of(want.z[i]))
                    << name << " <Z_" << i << "> trial " << trial;
            for (std::size_t t = 0; t < want.zz.size(); ++t)
                ASSERT_EQ(bits_of(got.zz[t]), bits_of(want.zz[t]))
                    << name << " <ZZ> term " << t << " trial " << trial;
            ASSERT_EQ(bits_of(got.energy), bits_of(want.energy))
                << name << " energy, trial " << trial;
            ASSERT_EQ(bits_of(evaluate_p1_energy(model, angles)),
                      bits_of(want.energy))
                << name << " energy-only path, trial " << trial;
        }
    }
}

TEST(AnalyticP1Oracle, OptimizerIsBitwiseThePerCallOptimizer)
{
    for (const auto& [name, model] : oracle_models()) {
        for (const auto& [grid, refine] :
             {std::pair<int, int>{32, 24}, {7, 5}}) {
            const auto got = optimize_p1(model, grid, refine);
            const auto want = reference::optimize(model, grid, refine);
            EXPECT_EQ(bits_of(got.angles.gamma), bits_of(want.angles.gamma))
                << name << " grid " << grid;
            EXPECT_EQ(bits_of(got.angles.beta), bits_of(want.angles.beta))
                << name << " grid " << grid;
            EXPECT_EQ(bits_of(got.energy), bits_of(want.energy))
                << name << " grid " << grid;
            EXPECT_EQ(got.evaluations, want.evaluations)
                << name << " grid " << grid;
        }
    }
}

} // namespace
