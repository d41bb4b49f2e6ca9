/**
 * @file
 * Shared helpers for the engine/service/wave-loop suites. The bit-identity
 * comparator lives here ONCE so that when SampledSolve grows a field,
 * every determinism suite starts enforcing it in the same commit —
 * duplicated copies silently kept passing while proving less.
 */
#ifndef FQ_TESTS_SOLVE_TEST_UTIL_H
#define FQ_TESTS_SOLVE_TEST_UTIL_H

#include <gtest/gtest.h>

#include "engine/request_plan.h"
#include "frozenqubits/driver.h"
#include "graph/generators.h"
#include "ising/ising_model.h"

namespace fq::test {

/** Random ±1-weighted Barabási–Albert MaxCut instance. */
inline ising::IsingModel
ba_model(int n, int d, std::uint64_t seed)
{
    Rng rng(seed);
    auto g = graph::barabasi_albert(n, d, rng);
    graph::assign_random_pm1_weights(g, rng);
    return ising::IsingModel::from_graph(g);
}

/** Field-by-field bit-identity of two sampled solves — the determinism
 *  acceptance comparator (histograms and anytime trace included). */
inline void
expect_solves_identical(const frozenqubits::SampledSolve& a,
                        const frozenqubits::SampledSolve& b)
{
    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    EXPECT_EQ(a.best_assignment, b.best_assignment);
    EXPECT_EQ(a.from_subproblem, b.from_subproblem);
    EXPECT_DOUBLE_EQ(a.best_quantum_cost, b.best_quantum_cost);
    EXPECT_EQ(a.best_quantum_leaf, b.best_quantum_leaf);
    EXPECT_EQ(a.leaves_total, b.leaves_total);
    EXPECT_EQ(a.leaves_executed, b.leaves_executed);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.deadline_trimmed, b.deadline_trimmed);
    ASSERT_EQ(a.distributions.size(), b.distributions.size());
    for (std::size_t s = 0; s < a.distributions.size(); ++s)
        EXPECT_EQ(a.distributions[s].histogram(),
                  b.distributions[s].histogram());
    ASSERT_EQ(a.anytime.size(), b.anytime.size());
    for (std::size_t p = 0; p < a.anytime.size(); ++p) {
        EXPECT_EQ(a.anytime[p].circuits, b.anytime[p].circuits);
        EXPECT_DOUBLE_EQ(a.anytime[p].incumbent_cost,
                         b.anytime[p].incumbent_cost);
        EXPECT_EQ(a.anytime[p].leaf, b.anytime[p].leaf);
    }
}

/** Every SolveRecord field except wall_ms, whose clocks start at
 *  different points (solve entry vs submit return) — the comparator of
 *  "one record wherever a request ran". */
inline void
expect_records_equal(const engine::SolveRecord& solo,
                     const engine::SolveRecord& served)
{
    EXPECT_EQ(solo.leaves_tier_hit, served.leaves_tier_hit);
    EXPECT_EQ(solo.leaves_tier_bind, served.leaves_tier_bind);
    EXPECT_EQ(solo.leaves_tier_compile, served.leaves_tier_compile);
    EXPECT_EQ(solo.kind_leaves_executed, served.kind_leaves_executed);
    EXPECT_EQ(solo.kind_leaves_pruned, served.kind_leaves_pruned);
    EXPECT_EQ(solo.kind_budget_units, served.kind_budget_units);
    EXPECT_EQ(solo.reranks, served.reranks);
    EXPECT_EQ(solo.rerank_pruned, served.rerank_pruned);
    EXPECT_EQ(solo.rerank_promoted, served.rerank_promoted);
    EXPECT_EQ(solo.rerank_demoted, served.rerank_demoted);
    EXPECT_EQ(solo.checkpoints, served.checkpoints);
    EXPECT_EQ(solo.resumed_from, served.resumed_from);
    EXPECT_EQ(solo.deadline_trimmed, served.deadline_trimmed);
    EXPECT_EQ(solo.degraded, served.degraded);
    EXPECT_EQ(solo.leaves_scheduled, served.leaves_scheduled);
    EXPECT_EQ(solo.leaves_executed, served.leaves_executed);
    EXPECT_EQ(solo.waves, served.waves);
    EXPECT_EQ(solo.fused_lookups, served.fused_lookups);
    EXPECT_EQ(solo.fused_hits, served.fused_hits);
    EXPECT_EQ(solo.fused_lookups_scalar, served.fused_lookups_scalar);
    EXPECT_EQ(solo.fused_hits_scalar, served.fused_hits_scalar);
    EXPECT_EQ(solo.fused_lookups_simd, served.fused_lookups_simd);
    EXPECT_EQ(solo.fused_hits_simd, served.fused_hits_simd);
    EXPECT_DOUBLE_EQ(solo.cache_hit_share, served.cache_hit_share);
    EXPECT_EQ(solo.family_binds, served.family_binds);
    EXPECT_EQ(solo.leaves_remote, served.leaves_remote);
    EXPECT_EQ(solo.leaves_local, served.leaves_local);
    EXPECT_EQ(solo.leaves_redispatched, served.leaves_redispatched);
    EXPECT_EQ(solo.remote_bytes_sent, served.remote_bytes_sent);
    EXPECT_EQ(solo.remote_bytes_received, served.remote_bytes_received);
    EXPECT_EQ(solo.worker_dispatches, served.worker_dispatches);
}

} // namespace fq::test

#endif // FQ_TESTS_SOLVE_TEST_UTIL_H
