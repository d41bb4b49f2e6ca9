/**
 * @file
 * Shared plumbing of the solve-path benchmark: options, clocks,
 * percentile summaries, seeded instance generation, result digests and
 * the metric record every workload fills.
 */
#ifndef SOLVEBENCH_COMMON_H
#define SOLVEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "frozenqubits/driver.h"
#include "ising/ising_model.h"

namespace solvebench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small instances and one set-up: the benchmark's own tests. */
    bool tiny = false;
    /** Corrupt one result's best_cost before the gate (gate self-test). */
    bool tamper = false;
    /** Where the traced run writes its span file. */
    std::string out_dir = ".bench_build/spans";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Median and p90 (nearest rank) with the sample counts the report
 *  prints beside them. Infinite samples (failed requests) sort last. */
struct Percentiles
{
    std::size_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    std::size_t beyond_p50 = 0; ///< samples strictly above p50
    std::size_t beyond_p90 = 0; ///< samples strictly above p90
};

Percentiles summarize(std::vector<double> samples);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/** Barabasi-Albert (d = 3) instance with +-1 couplings, a pure function
 *  of (n, seed). */
fq::ising::IsingModel ba3_instance(int n, std::uint64_t seed);

/** Stream seed for item @p index of stream @p name under the run seed. */
std::uint64_t derive_seed(std::uint64_t run_seed, const char* name,
                          std::uint64_t index);

/**
 * FNV-1a digest over everything a solve returns: best assignment and
 * cost, the quantum best and its producer, leaf counts and every sampled
 * histogram. Two solves are bit-identical iff their digests match (up to
 * hash collisions).
 */
std::uint64_t result_digest(const fq::frozenqubits::SampledSolve& solved);

/** What the gate and the quality metric keep of one completed request. */
struct RequestRecord
{
    int index = 0;
    int instance = 0;        ///< index into the workload's instance list
    bool durable = false;    ///< checkpointed (serve-remote)
    double latency_ms = 0.0; ///< infinity when failed
    bool failed = false;
    std::uint64_t digest = 0;
    double best_quantum_cost = 0.0;
    bool cost_consistent = false; ///< best_cost == evaluate(best_assignment)
    int leaves = 0;
    std::vector<int> widths;
    int waves = 0;   ///< epochs the request rode
    int reranks = 0;
};

/** Leaf count and widths executed by @p solved's plan. */
void record_result(RequestRecord& record, const fq::ising::IsingModel& model,
                   const fq::frozenqubits::SampledSolve& solved);

} // namespace solvebench

#endif // SOLVEBENCH_COMMON_H
