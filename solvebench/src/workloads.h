/**
 * @file
 * The three workloads of the solve-path benchmark.
 *
 *   solve-cold       closed loop, one caller, ExecutionEngine with 2
 *                    threads; every request a fresh BA3 n=22 instance at
 *                    freeze 3 (four 19-qubit leaves, 4000 shots) — every
 *                    leaf pays a family compile and its 2^19 tables.
 *   solve-warm-deep  closed loop, one caller, 2 threads; requests re-solve
 *                    a resident pool of BA3 n=22 instances with fresh
 *                    request seeds at max_depth 2, freeze 2 per level,
 *                    max_circuits 6, rerank_interval 2 (six 18-qubit
 *                    leaves in three waves); set-up warms every leaf a
 *                    request can schedule, so every lookup hits.
 *   serve-remote     open loop into a SolveService with a 1-thread
 *                    coordinator and two in-process loopback WorkerServers
 *                    of one thread each; a fixed pool of BA3 n in
 *                    {16, 18, 20} instances at freeze 3, every other
 *                    request checkpointed and its snapshots encoded.
 *
 * No closed loop runs more than nproc/2 = 2 engine threads, and every
 * request of a workload executes the same number of leaves at the same
 * widths: the seed varies instances, request seeds and arrival times,
 * never the amount of work.
 */
#ifndef SOLVEBENCH_WORKLOADS_H
#define SOLVEBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common.h"

namespace solvebench {

struct RunOutcome
{
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<Metric> metrics;
};

/** Names accepted by --workload. */
const std::vector<std::string>& workload_names();

/** Set up, measure, check and report one workload run. Prints the
 *  human-readable report to stdout; throws fq::Error on bad options. */
RunOutcome run_workload(const Options& opts);

} // namespace solvebench

#endif // SOLVEBENCH_WORKLOADS_H
