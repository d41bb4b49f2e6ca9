#include "common.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "graph/generators.h"

namespace solvebench {

Percentiles
summarize(std::vector<double> samples)
{
    Percentiles out;
    out.count = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const auto rank = [&](double q) {
        // Nearest rank: the smallest sample with at least q of the
        // samples at or below it.
        const auto k = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        return samples[std::max<std::size_t>(k, 1) - 1];
    };
    out.p50 = rank(0.50);
    out.p90 = rank(0.90);
    for (const double v : samples) {
        out.beyond_p50 += v > out.p50 ? 1 : 0;
        out.beyond_p90 += v > out.p90 ? 1 : 0;
    }
    return out;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 == 1
               ? samples[mid]
               : 0.5 * (samples[mid - 1] + samples[mid]);
}

double
mean(const std::vector<double>& samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

fq::ising::IsingModel
ba3_instance(int n, std::uint64_t seed)
{
    fq::Rng rng(fq::combine_seeds(seed, fq::hash_seed("solvebench-ba3")));
    auto g = fq::graph::barabasi_albert(n, 3, rng);
    fq::graph::assign_random_pm1_weights(g, rng);
    return fq::ising::IsingModel::from_graph(g);
}

std::uint64_t
derive_seed(std::uint64_t run_seed, const char* name, std::uint64_t index)
{
    return fq::combine_seeds(fq::combine_seeds(run_seed, fq::hash_seed(name)),
                             index);
}

namespace {

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }
    template <class T> void value(const T& v) { bytes(&v, sizeof v); }
};

} // namespace

std::uint64_t
result_digest(const fq::frozenqubits::SampledSolve& solved)
{
    Fnv f;
    for (const auto z : solved.best_assignment)
        f.value(static_cast<int>(z));
    f.value(solved.best_cost);
    f.value(solved.from_subproblem);
    f.value(solved.best_quantum_cost);
    f.value(solved.best_quantum_leaf);
    f.value(solved.leaves_total);
    f.value(solved.leaves_executed);
    for (const auto& counts : solved.distributions) {
        f.value(counts.num_qubits());
        for (const auto& [state, count] : counts.histogram()) {
            f.value(state);
            f.value(count);
        }
    }
    return f.h;
}

void
record_result(RequestRecord& record, const fq::ising::IsingModel& model,
              const fq::frozenqubits::SampledSolve& solved)
{
    record.digest = result_digest(solved);
    record.best_quantum_cost = solved.best_quantum_cost;
    record.cost_consistent =
        solved.best_cost == model.evaluate(solved.best_assignment);
    record.leaves = solved.leaves_executed;
    record.widths.clear();
    if (solved.distributions.size() ==
        static_cast<std::size_t>(solved.leaves_executed)) {
        // Tree solves: one distribution per executed leaf.
        for (const auto& counts : solved.distributions)
            record.widths.push_back(counts.num_qubits());
    } else {
        // Flat solves list all 2^m sub-spaces (mirrors included); every
        // sibling of a flat freeze has the same width.
        int width = 0;
        for (const auto& counts : solved.distributions)
            width = std::max(width, counts.num_qubits());
        record.widths.assign(static_cast<std::size_t>(solved.leaves_executed),
                             width);
    }
}

} // namespace solvebench
