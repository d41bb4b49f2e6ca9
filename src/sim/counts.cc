#include "sim/counts.h"

#include <cmath>
#include <limits>

#include "common/bitops.h"
#include "common/error.h"

namespace fq::sim {

Counts::Counts(int num_qubits) : num_qubits_(num_qubits)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= 63,
               "counts limited to 1..63 qubits");
}

void
Counts::add(std::uint64_t state, std::uint64_t count)
{
    FQ_REQUIRE(state < (std::uint64_t(1) << num_qubits_),
               "state exceeds register width");
    // Ascending adds (wire decodes, flip_all_bits) append in O(1).
    if (histogram_.empty() || state > histogram_.rbegin()->first)
        histogram_.emplace_hint(histogram_.end(), state, count);
    else
        histogram_[state] += count;
    total_ += count;
}

Counts
Counts::from_samples(int num_qubits, const std::vector<std::uint64_t>& samples)
{
    Counts c(num_qubits);
    for (auto s : samples)
        c.add(s);
    return c;
}

double
Counts::expectation(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match register width");
    FQ_REQUIRE(total_ > 0, "expectation of an empty distribution");
    double ev = 0.0;
    for (const auto& [state, count] : histogram_)
        ev += static_cast<double>(count) * model.evaluate_state(state);
    return ev / static_cast<double>(total_);
}

Counts::BestOutcome
Counts::best(const ising::IsingModel& model) const
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "Hamiltonian width must match register width");
    FQ_REQUIRE(total_ > 0, "best of an empty distribution");
    BestOutcome out;
    out.cost = std::numeric_limits<double>::infinity();
    for (const auto& [state, count] : histogram_) {
        const double c = model.evaluate_state(state);
        if (c < out.cost) {
            out.cost = c;
            out.state = state;
            out.multiplicity = count;
        }
    }
    return out;
}

Counts
Counts::flip_all_bits() const
{
    Counts out(num_qubits_);
    const std::uint64_t mask = low_bits_mask(num_qubits_);
    // Descending states complement to ascending ones: every add appends.
    for (auto it = histogram_.rbegin(); it != histogram_.rend(); ++it)
        out.add((~it->first) & mask, it->second);
    return out;
}

void
Counts::merge(const Counts& other)
{
    FQ_REQUIRE(other.num_qubits_ == num_qubits_,
               "merge requires equal register widths");
    for (const auto& [state, count] : other.histogram_)
        add(state, count);
}

double
Counts::probability(std::uint64_t state) const
{
    if (total_ == 0)
        return 0.0;
    const auto it = histogram_.find(state);
    return it == histogram_.end()
        ? 0.0
        : static_cast<double>(it->second) / static_cast<double>(total_);
}

double
Counts::total_variation_distance(const Counts& other) const
{
    FQ_REQUIRE(other.num_qubits_ == num_qubits_,
               "TVD requires equal register widths");
    double tvd = 0.0;
    for (const auto& [state, _] : histogram_)
        tvd += std::abs(probability(state) - other.probability(state));
    for (const auto& [state, _] : other.histogram_)
        if (histogram_.find(state) == histogram_.end())
            tvd += other.probability(state);
    return tvd / 2.0;
}

std::string
rebuild_counts(int width, std::uint64_t shots,
               const HistogramEntries& entries, Counts& out)
{
    if (width < 1 || width > 63)
        return "register width " + std::to_string(width) +
               " is outside 1..63";
    Counts counts(width);
    for (std::size_t k = 0; k < entries.size(); ++k) {
        const auto [state, count] = entries[k];
        if (k > 0 && state <= entries[k - 1].first)
            return "states are not strictly ascending at entry " +
                   std::to_string(k);
        if (state >> width != 0)
            return "state " + std::to_string(state) + " does not fit " +
                   std::to_string(width) + " qubits";
        if (count == 0)
            return "state " + std::to_string(state) + " has count 0";
        if (count > shots - counts.total_shots())
            return "counts exceed the " + std::to_string(shots) + " shots";
        counts.add(state, count);
    }
    if (counts.total_shots() != shots)
        return "counts total " + std::to_string(counts.total_shots()) +
               " of " + std::to_string(shots) + " shots";
    out = std::move(counts);
    return {};
}

Counts
apply_readout_errors(const Counts& counts,
                     const std::vector<double>& flip_probability, Rng& rng)
{
    FQ_REQUIRE(static_cast<int>(flip_probability.size()) ==
                   counts.num_qubits(),
               "need one flip probability per qubit");
    Counts out(counts.num_qubits());
    for (const auto& [state, count] : counts.histogram()) {
        for (std::uint64_t k = 0; k < count; ++k) {
            std::uint64_t s = state;
            for (int q = 0; q < counts.num_qubits(); ++q)
                if (rng.bernoulli(flip_probability[q]))
                    s ^= (std::uint64_t(1) << q);
            out.add(s);
        }
    }
    return out;
}

} // namespace fq::sim
