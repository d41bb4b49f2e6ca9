/**
 * @file
 * Measurement-outcome histograms ("counts") and the operations FrozenQubits
 * needs on them: expectation values under an Ising Hamiltonian, best
 * observed outcome, and the flip-all-bits transform that converts the
 * output distribution of one symmetric sub-problem into its mirror's
 * (Section 3.7.2).
 */
#ifndef FQ_SIM_COUNTS_H
#define FQ_SIM_COUNTS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ising/ising_model.h"

namespace fq::sim {

/** Histogram of measured basis states over a fixed register width. */
class Counts
{
  public:
    Counts() = default;
    explicit Counts(int num_qubits);

    int num_qubits() const { return num_qubits_; }

    /** Add @p count observations of @p state. */
    void add(std::uint64_t state, std::uint64_t count = 1);

    /** Build from raw samples. */
    static Counts from_samples(int num_qubits,
                               const std::vector<std::uint64_t>& samples);

    std::uint64_t total_shots() const { return total_; }
    std::size_t num_distinct() const { return histogram_.size(); }
    const std::map<std::uint64_t, std::uint64_t>& histogram() const
    {
        return histogram_;
    }

    /** Empirical expectation of C(z) under @p model. */
    double expectation(const ising::IsingModel& model) const;

    /** Lowest observed cost and the corresponding assignment. */
    struct BestOutcome
    {
        double cost = 0.0;
        std::uint64_t state = 0;
        std::uint64_t multiplicity = 0;
    };
    BestOutcome best(const ising::IsingModel& model) const;

    /**
     * Distribution with every bitstring complemented — the zero-cost
     * post-processing that recovers the mirror sub-problem's output from a
     * solved one (Section 3.7.2).
     */
    Counts flip_all_bits() const;

    /** Merge another histogram of identical width into this one. */
    void merge(const Counts& other);

    /** Empirical probability of @p state. */
    double probability(std::uint64_t state) const;

    /** Total-variation distance to another distribution (same width). */
    double total_variation_distance(const Counts& other) const;

  private:
    int num_qubits_ = 0;
    std::uint64_t total_ = 0;
    std::map<std::uint64_t, std::uint64_t> histogram_;
};

/** A histogram as it crosses a process boundary (worker replies,
 *  checkpoint records): (state, count) pairs, strictly ascending by state
 *  as Counts::histogram() iterates. */
using HistogramEntries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/**
 * The one validating rebuild of a histogram that crossed a process
 * boundary: @p width in 1..63, states strictly ascending and below
 * 2^width, every count >= 1, counts summing to @p shots without overflow.
 * Returns "" and fills @p out, or returns why the entries were refused
 * (@p out untouched) for the caller to raise as its own typed error.
 */
std::string rebuild_counts(int width, std::uint64_t shots,
                           const HistogramEntries& entries, Counts& out);

/** Flip each bit of each sample independently with its readout-error
 *  probability (per-qubit), modeling measurement errors. */
Counts apply_readout_errors(const Counts& counts,
                            const std::vector<double>& flip_probability,
                            Rng& rng);

} // namespace fq::sim

#endif // FQ_SIM_COUNTS_H
