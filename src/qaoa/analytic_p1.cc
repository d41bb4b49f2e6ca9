#include "qaoa/analytic_p1.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/bitops.h"
#include "common/error.h"

namespace fq::qaoa {

namespace {

/**
 * The angle-independent shape of the p = 1 formulas for one model, built
 * once and evaluated at many angles. Every cos/sin argument has the form
 * 2g·x for a model-derived x; each distinct x (by bit pattern) is interned
 * once, so an evaluation calls std::cos / std::sin once per distinct x
 * instead of once per neighbour. Every product keeps its factor list in
 * the order of a straightforward per-call evaluation:
 *
 *   - neighbour products: couplings_of(i) order, minus the excluded spin;
 *   - union products: the iteration order of an
 *     std::unordered_map<int, pair<J_ik, J_jk>> filled from couplings_of(i)
 *     then couplings_of(j). That order is libstdc++'s bucket order, not a
 *     sorted one; it is kept on purpose, because a different order would
 *     round the products differently and move the optimizer's angles.
 *
 * Every expression keeps its form and association, so z, zz and the
 * energy are bitwise what the per-call formulas give.
 */
class P1Structure
{
  public:
    explicit P1Structure(const ising::IsingModel& model)
        : model_(model)
    {
        const int n = model.num_spins();
        spin_sin_.reserve(static_cast<std::size_t>(n));
        spin_begin_.reserve(static_cast<std::size_t>(n) + 1);
        for (int i = 0; i < n; ++i) {
            spin_sin_.push_back(sin_args_.intern(model.linear(i)));
            spin_begin_.push_back(factors_.size());
            add_neighbor_factors(i, /*exclude=*/-1);
        }
        spin_begin_.push_back(factors_.size());

        terms_.reserve(model.quadratic_terms().size());
        for (const auto& term : model.quadratic_terms()) {
            const int i = term.i, j = term.j;
            const double hi = model.linear(i), hj = model.linear(j);
            Term t;
            t.sin_j = sin_args_.intern(term.coefficient);
            t.cos_hi = cos_args_.intern(hi);
            t.cos_hj = cos_args_.intern(hj);
            t.cos_sum = cos_args_.intern(hi + hj);
            t.cos_diff = cos_args_.intern(hi - hj);
            t.prod_i = factors_.size();
            add_neighbor_factors(i, j);
            t.prod_j = factors_.size();
            add_neighbor_factors(j, i);
            t.pairs = factors_.size();
            // Merge the two sparse neighbour lists: k -> (J_ik, J_jk). A
            // fresh map per term: its bucket history fixes the order.
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
                factors_.push_back(cos_args_.intern(Js.first + Js.second));
                factors_.push_back(cos_args_.intern(Js.first - Js.second));
            }
            t.end = factors_.size();
            terms_.push_back(t);
        }
        cos_.resize(cos_args_.values.size());
        sin_.resize(sin_args_.values.size());
    }

    /**
     * Energy at @p angles. When @p out is non-null, its z and zz are
     * filled as well (and its energy set); otherwise no vector is built.
     */
    double
    evaluate(const P1Angles& angles, P1Expectations* out)
    {
        const double g = angles.gamma;
        const double b = angles.beta;
        const double two_g = 2.0 * g;
        for (std::size_t k = 0; k < cos_.size(); ++k)
            cos_[k] = std::cos(two_g * cos_args_.values[k]);
        for (std::size_t k = 0; k < sin_.size(); ++k)
            sin_[k] = std::sin(two_g * sin_args_.values[k]);

        const double sin_2b = std::sin(2.0 * b);
        const double sin_4b = std::sin(4.0 * b);
        const int n = model_.num_spins();
        if (out) {
            out->z.resize(static_cast<std::size_t>(n));
            out->zz.resize(terms_.size());
        }

        double energy = model_.offset();
        for (int i = 0; i < n; ++i) {
            const auto s = static_cast<std::size_t>(i);
            const double z =
                sin_2b * sin_[spin_sin_[s]] *
                product(spin_begin_[s], spin_begin_[s + 1]);
            if (out)
                out->z[s] = z;
            energy += model_.linear(i) * z;
        }

        const auto& quadratic = model_.quadratic_terms();
        for (std::size_t q = 0; q < terms_.size(); ++q) {
            const Term& t = terms_[q];
            const double prod_i = product(t.prod_i, t.prod_j);
            const double prod_j = product(t.prod_j, t.pairs);
            const double first =
                0.5 * sin_4b * sin_[t.sin_j] *
                (cos_[t.cos_hi] * prod_i + cos_[t.cos_hj] * prod_j);

            double prod_sum = 1.0;
            double prod_diff = 1.0;
            for (std::size_t f = t.pairs; f < t.end; f += 2) {
                prod_sum *= cos_[factors_[f]];
                prod_diff *= cos_[factors_[f + 1]];
            }
            const double second =
                0.5 * sin_2b * sin_2b *
                (cos_[t.cos_sum] * prod_sum - cos_[t.cos_diff] * prod_diff);

            const double zz = first - second;
            if (out)
                out->zz[q] = zz;
            energy += quadratic[q].coefficient * zz;
        }
        if (out)
            out->energy = energy;
        return energy;
    }

  private:
    /** One quadratic term: its own arguments plus three factor ranges of
     *  factors_: [prod_i, prod_j), [prod_j, pairs), [pairs, end) — the
     *  last as interleaved (sum, diff) pairs. */
    struct Term
    {
        std::uint32_t sin_j = 0;
        std::uint32_t cos_hi = 0, cos_hj = 0, cos_sum = 0, cos_diff = 0;
        std::size_t prod_i = 0, prod_j = 0, pairs = 0, end = 0;
    };

    /** Distinct arguments x of cos(2g x) or sin(2g x), by bit pattern. */
    struct ArgTable
    {
        std::vector<double> values;
        std::unordered_map<std::uint64_t, std::uint32_t> index;

        std::uint32_t
        intern(double x)
        {
            const auto [it, inserted] = index.emplace(
                double_bits(x), static_cast<std::uint32_t>(values.size()));
            if (inserted)
                values.push_back(x);
            return it->second;
        }
    };

    /** prod_{k in N(i), k != exclude} cos(2g J_ik), as factor indices. */
    void
    add_neighbor_factors(int i, int exclude)
    {
        for (const auto& [k, J] : model_.couplings_of(i)) {
            if (k == exclude)
                continue;
            factors_.push_back(cos_args_.intern(J));
        }
    }

    double
    product(std::size_t begin, std::size_t end) const
    {
        double prod = 1.0;
        for (std::size_t f = begin; f < end; ++f)
            prod *= cos_[factors_[f]];
        return prod;
    }

    const ising::IsingModel& model_;
    ArgTable cos_args_, sin_args_;
    std::vector<std::uint32_t> spin_sin_;
    std::vector<std::size_t> spin_begin_;
    std::vector<Term> terms_;
    std::vector<std::uint32_t> factors_;
    /** Per-evaluation cos(2g x) / sin(2g x) of the interned arguments. */
    std::vector<double> cos_, sin_;
};

} // namespace

P1Expectations
evaluate_p1(const ising::IsingModel& model, const P1Angles& angles)
{
    P1Expectations out;
    P1Structure(model).evaluate(angles, &out);
    return out;
}

double
evaluate_p1_energy(const ising::IsingModel& model, const P1Angles& angles)
{
    return P1Structure(model).evaluate(angles, nullptr);
}

P1OptimizationResult
optimize_p1(const ising::IsingModel& model, int grid_resolution,
            int refine_iterations)
{
    FQ_REQUIRE(grid_resolution >= 2, "grid too coarse");
    P1Structure structure(model);
    P1OptimizationResult result;
    result.energy = std::numeric_limits<double>::infinity();

    const double pi = M_PI;
    // Coarse grid over one period.
    for (int a = 0; a < grid_resolution; ++a) {
        for (int c = 0; c < grid_resolution; ++c) {
            P1Angles angles{a * pi / grid_resolution,
                            c * pi / grid_resolution};
            const double e = structure.evaluate(angles, nullptr);
            ++result.evaluations;
            if (e < result.energy) {
                result.energy = e;
                result.angles = angles;
            }
        }
    }

    // Pattern-search refinement: shrink a step around the best cell.
    double step = pi / grid_resolution;
    for (int it = 0; it < refine_iterations; ++it) {
        bool improved = false;
        const P1Angles base = result.angles;
        const P1Angles candidates[] = {
            {base.gamma + step, base.beta}, {base.gamma - step, base.beta},
            {base.gamma, base.beta + step}, {base.gamma, base.beta - step},
        };
        for (const auto& cand : candidates) {
            const double e = structure.evaluate(cand, nullptr);
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

} // namespace fq::qaoa
