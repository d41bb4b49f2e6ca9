#include "sim/qaoa_kernel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <unordered_map>

#include "common/bitops.h"
#include "common/error.h"
#include "common/rng.h"
#include "sim/backend.h"
#include "sim/kernels.h"

namespace fq::sim {

namespace {

/** Tables are bounded by the simulator width cap. */
constexpr int kMaxTableQubits = kMaxSimQubits;

/**
 * Add coefficient * parity_sign(s & mask) to every slot of @p values.
 * One- and two-bit masks (all that fusion emits) get branch-free strided
 * passes; wider masks fall back to a popcount-parity pass.
 */
void
accumulate_parity(std::vector<double>& values, std::uint64_t mask,
                  double coefficient)
{
    const std::uint64_t dim = values.size();
    const int bits = popcount64(mask);
    if (coefficient == 0.0)
        return;
    if (bits == 0) {
        for (std::uint64_t s = 0; s < dim; ++s)
            values[s] += coefficient;
        return;
    }
    if (bits == 1) {
        kernels::for_each_pair(dim, mask,
                               [&](std::uint64_t i0, std::uint64_t i1) {
                                   values[i0] += coefficient;
                                   values[i1] -= coefficient;
                               });
        return;
    }
    if (bits == 2) {
        const std::uint64_t lo = mask & (~mask + 1);
        const std::uint64_t hi = mask ^ lo;
        kernels::for_each_quad(dim, lo, hi, [&](std::uint64_t i00) {
            values[i00] += coefficient;
            values[i00 | lo] -= coefficient;
            values[i00 | hi] -= coefficient;
            values[i00 | lo | hi] += coefficient;
        });
        return;
    }
    for (std::uint64_t s = 0; s < dim; ++s) {
        const double sign = 1.0 - 2.0 * (popcount64(s & mask) & 1);
        values[s] += coefficient * sign;
    }
}

/** Index of the lowest set bit of a nonzero @p mask. */
int
lowest_set_bit(std::uint64_t mask)
{
    return gray_flip_bit(mask); // the trailing-zero count
}

/**
 * A parity-term sum whose terms all have 0-, 1- or 2-bit masks and
 * integral coefficients — an integer Ising energy
 *
 *   w(s) = offset + sum_q h_q z_q + sum_t J_t z_a z_b,  z_q = +1 / -1 for
 *   bit q of s clear / set,
 *
 * bounded by |w(s)| <= magnitude() = sum |c|. Every partial sum of the
 * accumulate_parity passes over such terms is an exact integer of at most
 * that size, so when magnitude() < 2^53 an integer evaluation reproduces
 * those floating-point tables bit for bit, whatever the summation order.
 */
class IntegralSpinTerms
{
  public:
    /** @p limit caps magnitude(); at most 2^52 (exact in a double). */
    IntegralSpinTerms(int num_spins, std::int64_t limit)
        : num_spins_(num_spins), limit_(limit),
          field_(static_cast<std::size_t>(num_spins), 0)
    {
    }

    /**
     * Add coefficient * parity_sign(s & mask); the caller has checked
     * mask < 2^num_spins. False when the term cannot be walked: a mask of
     * 3+ bits, a fractional or non-finite coefficient, or a running
     * magnitude past the limit.
     */
    bool
    add(std::uint64_t mask, double coefficient)
    {
        if (coefficient == 0.0)
            return true; // accumulate_parity skips zeros too
        if (popcount64(mask) > 2 ||
            !(std::abs(coefficient) <= static_cast<double>(limit_)) ||
            coefficient != std::trunc(coefficient))
            return false;
        const auto c = static_cast<std::int64_t>(coefficient);
        magnitude_ += c < 0 ? -c : c;
        if (magnitude_ > limit_)
            return false;
        if (mask == 0) {
            offset_ += c;
        } else if ((mask & (mask - 1)) == 0) {
            field_[static_cast<std::size_t>(lowest_set_bit(mask))] += c;
        } else {
            const int a = lowest_set_bit(mask);
            couplings_.push_back({a, lowest_set_bit(mask ^ (1ull << a)), c});
        }
        return true;
    }

    std::int64_t magnitude() const { return magnitude_; }

    /**
     * Evaluate w(s) for every state in one O(2^n) pass. The high n - L
     * spins (L = min(n, kBlockBits)) follow a Gray-code walk that keeps a
     * local field per spin: each step flips one spin, so the energy
     * changes by -2 z_b F_b and only the flipped spin's neighbours need a
     * field update. Each walk step then expands the 2^L states sharing
     * those high spins, whose energies differ only through the low spins:
     * their own terms (a 2^L table built once) plus one cross field per
     * low spin. Calls sink(first_state, values, 2^L) per block.
     */
    template <class Sink>
    void
    walk(Sink&& sink) const
    {
        const int low_bits = std::min(num_spins_, kBlockBits);
        const std::size_t block = std::size_t(1) << low_bits;
        const auto n = static_cast<std::size_t>(num_spins_);

        // Energy of the low spins' own terms, per low pattern.
        std::array<std::int64_t, kBlockSize> low{};
        for (std::size_t lo = 0; lo < block; ++lo) {
            std::int64_t v = 0;
            for (int q = 0; q < low_bits; ++q)
                v += spin_of_bit(lo, q) * field_[static_cast<std::size_t>(q)];
            for (const auto& t : couplings_)
                if (t.b < low_bits)
                    v += spin_of_bit(lo, t.a) * spin_of_bit(lo, t.b) *
                         t.value;
            low[lo] = v;
        }

        // Walk state at all-high-spins +1: `high` is the energy of every
        // term free of low spins; field[q] is h_q plus the high-spin
        // couplings for a high spin q, and the cross field
        // sum_b J_qb z_b for a low spin q. Each high spin lists its
        // high and low neighbours with 2 J.
        struct Neighbour
        {
            std::size_t spin = 0;
            std::int64_t twice = 0;
        };
        std::int64_t high = offset_;
        std::vector<std::int64_t> field(n, 0);
        std::vector<std::int64_t> sign(n, 1);
        std::vector<std::vector<Neighbour>> neighbours(n);
        for (auto q = static_cast<std::size_t>(low_bits); q < n; ++q) {
            field[q] = field_[q];
            high += field_[q];
        }
        for (const auto& t : couplings_) {
            if (t.b < low_bits)
                continue; // in the low table
            const auto a = static_cast<std::size_t>(t.a);
            const auto b = static_cast<std::size_t>(t.b);
            field[a] += t.value;
            neighbours[b].push_back({a, 2 * t.value});
            if (t.a >= low_bits) {
                field[b] += t.value;
                high += t.value;
                neighbours[a].push_back({b, 2 * t.value});
            }
        }

        std::array<std::int64_t, kBlockSize> values{};
        const std::uint64_t num_blocks =
            (std::uint64_t(1) << num_spins_) >> low_bits;
        std::uint64_t state = 0;
        for (std::uint64_t k = 0; k < num_blocks; ++k) {
            if (k != 0) {
                const int bit = gray_flip_bit(k) + low_bits;
                const auto b = static_cast<std::size_t>(bit);
                high -= 2 * sign[b] * field[b];
                sign[b] = -sign[b];
                for (const auto& e : neighbours[b])
                    field[e.spin] += e.twice * sign[b];
                state ^= std::uint64_t(1) << bit;
            }
            // values[lo] = high + sum_q z_q(lo) field[q], by doubling.
            values[0] = high;
            for (int q = 0; q < low_bits; ++q)
                values[0] += field[static_cast<std::size_t>(q)];
            for (int q = 0; q < low_bits; ++q) {
                const std::size_t half = std::size_t(1) << q;
                const std::int64_t step =
                    2 * field[static_cast<std::size_t>(q)];
                for (std::size_t lo = 0; lo < half; ++lo)
                    values[lo + half] = values[lo] - step;
            }
            for (std::size_t lo = 0; lo < block; ++lo)
                values[lo] += low[lo];
            sink(state, values.data(), block);
        }
    }

  private:
    static constexpr int kBlockBits = 6;
    static constexpr std::size_t kBlockSize = std::size_t(1) << kBlockBits;

    struct Coupling
    {
        int a = 0; ///< lower spin
        int b = 0; ///< higher spin
        std::int64_t value = 0;
    };

    int num_spins_ = 0;
    std::int64_t limit_ = 0;
    std::int64_t magnitude_ = 0;
    std::int64_t offset_ = 0;
    std::vector<std::int64_t> field_; ///< summed 1-bit coefficients
    std::vector<Coupling> couplings_; ///< 2-bit terms, in input order
};

/** Content fingerprint of a term list (for table sharing across layers). */
std::uint64_t
terms_fingerprint(const std::vector<circuit::ParityTerm>& terms)
{
    std::uint64_t h = hash_seed("fq-diagonal-terms");
    for (const auto& term : terms) {
        h = combine_seeds(h, term.mask);
        h = combine_seeds(h, double_bits(term.coefficient));
    }
    return h;
}

} // namespace

// ------------------------------------------------------------------------
// DiagonalTable

DiagonalTable::DiagonalTable(const std::vector<circuit::ParityTerm>& terms,
                             int num_qubits, bool build_lut)
{
    FQ_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxTableQubits,
               "diagonal table limited to 1..26 qubits");
    dimension_ = std::uint64_t(1) << num_qubits;
    for (const auto& term : terms)
        FQ_REQUIRE(term.mask < dimension_, "parity mask exceeds register");
    if (build_lut && build_levels_by_walk(terms, num_qubits))
        return;

    weights_.assign(dimension_, 0.0);
    for (const auto& term : terms)
        accumulate_parity(weights_, term.mask, term.coefficient);

    if (!build_lut)
        return;
    // Try to collapse to distinct levels: structured instances (+-1 edge
    // weights, integer couplings) produce O(|E|) distinct sums, so the
    // apply pass becomes a uint16 gather instead of a sincos per state.
    std::unordered_map<std::uint64_t, std::uint16_t> slot_of;
    slot_of.reserve(kMaxLevels * 2);
    std::vector<std::uint16_t> index(dimension_);
    for (std::uint64_t s = 0; s < dimension_; ++s) {
        const std::uint64_t bits = double_bits(weights_[s]);
        auto it = slot_of.find(bits);
        if (it == slot_of.end()) {
            if (levels_.size() >= kMaxLevels) {
                levels_.clear();
                return; // too many distinct values; keep the raw table
            }
            it = slot_of
                     .emplace(bits,
                              static_cast<std::uint16_t>(levels_.size()))
                     .first;
            levels_.push_back(weights_[s]);
        }
        index[s] = it->second;
    }
    level_index_ = std::move(index);
    weights_.clear();
    weights_.shrink_to_fit();
}

bool
DiagonalTable::build_levels_by_walk(
    const std::vector<circuit::ParityTerm>& terms, int num_qubits)
{
    // Biased weights w + magnitude must fit the uint16 index entries.
    constexpr std::int64_t kMaxMagnitude = 32767;
    IntegralSpinTerms spins(num_qubits, kMaxMagnitude);
    for (const auto& term : terms)
        if (!spins.add(term.mask, term.coefficient))
            return false;

    // The walk writes each state's biased weight into the index storage;
    // one ascending pass then turns those into level slots in first-seen
    // order — the same levels and slots the hashed pass assigns.
    const std::int64_t bias = spins.magnitude();
    std::vector<std::uint16_t> index(dimension_);
    spins.walk([&](std::uint64_t first, const std::int64_t* values,
                   std::size_t count) {
        for (std::size_t k = 0; k < count; ++k)
            index[first + k] = static_cast<std::uint16_t>(values[k] + bias);
    });
    constexpr std::uint16_t kNoSlot = 0xFFFF;
    static_assert(kMaxLevels < kNoSlot, "slots must stay below kNoSlot");
    std::vector<std::uint16_t> slot_of(static_cast<std::size_t>(2 * bias + 1),
                                       kNoSlot);
    for (std::uint64_t s = 0; s < dimension_; ++s) {
        std::uint16_t& slot = slot_of[index[s]];
        if (slot == kNoSlot) {
            if (levels_.size() >= kMaxLevels) {
                levels_.clear();
                return false; // too many distinct values
            }
            slot = static_cast<std::uint16_t>(levels_.size());
            levels_.push_back(static_cast<double>(index[s] - bias));
        }
        index[s] = slot;
    }
    level_index_ = std::move(index);
    return true;
}

std::vector<Statevector::Amplitude>
DiagonalTable::level_phases(double scale) const
{
    std::vector<Statevector::Amplitude> phases(levels_.size());
    for (std::size_t k = 0; k < levels_.size(); ++k)
        phases[k] = std::polar(1.0, scale * levels_[k]);
    return phases;
}

void
DiagonalTable::apply(Statevector::Amplitude* amps, double scale) const
{
    if (!levels_.empty()) {
        const auto phases = level_phases(scale);
        const std::uint16_t* idx = level_index_.data();
        for (std::uint64_t s = 0; s < dimension_; ++s)
            amps[s] *= phases[idx[s]];
        return;
    }
    for (std::uint64_t s = 0; s < dimension_; ++s)
        amps[s] *= std::polar(1.0, scale * weights_[s]);
}

double
DiagonalTable::weight(std::uint64_t state) const
{
    FQ_REQUIRE(state < dimension_, "state out of range");
    if (!levels_.empty())
        return levels_[level_index_[state]];
    return weights_[state];
}

// ------------------------------------------------------------------------
// EnergyTable

EnergyTable::EnergyTable(const ising::IsingModel& model)
    : num_qubits_(model.num_spins())
{
    FQ_REQUIRE(num_qubits_ >= 1 && num_qubits_ <= kMaxTableQubits,
               "energy table limited to 1..26 qubits");
    values_.resize(std::uint64_t(1) << num_qubits_);
    fill(model);
}

void
EnergyTable::rebind(const ising::IsingModel& model)
{
    FQ_REQUIRE(model.num_spins() == num_qubits_,
               "energy table rebind requires matching width");
    fill(model);
}

void
EnergyTable::fill(const ising::IsingModel& model)
{
    std::vector<circuit::ParityTerm> terms;
    terms.reserve(static_cast<std::size_t>(num_qubits_) +
                  model.quadratic_terms().size());
    for (int i = 0; i < num_qubits_; ++i)
        terms.push_back({std::uint64_t(1) << i, model.linear(i)});
    for (const auto& term : model.quadratic_terms())
        terms.push_back(
            {(std::uint64_t(1) << term.i) | (std::uint64_t(1) << term.j),
             term.coefficient});

    // Integral models take the integer walk (exact below 2^53). A -0.0
    // offset stays on the passes below, where its sign survives an
    // all-zero model.
    const double offset = model.offset();
    IntegralSpinTerms spins(num_qubits_, std::int64_t(1) << 52);
    const bool integral =
        (offset != 0.0 || !std::signbit(offset)) && spins.add(0, offset) &&
        std::all_of(terms.begin(), terms.end(), [&](const auto& term) {
            return spins.add(term.mask, term.coefficient);
        });
    if (integral) {
        spins.walk([&](std::uint64_t first, const std::int64_t* values,
                       std::size_t count) {
            for (std::size_t k = 0; k < count; ++k)
                values_[first + k] = static_cast<double>(values[k]);
        });
        return;
    }
    std::fill(values_.begin(), values_.end(), offset);
    for (const auto& term : terms)
        accumulate_parity(values_, term.mask, term.coefficient);
}

double
EnergyTable::expectation(const Statevector& state) const
{
    FQ_REQUIRE(state.num_qubits() == num_qubits_,
               "energy table width must match state width");
    const Statevector::Amplitude* amps = state.data();
    double ev = 0.0;
    for (std::size_t s = 0; s < values_.size(); ++s)
        ev += std::norm(amps[s]) * values_[s];
    return ev;
}

// ------------------------------------------------------------------------
// FusedProgram

FusedProgram::FusedProgram(const circuit::FusedCircuit& fused,
                           bool build_luts)
{
    compile(fused, build_luts);
}

FusedProgram::FusedProgram(const circuit::Circuit& c, bool build_luts)
{
    compile(circuit::fuse_diagonals(c), build_luts);
}

void
FusedProgram::compile(const circuit::FusedCircuit& fused, bool build_luts)
{
    num_qubits_ = fused.num_qubits;
    FQ_REQUIRE(num_qubits_ >= 1 && num_qubits_ <= kMaxTableQubits,
               "fused program limited to 1..26 qubits");
    num_diagonal_ops_ = fused.num_diagonal_ops();
    num_mixer_ops_ = fused.num_mixer_ops();
    gates_fused_ = fused.gates_fused();

    // Leading Hadamard wall (H on every qubit exactly once, the standard
    // QAOA opening) collapses to a one-pass uniform initialization.
    std::size_t start = 0;
    {
        std::uint64_t covered = 0;
        std::size_t k = 0;
        for (; k < fused.ops.size(); ++k) {
            const auto& op = fused.ops[k];
            if (op.kind != circuit::FusedOp::Kind::Gate ||
                op.gate.type != circuit::GateType::H)
                break;
            const std::uint64_t bit = std::uint64_t(1) << op.gate.q0;
            if (covered & bit)
                break;
            covered |= bit;
        }
        const std::uint64_t all =
            (num_qubits_ == 64) ? ~0ull
                                : ((std::uint64_t(1) << num_qubits_) - 1);
        if (covered == all) {
            uniform_start_ = true;
            start = k;
            gates_fused_ += num_qubits_;
        }
    }

    // Share weight tables between ops with identical term content (the p
    // cost layers of one QAOA circuit are structurally the same table).
    // Fingerprint hits are confirmed by exact term comparison — an O(|E|)
    // check against silently sharing a wrong table on a hash collision.
    std::unordered_map<std::uint64_t, std::size_t> table_of;
    std::vector<const std::vector<circuit::ParityTerm>*> table_terms;
    const auto same_terms = [](const std::vector<circuit::ParityTerm>& a,
                               const std::vector<circuit::ParityTerm>& b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t t = 0; t < a.size(); ++t)
            if (a[t].mask != b[t].mask ||
                a[t].coefficient != b[t].coefficient)
                return false;
        return true;
    };
    for (std::size_t k = start; k < fused.ops.size(); ++k) {
        const auto& src = fused.ops[k];
        Op op;
        op.kind = src.kind;
        switch (src.kind) {
          case circuit::FusedOp::Kind::Diagonal: {
            op.scale_kind = src.scale_kind;
            op.scale_layer = src.scale_layer;
            const std::uint64_t key = terms_fingerprint(src.terms);
            const auto it = table_of.find(key);
            if (it != table_of.end() &&
                same_terms(*table_terms[it->second], src.terms)) {
                op.table = it->second;
            } else {
                op.table = tables_.size();
                tables_.emplace_back(src.terms, num_qubits_, build_luts);
                table_terms.push_back(&src.terms);
                table_of[key] = op.table;
            }
            break;
          }
          case circuit::FusedOp::Kind::Mixer:
            op.scale_kind = src.scale_kind;
            op.scale_layer = src.scale_layer;
            op.mixer_coefficient = src.mixer_coefficient;
            op.qubits = src.qubits;
            break;
          case circuit::FusedOp::Kind::Gate:
            op.gate = src.gate;
            break;
        }
        ops_.push_back(std::move(op));
    }
}

double
FusedProgram::resolve_scale(circuit::Parameter::Kind kind, int layer,
                            const std::vector<double>& gammas,
                            const std::vector<double>& betas)
{
    using Kind = circuit::Parameter::Kind;
    switch (kind) {
      case Kind::Constant:
        return 1.0;
      case Kind::Gamma:
        FQ_REQUIRE(layer >= 0 && layer < static_cast<int>(gammas.size()),
                   "gamma layer index out of range");
        return gammas[static_cast<std::size_t>(layer)];
      case Kind::Beta:
        FQ_REQUIRE(layer >= 0 && layer < static_cast<int>(betas.size()),
                   "beta layer index out of range");
        return betas[static_cast<std::size_t>(layer)];
    }
    return 1.0;
}

void
FusedProgram::run(const std::vector<double>& gammas,
                  const std::vector<double>& betas, Statevector& out) const
{
    run(gammas, betas, out, BackendRegistry::instance().scalar());
}

void
FusedProgram::run(const std::vector<double>& gammas,
                  const std::vector<double>& betas, Statevector& out,
                  const Backend& backend) const
{
    if (uniform_start_)
        out.reset_uniform(num_qubits_);
    else
        out.reset(num_qubits_);
    Statevector::Amplitude* amps = out.data();
    const std::uint64_t dim = out.dimension();

    for (const auto& op : ops_) {
        switch (op.kind) {
          case circuit::FusedOp::Kind::Diagonal: {
            const double scale =
                resolve_scale(op.scale_kind, op.scale_layer, gammas, betas);
            backend.apply_diagonal(tables_[op.table], amps, scale);
            break;
          }
          case circuit::FusedOp::Kind::Mixer: {
            const double theta =
                op.mixer_coefficient *
                resolve_scale(op.scale_kind, op.scale_layer, gammas, betas);
            backend.apply_mixer_wall(amps, dim, op.qubits, theta);
            break;
          }
          case circuit::FusedOp::Kind::Gate: {
            // Residual gates stay on the shared strided kernels — they
            // are rare (non-QAOA shapes) and identical on every backend.
            circuit::Gate g = op.gate;
            if (circuit::has_angle(g.type) && !g.angle.is_constant())
                g.angle = circuit::Parameter::constant(
                    g.angle.resolve(gammas, betas));
            out.apply_gate(g);
            break;
          }
        }
    }
}

std::size_t
FusedProgram::bytes() const
{
    std::size_t total = sizeof(FusedProgram);
    total += ops_.capacity() * sizeof(Op);
    for (const auto& op : ops_)
        total += op.qubits.capacity() * sizeof(int);
    total += tables_.capacity() * sizeof(DiagonalTable);
    total += table_bytes();
    return total;
}

} // namespace fq::sim
