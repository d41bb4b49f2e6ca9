#include "engine/template_cache.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/rng.h"

namespace fq::engine {

namespace {

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return combine_seeds(h, v);
}

std::uint64_t
mix_double(std::uint64_t h, double v)
{
    return mix(h, double_bits(v));
}

/** Salt for the hit-verification fingerprint (independent hash chain). */
constexpr std::uint64_t kVerifySalt = 0x5bf0f5163ad2ab1dull;

/** Entry cap; each entry holds a full compiled circuit + noise arrays. */
constexpr std::size_t kMaxEntries = 256;

/** Rough per-entry footprint: the two circuit copies (logical-structure
 *  metrics are scalars), the layout and noise vectors. Estimation only —
 *  feeds the --stats byte report, not an eviction decision. */
std::size_t
template_entry_bytes(const CompiledTemplate& tpl)
{
    std::size_t bytes = sizeof(CompiledTemplate);
    bytes += tpl.compiled.physical.size() * sizeof(circuit::Gate);
    bytes += tpl.compiled.final_layout.size() * sizeof(int);
    bytes += tpl.readout_flip.size() * sizeof(double);
    return bytes;
}

/** Cache key for a fused-simulation program. */
std::uint64_t
sim_key(const ising::IsingModel& model, const qaoa::BuildOptions& build,
        std::uint64_t salt)
{
    std::uint64_t h = model_value_fingerprint(model, salt);
    h = combine_seeds(h, static_cast<std::uint64_t>(build.num_layers));
    h = combine_seeds(h, (build.include_measurements ? 2u : 0u) |
                             (build.keep_zero_linear_rz ? 1u : 0u));
    return h;
}

/** Byte budget for cached fused programs. Entries hold 2^n-sized tables
 *  (a 20-qubit LUT program is ~2 MiB, a 26-qubit one ~128 MiB), so the
 *  bound is on estimated bytes, not entry count: many small sub-problems
 *  fit (an m=8 freeze's 128 siblings at n<=20 stay resident), while a
 *  handful of huge ones trip the wholesale reset early. */
constexpr std::size_t kMaxSimBytes = std::size_t(256) << 20;

/** Byte budget for family structures. These hold compiled circuits and
 *  O(|E|) skeletons, never 2^n tables, so the budget is far smaller. */
constexpr std::size_t kMaxFamilyBytes = std::size_t(64) << 20;

/** True when the two builds produce the same circuit structure for the
 *  same model (the fields sim_key distinguishes). */
bool
same_build(const qaoa::BuildOptions& a, const qaoa::BuildOptions& b)
{
    return a.num_layers == b.num_layers &&
           a.include_measurements == b.include_measurements &&
           a.keep_zero_linear_rz == b.keep_zero_linear_rz;
}

/** Transpile @p logical and derive the angle-independent noise quantities
 *  every compiled template carries (both template tiers build this way). */
std::shared_ptr<CompiledTemplate>
compile_template(const circuit::Circuit& logical, const device::Device& dev,
                 const transpiler::CompileOptions& compile, int num_spins)
{
    auto entry = std::make_shared<CompiledTemplate>();
    entry->compiled = transpiler::compile(logical, dev, compile);
    entry->attenuation =
        sim::compute_attenuation(entry->compiled.physical, dev.calibration);
    entry->eps = sim::expected_probability_of_success(
        entry->compiled.physical, dev.calibration);
    entry->readout_flip =
        readout_flip_for(entry->compiled, dev.calibration, num_spins);
    return entry;
}

} // namespace

std::vector<double>
readout_flip_for(const transpiler::CompileResult& compiled,
                 const device::Calibration& calibration, int num_spins)
{
    std::vector<double> flip(static_cast<std::size_t>(num_spins));
    for (int q = 0; q < num_spins; ++q) {
        flip[static_cast<std::size_t>(q)] =
            calibration
                .qubit(compiled.final_layout[static_cast<std::size_t>(q)])
                .readout_error;
    }
    return flip;
}

std::uint64_t
device_fingerprint(const device::Device& dev, std::uint64_t salt)
{
    // The compile output depends on the coupling map (routing) and the full
    // calibration (noise-adaptive layout, durations -> metrics), so all of
    // it goes into the key — the name alone cannot alias two structurally
    // different devices. O(N + E) per lookup, noise against a
    // millisecond-scale transpiler run.
    std::uint64_t h = mix(hash_seed(dev.name), salt);
    h = mix(h, static_cast<std::uint64_t>(dev.num_qubits()));
    for (const auto& edge : dev.topology.coupling_graph().edges()) {
        h = mix(h, static_cast<std::uint64_t>(edge.u));
        h = mix(h, static_cast<std::uint64_t>(edge.v));
        h = mix_double(h, dev.calibration.cx_error(edge.u, edge.v));
    }
    for (int q = 0; q < dev.calibration.num_qubits(); ++q) {
        const auto& p = dev.calibration.qubit(q);
        h = mix_double(h, p.t1_us);
        h = mix_double(h, p.t2_us);
        h = mix_double(h, p.readout_error);
        h = mix_double(h, p.sq_error);
    }
    const auto& d = dev.calibration.durations();
    h = mix_double(h, d.single_qubit_ns);
    h = mix_double(h, d.cx_ns);
    h = mix_double(h, d.measure_ns);
    h = mix_double(h, dev.calibration.crosstalk_kappa());
    return h;
}

std::uint64_t
topology_fingerprint(const ising::IsingModel& model, std::uint64_t salt)
{
    std::uint64_t h = mix(hash_seed("fq-topology"), salt);
    h = mix(h, static_cast<std::uint64_t>(model.num_spins()));
    for (const auto& term : model.quadratic_terms()) {
        h = mix(h, static_cast<std::uint64_t>(term.i));
        h = mix(h, static_cast<std::uint64_t>(term.j));
    }
    return h;
}

std::uint64_t
model_value_fingerprint(const ising::IsingModel& model, std::uint64_t salt)
{
    std::uint64_t h = mix(hash_seed("fq-model-values"), salt);
    h = mix(h, static_cast<std::uint64_t>(model.num_spins()));
    for (double hi : model.linear_terms())
        h = mix_double(h, hi);
    for (const auto& term : model.quadratic_terms()) {
        h = mix(h, static_cast<std::uint64_t>(term.i));
        h = mix(h, static_cast<std::uint64_t>(term.j));
        h = mix_double(h, term.coefficient);
    }
    return h;
}

std::uint64_t
template_key(const ising::IsingModel& model, const device::Device& dev,
             const transpiler::CompileOptions& compile,
             const qaoa::BuildOptions& build, std::uint64_t salt)
{
    std::uint64_t h = topology_fingerprint(model, salt);
    h = mix(h, device_fingerprint(dev, salt));
    h = mix(h, static_cast<std::uint64_t>(compile.layout));
    h = mix(h, static_cast<std::uint64_t>(compile.router.lookahead));
    h = mix_double(h, compile.router.lookahead_weight);
    h = mix_double(h, compile.router.decay);
    h = mix(h, compile.router.seed);
    h = mix(h, (compile.structure_only ? 4u : 0u) |
                   (compile.run_optimization_passes ? 2u : 0u) |
                   (compile.decompose_swaps ? 1u : 0u));
    h = mix(h, static_cast<std::uint64_t>(build.num_layers));
    h = mix(h, (build.include_measurements ? 2u : 0u) |
                   (build.keep_zero_linear_rz ? 1u : 0u));
    // Without keep_zero_linear_rz the builder emits an RZ only for nonzero
    // h_i, so the compiled structure depends on WHICH linear terms are
    // nonzero — that pattern must distinguish keys (with the flag set,
    // every spin gets a slot and the pattern is irrelevant).
    if (!build.keep_zero_linear_rz) {
        std::uint64_t pattern = 0;
        int bit = 0;
        for (double hi : model.linear_terms()) {
            pattern = (pattern << 1) | (hi != 0.0 ? 1u : 0u);
            if (++bit == 64) {
                h = mix(h, pattern);
                pattern = 0;
                bit = 0;
            }
        }
        h = mix(h, pattern);
    }
    return h;
}

std::uint64_t
family_signature(const ising::IsingModel& model, const device::Device& dev,
                 const transpiler::CompileOptions& compile,
                 const qaoa::BuildOptions& build, std::uint64_t salt)
{
    // Label-free interaction-graph class hash: Weisfeiler-Leman color
    // refinement over the quadratic structure. Three rounds are plenty to
    // spread the benchmark graph classes; the hash only BUCKETS families —
    // a collision costs one extra labeled variant in the bucket, never a
    // wrong answer (get_or_bind verifies the exact labeled structure).
    const int n = model.num_spins();
    std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n));
    for (const auto& term : model.quadratic_terms()) {
        adjacency[static_cast<std::size_t>(term.i)].push_back(term.j);
        adjacency[static_cast<std::size_t>(term.j)].push_back(term.i);
    }
    std::vector<std::uint64_t> color(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < color.size(); ++i)
        color[i] = mix(hash_seed("fq-wl-init"), adjacency[i].size());
    std::vector<std::uint64_t> next(color.size());
    std::vector<std::uint64_t> neighborhood;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < color.size(); ++i) {
            neighborhood.clear();
            for (int peer : adjacency[i])
                neighborhood.push_back(
                    color[static_cast<std::size_t>(peer)]);
            std::sort(neighborhood.begin(), neighborhood.end());
            std::uint64_t h = color[i];
            for (std::uint64_t c : neighborhood)
                h = mix(h, c);
            next[i] = h;
        }
        color.swap(next);
    }
    std::sort(color.begin(), color.end());

    std::uint64_t h = mix(hash_seed("fq-family"), salt);
    h = mix(h, static_cast<std::uint64_t>(n));
    for (std::uint64_t c : color)
        h = mix(h, c);
    h = mix(h, device_fingerprint(dev, salt));
    h = mix(h, static_cast<std::uint64_t>(compile.layout));
    h = mix(h, static_cast<std::uint64_t>(compile.router.lookahead));
    h = mix_double(h, compile.router.lookahead_weight);
    h = mix_double(h, compile.router.decay);
    h = mix(h, compile.router.seed);
    h = mix(h, (compile.structure_only ? 4u : 0u) |
                   (compile.run_optimization_passes ? 2u : 0u) |
                   (compile.decompose_swaps ? 1u : 0u));
    h = mix(h, static_cast<std::uint64_t>(build.num_layers));
    h = mix(h, (build.include_measurements ? 2u : 0u) |
                   (build.keep_zero_linear_rz ? 1u : 0u));
    return h;
}

std::vector<double>
fused_slot_values(const ising::IsingModel& model)
{
    const auto& quadratic = model.quadratic_terms();
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(model.num_spins()) +
                   quadratic.size());
    // Parity coefficient convention (circuit/fusion.cc): the builder emits
    // angle coefficients 2h_i / 2J_t and fusion contributes -coeff/2, so
    // the bound value is exactly -h_i / -J_t (doubling and halving are
    // exact in IEEE754 — bit-identical to the from-scratch path).
    for (int i = 0; i < model.num_spins(); ++i)
        values.push_back(-model.linear(i));
    for (const auto& term : quadratic)
        values.push_back(-term.coefficient);
    return values;
}

const char*
template_tier_name(TemplateTier tier)
{
    switch (tier) {
    case TemplateTier::Compile:
        return "compile";
    case TemplateTier::Bind:
        return "bind";
    case TemplateTier::Hit:
        return "hit";
    }
    return "?";
}

bool
ParametricTemplate::matches(const ising::IsingModel& model) const
{
    if (model.num_spins() != num_spins)
        return false;
    const auto& terms = model.quadratic_terms();
    if (terms.size() != quadratic_pairs.size())
        return false;
    for (std::size_t t = 0; t < terms.size(); ++t) {
        if (terms[t].i != quadratic_pairs[t].first ||
            terms[t].j != quadratic_pairs[t].second)
            return false;
    }
    // Without keep_zero_linear_rz the compiled structure (and skeleton
    // slot set) depends on which h_i are nonzero; a member whose pattern
    // differs is a different structure.
    if (!linear_present.empty()) {
        for (int i = 0; i < num_spins; ++i) {
            if ((model.linear(i) != 0.0) !=
                static_cast<bool>(linear_present[static_cast<std::size_t>(i)]))
                return false;
        }
    }
    return true;
}

std::size_t
ParametricTemplate::bytes() const
{
    std::size_t total = sizeof(ParametricTemplate);
    total += quadratic_pairs.capacity() * sizeof(std::pair<int, int>);
    total += linear_present.capacity() / 8;
    if (structural)
        total += template_entry_bytes(*structural);
    if (has_skeleton)
        total += skeleton.bytes();
    return total;
}

TemplateCache::TemplateCache()
    : sim_byte_budget_(kMaxSimBytes), family_byte_budget_(kMaxFamilyBytes)
{
}

std::shared_ptr<const CompiledTemplate>
TemplateCache::get_or_compile(const ising::IsingModel& model,
                              const device::Device& dev,
                              const transpiler::CompileOptions& compile,
                              const qaoa::BuildOptions& build, bool* was_hit)
{
    const std::uint64_t key = template_key(model, dev, compile, build);
    const std::uint64_t verify =
        template_key(model, dev, compile, build, kVerifySalt);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.lookups;
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.verify_key == verify) {
            ++stats_.hits;
            if (was_hit)
                *was_hit = true;
            return it->second.value;
        }
    }

    // Build OUTSIDE the lock — the same pattern get_or_fuse uses. Under a
    // shared multi-tenant engine, concurrent submitters plan (and thus
    // compile templates) in parallel; running a full millisecond-scale
    // transpile under the cache mutex would serialize every planner on the
    // slowest miss. A rare duplicate build of the same key loses the race
    // below and is dropped; first insert wins so all callers share one
    // entry.
    const auto entry =
        compile_template(qaoa::build_qaoa_circuit(model, build), dev,
                         compile, model.num_spins());

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.compiles;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        if (it->second.verify_key == verify) {
            // Lost the race; share the winner's template — but report a
            // miss: this caller paid a full compile, and hit-share
            // diagnostics must not overstate hits under the very
            // contention they exist to measure.
            if (was_hit)
                *was_hit = false;
            return it->second.value;
        }
        // Verify-key mismatch (fingerprint collision): the stale entry is
        // about to be overwritten — release its bytes from the budget.
        template_bytes_ -= it->second.bytes;
        entries_.erase(it);
    }
    // Crude bound on a cache that would otherwise grow for the process
    // lifetime of a shared engine: wholesale reset at the cap (entries are
    // cheap to rebuild relative to tracking LRU order).
    if (entries_.size() >= kMaxEntries) {
        stats_.evictions += entries_.size();
        entries_.clear();
        template_bytes_ = 0;
    }
    const std::size_t entry_bytes = template_entry_bytes(*entry);
    template_bytes_ += entry_bytes;
    entries_[key] = Entry{verify, entry_bytes, entry};
    if (was_hit)
        *was_hit = false;
    return entry;
}

std::shared_ptr<const sim::FusedProgram>
TemplateCache::get_or_fuse(const ising::IsingModel& model,
                           const qaoa::BuildOptions& build, bool* was_hit,
                           const ParametricTemplate* family,
                           TemplateTier* tier)
{
    const std::uint64_t key = sim_key(model, build, 0);
    const std::uint64_t verify = sim_key(model, build, kVerifySalt);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.sim_lookups;
        auto it = sim_entries_.find(key);
        if (it != sim_entries_.end() && it->second.verify_key == verify) {
            ++stats_.sim_hits;
            if (was_hit)
                *was_hit = true;
            if (tier)
                *tier = TemplateTier::Hit;
            return it->second.value;
        }
    }

    // Build OUTSIDE the lock: unlike the shared compiled template (one key
    // per plan, pre-resolved serially by the planner), every sibling
    // sub-problem carries distinct coefficient values and thus a distinct
    // key — compiling the O(2^n) tables under the mutex would serialize
    // the whole worker pool. A rare duplicate build of the same key loses
    // the race below and is dropped; first insert wins so all callers
    // share one program.
    //
    // With a matching family skeleton the build skips the circuit
    // construction and fusion scan entirely: patch the coefficient slots,
    // then compile the weight tables. The tables themselves are identical
    // either way (asserted bit-for-bit by the bind-vs-recompile tests).
    std::shared_ptr<const sim::FusedProgram> program;
    const bool via_bind = family != nullptr && family->has_skeleton &&
                          same_build(family->build, build) &&
                          family->matches(model);
    if (via_bind) {
        program = std::make_shared<const sim::FusedProgram>(
            circuit::bind_fused(family->skeleton, fused_slot_values(model)),
            /*build_luts=*/true);
    } else {
        const auto logical = qaoa::build_qaoa_circuit(model, build);
        program = std::make_shared<const sim::FusedProgram>(
            logical, /*build_luts=*/true);
    }
    if (tier)
        *tier = via_bind ? TemplateTier::Bind : TemplateTier::Compile;

    std::lock_guard<std::mutex> lock(mutex_);
    if (via_bind)
        ++stats_.family_binds;
    else
        ++stats_.sim_fusions;
    auto it = sim_entries_.find(key);
    if (it != sim_entries_.end()) {
        if (it->second.verify_key == verify) {
            // Lost the race; share the winner's program — but report a
            // miss: this caller paid the full table build (see
            // get_or_compile).
            if (was_hit)
                *was_hit = false;
            return it->second.value;
        }
        // Verify-key mismatch (fingerprint collision): the stale entry is
        // about to be overwritten — release its bytes from the budget.
        sim_bytes_ -= it->second.bytes;
    }
    // Charge the FULL program footprint (tables + compiled op list), not
    // table_bytes() alone — the old accounting undercounted every fused
    // artifact by its op/qubit storage.
    const std::size_t program_bytes = program->bytes();
    sim_bytes_ += program_bytes;
    if (sim_bytes_ > sim_byte_budget_) {
        stats_.sim_evictions += sim_entries_.size();
        sim_entries_.clear();
        sim_bytes_ = program_bytes;
    }
    sim_entries_[key] = SimEntry{verify, program_bytes, program};
    if (was_hit)
        *was_hit = false;
    return program;
}

TemplateCache::FamilyBinding
TemplateCache::get_or_bind(const ising::IsingModel& model,
                           const device::Device& dev,
                           const transpiler::CompileOptions& compile,
                           const qaoa::BuildOptions& build)
{
    // Family structures are always compiled in structure-only mode so an
    // entry is canonical: bit-identical no matter which member instance
    // paid the structural compile.
    transpiler::CompileOptions structural_opts = compile;
    structural_opts.structure_only = true;

    const std::uint64_t sig =
        family_signature(model, dev, structural_opts, build);
    const std::uint64_t labeled =
        template_key(model, dev, structural_opts, build);
    const std::uint64_t verify =
        template_key(model, dev, structural_opts, build, kVerifySalt);
    const std::uint64_t fused_key = sim_key(model, build, 0);
    const std::uint64_t fused_verify = sim_key(model, build, kVerifySalt);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.family_lookups;
        auto it = families_.find(sig);
        if (it != families_.end()) {
            for (const auto& variant : it->second.variants) {
                if (variant.labeled_key != labeled ||
                    variant.verify_key != verify ||
                    !variant.value->matches(model))
                    continue;
                ++stats_.family_hits;
                // Hit when this exact member's fused program is already
                // resident; Bind when only the structure is (the tables
                // will be a coefficient patch at execution time).
                const auto sit = sim_entries_.find(fused_key);
                const bool resident =
                    sit != sim_entries_.end() &&
                    sit->second.verify_key == fused_verify;
                return {variant.value, resident ? TemplateTier::Hit
                                                : TemplateTier::Bind};
            }
        }
    }

    // Structural compile OUTSIDE the lock (same contract as the other
    // tiers): build the circuit once, transpile it structure-only, derive
    // noise quantities (all angle-independent) and the fusion skeleton.
    auto family = std::make_shared<ParametricTemplate>();
    family->num_spins = model.num_spins();
    const auto& quadratic = model.quadratic_terms();
    family->quadratic_pairs.reserve(quadratic.size());
    for (const auto& term : quadratic)
        family->quadratic_pairs.emplace_back(term.i, term.j);
    if (!build.keep_zero_linear_rz) {
        family->linear_present.resize(
            static_cast<std::size_t>(model.num_spins()));
        for (int i = 0; i < model.num_spins(); ++i)
            family->linear_present[static_cast<std::size_t>(i)] =
                model.linear(i) != 0.0;
    }
    family->build = build;

    const auto logical = qaoa::build_qaoa_circuit(model, build);
    family->structural = compile_template(logical, dev, structural_opts,
                                          model.num_spins());

    auto skeleton = circuit::parametrize_fused(
        circuit::fuse_diagonals(logical), model.num_spins(),
        family->quadratic_pairs);
    if (skeleton.has_value()) {
        family->skeleton = std::move(*skeleton);
        family->has_skeleton = true;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.family_structural_compiles;
    auto& entry = families_[sig];
    for (const auto& variant : entry.variants) {
        if (variant.labeled_key == labeled && variant.verify_key == verify &&
            variant.value->matches(model)) {
            // Lost the race; share the winner's structure — but report
            // tier Compile: this caller paid a full structural compile.
            return {variant.value, TemplateTier::Compile};
        }
    }
    const std::size_t family_entry_bytes = family->bytes();
    family_bytes_ += family_entry_bytes;
    if (family_bytes_ > family_byte_budget_) {
        for (const auto& [key, bucket] : families_)
            stats_.family_evictions += bucket.variants.size();
        families_.clear();
        family_bytes_ = family_entry_bytes;
        // `entry` died with the map; re-bucket the new structure.
        families_[sig].variants.push_back(
            {labeled, verify, family_entry_bytes, family});
    } else {
        entry.variants.push_back(
            {labeled, verify, family_entry_bytes, family});
    }
    return {family, TemplateTier::Compile};
}

TemplateCache::ResolvedTemplate
TemplateCache::resolve_template(const ising::IsingModel& model,
                                const device::Device& dev,
                                const transpiler::CompileOptions& compile,
                                const qaoa::BuildOptions& build,
                                bool parametric)
{
    ResolvedTemplate out;
    if (parametric) {
        const auto binding = get_or_bind(model, dev, compile, build);
        out.tpl = binding.family->structural;
        out.family = binding.family;
        out.cache_hit = binding.tier != TemplateTier::Compile;
    } else {
        out.tpl = get_or_compile(model, dev, compile, build, &out.cache_hit);
    }
    return out;
}

bool
TemplateCache::peek_fused(const ising::IsingModel& model,
                          const qaoa::BuildOptions& build) const
{
    const std::uint64_t key = sim_key(model, build, 0);
    const std::uint64_t verify = sim_key(model, build, kVerifySalt);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sim_entries_.find(key);
    return it != sim_entries_.end() && it->second.verify_key == verify;
}

void
TemplateCache::set_byte_budgets(std::size_t sim_bytes,
                                std::size_t family_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (sim_bytes != 0)
        sim_byte_budget_ = sim_bytes;
    if (family_bytes != 0)
        family_byte_budget_ = family_bytes;
}

TemplateCache::Stats
TemplateCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.structure_bytes = family_bytes_;
    out.bind_bytes = sim_bytes_;
    out.template_bytes = template_bytes_;
    return out;
}

std::size_t
TemplateCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
TemplateCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return template_bytes_ + sim_bytes_ + family_bytes_;
}

void
TemplateCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    sim_entries_.clear();
    families_.clear();
    template_bytes_ = 0;
    sim_bytes_ = 0;
    family_bytes_ = 0;
}

} // namespace fq::engine
