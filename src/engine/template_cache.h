/**
 * @file
 * Compile-once template cache (Section 3.7.1 made persistent).
 *
 * All 2^m siblings of one freeze share a quadratic structure, so their
 * compiled circuits are identical up to RZ angles; one transpiler run
 * serves them all via edit_template. This cache extends that sharing
 * across engine invocations: entries are keyed on (model topology, device
 * identity, compile + build options) — everything the transpiler's output
 * structurally depends on, and nothing it doesn't (coefficient VALUES are
 * excluded on purpose; they only move RZ angles, which the editor rewrites
 * per task anyway).
 *
 * Devices are fingerprinted structurally — name, coupling map, and full
 * calibration — so hand-built devices that alias on a name can never be
 * served each other's compiles.
 *
 * Thread-safe; lookups that miss compile OUTSIDE the lock (concurrent
 * misses on distinct keys never serialize — the multi-tenant planning
 * path), with a first-insert-wins race resolution so concurrent requests
 * for the same key still end up sharing one entry.
 */
#ifndef FQ_ENGINE_TEMPLATE_CACHE_H
#define FQ_ENGINE_TEMPLATE_CACHE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "device/catalog.h"
#include "ising/ising_model.h"
#include "qaoa/qaoa_builder.h"
#include "sim/noise_model.h"
#include "sim/qaoa_kernel.h"
#include "transpiler/pipeline.h"

namespace fq::engine {

/** Stable fingerprint of a model's quadratic structure (not its values).
 *  @p salt varies the whole hash chain (for independent verification
 *  fingerprints). */
std::uint64_t topology_fingerprint(const ising::IsingModel& model,
                                   std::uint64_t salt = 0);

/**
 * Stable fingerprint of a model's full coefficient content — structure AND
 * values. The transpiled template only depends on structure (coefficients
 * just move RZ angles), but the simulator's fused weight tables bake the
 * coefficients in, so their cache key must distinguish values.
 */
std::uint64_t model_value_fingerprint(const ising::IsingModel& model,
                                      std::uint64_t salt = 0);

/** Stable fingerprint of a device: name, coupling map, calibration. */
std::uint64_t device_fingerprint(const device::Device& dev,
                                 std::uint64_t salt = 0);

/** Stable fingerprint of the full cache key. */
std::uint64_t template_key(const ising::IsingModel& model,
                           const device::Device& dev,
                           const transpiler::CompileOptions& compile,
                           const qaoa::BuildOptions& build,
                           std::uint64_t salt = 0);

/**
 * Canonical family signature: a Weisfeiler-Leman-style isomorphism-class
 * hash of the model's interaction graph (label-free, value-free) mixed
 * with width, layer count/build flags, device identity, and compile
 * options — everything a structural compile depends on, with spin LABELS
 * excluded so relabeled instances of one graph class bucket together.
 * Correctness never rests on this hash: a family entry stores its exact
 * labeled structure and every bind is verified against it in O(E).
 */
std::uint64_t family_signature(const ising::IsingModel& model,
                               const device::Device& dev,
                               const transpiler::CompileOptions& compile,
                               const qaoa::BuildOptions& build,
                               std::uint64_t salt = 0);

/**
 * Slot-value vector for binding a skeleton to @p model's coefficients:
 * slot i in [0, n) holds -h_i, slot n + t holds -J_t (the fused parity
 * coefficients under the RZ phase convention — see circuit/fusion.cc).
 * Exact: the builder emits angle coefficients 2h / 2J and fusion halves
 * and negates them, which round-trips bitwise in IEEE754.
 */
std::vector<double> fused_slot_values(const ising::IsingModel& model);

/** How a template lookup was (or will be) satisfied. */
enum class TemplateTier : std::uint8_t {
    Compile, ///< full build: transpile and/or fusion scan from scratch
    Bind,    ///< family structure resident; coefficients patched in
    Hit,     ///< exact value-keyed artifact already resident
};

/** Lower-case tier mnemonic ("compile" / "bind" / "hit"). */
const char* template_tier_name(TemplateTier tier);

/**
 * One cached template: the transpiled circuit plus every noise quantity
 * that is a pure function of (circuit structure, device) — all shared
 * verbatim by the template's RZ-angle-edited siblings, so computing them
 * once here amortizes them across tasks AND across engine invocations.
 */
struct CompiledTemplate
{
    transpiler::CompileResult compiled;
    sim::NoiseAttenuation attenuation;
    double eps = 0.0; ///< expected probability of success
    /** Readout-flip probability per logical qubit (final placement). */
    std::vector<double> readout_flip;
};

/**
 * Per-logical-qubit readout-flip probabilities under @p compiled's final
 * placement — the single definition shared by the cache and the engine's
 * uncached sampling path.
 */
std::vector<double> readout_flip_for(const transpiler::CompileResult& compiled,
                                     const device::Calibration& calibration,
                                     int num_spins);

/**
 * Family-level structural artifact: everything the compile pipeline
 * produces that depends on structure but not on coefficient VALUES,
 * computed once per (graph family, p, width, device) and shared by every
 * member instance. Holds the structure-only transpiled template (noise
 * quantities included — all angle-independent) and the coefficient-slot
 * fusion skeleton that turns a member's fused-program build into a
 * parameter patch.
 */
struct ParametricTemplate
{
    /// @name Exact labeled structure (bind safety; hash-independent)
    /// @{
    int num_spins = 0;
    std::vector<std::pair<int, int>> quadratic_pairs;
    /** Nonzero-linear pattern; used only when the build omits zero-h RZs
     *  (the compiled structure then depends on WHICH h_i are nonzero). */
    std::vector<bool> linear_present;
    /// @}

    /** Structure-only compile result + noise quantities. */
    std::shared_ptr<const CompiledTemplate> structural;
    /** Value-free fused skeleton (parity masks with coefficient slots). */
    circuit::ParametricFusedCircuit skeleton;
    bool has_skeleton = false;
    qaoa::BuildOptions build;

    /** True when @p model has exactly this labeled structure. O(E). */
    bool matches(const ising::IsingModel& model) const;
    /** Estimated shared-structure footprint (charged once per family). */
    std::size_t bytes() const;
};

class TemplateCache
{
  public:
    TemplateCache();

    /** Cumulative counters (monotone; never reset), plus a snapshot of
     *  the current byte residency split by pool. */
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t compiles = 0;
        /** Compiled-template entries dropped by the capacity reset (an
         *  explicit clear() does not count — it is a caller decision, not
         *  cache pressure). */
        std::uint64_t evictions = 0;
        /** Fused-simulation program counters (get_or_fuse). */
        std::uint64_t sim_lookups = 0;
        std::uint64_t sim_hits = 0;
        std::uint64_t sim_fusions = 0;
        /** Fused programs dropped by the byte-budget reset. */
        std::uint64_t sim_evictions = 0;
        /** Family-tier counters (get_or_bind / skeleton binds). */
        std::uint64_t family_lookups = 0;
        /** Lookups served by a resident family structure. */
        std::uint64_t family_hits = 0;
        /** Structure-only compiles (transpile + fusion skeleton), once
         *  per labeled structure per family. */
        std::uint64_t family_structural_compiles = 0;
        /** Fused programs built by patching coefficients into a resident
         *  skeleton instead of a from-scratch circuit build + fusion. */
        std::uint64_t family_binds = 0;
        /** Family structures dropped by the byte-budget reset. */
        std::uint64_t family_evictions = 0;

        /// @name Byte residency snapshot (filled by stats())
        /// @{
        /** Shared family structure — charged ONCE per labeled structure,
         *  no matter how many binds it serves. */
        std::size_t structure_bytes = 0;
        /** Per-bind fused weight tables (value-keyed sim entries). */
        std::size_t bind_bytes = 0;
        /** Legacy per-structure compiled templates (get_or_compile). */
        std::size_t template_bytes = 0;
        /// @}

        std::uint64_t misses() const { return lookups - hits; }
        std::uint64_t sim_misses() const { return sim_lookups - sim_hits; }
        std::uint64_t family_misses() const
        {
            return family_lookups - family_hits;
        }
    };

    /** get_or_bind result: the family artifact plus how this lookup was
     *  satisfied (Hit = this model's fused program is already resident,
     *  Bind = structure resident / coefficients to patch, Compile = this
     *  call paid the structural compile). */
    struct FamilyBinding
    {
        std::shared_ptr<const ParametricTemplate> family;
        TemplateTier tier = TemplateTier::Compile;
    };

    /**
     * Return the compiled template for @p model's structure, compiling
     * (build + transpile + noise analysis) on the first request for its
     * key. Hits are verified against an independently-salted second
     * fingerprint, so serving a wrong entry needs a simultaneous 128-bit
     * collision. @p was_hit, if non-null, reports whether this lookup was
     * served from cache.
     */
    std::shared_ptr<const CompiledTemplate>
    get_or_compile(const ising::IsingModel& model, const device::Device& dev,
                   const transpiler::CompileOptions& compile,
                   const qaoa::BuildOptions& build, bool* was_hit = nullptr);

    /**
     * Return the compiled fused-simulation program (diagonal weight
     * tables, mixer walls) for @p model's QAOA circuit under @p build,
     * fusing and compiling tables on the first request. Keyed on
     * coefficient VALUES (unlike the transpiled template) because the
     * weight tables bake them in; all optimizer iterations and every
     * repeated solve over the same sub-problem reuse one entry. Hits are
     * double-fingerprint verified like compiled templates.
     */
    std::shared_ptr<const sim::FusedProgram>
    get_or_fuse(const ising::IsingModel& model,
                const qaoa::BuildOptions& build, bool* was_hit = nullptr,
                const ParametricTemplate* family = nullptr,
                TemplateTier* tier = nullptr);

    /**
     * The family tier above get_or_compile/get_or_fuse: return the shared
     * structural artifact for @p model's graph family, running the
     * structure-only compile (transpile + fusion skeleton) exactly once
     * per labeled structure. Warm-family lookups cost a hash plus an O(E)
     * labeled verification — no transpiler involvement — which is what
     * turns cold-start planning into a parameter patch. Same concurrency
     * contract as the other tiers: misses compile OUTSIDE the lock,
     * first insert wins, race losers report tier Compile.
     */
    FamilyBinding get_or_bind(const ising::IsingModel& model,
                              const device::Device& dev,
                              const transpiler::CompileOptions& compile,
                              const qaoa::BuildOptions& build);

    /** resolve_template result; family is null on the legacy tier. */
    struct ResolvedTemplate
    {
        std::shared_ptr<const CompiledTemplate> tpl;
        std::shared_ptr<const ParametricTemplate> family;
        bool cache_hit = false; ///< this call paid no compile
    };

    /** The planners' ONE template-resolution step: the family tier
     *  (get_or_bind) when @p parametric, else the legacy structure-keyed
     *  tier (get_or_compile). Both serve identical noise quantities. */
    ResolvedTemplate resolve_template(const ising::IsingModel& model,
                                      const device::Device& dev,
                                      const transpiler::CompileOptions&
                                          compile,
                                      const qaoa::BuildOptions& build,
                                      bool parametric);

    /**
     * True when @p model's exact fused program is resident (a subsequent
     * get_or_fuse would hit). Read-only peek for plan-time leaf-tier
     * reporting; deliberately NOT counted in Stats so planning previews
     * cannot distort the hit-rate diagnostics.
     */
    bool peek_fused(const ising::IsingModel& model,
                    const qaoa::BuildOptions& build) const;

    /**
     * Override the byte budgets (0 keeps the current value). Exists for
     * eviction-boundary tests and memory-constrained deployments; the
     * defaults are kMaxSimBytes / kMaxFamilyBytes in template_cache.cc.
     */
    void set_byte_budgets(std::size_t sim_bytes, std::size_t family_bytes);

    Stats stats() const;
    std::size_t size() const;
    /**
     * Estimated bytes currently held: full fused-program footprints
     * (FusedProgram::bytes — weight tables AND the compiled op list) plus
     * a per-template estimate of the compiled circuit and its noise
     * arrays. Cheap enough to poll from a --stats report after every
     * solve.
     */
    std::size_t bytes() const;
    void clear();

  private:
    struct Entry
    {
        std::uint64_t verify_key = 0;
        std::size_t bytes = 0;
        std::shared_ptr<const CompiledTemplate> value;
    };
    struct SimEntry
    {
        std::uint64_t verify_key = 0;
        /** Full program footprint (FusedProgram::bytes(), captured at
         *  insert so the budget releases exactly what it charged). */
        std::size_t bytes = 0;
        std::shared_ptr<const sim::FusedProgram> value;
    };
    /** One labeled structure within a family bucket. The shared structure
     *  is charged ONCE here; the per-bind weight tables it later serves
     *  are charged per value in sim_entries_. */
    struct FamilyVariant
    {
        std::uint64_t labeled_key = 0;
        std::uint64_t verify_key = 0;
        /** ParametricTemplate::bytes(), captured at insert so eviction
         *  releases exactly what was charged. */
        std::size_t bytes = 0;
        std::shared_ptr<const ParametricTemplate> value;
    };
    struct FamilyEntry
    {
        std::vector<FamilyVariant> variants;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::unordered_map<std::uint64_t, SimEntry> sim_entries_;
    std::unordered_map<std::uint64_t, FamilyEntry> families_;
    /** Estimated bytes held by entries_ (compiled circuits + noise). */
    std::size_t template_bytes_ = 0;
    /** Estimated bytes held by sim_entries_ (table storage). */
    std::size_t sim_bytes_ = 0;
    /** Estimated bytes held by families_ (shared structures). */
    std::size_t family_bytes_ = 0;
    std::size_t sim_byte_budget_;
    std::size_t family_byte_budget_;
    Stats stats_;
};

} // namespace fq::engine

#endif // FQ_ENGINE_TEMPLATE_CACHE_H
