/**
 * @file
 * fqtool — command-line front end for the FrozenQubits pipeline.
 *
 * Subcommands (run fqtool without arguments for each one's options, which
 * usage() generates from the option table):
 *   generate     emit a random benchmark instance in the text model format
 *   analyze      print a model's graph and hotspot statistics
 *   run          baseline-vs-FrozenQubits report (analytic, no sampling)
 *   plan         build and rank the SolveTree and print it with the
 *                budget trace, executing no circuit
 *   solve        sampled end-to-end solve over the SolveTree (recursive
 *                freezing, budgeted best-first execution, bisection,
 *                adaptive re-ranking); durable with --checkpoint /
 *                --resume / --suspend-after, deadline-admitted with
 *                --deadline (README "Durable solves")
 *   serve-batch  replay a multi-request trace through a SolveService
 *                sharing ONE engine (per-request results bit-identical to
 *                solo solves; --serial replays one solve at a time, the
 *                A/B baseline). One request per line: a model file, then
 *                key=value options; '#' starts a comment
 *   worker       distributed leaf-execution worker (net/worker.h) serving
 *                the framed wire protocol on --listen until killed
 *   devices      list the device catalog
 *
 * Options: every subcommand and the trace parser bind through ONE key
 * table (kKeys); a key the subcommand does not take is an error naming
 * it.
 *
 * Distributed execution: solve and serve-batch accept --workers a,b,c;
 * results stay bit-identical to a local-only run (README "Distributed
 * execution"). Results are identical for any --threads, too.
 *
 * Examples:
 *   fqtool generate --class ba1 --n 16 > problem.ising
 *   fqtool run --file problem.ising --device ibm-montreal --freeze 2
 *   fqtool plan --file problem.ising --freeze 3 --max-circuits 2
 *   fqtool solve --file problem.ising --freeze 2 --max-depth 2 --stats
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "frozenqubits/budget.h"
#include "frozenqubits/driver.h"
#include "frozenqubits/hotspot.h"
#include "graph/generators.h"
#include "graph/powerlaw.h"
#include "ising/io.h"
#include "ising/maxcut.h"
#include "net/worker.h"
#include "net/worker_pool.h"

namespace {

using namespace fq;

/** Everything an option can set: the request's DriverConfig plus the
 *  command-level knobs around it. Each command presets its defaults. */
struct Settings
{
    frozenqubits::DriverConfig config;
    std::string file, device = "ibm-montreal", klass = "ba1", checkpoint,
        resume, workers, trace, listen;
    int n = 16, shots = 8192, wave_size = 0, queue_depth = 0;
    long long budget = 4, checkpoint_every = -1, suspend_after = 0,
              migrate_after = 0, die_after = 0;
    bool freeze_auto = false, no_sparsify = false, stats = false,
         serial = false;
};

/** Where a key may appear: the command line, a serve-batch trace line. */
constexpr unsigned kCli = 1, kTrace = 2, kBoth = kCli | kTrace;

using Setter = std::function<void(Settings&, const std::string&)>;

/** One option: its name, where it may appear, its value kind (shown in
 *  the usage text; null = a valueless flag) and the setter that parses
 *  and stores the value. */
struct Key
{
    const char* name;
    unsigned scope;
    const char* value;
    Setter set;
};

/** Parse a whole option value as T (a flag's presence for bool). Throws
 *  "expects ..." — the binder prefixes the key and its location. */
template <typename T>
T
parse(const std::string& text)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return text;
    } else if constexpr (std::is_same_v<T, bool>) {
        return true;
    } else {
        std::size_t used = 0;
        T value{};
        try {
            if constexpr (std::is_floating_point_v<T>) {
                value = std::stod(text, &used);
            } else if constexpr (std::is_unsigned_v<T>) {
                if (text.find_first_not_of("0123456789") == std::string::npos)
                    value = std::stoull(text, &used);
            } else {
                const long long wide = std::stoll(text, &used);
                value = static_cast<T>(wide);
                if (value != wide)
                    used = 0; // outside T's range
            }
        } catch (const std::logic_error&) {
            used = 0;
        }
        if (text.empty() || used != text.size())
            throw Error(std::string("expects ") +
                        (std::is_floating_point_v<T> ? "a number"
                         : std::is_unsigned_v<T>
                             ? "an unsigned 64-bit integer"
                             : "an integer") +
                        ", got '" + text + "'");
        return value;
    }
}

void
expect(bool ok, const std::string& expectation)
{
    if (!ok)
        throw Error("expects " + expectation);
}

using DC = frozenqubits::DriverConfig;

/** The object a member pointer of class C lives in. */
template <typename C>
C&
target(Settings& s)
{
    if constexpr (std::is_same_v<C, Settings>)
        return s;
    else
        return s.config;
}

/** Setter storing the parsed value into @p field. */
template <typename C, typename T>
Setter
to(T C::*field)
{
    return [field](Settings& s, const std::string& text) {
        target<C>(s).*field = parse<T>(text);
    };
}

/** Setter for a flag that switches a DriverConfig default off. */
Setter
off(bool DC::*field)
{
    return [field](Settings& s, const std::string&) {
        s.config.*field = false;
    };
}

/** to(), refusing values below @p lo (@p what completes "expects"). */
template <typename C, typename T>
Setter
at_least(T C::*field, T lo, const char* what)
{
    return [field, lo, what](Settings& s, const std::string& text) {
        const T value = parse<T>(text);
        expect(value >= lo, what);
        target<C>(s).*field = value;
    };
}

/**
 * The one option table: every command and the serve-batch trace bind
 * through it. Seeds take the full unsigned 64-bit range. A name appears
 * twice only with disjoint scopes: --checkpoint FILE vs checkpoint=N,
 * --sparsify fraction vs sparsify=percent, --workers addresses vs
 * workers=0|1.
 */
const std::vector<Key> kKeys = {
    {"file", kCli, "F", to(&Settings::file)},
    {"device", kBoth, "NAME", to(&Settings::device)},
    {"class", kCli, "ba1|ba2|ba3|3reg|sk", to(&Settings::klass)},
    {"n", kCli, "N", to(&Settings::n)},
    {"seed", kBoth, "S", to(&DC::seed)},
    {"threads", kCli, "T", to(&DC::threads)},
    {"shots", kBoth, "K", to(&Settings::shots)},
    {"freeze", kBoth, "M|auto",
     [](Settings& s, const std::string& v) {
         s.freeze_auto = v == "auto";
         if (!s.freeze_auto)
             s.config.num_freeze = parse<int>(v);
     }},
    {"budget", kCli, "B", to(&Settings::budget)},
    {"max-depth", kBoth, "D", to(&DC::max_depth)},
    {"max-circuits", kBoth, "B", to(&DC::max_circuits)},
    {"partition", kBoth, "W", to(&DC::partition_width)},
    {"prune-dominated", kCli, nullptr, to(&DC::prune_dominated)},
    // The legacy structure-keyed template tier only (the A/B escape
    // hatch mirroring --no-fusion); results are bit-identical either way.
    {"no-param-templates", kCli, nullptr, off(&DC::parametric_templates)},
    {"no-fusion", kCli, nullptr, off(&DC::fuse_simulation)},
    // Re-rank the un-dispatched tail every N folded leaves; 0 and off
    // both keep the plan-time ranking final.
    {"rerank", kBoth, "N|off",
     [](Settings& s, const std::string& v) {
         s.config.rerank_interval = v == "off" ? 0 : parse<long long>(v);
         expect(s.config.rerank_interval >= 0,
                "a non-negative interval or 'off' (0 = off)");
     }},
    {"backend", kBoth, "auto|scalar|simd",
     [](Settings& s, const std::string& v) {
         expect(sim::parse_backend_selection(v, &s.config.backend),
                "auto, scalar or simd");
     }},
    // Red-QAOA edge sparsification: each leaf tunes its angles on a
    // proxy keeping this share of its couplings; sampling and energies
    // use the full model. --no-sparsify forces it off, in any order.
    {"sparsify", kCli, "F",
     [](Settings& s, const std::string& v) {
         const auto keep = parse<double>(v);
         expect(keep >= 0.0 && keep < 1.0, "a keep fraction in [0, 1)");
         if (!s.no_sparsify)
             s.config.sparsify_keep = keep;
     }},
    {"sparsify", kTrace, "PERCENT",
     [](Settings& s, const std::string& v) {
         const auto percent = parse<int>(v);
         expect(percent >= 0 && percent < 100,
                "a keep percentage in [0, 100)");
         s.config.sparsify_keep = static_cast<double>(percent) / 100.0;
     }},
    {"no-sparsify", kCli, nullptr,
     [](Settings& s, const std::string&) {
         s.no_sparsify = true;
         s.config.sparsify_keep = 0.0;
     }},
    {"deadline", kBoth, "D",
     at_least(&DC::deadline_cost_units, 0LL, "a non-negative cost budget")},
    {"checkpoint", kCli, "FILE", to(&Settings::checkpoint)},
    {"checkpoint", kTrace, "N",
     at_least(&DC::checkpoint_interval, 0LL, "a non-negative interval")},
    {"checkpoint-every", kCli, "N",
     at_least(&Settings::checkpoint_every, 0LL,
              "a non-negative interval")},
    {"resume", kCli, "FILE", to(&Settings::resume)},
    {"suspend-after", kCli, "K", to(&Settings::suspend_after)},
    {"migrate", kTrace, "K",
     at_least(&Settings::migrate_after, 1LL, "a positive fold count")},
    {"wave-share", kTrace, "C", to(&DC::wave_share)},
    {"stats", kCli, nullptr, to(&Settings::stats)},
    {"workers", kCli, "a,b,c", to(&Settings::workers)},
    // workers=0 pins one trace request's leaves to the local arm even
    // when --workers attached a pool.
    {"workers", kTrace, "0|1",
     [](Settings& s, const std::string& v) {
         s.config.allow_remote = parse<long long>(v) != 0;
     }},
    {"trace", kCli, "FILE", to(&Settings::trace)},
    {"serial", kCli, nullptr, to(&Settings::serial)},
    {"wave-size", kCli, "W", to(&Settings::wave_size)},
    {"queue-depth", kCli, "D", to(&Settings::queue_depth)},
    {"listen", kCli, "ADDR", to(&Settings::listen)},
    // Fault injection for tests/CI: crash mid-batch after N leaves.
    {"die-after", kCli, "N", to(&Settings::die_after)},
};

const Key*
find_key(const std::string& name, unsigned scope)
{
    for (const auto& key : kKeys)
        if (name == key.name && (key.scope & scope) != 0)
            return &key;
    return nullptr;
}

/** Run @p key's setter on @p text; errors name the key (@p label:
 *  "--seed" or "seed") and end with @p where. */
void
bind_key(const Key& key, Settings& s, const std::string& text,
         const std::string& label, const std::string& where = "")
{
    try {
        key.set(s, text);
    } catch (const Error& e) {
        throw Error(label + " " + e.what() + where);
    }
}

using Keys = std::vector<std::string>;

/** Bind argv[first..] as --key [value] pairs, each key from @p allowed. */
void
bind_command_line(Settings& s, const std::string& command,
                  const Keys& allowed, int argc, char** argv, int first)
{
    for (int a = first; a < argc; ++a) {
        const std::string arg = argv[a];
        FQ_REQUIRE(arg.rfind("--", 0) == 0, "expected --option, got " + arg);
        const std::string name = arg.substr(2);
        const Key* key = find_key(name, kCli);
        if (key == nullptr ||
            std::find(allowed.begin(), allowed.end(), name) == allowed.end())
            throw Error(command + " does not take --" + name);
        std::string value;
        if (key->value != nullptr) {
            FQ_REQUIRE(a + 1 < argc, "missing value for --" + name);
            value = argv[++a];
        }
        bind_key(*key, s, value, "--" + name);
    }
}

ising::IsingModel
load_model(const Settings& s)
{
    if (s.file.empty())
        return ising::read_model(std::cin);
    std::ifstream in(s.file);
    FQ_REQUIRE(in.good(), "cannot open " + s.file);
    return ising::read_model(in);
}

int
cmd_generate(Settings& s)
{
    const auto& klass = s.klass;
    const int n = s.n;
    Rng rng(s.config.seed);

    graph::Graph g;
    if (klass == "ba1")
        g = graph::barabasi_albert(n, 1, rng);
    else if (klass == "ba2")
        g = graph::barabasi_albert(n, 2, rng);
    else if (klass == "ba3")
        g = graph::barabasi_albert(n, 3, rng);
    else if (klass == "3reg")
        g = graph::random_regular(n, 3, rng);
    else if (klass == "sk")
        g = graph::complete(n);
    else
        FQ_REQUIRE(false, "unknown class: " + klass);
    graph::assign_random_pm1_weights(g, rng);

    std::cout << "# " << klass << " benchmark, N=" << n << "\n";
    ising::write_model(std::cout, ising::maxcut_hamiltonian(g));
    return 0;
}

int
cmd_analyze(Settings& s)
{
    const auto model = load_model(s);
    const auto g = model.to_graph();
    const auto stats = graph::degree_stats(g, 5);

    Table t("instance analysis");
    t.set_header({"metric", "value"});
    t.add_row({"spins", Table::num(model.num_spins())});
    t.add_row({"quadratic terms", Table::num(model.num_quadratic_terms())});
    t.add_row({"flip-symmetric (h==0)",
               model.has_zero_linear_terms() ? "yes" : "no"});
    t.add_row({"average degree", Table::num(stats.average_degree, 2)});
    t.add_row({"max degree", Table::num(stats.max_degree)});
    t.add_row({"top-5 hotspot ratio", Table::factor(stats.hotspot_ratio)});
    t.print(std::cout);

    Rng rng(1);
    Table hotspots("hotspots (iterative max-degree order)");
    hotspots.set_header({"rank", "spin", "edges dropped cumulatively"});
    const auto picks = frozenqubits::select_hotspots(
        model, std::min(5, model.num_spins() - 1),
        frozenqubits::HotspotPolicy::MaxDegree, rng);
    for (std::size_t k = 0; k < picks.size(); ++k) {
        const std::vector<int> prefix(picks.begin(),
                                      picks.begin() + k + 1);
        hotspots.add_row({Table::num(k + 1), "z" + Table::num(picks[k]),
                          Table::num(frozenqubits::dropped_edge_count(
                              model, prefix))});
    }
    hotspots.print(std::cout);
    return 0;
}

/**
 * --freeze auto (Section 3.4 recommendation; a no-op for --freeze N).
 * With --max-depth > 1 the whole-tree recommendation picks the deepest
 * depth whose leaf count fits the budget (config.max_depth is updated to
 * it).
 */
void
resolve_freeze(Settings& s, const ising::IsingModel& model)
{
    if (!s.freeze_auto)
        return;
    auto& config = s.config;
    frozenqubits::FreezeBudget budget;
    budget.max_circuits = s.budget;
    const auto rec = frozenqubits::recommend_tree_freeze(
        model, budget, std::max(1, config.max_depth));
    std::cout << "auto freeze: m=" << rec.num_freeze;
    if (config.max_depth > 1)
        std::cout << ", depth=" << rec.depth << " ("
                  << rec.leaf_circuits << " leaf circuits)";
    for (const auto& step : rec.base.steps)
        std::cout << "  [z" << step.spin << " drops "
                  << step.edges_dropped << " edges]";
    std::cout << "\n";
    config.num_freeze = std::max(1, rec.num_freeze);
    config.max_depth = rec.depth;
}

/** Engine wall-clock summary: printed after every run/solve. */
void
print_wall_clock(const engine::ExecutionEngine& eng)
{
    const auto& d = eng.last_diagnostics();
    std::cout << "wall-clock: " << Table::num(d.wall_ms, 1) << " ms | "
              << d.threads << " thread" << (d.threads == 1 ? "" : "s")
              << " | " << d.tasks_executed << "/" << d.num_subproblems
              << " sub-circuits executed (" << d.mirrors_inferred
              << " mirrored, " << d.template_edits << " template edits"
              << (d.template_cache_hit ? ", template cached" : "")
              << (d.fused_simulation ? ", fused sim" : "") << ")\n";
    if (d.leaves_scalar_backend > 0 || d.leaves_simd_backend > 0)
        std::cout << "backends: " << d.leaves_scalar_backend
                  << " scalar / " << d.leaves_simd_backend
                  << " simd leaves (vector isa: "
                  << sim::BackendRegistry::vector_isa() << ")\n";
    if (d.leaves_tier_hit > 0 || d.leaves_tier_bind > 0 ||
        d.leaves_tier_compile > 0)
        std::cout << "template tiers: " << d.leaves_tier_hit << " hit / "
                  << d.leaves_tier_bind << " bind / "
                  << d.leaves_tier_compile << " compile leaves\n";
    if (d.leaves_beyond_budget > 0 || d.leaves_pruned > 0 ||
        d.tree_depth > 1) {
        std::cout << "solve tree: depth " << d.tree_depth << ", "
                  << d.tree_nodes << " nodes, " << d.leaves_total
                  << " leaves (" << d.tasks_executed << " executed, "
                  << d.leaves_beyond_budget << " beyond budget, "
                  << d.leaves_pruned << " dominated)"
                  << (d.scheduler_scored ? ", SA-ranked" : "") << "\n";
    }
    if (d.reranks > 0) {
        std::cout << "adaptive re-rank: " << d.reranks << " re-rank"
                  << (d.reranks == 1 ? "" : "s") << " over " << d.epochs
                  << " epoch" << (d.epochs == 1 ? "" : "s") << " ("
                  << d.rerank_promoted << " promoted, "
                  << d.rerank_demoted << " demoted, " << d.rerank_pruned
                  << " pruned stale)\n";
    }
}

/** Recursive tree printer: one line per node, indented by depth. */
void
print_tree_node(const engine::SolveTree& tree, int ni, int indent)
{
    const auto& node = tree.nodes[static_cast<std::size_t>(ni)];
    // Name comes from the kind-metadata table (engine/expander.h), so a
    // new expander prints correctly here without a new branch; only the
    // kind-specific annotations below need one.
    std::cout << std::string(static_cast<std::size_t>(indent) * 2, ' ')
              << "node " << node.index << " ["
              << engine::node_kind_info(node.kind).name << "] "
              << node.sub.model.num_spins() << " spins";
    if (node.kind == engine::NodeKind::Freeze) {
        std::cout << ", freezes {";
        for (std::size_t h = 0; h < node.plan.hotspots.size(); ++h)
            std::cout << (h ? "," : "") << "z"
                      << node.sub.original_of[static_cast<std::size_t>(
                             node.plan.hotspots[h])];
        std::cout << "} -> " << node.children.size() << " children";
    } else if (node.kind == engine::NodeKind::Partition) {
        std::cout << ", cut " << node.cut_edges << " edges (|J| "
                  << Table::num(node.cut_weight, 2) << ") -> "
                  << node.children.size() << " fragments";
    } else if (node.kind == engine::NodeKind::Sparsify) {
        std::cout << ", pruned " << node.cut_edges
                  << " proxy edges (|J| " << Table::num(node.cut_weight, 2)
                  << ") -> optimizer proxy";
    } else if (node.mirror_of >= 0) {
        std::cout << ", mirror of leaf " << node.mirror_of;
    } else {
        std::cout << ", leaf " << node.leaf_id;
    }
    std::cout << "\n";
    for (int child : node.children)
        print_tree_node(tree, child, indent + 1);
}

int
cmd_plan(Settings& s)
{
    const auto model = load_model(s);
    const auto dev = device::make_device(s.device);
    resolve_freeze(s, model);
    const auto& config = s.config;

    engine::TemplateCache cache;
    Rng rng(config.seed);
    const auto tree =
        engine::build_solve_tree(model, dev, config, cache, rng);
    const auto schedule =
        engine::make_schedule(model, tree, config, /*force_scoring=*/true);

    std::cout << "solve tree (depth " << config.max_depth << ", "
              << tree.nodes.size() << " nodes, "
              << tree.num_executable_leaves() << " executable leaves, "
              << tree.num_leaf_nodes() - tree.num_executable_leaves()
              << " mirrors):\n";
    print_tree_node(tree, 0, 0);

    std::cout << "\nclassical presolve: cost "
              << Table::num(schedule.presolve_cost, 3) << "\n";
    Table t("leaf schedule (best-first; SA score ranks, ties by leaf id)");
    const std::vector<std::string> header = {
        "rank", "leaf", "node", "arm",  "spins", "frozen",
        "SA score", "bound", "backend", "tier", "status"};
    t.set_header(header);
    int rank = 0;
    const auto add_leaf_row = [&](int leaf_id, const std::string& status) {
        const auto& leaf =
            tree.leaves[static_cast<std::size_t>(leaf_id)];
        const auto& node =
            tree.nodes[static_cast<std::size_t>(leaf.node)];
        const auto& score =
            schedule.scores[static_cast<std::size_t>(leaf_id)];
        // Arm glyph straight from the kind-metadata table — new node
        // kinds appear here with zero printer changes.
        const auto& arm =
            engine::node_kind_info(engine::leaf_arm_kind(tree, leaf_id));
        t.add_row({Table::num(++rank), Table::num(leaf_id),
                   Table::num(leaf.node), arm.glyph,
                   Table::num(node.sub.model.num_spins()),
                   Table::num(static_cast<int>(node.sub.frozen.size())),
                   Table::num(score.score, 3),
                   leaf.needs_repair ? "n/a" : Table::num(score.bound, 3),
                   leaf.fuse ? sim::backend_kind_name(leaf.backend)
                             : "naive",
                   engine::template_tier_name(leaf.tier), status});
    };
    for (int leaf_id : schedule.executed)
        add_leaf_row(leaf_id, "execute");
    if (!schedule.beyond_budget.empty()) {
        // Generated from the header so a grown vocabulary (extra columns)
        // can never shear the cut line out of alignment again.
        std::vector<std::string> cut(header.size() - 1, "----");
        cut.push_back("budget cut (max-circuits=" +
                      Table::num(config.max_circuits) + ")");
        t.add_row(cut);
        for (int leaf_id : schedule.beyond_budget)
            add_leaf_row(leaf_id, "skip: beyond budget");
    }
    for (int leaf_id : schedule.pruned)
        add_leaf_row(leaf_id, "skip: dominated");
    t.print(std::cout);

    std::cout << "budget trace: " << schedule.executed.size()
              << " of " << tree.num_executable_leaves()
              << " leaves scheduled";
    if (config.max_circuits > 0)
        std::cout << " (max-circuits " << config.max_circuits << ")";
    std::cout << "\n";
    return 0;
}

/** Per-reduction-arm counter report (--stats): one row per node kind
 *  that planned any work, keyed by the metadata table's diagnostics key
 *  — so a new expander shows up here without printer changes. */
void
print_kind_stats(
    const std::array<int, engine::kNumNodeKinds>& executed,
    const std::array<int, engine::kNumNodeKinds>& pruned,
    const std::array<long long, engine::kNumNodeKinds>& units)
{
    Table t("reduction arms");
    t.set_header({"arm", "leaves executed", "leaves pruned",
                  "budget units"});
    for (const auto& info : engine::node_kind_table()) {
        const auto k = engine::node_kind_index(info.kind);
        if (executed[k] == 0 && pruned[k] == 0 && units[k] == 0)
            continue;
        t.add_row({info.diagnostics_key, Table::num(executed[k]),
                   Table::num(pruned[k]), Table::num(units[k])});
    }
    t.print(std::cout);
}

/** Compact per-arm executed split for one serve-batch row, e.g.
 *  "frz:6 spr:2" (glyphs from the kind-metadata table; "-" when the
 *  request ran nothing). */
std::string
format_kind_split(const std::array<int, engine::kNumNodeKinds>& executed)
{
    std::string out;
    for (const auto& info : engine::node_kind_table()) {
        const auto k = engine::node_kind_index(info.kind);
        if (executed[k] == 0)
            continue;
        if (!out.empty())
            out += " ";
        out += std::string(info.glyph) + ":" + Table::num(executed[k]);
    }
    return out.empty() ? "-" : out;
}

/** Template-cache counter report (--stats). */
void
print_cache_stats(const engine::ExecutionEngine& eng)
{
    const auto s = eng.template_cache().stats();
    Table t("template cache");
    t.set_header({"counter", "value"});
    t.add_row({"template lookups", Table::num(s.lookups)});
    t.add_row({"template hits", Table::num(s.hits)});
    t.add_row({"template misses", Table::num(s.misses())});
    t.add_row({"template compiles", Table::num(s.compiles)});
    t.add_row({"template evictions", Table::num(s.evictions)});
    t.add_row({"fused-sim lookups", Table::num(s.sim_lookups)});
    t.add_row({"fused-sim hits", Table::num(s.sim_hits)});
    t.add_row({"fused-sim misses", Table::num(s.sim_misses())});
    t.add_row({"fused-sim compiles", Table::num(s.sim_fusions)});
    t.add_row({"fused-sim evictions", Table::num(s.sim_evictions)});
    t.add_row({"family lookups", Table::num(s.family_lookups)});
    t.add_row({"family hits", Table::num(s.family_hits)});
    t.add_row({"family misses", Table::num(s.family_misses())});
    t.add_row({"family structural compiles",
               Table::num(s.family_structural_compiles)});
    t.add_row({"family binds", Table::num(s.family_binds)});
    t.add_row({"family evictions", Table::num(s.family_evictions)});
    t.add_row({"structure bytes (shared)", Table::num(s.structure_bytes)});
    t.add_row({"bind bytes (per value)", Table::num(s.bind_bytes)});
    t.add_row({"resident entries", Table::num(eng.template_cache().size())});
    t.add_row({"resident bytes", Table::num(eng.template_cache().bytes())});
    t.print(std::cout);
}

std::vector<std::string>
split_list(const std::string& csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * --workers a,b,c: connect a WorkerPool over the engine's local executor
 * and install it behind the executor seam. Returns nullptr when the
 * option is absent (pure local execution). The pool must outlive every
 * solve on the engine — callers keep the unique_ptr on their stack.
 */
std::unique_ptr<net::WorkerPool>
attach_workers(const Settings& s, engine::ExecutionEngine& eng)
{
    if (s.workers.empty())
        return nullptr;
    const auto addresses = split_list(s.workers);
    FQ_REQUIRE(!addresses.empty(),
               "--workers expects a comma-separated address list");
    auto pool = std::make_unique<net::WorkerPool>(
        eng.local_leaf_executor(), eng.num_threads(), addresses);
    eng.set_leaf_executor(pool.get());
    std::cout << "workers: attached " << pool->num_workers()
              << " remote worker(s)\n";
    return pool;
}

void
print_distributed(const engine::ExecutionEngine& eng,
                  const net::WorkerPool& pool)
{
    const auto& d = eng.last_diagnostics();
    std::cout << "distributed: " << d.leaves_remote << " remote / "
              << d.leaves_local << " local leaves";
    if (d.leaves_redispatched > 0)
        std::cout << " (" << d.leaves_redispatched
                  << " re-dispatched after worker death)";
    std::cout << " | " << d.remote_bytes_sent << " B out / "
              << d.remote_bytes_received << " B in | "
              << pool.live_workers() << "/" << pool.num_workers()
              << " workers live\n";
    for (const auto& [address, leaves] : d.worker_dispatches)
        std::cout << "  worker " << address << ": " << leaves
                  << " leaves dispatched\n";
}

int
cmd_run(Settings& s)
{
    const auto model = load_model(s);
    const auto dev = device::make_device(s.device);
    resolve_freeze(s, model);
    const auto& config = s.config;
    // No --no-fusion here: run evaluates analytically, nothing simulates.

    engine::ExecutionEngine eng(config.threads);
    const auto r = eng.run(model, dev, config);
    Table t("baseline vs FrozenQubits(m=" +
            Table::num(config.num_freeze) + ") on " + dev.name);
    t.set_header({"arm", "circuits", "CXs", "SWAPs", "depth", "EPS",
                  "EV ideal", "EV noisy", "ARG"});
    t.add_row({"baseline", "1", Table::num(r.baseline.post_routing_cx),
               Table::num(r.baseline.swaps), Table::num(r.baseline.depth),
               Table::num(r.baseline.eps, 4),
               Table::num(r.baseline.ev_ideal, 3),
               Table::num(r.baseline.ev_noisy, 3),
               Table::num(r.arg_baseline, 2)});
    t.add_row({"FrozenQubits", Table::num(r.num_executed),
               Table::num(r.executed[0].post_routing_cx),
               Table::num(r.executed[0].swaps),
               Table::num(r.executed[0].depth),
               Table::num(r.executed[0].eps, 4),
               Table::num(r.ev_ideal_fq, 3), Table::num(r.ev_noisy_fq, 3),
               Table::num(r.arg_fq, 2)});
    t.print(std::cout);
    std::cout << "fidelity improvement: "
              << Table::factor(r.improvement()) << "\n";
    print_wall_clock(eng);
    return 0;
}

int
cmd_solve(Settings& s)
{
    const auto model = load_model(s);
    const auto dev = device::make_device(s.device);
    resolve_freeze(s, model);
    auto& config = s.config;

    // Durability controls. A checkpoint file or a suspension point arms
    // snapshot boundaries (every folded leaf unless --checkpoint-every
    // widens them); --resume restarts from a snapshot written by an
    // earlier (possibly killed) invocation — the other options must match
    // that run's, which the restore fingerprint-checks.
    const auto& checkpoint_path = s.checkpoint;
    const auto& resume_path = s.resume;
    const long long suspend_after = s.suspend_after;
    const bool durable = !checkpoint_path.empty() || suspend_after > 0;
    config.checkpoint_interval =
        s.checkpoint_every >= 0 ? s.checkpoint_every : durable ? 1 : 0;
    const int shots = s.shots;

    engine::CheckpointSink sink;
    if (durable)
        sink = [&](const engine::SolveCheckpoint& snapshot) {
            if (!checkpoint_path.empty())
                engine::write_checkpoint_file(checkpoint_path, snapshot);
            // --suspend-after K: stop once K leaves folded; the snapshot
            // just written resumes the remainder.
            return suspend_after <= 0 ||
                   snapshot.cursor <
                       static_cast<std::uint64_t>(suspend_after);
        };

    engine::ExecutionEngine eng(config.threads);
    const auto pool = attach_workers(s, eng);
    frozenqubits::SampledSolve solved;
    if (!resume_path.empty()) {
        const auto snapshot =
            engine::read_checkpoint_file(resume_path);
        solved = eng.resume(model, dev, config, shots, snapshot, sink);
        std::cout << "resumed from checkpoint " << resume_path
                  << " (cursor " << snapshot.cursor << ")\n";
    } else {
        // The seed overload records config.seed in the request, which is
        // what lets a remote worker replan the identical tree; it is
        // bit-identical to the Rng overload with Rng(config.seed).
        solved = eng.solve(model, dev, config, shots, config.seed, sink);
    }
    // Plan-vs-adaptive trace: the engine snapshots the plan-time order
    // before any re-rank rewrites the tail.
    if (!eng.last_diagnostics().planned_subproblems.empty()) {
        std::cout << "schedule trace (plan -> adaptive):\n  plan:    ";
        for (int id : eng.last_diagnostics().planned_subproblems)
            std::cout << " " << id;
        std::cout << "\n  adaptive:";
        for (int id : eng.last_diagnostics().executed_subproblems)
            std::cout << " " << id;
        std::cout << "\n";
    }
    std::cout << "best cost: " << solved.best_cost << " ("
              << (solved.from_subproblem < 0
                      ? std::string("classical presolve")
                      : "sub-problem " + Table::num(solved.from_subproblem))
              << ")\n";
    if (solved.from_subproblem < 0)
        std::cout << "quantum decode: " << solved.best_quantum_cost
                  << " (sub-problem " << solved.best_quantum_leaf << ")\n";
    std::cout << "assignment: ";
    for (auto z : solved.best_assignment)
        std::cout << (z > 0 ? '+' : '-');
    std::cout << "\n";
    if (!solved.anytime.empty()) {
        std::cout << "anytime quality (circuits -> incumbent cost):";
        for (const auto& point : solved.anytime)
            std::cout << "  " << point.circuits << " -> "
                      << Table::num(point.incumbent_cost, 3);
        std::cout << "\n";
    }
    if (solved.degraded)
        std::cout << "degraded: anytime incumbent ("
                  << (solved.deadline_trimmed > 0
                          ? Table::num(solved.deadline_trimmed) +
                                " leaves trimmed by the deadline"
                          : std::string("suspended mid-schedule"))
                  << ")\n";
    const auto& diag = eng.last_diagnostics();
    if (diag.checkpoints > 0 || diag.resumed_from >= 0)
        std::cout << "durability: " << diag.checkpoints
                  << " checkpoints written, resumed from "
                  << (diag.resumed_from < 0
                          ? std::string("-")
                          : "cursor " + Table::num(diag.resumed_from))
                  << "\n";
    print_wall_clock(eng);
    if (pool)
        print_distributed(eng, *pool);
    if (s.stats) {
        print_kind_stats(diag.kind_leaves_executed,
                         diag.kind_leaves_pruned, diag.kind_budget_units);
        print_cache_stats(eng);
    }
    return 0;
}

/** One parsed trace line of a serve-batch replay: its options, bound
 *  through the same key table as the command line (trace scope), plus
 *  the loaded model. */
struct TraceRequest
{
    /** s.file is the model file; s.migrate_after = K suspends at the
     *  first checkpoint boundary with K or more leaves folded, then
     *  resumes the remainder via submit_resume. */
    Settings s;
    ising::IsingModel model;
};

std::vector<TraceRequest>
load_trace(const Settings& cli)
{
    std::ifstream in(cli.trace);
    FQ_REQUIRE(in.good(), "cannot open trace " + cli.trace);

    std::vector<TraceRequest> requests;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream tokens(line);
        TraceRequest req;
        if (!(tokens >> req.s.file))
            continue; // blank / comment-only line
        // Per-request defaults: DriverConfig's, with the command line's
        // --device and --shots.
        req.s.device = cli.device;
        req.s.shots = cli.shots;

        const std::string where =
            " (trace line " + Table::num(lineno) + ")";
        std::string tok;
        while (tokens >> tok) {
            const auto eq = tok.find('=');
            FQ_REQUIRE(eq != std::string::npos && eq > 0,
                       "expected key=value, got '" + tok + "'" + where);
            const auto key = tok.substr(0, eq);
            const Key* entry = find_key(key, kTrace);
            FQ_REQUIRE(entry != nullptr,
                       "unknown trace key '" + key + "'" + where);
            bind_key(*entry, req.s, tok.substr(eq + 1), key, where);
        }

        FQ_REQUIRE(std::ifstream(req.s.file).good(),
                   "cannot open model " + req.s.file + where);
        req.model = load_model(req.s);
        resolve_freeze(req.s, req.model);
        requests.push_back(std::move(req));
    }
    FQ_REQUIRE(!requests.empty(), "trace has no requests: " + cli.trace);
    return requests;
}

int
cmd_serve_batch(Settings& cli)
{
    FQ_REQUIRE(!cli.trace.empty(), "serve-batch needs --trace FILE");
    auto requests = load_trace(cli);

    engine::ExecutionEngine eng(cli.config.threads);
    const auto pool = attach_workers(cli, eng);
    const bool serial = cli.serial;
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();

    Table t(std::string(serial ? "serial replay" : "batched replay") + " (" +
            Table::num(requests.size()) + " requests, " +
            Table::num(eng.num_threads()) + " threads)");
    if (serial) {
        t.set_header({"req", "model", "leaves", "best cost", "from"});
        for (std::size_t k = 0; k < requests.size(); ++k) {
            const auto& req = requests[k].s;
            const auto dev = device::make_device(req.device);
            // Seed overload so a worker pool can replan remotely;
            // bit-identical to the Rng overload with Rng(config.seed).
            const auto solved = eng.solve(requests[k].model, dev,
                                          req.config, req.shots,
                                          req.config.seed);
            t.add_row({Table::num(k + 1), requests[k].s.file,
                       Table::num(solved.leaves_executed),
                       Table::num(solved.best_cost, 3),
                       solved.from_subproblem < 0
                           ? std::string("presolve")
                           : "leaf " + Table::num(solved.from_subproblem)});
        }
        t.print(std::cout);
    } else {
        engine::SolveService::Config service_config;
        service_config.wave_size = cli.wave_size;
        service_config.max_queue_depth = cli.queue_depth;
        engine::SolveService service(eng, service_config);

        // migrate=K slots: the assembler thread writes each suspended
        // request's snapshot here (one writer), the main thread reads it
        // only after drain() — no lock needed.
        std::vector<std::unique_ptr<engine::SolveCheckpoint>> snapshots(
            requests.size());

        std::vector<engine::SolveService::Ticket> tickets;
        tickets.reserve(requests.size());
        int rejected = 0;
        for (std::size_t k = 0; k < requests.size(); ++k) {
            auto& req = requests[k].s;
            engine::SolveService::CheckpointCallback on_checkpoint;
            if (req.migrate_after > 0) {
                if (req.config.checkpoint_interval <= 0)
                    req.config.checkpoint_interval = 1;
                auto* slot = &snapshots[k];
                const auto after =
                    static_cast<std::uint64_t>(req.migrate_after);
                on_checkpoint =
                    [slot, after](std::uint64_t,
                                  const engine::SolveCheckpoint& ck) {
                        if (ck.cursor < after)
                            return true;
                        *slot = std::make_unique<engine::SolveCheckpoint>(
                            ck);
                        return false; // suspend; resumed after drain
                    };
            }
            try {
                tickets.push_back(service.submit(
                    requests[k].model, device::make_device(req.device),
                    req.config, req.shots, req.config.seed, nullptr,
                    std::move(on_checkpoint)));
            } catch (const engine::DeadlineError& e) {
                // deadline=D projected this request past its budget.
                ++rejected;
                tickets.emplace_back();
                std::cout << "deadline-rejected: " << requests[k].s.file
                          << " — " << e.what() << "\n";
            } catch (const engine::AdmissionError& e) {
                // Admission control (--queue-depth) shed this request;
                // report it instead of aborting the replay.
                ++rejected;
                tickets.emplace_back();
                std::cout << "rejected: " << requests[k].s.file << " — "
                          << e.what() << "\n";
            }
        }
        service.drain();

        // Migration phase: resume every suspended request from its
        // captured snapshot on the same service (same engine, fresh
        // request id) and let the resumed remainder drain.
        std::vector<std::pair<std::size_t, engine::SolveService::Ticket>>
            resumed;
        for (std::size_t k = 0; k < requests.size(); ++k) {
            if (!snapshots[k])
                continue;
            const auto& req = requests[k].s;
            resumed.emplace_back(
                k, service.submit_resume(requests[k].model,
                                         device::make_device(req.device),
                                         req.config, req.shots,
                                         *snapshots[k]));
        }
        if (!resumed.empty())
            service.drain();

        t.set_header({"req", "model", "leaves", "arms", "workers",
                      "best cost", "from", "waves", "occupancy", "reranks",
                      "fused hit%", "tier h/b/c", "binds", "queue ms",
                      "wall ms"});
        std::map<std::string, long long> worker_totals;
        for (std::size_t k = 0; k < tickets.size(); ++k) {
            auto& ticket = tickets[k];
            if (ticket.id() == 0) { // shed by admission control
                t.add_row({Table::num(k + 1), requests[k].s.file, "-",
                           "-", "-", "-", "rejected", "-", "-", "-", "-",
                           "-", "-", "-", "-"});
                continue;
            }
            // Diagnostics are FIFO-retained (~4k most recent); on a huge
            // trace the oldest rows fall back to dashes rather than
            // aborting the whole report.
            engine::SolveService::TenantDiagnostics diag;
            bool have_diag = true;
            try {
                diag = service.diagnostics(ticket.id());
            } catch (const fq::Error&) {
                have_diag = false;
            }
            std::string best = "FAILED", from = "-";
            try {
                const auto solved = ticket.get();
                best = Table::num(solved.best_cost, 3);
                from = solved.from_subproblem < 0
                           ? std::string("presolve")
                           : "leaf " + Table::num(solved.from_subproblem);
                if (solved.degraded)
                    from += snapshots[k] ? " [suspended]" : " [degraded]";
            } catch (const fq::Error& e) {
                from = e.what();
            }
            if (have_diag) {
                for (const auto& [address, leaves] : diag.worker_dispatches)
                    worker_totals[address] += leaves;
                t.add_row({Table::num(k + 1), requests[k].s.file,
                           Table::num(diag.leaves_executed) + "/" +
                               Table::num(diag.leaves_scheduled),
                           format_kind_split(diag.kind_leaves_executed),
                           pool ? Table::num(diag.leaves_remote) + "/" +
                                      Table::num(diag.leaves_local)
                                : std::string("-"),
                           best, from, Table::num(diag.waves),
                           Table::num(diag.wave_occupancy, 2),
                           Table::num(diag.reranks),
                           Table::num(100.0 * diag.cache_hit_share, 1),
                           Table::num(diag.leaves_tier_hit) + "/" +
                               Table::num(diag.leaves_tier_bind) + "/" +
                               Table::num(diag.leaves_tier_compile),
                           Table::num(diag.family_binds),
                           Table::num(diag.queue_latency_ms, 1),
                           Table::num(diag.wall_ms, 1)});
            } else
                t.add_row({Table::num(k + 1), requests[k].s.file, "-",
                           "-", "-", best, from, "-", "-", "-", "-", "-",
                           "-", "-", "-"});
        }
        t.print(std::cout);

        for (auto& [k, ticket] : resumed) {
            std::string best = "FAILED";
            int cursor = static_cast<int>(snapshots[k]->cursor);
            try {
                best = Table::num(ticket.get().best_cost, 3);
            } catch (const fq::Error& e) {
                best = e.what();
            }
            std::cout << "migrated: req " << (k + 1) << " ("
                      << requests[k].s.file << ") suspended at cursor "
                      << cursor << ", resumed as request "
                      << ticket.id() << " -> best cost " << best << "\n";
        }

        const auto stats = service.stats();
        std::cout << "service: " << stats.requests_completed << " completed, "
                  << stats.requests_failed << " failed, " << rejected
                  << " rejected | "
                  << stats.waves_executed << " waves, "
                  << Table::num(stats.waves_executed == 0
                                    ? 0.0
                                    : static_cast<double>(stats.wave_slots) /
                                          static_cast<double>(
                                              stats.waves_executed),
                                1)
                  << " leaves/wave, pool fill "
                  << Table::num(stats.mean_pool_fill, 2) << "\n";
        if (pool) {
            std::cout << "workers: " << pool->live_workers() << "/"
                      << pool->num_workers() << " live";
            for (const auto& [address, leaves] : worker_totals)
                std::cout << " | " << address << " " << leaves << " leaves";
            std::cout << "\n";
        }
    }

    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    std::cout << "replayed " << requests.size() << " requests in "
              << Table::num(wall_ms, 1) << " ms ("
              << Table::num(1000.0 * static_cast<double>(requests.size()) /
                                wall_ms,
                            2)
              << " solves/s)\n";
    if (cli.stats)
        print_cache_stats(eng);
    return 0;
}

int
cmd_worker(Settings& s)
{
    const auto& listen = s.listen;
    FQ_REQUIRE(!listen.empty(),
               "worker needs --listen unix:/path.sock or host:port");
    net::WorkerServer::Options wopts;
    wopts.threads = s.config.threads;
    wopts.die_after_leaves = s.die_after;
    net::WorkerServer server(listen, wopts);
    std::cout << "fqtool worker: listening on " << listen << " ("
              << server.num_threads() << " executor thread"
              << (server.num_threads() == 1 ? "" : "s") << ")"
              << std::endl; // flush: CI waits for this readiness line
    server.run();
    return 0;
}

int
cmd_devices(Settings&)
{
    Table t("device catalog");
    t.set_header({"name", "qubits", "couplings", "avg CX error",
                  "avg readout error"});
    for (const auto& name : device::ibm_device_names()) {
        const auto dev = device::make_device(name);
        t.add_row({name, Table::num(dev.num_qubits()),
                   Table::num(dev.topology.num_couplings()),
                   Table::num(dev.calibration.average_cx_error(), 4),
                   Table::num(dev.calibration.average_readout_error(), 4)});
    }
    t.print(std::cout);
    return 0;
}

/** One subcommand: the keys it takes from the table (comma-separated),
 *  the defaults it presets before binding them, and its body. */
struct Command
{
    const char* name;
    std::string keys;
    void (*preset)(Settings&);
    int (*run)(Settings&);
};

const std::string kModelKeys = "file,device,freeze,budget,seed,";
const std::string kTreeKeys = "max-depth,max-circuits,partition,"
                              "prune-dominated,no-param-templates,rerank,"
                              "backend,sparsify,no-sparsify,";

const std::vector<Command> kCommands = {
    {"generate", "class,n,seed", [](Settings& s) { s.config.seed = 1; },
     cmd_generate},
    {"analyze", "file", nullptr, cmd_analyze},
    {"run", kModelKeys + "threads", nullptr, cmd_run},
    {"plan", kModelKeys + kTreeKeys, nullptr, cmd_plan},
    {"solve",
     kModelKeys + kTreeKeys +
         "threads,no-fusion,shots,deadline,checkpoint,checkpoint-every,"
         "resume,suspend-after,stats,workers",
     nullptr, cmd_solve},
    {"serve-batch",
     "trace,device,shots,threads,workers,serial,wave-size,queue-depth,stats",
     [](Settings& s) { s.shots = 4096; }, cmd_serve_batch},
    {"worker", "listen,threads,die-after",
     [](Settings& s) { s.config.threads = 1; }, cmd_worker},
    {"devices", "", nullptr, cmd_devices},
};

/** The option list, generated from the command and key tables. */
int
usage()
{
    std::cerr << "usage: fqtool <command> [options]\n";
    std::string line;
    const auto add = [&line](const std::string& item) {
        if (line.size() + item.size() > 78) {
            std::cerr << line << "\n";
            line = "             ";
        }
        line += item;
    };
    for (const auto& command : kCommands) {
        line = "  " + std::string(command.name);
        for (const auto& name : split_list(command.keys)) {
            const Key& key = *find_key(name, kCli);
            add(" [--" + name +
                (key.value ? std::string(" ") + key.value : "") + "]");
        }
        std::cerr << line << "\n";
    }
    line = "  trace line: <model-file>";
    for (const auto& key : kKeys)
        if ((key.scope & kTrace) != 0)
            add(std::string(" [") + key.name + "=" + key.value + "]");
    std::cerr << line << "\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string name = argv[1];
    for (const auto& command : kCommands) {
        if (name != command.name)
            continue;
        try {
            Settings s;
            if (command.preset)
                command.preset(s);
            bind_command_line(s, name, split_list(command.keys), argc, argv,
                              2);
            return command.run(s);
        } catch (const fq::Error& e) {
            std::cerr << "fqtool: " << e.what() << "\n";
            return 1;
        }
    }
    return usage();
}
