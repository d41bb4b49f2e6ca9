#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "device/catalog.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "host.h"
#include "ising/exact_solver.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "trace.h"

namespace solvebench {

namespace {

using namespace fq;
using frozenqubits::DriverConfig;
using frozenqubits::SampledSolve;

/** nproc / 2 on the 4-vCPU reference host: closed loops never
 *  oversubscribe. */
constexpr int kEngineThreads = 2;
constexpr const char* kDevice = "ibm-montreal";
/** Tolerance of the best_quantum_cost >= E0 check (integer couplings:
 *  both sides are exact sums). */
constexpr double kCostTolerance = 1e-9;
/** Seed of the resident pools of solve-warm-deep and serve-remote. The
 *  pools are fixed, like a deployment's resident set; the run seed drives
 *  the request seeds. A pool drawn per run seed would add the variance of
 *  its instance mix to every end-to-end metric. */
constexpr std::uint64_t kPoolSeed = 2023;

/** One request as the generator issues it. */
struct RequestSpec
{
    ising::IsingModel model;
    DriverConfig config;
    std::uint64_t seed = 0;
    int instance = 0;
    bool durable = false;
};

/** Everything a run collects on the way to its metrics. */
struct Run
{
    Options opts;
    int shots = 4000;
    int local_threads = kEngineThreads;
    /** The first this-many requests form the quality subset. */
    int quality_requests = 16;
    bool open_loop = false;
    std::vector<double> setup_s;
    std::vector<RequestRecord> records;
    /** Request k's spec (pure function of the run seed and k). */
    std::function<RequestSpec(int)> spec;
    /** E0 per instance index, filled for the checked subset. */
    std::map<int, double> e0;
    HostMonitor host;
    double peak_rss_mb = 0.0;
    std::vector<double> lag_ms;

    engine::TemplateCache::Stats cache_delta;
    double resident_mb = 0.0;
    /** Fused lookups / hits seen by the tenants (serve: remote included). */
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t binds = 0;

    // SolveService / net / checkpoint counters (serve-remote).
    std::vector<double> queue_ms;
    std::vector<double> occupancy;
    long long leaves_remote = 0;
    long long leaves_all = 0;
    long long remote_bytes = 0;
    long long redispatched = 0;
    std::vector<double> encode_ms;
    std::vector<double> checkpoint_bytes;
    int durable_requests = 0;
    engine::SolveService::Stats service_stats;

    // Traced run only.
    std::unique_ptr<SpanRecorder> spans;
    std::vector<LeafTiming> leaf_timings;
    std::vector<WaveTiming> wave_timings;
    std::vector<RequestStages> replays;

    std::vector<std::string> failures;

    void fail(const std::string& what) { failures.push_back(what); }
};

engine::TemplateCache::Stats
stats_delta(const engine::TemplateCache::Stats& a,
            const engine::TemplateCache::Stats& b)
{
    engine::TemplateCache::Stats d = b;
    d.lookups -= a.lookups;
    d.hits -= a.hits;
    d.compiles -= a.compiles;
    d.evictions -= a.evictions;
    d.sim_lookups -= a.sim_lookups;
    d.sim_hits -= a.sim_hits;
    d.sim_fusions -= a.sim_fusions;
    d.sim_evictions -= a.sim_evictions;
    d.family_lookups -= a.family_lookups;
    d.family_hits -= a.family_hits;
    d.family_structural_compiles -= a.family_structural_compiles;
    d.family_binds -= a.family_binds;
    d.family_evictions -= a.family_evictions;
    return d;
}

double
resident_mb(const engine::TemplateCache::Stats& s)
{
    return static_cast<double>(s.structure_bytes + s.bind_bytes +
                               s.template_bytes) /
           (1024.0 * 1024.0);
}

// --------------------------------------------------------- closed loops --

/**
 * The closed loop: one caller, next request only after the previous one
 * returned; a probe between requests; stops issuing at the deadline.
 * With @p timing set (traced run), each request gets a span that parents
 * its waves.
 */
void
closed_loop(Run& run, engine::ExecutionEngine& eng, const device::Device& dev,
            TimingLeafExecutor* timing)
{
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(run.opts.seconds));
    const auto cache0 = eng.template_cache().stats();
    run.host.start();
    // A closed-loop request is due when the previous one returned; the
    // generator's lag is the probe and the instance generation after it.
    auto due = Clock::now();
    for (int k = 0; Clock::now() < deadline; ++k) {
        run.host.probe();
        const RequestSpec spec = run.spec(k);
        RequestRecord rec;
        rec.index = k;
        rec.instance = spec.instance;
        int span = -1;
        if (timing) {
            span = run.spans->open("request", -1, k);
            timing->set_parent_span(span);
            timing->map_request(spec.seed, k);
        }
        const auto t0 = Clock::now();
        run.lag_ms.push_back(ms_between(due, t0));
        try {
            SampledSolve solved =
                eng.solve(spec.model, dev, spec.config, run.shots, spec.seed);
            due = Clock::now();
            rec.latency_ms = ms_between(t0, due);
            if (run.opts.tamper && k == 0)
                solved.best_cost += 1.0;
            record_result(rec, spec.model, solved);
            rec.waves = eng.last_diagnostics().epochs;
            rec.reranks = eng.last_diagnostics().reranks;
        } catch (const std::exception& e) {
            due = Clock::now();
            rec.latency_ms = std::numeric_limits<double>::infinity();
            rec.failed = true;
            run.fail("request " + std::to_string(k) + " failed: " + e.what());
        }
        if (timing)
            run.spans->close(span);
        run.records.push_back(std::move(rec));
    }
    run.host.stop();
    const auto cache1 = eng.template_cache().stats();
    run.cache_delta = stats_delta(cache0, cache1);
    run.resident_mb = resident_mb(cache1);
    run.lookups = run.cache_delta.sim_lookups;
    run.hits = run.cache_delta.sim_hits;
    run.binds = run.cache_delta.family_binds;
}

/** Re-solve the first requests without the timing decorator: the traced
 *  real path must be bit-identical to the untraced one. */
void
check_untraced(Run& run, engine::ExecutionEngine& eng,
               const device::Device& dev, int count)
{
    eng.set_leaf_executor(nullptr);
    for (int k = 0; k < count && k < static_cast<int>(run.records.size());
         ++k) {
        const auto& rec = run.records[static_cast<std::size_t>(k)];
        if (rec.failed)
            continue;
        const RequestSpec spec = run.spec(k);
        const auto solved =
            eng.solve(spec.model, dev, spec.config, run.shots, spec.seed);
        if (result_digest(solved) != rec.digest)
            run.fail("request " + std::to_string(k) +
                     ": traced result differs from the untraced solve");
    }
}

/** Replay the first requests stage by stage (after warming the
 *  replayer's cache like the set-up warmed the engine's). */
void
replay_requests(Run& run, const device::Device& dev,
                const std::vector<RequestSpec>& warmup, int count)
{
    Replayer replayer;
    for (const auto& spec : warmup)
        replayer.replay(spec.model, dev, spec.config, run.shots, spec.seed, -1,
                        nullptr, nullptr);
    for (int k = 0; k < count && k < static_cast<int>(run.records.size());
         ++k) {
        const auto& rec = run.records[static_cast<std::size_t>(k)];
        if (rec.failed)
            continue;
        const RequestSpec spec = run.spec(k);
        RequestStages stages;
        const auto solved =
            replayer.replay(spec.model, dev, spec.config, run.shots,
                            spec.seed, k, &stages, run.spans.get());
        if (result_digest(solved) != rec.digest)
            run.fail("request " + std::to_string(k) +
                     ": stage replay differs from the engine's result");
        run.replays.push_back(std::move(stages));
    }
}

/**
 * A closed-loop workload: set up @p setups times (a 2-thread engine plus
 * the warm-up solves of @p warmup), run the timed loop on the last
 * set-up, then — traced runs only — check the traced results against an
 * untraced re-solve and replay the first requests stage by stage.
 */
void
run_closed_loop_workload(
    Run& run, const device::Device& dev, int setups,
    const std::function<std::vector<RequestSpec>(int)>& warmup)
{
    std::unique_ptr<engine::ExecutionEngine> eng;
    for (int rep = 0; rep < setups; ++rep) {
        eng.reset();
        const auto specs = warmup(rep);
        const auto t0 = Clock::now();
        eng = std::make_unique<engine::ExecutionEngine>(kEngineThreads);
        for (const auto& spec : specs)
            (void)eng->solve(spec.model, dev, spec.config, run.shots,
                             spec.seed);
        run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }

    std::unique_ptr<TimingLeafExecutor> timing;
    if (run.opts.trace) {
        timing = std::make_unique<TimingLeafExecutor>(
            eng->local_leaf_executor(), *run.spans, false);
        eng->set_leaf_executor(timing.get());
    }
    closed_loop(run, *eng, dev, timing.get());
    run.peak_rss_mb = peak_rss_mb();
    if (timing) {
        run.leaf_timings = timing->leaves();
        run.wave_timings = timing->waves();
        check_untraced(run, *eng, dev, 2);
        replay_requests(run, dev, warmup(setups - 1), run.opts.tiny ? 2 : 4);
    }
}

// ------------------------------------------------------------ workloads --

/** A fresh solve-cold request: instance and request seed from @p key. */
RequestSpec
cold_spec(int n, const DriverConfig& config, std::uint64_t key, int index)
{
    RequestSpec spec;
    spec.model = ba3_instance(n, key);
    spec.config = config;
    spec.seed = combine_seeds(key, 1);
    spec.instance = index;
    return spec;
}

void
run_solve_cold(Run& run, const device::Device& dev)
{
    if (!run.opts.tiny)
        run.quality_requests = 32; // fresh instances: average more of them
    const int n = run.opts.tiny ? 12 : 22;
    DriverConfig config;
    config.num_freeze = 3;
    run.spec = [&run, n, config](int k) {
        return cold_spec(n, config,
                         derive_seed(run.opts.seed, "cold-request",
                                     static_cast<std::uint64_t>(k)),
                         k);
    };
    // Every set-up starts a new engine and warms it with one cold solve of
    // the same fixed instance, so the set-ups do equal work; a cold set-up
    // is short, so take the median of more of them.
    const RequestSpec warm_up = cold_spec(n, config, kPoolSeed, 0);
    run_closed_loop_workload(
        run, dev, run.opts.tiny ? 1 : 5,
        [warm_up](int) { return std::vector<RequestSpec>{warm_up}; });

    // E0 for the checked subset, outside the timed window.
    const int checked = std::min<int>(run.quality_requests,
                                      static_cast<int>(run.records.size()));
    for (int k = 0; k < checked; ++k)
        run.e0[k] = ising::solve_exact(run.spec(k).model).min_cost;
}

DriverConfig
warm_config(bool budgeted)
{
    DriverConfig config;
    config.max_depth = 2;
    config.num_freeze = 2;
    config.max_circuits = budgeted ? 6 : 0;
    config.rerank_interval = budgeted ? 2 : 0;
    return config;
}

void
run_solve_warm_deep(Run& run, const device::Device& dev)
{
    const int n = run.opts.tiny ? 12 : 22;
    const int pool_size = run.opts.tiny ? 2 : 8;
    auto pool = std::make_shared<std::vector<ising::IsingModel>>();
    for (int i = 0; i < pool_size; ++i)
        pool->push_back(ba3_instance(
            n, derive_seed(kPoolSeed, "warm-instance",
                           static_cast<std::uint64_t>(i))));
    run.spec = [&run, pool](int k) {
        RequestSpec spec;
        spec.instance = k % static_cast<int>(pool->size());
        spec.model = (*pool)[static_cast<std::size_t>(spec.instance)];
        spec.config = warm_config(true);
        spec.seed = derive_seed(run.opts.seed, "warm-request",
                                static_cast<std::uint64_t>(k));
        return spec;
    };
    // Set-up warms EVERY leaf a request can schedule: an unbudgeted pass
    // runs all eight leaves of each pool instance (the tree, and so each
    // leaf's model, does not depend on the request seed).
    const auto warmup = [&run, pool](int) {
        std::vector<RequestSpec> specs;
        for (std::size_t i = 0; i < pool->size(); ++i) {
            RequestSpec spec;
            spec.model = (*pool)[i];
            spec.config = warm_config(false);
            spec.seed = derive_seed(run.opts.seed, "warm-setup", i);
            spec.instance = static_cast<int>(i);
            specs.push_back(std::move(spec));
        }
        return specs;
    };
    run_closed_loop_workload(run, dev, run.opts.tiny ? 1 : 3, warmup);
    for (std::size_t i = 0; i < pool->size(); ++i)
        run.e0[static_cast<int>(i)] = ising::solve_exact((*pool)[i]).min_cost;
}

/**
 * The serve-remote deployment: two loopback WorkerServers, a 1-thread
 * coordinator engine with a WorkerPool behind its executor seam, and a
 * SolveService on top. Members are declared in construction order and
 * torn down in reverse by the destructor.
 */
class ServeStack
{
  public:
    ServeStack(const std::string& socket_prefix, bool traced,
               SpanRecorder* spans)
    {
        net::WorkerServer::Options wopts;
        wopts.threads = 1;
        for (int k = 0; k < 2; ++k) {
            addresses_.push_back("unix:" + socket_prefix + "-w" +
                                 std::to_string(k) + ".sock");
            servers_.push_back(std::make_unique<net::WorkerServer>(
                addresses_.back(), wopts));
            servers_.back()->start();
        }
        engine_ = std::make_unique<engine::ExecutionEngine>(1);
        engine::LeafExecutor* local_arm = &engine_->local_leaf_executor();
        if (traced) {
            // The pool's local arm reports to the timing decorator, which
            // in turn wraps the pool: bind the marker once both exist.
            marker_ = std::make_unique<LocalArmMarker>(*local_arm);
            local_arm = marker_.get();
        }
        pool_ = std::make_unique<net::WorkerPool>(
            *local_arm, engine_->num_threads(), addresses_);
        if (traced) {
            timing_ = std::make_unique<TimingLeafExecutor>(*pool_, *spans,
                                                           true);
            marker_->report_to(timing_.get());
        }
        engine_->set_leaf_executor(pool_.get());
        service_ = std::make_unique<engine::SolveService>(*engine_);
    }

    ~ServeStack()
    {
        service_.reset(); // drains
        engine_->set_leaf_executor(nullptr);
        pool_.reset();
        for (auto& server : servers_)
            server->stop();
        for (const auto& address : addresses_)
            std::remove(address.substr(5).c_str());
    }

    ServeStack(const ServeStack&) = delete;
    ServeStack& operator=(const ServeStack&) = delete;

    engine::SolveService& service() { return *service_; }
    engine::ExecutionEngine& engine() { return *engine_; }
    TimingLeafExecutor* timing() { return timing_.get(); }

    /** Route the engine's waves through the timing decorator. */
    void install_timing() { engine_->set_leaf_executor(timing_.get()); }

  private:
    std::vector<std::string> addresses_;
    std::vector<std::unique_ptr<net::WorkerServer>> servers_;
    std::unique_ptr<engine::ExecutionEngine> engine_;
    std::unique_ptr<LocalArmMarker> marker_;
    std::unique_ptr<net::WorkerPool> pool_;
    std::unique_ptr<TimingLeafExecutor> timing_;
    std::unique_ptr<engine::SolveService> service_;
};

DriverConfig
serve_config(bool durable)
{
    DriverConfig config;
    config.num_freeze = 3;
    if (durable)
        config.checkpoint_interval = 2;
    return config;
}

/** Offered load of the open loop, requests/s: about a third of the
 *  measured capacity of the serve-remote stack on the reference host. */
constexpr double kServeRate = 5.0;

void
run_serve_remote(Run& run, const device::Device& dev)
{
    run.open_loop = true;
    run.local_threads = 1;
    if (!run.opts.tiny)
        run.quality_requests = 18; // each pool instance twice
    const std::vector<int> sizes =
        run.opts.tiny ? std::vector<int>{10, 12} : std::vector<int>{16, 18, 20};
    const int per_size = run.opts.tiny ? 1 : 3;
    auto pool = std::make_shared<std::vector<ising::IsingModel>>();
    for (int s = 0; s < per_size; ++s)
        for (const int n : sizes)
            pool->push_back(ba3_instance(
                n, derive_seed(kPoolSeed, "serve-instance",
                               static_cast<std::uint64_t>(pool->size()))));
    run.spec = [&run, pool](int k) {
        RequestSpec spec;
        spec.instance = k % static_cast<int>(pool->size());
        spec.model = (*pool)[static_cast<std::size_t>(spec.instance)];
        spec.durable = k % 2 == 1;
        spec.config = serve_config(spec.durable);
        spec.seed = derive_seed(run.opts.seed, "serve-request",
                                static_cast<std::uint64_t>(k));
        return spec;
    };

    const std::string prefix = run.opts.out_dir + "/serve-" +
                               std::to_string(::getpid());
    // Warm-up: every pool instance once concurrently, then once alone in
    // each of the window's two request shapes (plain, and checkpointed,
    // whose boundary splits the leaves into two waves). The pool assigns
    // a wave's leaves to arms by position, so this leaves the coordinator
    // and both workers holding the leaves their requests will get.
    const auto warm = [&](engine::SolveService& service) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < pool->size(); ++i)
            service.submit((*pool)[i], dev, serve_config(false), run.shots,
                           derive_seed(run.opts.seed, "serve-setup", n++));
        service.drain();
        for (const bool durable : {false, true})
            for (std::size_t i = 0; i < pool->size(); ++i) {
                engine::SolveService::CheckpointCallback keep_going;
                if (durable)
                    keep_going = [](std::uint64_t,
                                    const engine::SolveCheckpoint&) {
                        return true;
                    };
                service.submit((*pool)[i], dev, serve_config(durable),
                               run.shots,
                               derive_seed(run.opts.seed, "serve-setup", n++),
                               nullptr, keep_going);
                service.drain();
            }
    };

    const int setups = run.opts.tiny ? 1 : 3;
    std::unique_ptr<ServeStack> stack;
    for (int rep = 0; rep < setups; ++rep) {
        stack.reset();
        const auto t0 = Clock::now();
        stack = std::make_unique<ServeStack>(
            prefix + "-" + std::to_string(rep), run.opts.trace,
            run.spans.get());
        warm(stack->service());
        run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    if (run.opts.trace)
        stack->install_timing();

    // ---------------------------------------------------- open loop --
    const double rate = run.opts.tiny ? 4.0 : kServeRate;
    const int total =
        std::max(1, static_cast<int>(std::floor(run.opts.seconds * rate)));
    std::vector<engine::SolveService::Ticket> tickets(
        static_cast<std::size_t>(total));
    std::vector<Clock::time_point> due(static_cast<std::size_t>(total));
    std::mutex done_mutex;
    std::vector<Clock::time_point> done_at(static_cast<std::size_t>(total));
    std::vector<char> done(static_cast<std::size_t>(total), 0);
    std::mutex checkpoint_mutex;
    run.records.resize(static_cast<std::size_t>(total));
    engine::SolveService& service = stack->service();

    // Results are collected on the generator thread as they complete (the
    // caller's own work between arrivals), so finished futures never pile
    // up their histograms in memory.
    int collected = 0;
    const auto collect = [&](int k) {
        auto& rec = run.records[static_cast<std::size_t>(k)];
        if (rec.failed)
            return; // refused at submit
        auto& ticket = tickets[static_cast<std::size_t>(k)];
        try {
            SampledSolve solved = ticket.get();
            if (run.opts.tamper && k == 0)
                solved.best_cost += 1.0;
            {
                std::lock_guard<std::mutex> g(done_mutex);
                rec.latency_ms = ms_between(due[static_cast<std::size_t>(k)],
                                            done_at[static_cast<std::size_t>(k)]);
            }
            record_result(rec, run.spec(k).model, solved);
            const auto diag = service.diagnostics(ticket.id());
            rec.waves = diag.waves;
            rec.reranks = diag.reranks;
            run.queue_ms.push_back(diag.queue_latency_ms);
            run.occupancy.push_back(diag.wave_occupancy);
            run.leaves_remote += diag.leaves_remote;
            run.leaves_all += diag.leaves_executed;
            run.remote_bytes +=
                diag.remote_bytes_sent + diag.remote_bytes_received;
            run.redispatched += diag.leaves_redispatched;
            run.lookups += diag.fused_lookups;
            run.hits += diag.fused_hits;
            run.binds += diag.family_binds;
            run.durable_requests += rec.durable ? 1 : 0;
        } catch (const std::exception& e) {
            rec.failed = true;
            rec.latency_ms = std::numeric_limits<double>::infinity();
            run.fail("request " + std::to_string(k) + " failed: " + e.what());
        }
    };
    const auto collect_finished = [&](int issued) {
        while (collected < issued) {
            if (!run.records[static_cast<std::size_t>(collected)].failed) {
                std::lock_guard<std::mutex> g(done_mutex);
                if (!done[static_cast<std::size_t>(collected)])
                    return;
            }
            collect(collected++);
        }
    };

    const auto cache0 = stack->engine().template_cache().stats();
    run.host.start();
    const auto start = Clock::now();
    for (int k = 0; k < total; ++k) {
        // One arrival per 1/rate slot: no Poisson jitter between runs.
        const auto slot = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(k / rate));
        due[static_cast<std::size_t>(k)] = slot;
        collect_finished(k);
        // Probe in the idle tail of the gap, after the previous request
        // has normally completed, so it neither competes with a request
        // nor delays the next arrival.
        const auto probe_at =
            slot - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(0.3 / rate));
        if (k > 0 && Clock::now() < probe_at) {
            std::this_thread::sleep_until(probe_at);
            run.host.probe();
        }
        std::this_thread::sleep_until(slot);

        const RequestSpec spec = run.spec(k);
        auto& rec = run.records[static_cast<std::size_t>(k)];
        rec.index = k;
        rec.instance = spec.instance;
        rec.durable = spec.durable;
        if (auto* timing = stack->timing())
            timing->map_request(spec.seed, k);
        run.lag_ms.push_back(ms_between(slot, Clock::now()));
        engine::SolveService::CheckpointCallback on_checkpoint;
        if (spec.durable)
            on_checkpoint = [&](std::uint64_t,
                                const engine::SolveCheckpoint& snapshot) {
                const auto t0 = Clock::now();
                const auto bytes = engine::encode_checkpoint(snapshot);
                const double ms = ms_between(t0, Clock::now());
                std::lock_guard<std::mutex> g(checkpoint_mutex);
                run.encode_ms.push_back(ms);
                run.checkpoint_bytes.push_back(
                    static_cast<double>(bytes.size()));
                return true;
            };
        try {
            tickets[static_cast<std::size_t>(k)] = service.submit(
                spec.model, dev, spec.config, run.shots, spec.seed,
                [&done, &done_at, &done_mutex, k](std::uint64_t,
                                                  const SampledSolve&) {
                    std::lock_guard<std::mutex> g(done_mutex);
                    done_at[static_cast<std::size_t>(k)] = Clock::now();
                    done[static_cast<std::size_t>(k)] = 1;
                },
                on_checkpoint);
        } catch (const std::exception& e) {
            rec.failed = true;
            rec.latency_ms = std::numeric_limits<double>::infinity();
            run.fail("request " + std::to_string(k) + " refused: " + e.what());
        }
    }
    service.drain();
    run.host.stop();
    for (int k = collected; k < total; ++k)
        collect(k);
    run.peak_rss_mb = peak_rss_mb();
    run.service_stats = service.stats();
    const auto cache1 = stack->engine().template_cache().stats();
    run.cache_delta = stats_delta(cache0, cache1);
    run.resident_mb = resident_mb(cache1);

    if (auto* timing = stack->timing()) {
        run.leaf_timings = timing->leaves();
        run.wave_timings = timing->waves();
    }
    stack.reset();

    // Distributed determinism: a solo local solve of the same
    // (model, config, seed) must reproduce the served result bit for bit.
    {
        engine::ExecutionEngine solo(kEngineThreads);
        const int count = run.opts.tiny ? 2 : 3;
        for (int k = 0; k < count && k < total; ++k) {
            const auto& rec = run.records[static_cast<std::size_t>(k)];
            if (rec.failed)
                continue;
            const RequestSpec spec = run.spec(k);
            const auto solved =
                solo.solve(spec.model, dev, spec.config, run.shots, spec.seed);
            if (result_digest(solved) != rec.digest)
                run.fail("request " + std::to_string(k) +
                         ": served result differs from a solo local solve");
        }
    }
    if (run.opts.trace) {
        std::vector<RequestSpec> warmup;
        for (std::size_t i = 0; i < pool->size(); ++i) {
            RequestSpec spec;
            spec.model = (*pool)[i];
            spec.config = serve_config(false);
            spec.seed = derive_seed(run.opts.seed, "serve-setup", i);
            warmup.push_back(std::move(spec));
        }
        replay_requests(run, dev, warmup, run.opts.tiny ? 2 : 6);
    }
    for (std::size_t i = 0; i < pool->size(); ++i)
        run.e0[static_cast<int>(i)] = ising::solve_exact((*pool)[i]).min_cost;
}

// ------------------------------------------------------------- report --

/** Calibrated cost of the real-path instrumentation: the timing
 *  decorator's hooks and spans over a no-op executor, per leaf. */
double
instrumentation_ms_per_leaf()
{
    struct Noop final : engine::LeafExecutor
    {
        int execute_wave(const std::vector<engine::WaveSlot>& wave,
                         const engine::WaveHooks& hooks) override
        {
            for (const auto& slot : wave) {
                if (hooks.admit && !hooks.admit(slot))
                    continue;
                if (hooks.folded)
                    hooks.folded(slot, true, engine::TemplateTier::Hit);
            }
            return static_cast<int>(wave.size());
        }
    };
    engine::WaveRequest request; // never dereferenced beyond its seed
    std::vector<engine::WaveSlot> wave;
    for (int leaf = 0; leaf < 4; ++leaf)
        wave.push_back({&request, leaf});

    Noop noop;
    SpanRecorder spans;
    TimingLeafExecutor timing(noop, spans, false);
    const int rounds = 2000;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        timing.execute_wave(wave);
    const double timed = ms_between(t0, Clock::now());
    const auto t1 = Clock::now();
    for (int r = 0; r < rounds; ++r)
        noop.execute_wave(wave, {});
    const double bare = ms_between(t1, Clock::now());
    return std::max(0.0, timed - bare) /
           static_cast<double>(rounds * static_cast<int>(wave.size()));
}

void
print_histogram(std::ostream& out, const std::map<int, long long>& hist)
{
    out << "{";
    bool first = true;
    for (const auto& [width, count] : hist) {
        out << (first ? "" : ", ") << width << ": " << count;
        first = false;
    }
    out << "}";
}

RunOutcome
report(Run& run)
{
    RunOutcome out;
    std::ostream& log = std::cout;
    const auto& recs = run.records;

    // ---------------------------------------------------------- gate --
    int cost_checks = 0, e0_checks = 0;
    std::vector<double> latencies, gaps, ratios;
    long long completed = 0;
    for (const auto& rec : recs) {
        latencies.push_back(rec.latency_ms);
        ++out.attempted;
        if (rec.failed) {
            ++out.failed;
            continue;
        }
        ++completed;
        ++cost_checks;
        if (!rec.cost_consistent)
            run.fail("request " + std::to_string(rec.index) +
                     ": best_cost != model.evaluate(best_assignment)");
        const auto e0 = run.e0.find(rec.instance);
        if (e0 == run.e0.end())
            continue;
        ++e0_checks;
        if (rec.best_quantum_cost < e0->second - kCostTolerance)
            run.fail("request " + std::to_string(rec.index) +
                     ": best_quantum_cost below the exact ground energy");
    }
    // Quality over a fixed, seed-determined subset: the first requests.
    for (const auto& rec : recs) {
        const auto e0 = run.e0.find(rec.instance);
        if (rec.index >= run.quality_requests || rec.failed ||
            e0 == run.e0.end())
            continue;
        ratios.push_back(rec.best_quantum_cost / e0->second);
        gaps.push_back(100.0 * (rec.best_quantum_cost - e0->second) /
                       std::abs(e0->second));
    }
    out.correct = run.failures.empty();

    // --------------------------------------------------- work shape --
    std::map<int, long long> widths;
    int min_leaves = std::numeric_limits<int>::max(), max_leaves = 0;
    for (const auto& rec : recs) {
        if (rec.failed)
            continue;
        min_leaves = std::min(min_leaves, rec.leaves);
        max_leaves = std::max(max_leaves, rec.leaves);
        for (const int w : rec.widths)
            ++widths[w];
    }
    if (completed == 0)
        min_leaves = 0;
    const double hit_share =
        run.lookups == 0 ? 0.0
                         : static_cast<double>(run.hits) /
                               static_cast<double>(run.lookups);

    // ----------------------------------------------------- end to end --
    const Percentiles lat = summarize(latencies);
    const double window_s = run.host.window_s();
    const double cpu_per_solve =
        completed == 0 ? 0.0
                       : (run.host.cpu_ms() - run.host.probe_cpu_ms()) /
                             static_cast<double>(completed);
    const double setup = median(run.setup_s);
    const double gap = mean(gaps);
    const double ratio_mean = mean(ratios);

    log.setf(std::ios::fixed);
    log.precision(3);
    log << "setup_s: " << setup << " s (median of " << run.setup_s.size()
        << " set-ups:";
    for (const double s : run.setup_s)
        log << " " << s;
    log << ")\n";
    log << "latency_ms.p50: " << lat.p50 << " ms (" << lat.count
        << " samples, " << lat.beyond_p50 << " beyond)\n";
    log << "latency_ms.p90: " << lat.p90 << " ms (" << lat.count
        << " samples, " << lat.beyond_p90 << " beyond)\n";
    if (!run.open_loop)
        log << "throughput_rps: "
            << (window_s > 0 ? static_cast<double>(completed) / window_s : 0.0)
            << " 1/s (" << completed << " solves in " << window_s << " s)\n";
    log << "cpu_ms_per_solve: " << cpu_per_solve << " ms (" << completed
        << " solves)\n";
    log << "quality.gap_pct: " << gap << " % (mean over the first "
        << gaps.size() << " requests; E0 from ising::solve_exact)\n";
    log << "quality.approx_ratio: " << ratio_mean
        << " ratio (best_quantum_cost / E0, same requests)\n";
    if (run.opts.workload != "solve-cold")
        log << "peak_rss_mb: " << run.peak_rss_mb << " MB\n";
    if (run.open_loop) {
        const Percentiles lag = summarize(run.lag_ms);
        log << "loadgen.lag_ms.p90: " << lag.p90 << " ms (" << lag.count
            << " arrivals)\n";
        const auto& st = run.service_stats;
        log << "engine.solve_service: " << st.requests_completed
            << " completed, " << st.requests_failed << " failed, "
            << st.waves_executed << " waves, " << st.wave_slots
            << " slots, mean_pool_fill " << st.mean_pool_fill
            << " (slots / waves x coordinator threads; set-up included)\n";
    }
    log << "work-shape: leaves/request min " << min_leaves << " max "
        << max_leaves << "; leaf widths ";
    print_histogram(log, widths);
    log << "; engine.template_cache.hit_share " << hit_share << " ("
        << run.hits << " hits / " << run.lookups << " lookups)\n";
    log << "host: probe_ms " << run.host.probe_ms() << " ms ("
        << run.host.probes() << " probes), steal_pct "
        << run.host.steal_pct() << " %, involuntary_switches_per_s "
        << run.host.involuntary_switches_per_s() << " 1/s\n";
    log << "gate: " << (out.correct ? "ok" : "FAILED") << " (" << cost_checks
        << " best_cost checks, " << e0_checks << " E0 checks)\n";
    for (const auto& failure : run.failures)
        log << "gate failure: " << failure << "\n";
    // Machine-readable work shape for the benchmark's own tests.
    log << "detail {\"min_leaves\": " << min_leaves
        << ", \"max_leaves\": " << max_leaves << ", \"widths\": "
        << widths.size() << ", \"hit_share\": " << hit_share
        << ", \"lookups\": " << run.lookups << ", \"completed\": " << completed
        << "}\n";

    if (!run.opts.trace) {
        out.metrics = {
            {"setup_s", setup, "s"},
            {"latency_ms.p50", lat.p50, "ms"},
            {"latency_ms.p90", lat.p90, "ms"},
            {"cpu_ms_per_solve", cpu_per_solve, "ms"},
            {"quality.approx_ratio", ratio_mean, "ratio"},
        };
        return out;
    }

    // ------------------------------------------------------ per layer --
    std::vector<double> build, schedule, reranks_ms, finish, optimize, evals,
        materialize, kernel, sample, fold;
    double kernel_bytes = 0.0, kernel_ms_total = 0.0, replay_wall = 0.0;
    for (const auto& st : run.replays) {
        build.push_back(st.build_ms);
        schedule.push_back(st.schedule_ms);
        finish.push_back(st.finish_ms);
        replay_wall += st.wall_ms;
        for (const auto& leaf : st.leaves) {
            optimize.push_back(leaf.optimize_ms);
            evals.push_back(leaf.evaluations);
            materialize.push_back(leaf.materialize_ms);
            kernel.push_back(leaf.kernel_ms);
            sample.push_back(leaf.sample_ms);
            fold.push_back(leaf.fold_ms);
            kernel_bytes += leaf.kernel_bytes;
            kernel_ms_total += leaf.kernel_ms;
        }
    }
    std::vector<double> per_request_leaves, per_request_waves,
        per_request_reranks;
    for (const auto& rec : recs)
        if (!rec.failed) {
            per_request_leaves.push_back(rec.leaves);
            per_request_waves.push_back(rec.waves);
            per_request_reranks.push_back(rec.reranks);
        }
    std::vector<double> wave_ms;
    double capacity_ms = 0.0, busy_ms = 0.0;
    for (const auto& wave : run.wave_timings) {
        wave_ms.push_back(wave.ms);
        capacity_ms += run.local_threads * wave.ms;
        busy_ms += wave.local_busy_ms;
    }
    std::vector<double> rtt;
    for (const auto& leaf : run.leaf_timings)
        if (!leaf.local)
            rtt.push_back(leaf.ms);

    // Unattributed: replay time outside every named stage span.
    const auto spans = run.spans->spans();
    const auto self = SpanRecorder::self_times(spans);
    double unattributed = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        if (name == "replay.request" || name == "replay.leaf")
            unattributed += self[i];
    }
    double request_ms = 0.0;
    for (const auto& rec : recs)
        if (!rec.failed)
            request_ms += rec.latency_ms;
    const double overhead_pct =
        request_ms > 0.0 ? 100.0 * instrumentation_ms_per_leaf() *
                               static_cast<double>(run.leaf_timings.size()) /
                               request_ms
                         : 0.0;
    const Percentiles queue = summarize(run.queue_ms);
    const Percentiles lag = summarize(run.lag_ms);
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    const std::string span_path = run.opts.out_dir + "/" +
                                  run.opts.workload + "-seed" +
                                  std::to_string(run.opts.seed) + ".spans";
    if (!run.spans->write(span_path))
        throw Error("cannot write " + span_path);
    log << "trace: " << spans.size() << " spans written to " << span_path
        << " (self time included)\n";

    out.metrics = {
        {"engine.solve_tree.build_ms", median(build), "ms"},
        {"engine.solve_tree.leaves", mean(per_request_leaves), "count"},
        {"engine.scheduler.schedule_ms", median(schedule), "ms"},
        {"engine.scheduler.reranks", mean(per_request_reranks), "count"},
        {"engine.template_cache.materialize_ms", median(materialize), "ms"},
        {"engine.template_cache.hit_share", hit_share, "ratio"},
        {"engine.template_cache.lookups", static_cast<double>(run.lookups),
         "count"},
        {"engine.template_cache.binds", static_cast<double>(run.binds),
         "count"},
        {"engine.template_cache.structural_compiles",
         static_cast<double>(run.cache_delta.family_structural_compiles),
         "count"},
        {"engine.template_cache.evictions",
         static_cast<double>(run.cache_delta.sim_evictions +
                             run.cache_delta.family_evictions),
         "count"},
        {"engine.template_cache.resident_mb", run.resident_mb, "MB"},
        {"qaoa.optimize_ms", median(optimize), "ms"},
        {"qaoa.evaluations", mean(evals), "count"},
        {"sim.kernel_ms", median(kernel), "ms"},
        {"sim.sample_ms", median(sample), "ms"},
        {"sim.kernel_gbps_computed", ratio(kernel_bytes, kernel_ms_total) / 1e6,
         "GB/s"},
        {"engine.reducer.fold_ms", median(fold), "ms"},
        {"engine.reducer.finish_ms", median(finish), "ms"},
        {"engine.wave_loop.waves", mean(per_request_waves), "count"},
        {"engine.wave_loop.wave_ms", median(wave_ms), "ms"},
        {"engine.wave_loop.barrier_idle_share",
         ratio(capacity_ms - busy_ms, capacity_ms), "ratio"},
        {"engine.solve_service.wave_occupancy", mean(run.occupancy), "ratio"},
        {"engine.checkpoint.bytes", mean(run.checkpoint_bytes), "B"},
        {"engine.checkpoint.snapshots",
         ratio(static_cast<double>(run.encode_ms.size()),
               run.durable_requests),
         "count"},
        {"net.remote_leaf_share",
         ratio(static_cast<double>(run.leaves_remote),
               static_cast<double>(run.leaves_all)),
         "ratio"},
        {"net.leaves", static_cast<double>(run.leaves_all), "count"},
        {"net.bytes_per_leaf",
         ratio(static_cast<double>(run.remote_bytes),
               static_cast<double>(run.leaves_remote)),
         "B"},
        {"net.redispatched", static_cast<double>(run.redispatched), "count"},
        {"loadgen.lag_ms.p90", lag.p90, "ms"},
        {"host.probe_ms", run.host.probe_ms(), "ms"},
        {"host.steal_pct", run.host.steal_pct(), "%"},
        {"host.involuntary_switches_per_s",
         run.host.involuntary_switches_per_s(), "1/s"},
        {"trace.overhead_pct", overhead_pct, "%"},
        {"trace.unattributed_pct", 100.0 * ratio(unattributed, replay_wall),
         "%"},
        {"trace.replayed_requests", static_cast<double>(run.replays.size()),
         "count"},
    };
    // Times of layers only serve-remote exercises: printed, not in the
    // result, whose metric set is the same for every workload (a time that
    // reads 0 on every closed-loop run measures nothing).
    std::vector<Metric> printed = out.metrics;
    if (run.open_loop)
        printed.insert(printed.end(),
                       {{"engine.solve_service.queue_ms.p50", queue.p50, "ms"},
                        {"engine.solve_service.queue_ms.p90", queue.p90, "ms"},
                        {"engine.checkpoint.encode_ms", median(run.encode_ms),
                         "ms"},
                        {"net.leaf_rtt_ms", median(rtt), "ms"}});
    for (const auto& m : printed)
        log << m.name << ": " << m.value << " " << m.unit << "\n";
    return out;
}

} // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {
        "solve-cold", "solve-warm-deep", "serve-remote"};
    return names;
}

RunOutcome
run_workload(const Options& opts)
{
    Run run;
    run.opts = opts;
    if (opts.tiny) {
        run.shots = 500;
        run.quality_requests = 2;
    }
    if (opts.trace)
        run.spans = std::make_unique<SpanRecorder>();
    const auto dev = device::make_device(kDevice);

    std::cout << "solvebench workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << opts.seconds
              << " trace=" << (opts.trace ? 1 : 0)
              << (opts.tiny ? " tiny" : "") << " host_threads="
              << std::thread::hardware_concurrency() << "\n";
    if (opts.workload == "solve-cold")
        run_solve_cold(run, dev);
    else if (opts.workload == "solve-warm-deep")
        run_solve_warm_deep(run, dev);
    else if (opts.workload == "serve-remote")
        run_serve_remote(run, dev);
    else
        throw Error("unknown workload '" + opts.workload + "'");
    return report(run);
}

} // namespace solvebench
