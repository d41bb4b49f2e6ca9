#include "trace.h"

#include <algorithm>
#include <fstream>
#include <memory>

#include "engine/reducer.h"
#include "engine/scheduler.h"
#include "engine/solve_tree.h"
#include "qaoa/analytic_p1.h"
#include "qaoa/qaoa_builder.h"
#include "sim/backend.h"
#include "sim/noise_model.h"
#include "sim/qaoa_kernel.h"
#include "sim/statevector.h"
#include "transpiler/pipeline.h"

namespace solvebench {

using namespace fq;

// ------------------------------------------------------------ SpanRecorder --

int
SpanRecorder::open(const char* name, int parent, int request)
{
    const double now = since_origin(Clock::now());
    std::lock_guard<std::mutex> g(mutex_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::close(int id)
{
    const double now = since_origin(Clock::now());
    std::lock_guard<std::mutex> g(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ms = now;
}

int
SpanRecorder::add(const char* name, Clock::time_point start,
                  Clock::time_point end, int parent, int request)
{
    const Span span{name, since_origin(start), since_origin(end), parent,
                    request};
    std::lock_guard<std::mutex> g(mutex_);
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return spans_;
}

std::vector<double>
SpanRecorder::self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const auto& span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.start_ms, span.end_ms});
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_ms, hi = spans[i].end_ms;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent:
        // parallel leaves of one wave overlap.
        double covered = 0.0, cursor = lo;
        for (const auto& [a, b] : kids) {
            const double from = std::max(a, cursor), to = std::min(b, hi);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

bool
SpanRecorder::write(const std::string& path) const
{
    const auto all = spans();
    const auto self = self_times(all);
    std::ofstream out(path);
    for (std::size_t i = 0; i < all.size(); ++i)
        out << "{\"id\":" << i << ",\"name\":\"" << all[i].name
            << "\",\"request\":" << all[i].request
            << ",\"parent\":" << all[i].parent
            << ",\"start_ms\":" << all[i].start_ms
            << ",\"end_ms\":" << all[i].end_ms
            << ",\"self_ms\":" << self[i] << "}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------ TimingLeafExecutor --

TimingLeafExecutor::TimingLeafExecutor(engine::LeafExecutor& inner,
                                       SpanRecorder& spans,
                                       bool remote_capable)
    : inner_(inner), spans_(spans), remote_capable_(remote_capable)
{
}

void
TimingLeafExecutor::map_request(std::uint64_t seed, int request)
{
    std::lock_guard<std::mutex> g(mutex_);
    request_ids_[seed] = request;
}

int
TimingLeafExecutor::request_of(const engine::WaveSlot& slot) const
{
    const auto it = request_ids_.find(slot.request->seed);
    return it == request_ids_.end() ? -1 : it->second;
}

void
TimingLeafExecutor::mark_local(const engine::WaveSlot& slot)
{
    std::lock_guard<std::mutex> g(mutex_);
    local_.insert({slot.request, slot.leaf_id});
}

int
TimingLeafExecutor::execute_wave(const std::vector<engine::WaveSlot>& wave,
                                 const engine::WaveHooks& hooks)
{
    const auto wave_start = Clock::now();
    {
        std::lock_guard<std::mutex> g(mutex_);
        started_.clear();
        local_.clear();
        wave_local_busy_ms_ = 0.0;
        // A wave of one solo request belongs to it; a shared service wave
        // belongs to none.
        int request = -1;
        for (const auto& slot : wave) {
            const int r = request_of(slot);
            request = (&slot == &wave.front() || r == request) ? r : -1;
        }
        wave_span_ = spans_.open("engine.wave_loop.wave", parent_span_,
                                 request);
    }

    engine::WaveHooks timed;
    timed.admit = [&](const engine::WaveSlot& slot) {
        if (hooks.admit && !hooks.admit(slot))
            return false;
        const auto now = Clock::now();
        std::lock_guard<std::mutex> g(mutex_);
        started_[{slot.request, slot.leaf_id}] = now;
        return true;
    };
    timed.folded = [&](const engine::WaveSlot& slot, bool fused_hit,
                       engine::TemplateTier tier) {
        const auto now = Clock::now();
        {
            std::lock_guard<std::mutex> g(mutex_);
            const Key key{slot.request, slot.leaf_id};
            const auto start = started_.at(key);
            const bool local = !remote_capable_ || local_.count(key) > 0;
            const double ms = ms_between(start, now);
            leaves_.push_back({ms, local});
            if (local)
                wave_local_busy_ms_ += ms;
            spans_.add(local ? "engine.leaf" : "net.remote_leaf", start, now,
                       wave_span_, request_of(slot));
        }
        if (hooks.folded)
            hooks.folded(slot, fused_hit, tier);
    };
    // Unset `failed` keeps the caller's semantics: the throw propagates.
    timed.failed = hooks.failed;

    const int executed = inner_.execute_wave(wave, timed);

    std::lock_guard<std::mutex> g(mutex_);
    spans_.close(wave_span_);
    waves_.push_back({ms_between(wave_start, Clock::now()),
                      wave_local_busy_ms_});
    return executed;
}

std::vector<LeafTiming>
TimingLeafExecutor::leaves() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return leaves_;
}

std::vector<WaveTiming>
TimingLeafExecutor::waves() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return waves_;
}

int
LocalArmMarker::execute_wave(const std::vector<engine::WaveSlot>& wave,
                             const engine::WaveHooks& hooks)
{
    if (!timing_)
        return inner_.execute_wave(wave, hooks);
    engine::WaveHooks marked = hooks;
    marked.admit = [&](const engine::WaveSlot& slot) {
        if (hooks.admit && !hooks.admit(slot))
            return false;
        timing_->mark_local(slot);
        return true;
    };
    return inner_.execute_wave(wave, marked);
}

// ---------------------------------------------------------------- Replayer --

frozenqubits::SampledSolve
Replayer::replay(const ising::IsingModel& model, const device::Device& dev,
                 const frozenqubits::DriverConfig& config, int shots,
                 std::uint64_t seed, int request, RequestStages* stages,
                 SpanRecorder* spans)
{
    RequestStages local_stages;
    RequestStages& st = stages ? *stages : local_stages;
    st = RequestStages{};
    const auto request_start = Clock::now();
    const int request_span =
        spans ? spans->open("replay.request", -1, request) : -1;
    // Time one call into the library and record it as a child span.
    const auto stage = [&](const char* name, int parent, auto&& call) {
        const auto t0 = Clock::now();
        call();
        const auto t1 = Clock::now();
        if (spans)
            spans->add(name, t0, t1, parent, request);
        return ms_between(t0, t1);
    };

    // The engine's plan: tree, schedule, deadline trim (a no-op here).
    Rng rng(seed);
    engine::SolveTree tree;
    engine::LeafSchedule schedule;
    st.build_ms = stage("engine.solve_tree.build_solve_tree", request_span,
                        [&] {
                            tree = engine::build_solve_tree(model, dev,
                                                            config, cache_,
                                                            rng);
                        });
    st.schedule_ms =
        stage("engine.scheduler.make_schedule", request_span, [&] {
            schedule = engine::make_schedule(model, tree, config);
            engine::apply_deadline_trim(schedule, tree,
                                        config.deadline_cost_units, 0);
        });

    engine::StreamingReducer reducer(model, tree, schedule);
    engine::WaveRequest wave;
    wave.model = &model;
    wave.tree = &tree;
    wave.schedule = &schedule;
    wave.reducer = &reducer;
    wave.dev = &dev;
    wave.config = &config;
    wave.shots = shots;
    wave.seed = seed;
    engine::arm_rerank(wave);

    // run_wave_loop's epochs, serially: every leaf up to the next re-rank
    // boundary, then the post-barrier re-rank.
    while (!wave.done()) {
        const std::size_t limit = wave.dispatch_limit();
        for (; wave.dispatched < limit; ++wave.dispatched) {
            const int leaf_id = schedule.executed[wave.dispatched];
            const auto& leaf = tree.leaves[static_cast<std::size_t>(leaf_id)];
            const auto& sub =
                tree.nodes[static_cast<std::size_t>(leaf.node)].sub;
            LeafStages ls;
            ls.width = sub.model.num_spins();
            const int leaf_span =
                spans ? spans->open("replay.leaf", request_span, request)
                      : -1;

            qaoa::P1OptimizationResult tuned;
            ls.optimize_ms = stage("qaoa.optimize_p1", leaf_span, [&] {
                tuned = qaoa::optimize_p1(leaf.proxy ? *leaf.proxy
                                                     : sub.model,
                                          config.p1_grid_resolution);
            });
            ls.evaluations = tuned.evaluations;

            double survival = 0.0;
            std::vector<double> readout_flip;
            if (leaf.tpl && leaf.tpl_compatible) {
                survival = leaf.tpl->attenuation.global_state_survival();
                readout_flip = leaf.tpl->readout_flip;
            } else {
                stage("transpiler.compile", leaf_span, [&] {
                    const auto compiled = transpiler::compile(
                        qaoa::build_qaoa_circuit(sub.model, leaf.build), dev,
                        config.compile);
                    survival = sim::compute_attenuation(compiled.physical,
                                                        dev.calibration)
                                   .global_state_survival();
                    readout_flip = engine::readout_flip_for(
                        compiled, dev.calibration, sub.model.num_spins());
                });
            }

            const std::vector<double> gammas{tuned.angles.gamma};
            const std::vector<double> betas{tuned.angles.beta};
            if (leaf.fuse) {
                std::shared_ptr<const sim::FusedProgram> program;
                ls.materialize_ms = stage(
                    "engine.template_cache.get_or_fuse", leaf_span, [&] {
                        program = cache_.get_or_fuse(sub.model, leaf.build,
                                                     nullptr,
                                                     leaf.family.get());
                    });
                ls.kernel_ms = stage("sim.fused_program.run", leaf_span, [&] {
                    program->run(gammas, betas, scratch_.statevector,
                                 sim::BackendRegistry::instance().get(
                                     leaf.backend));
                });
                // Computed, not measured: one read and one write of every
                // 16-byte amplitude per diagonal pass and per half mixer
                // qubit (FusedProgram's own cost statement).
                const double passes =
                    program->num_diagonal_ops() +
                    0.5 * program->num_mixer_ops() * ls.width;
                ls.kernel_bytes = 32.0 * passes *
                                  static_cast<double>(1ull << ls.width);
            } else {
                ls.kernel_ms = stage("sim.run_circuit", leaf_span, [&] {
                    const auto bound =
                        qaoa::build_qaoa_circuit(sub.model, leaf.build)
                            .bind(gammas, betas);
                    sim::run_circuit(bound, scratch_.statevector);
                });
            }

            Rng leaf_rng(leaf.rng_seed);
            sim::Counts counts;
            ls.sample_ms = stage("sim.sample_noisy_counts", leaf_span, [&] {
                counts = sim::sample_noisy_counts(scratch_.statevector,
                                                  survival, readout_flip,
                                                  shots, leaf_rng);
            });
            ls.fold_ms = stage("engine.reducer.fold", leaf_span, [&] {
                reducer.fold(leaf_id, std::move(counts));
            });
            if (spans)
                spans->close(leaf_span);
            st.leaves.push_back(ls);
        }
        ++wave.epochs;
        st.schedule_ms += stage("engine.scheduler.rerank", request_span,
                                [&] { engine::post_barrier_rerank(wave); });
    }

    frozenqubits::SampledSolve solved;
    st.finish_ms = stage("engine.reducer.finish", request_span,
                         [&] { solved = reducer.finish(); });
    if (spans)
        spans->close(request_span);
    st.wall_ms = ms_between(request_start, Clock::now());
    return solved;
}

} // namespace solvebench
