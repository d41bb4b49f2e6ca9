#include "engine/solve_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"

namespace fq::engine {

namespace {

/** Retained completed-request diagnostics: enough for any caller that
 *  polls diagnostics() after drain(), bounded so a process-lifetime
 *  service never grows without limit (oldest entries are dropped FIFO). */
constexpr std::size_t kMaxCompletedDiagnostics = 4096;

/** Wave-slot cost units still ahead of @p wave's cursor — the request's
 *  contribution to the deadline backlog projection. */
long long
remaining_cost(const WaveRequest& wave)
{
    long long total = 0;
    for (std::size_t k = wave.dispatched;
         k < wave.schedule->executed.size(); ++k)
        total += leaf_slot_cost(*wave.tree, wave.schedule->executed[k]);
    return total;
}

} // namespace

SolveService::SolveService(ExecutionEngine& engine)
    : SolveService(engine, Config{})
{
}

void
SolveService::admit_or_throw_locked() const
{
    // "In flight" covers requests still being reduced/delivered
    // (finishing_) as well as queued/executing ones — the Config promise.
    const std::size_t in_flight = active_.size() + finishing_;
    if (in_flight >= static_cast<std::size_t>(max_queue_depth_))
        throw AdmissionError("SolveService queue full (" +
                             std::to_string(in_flight) + " of " +
                             std::to_string(max_queue_depth_) +
                             " in flight)");
}

SolveService::SolveService(ExecutionEngine& engine, Config config)
    : engine_(engine),
      // Auto default: two pool widths, floored at 8 — waves never WAIT to
      // fill (assembly takes only what is pending), so a deeper cap costs
      // no latency; it only cuts per-wave handoff overhead on narrow
      // engines.
      wave_size_(config.wave_size > 0
                     ? config.wave_size
                     : std::max(8, 2 * engine.num_threads())),
      max_queue_depth_(config.max_queue_depth)
{
    hooks_.admit = [](const WaveSlot& slot) {
        Request& r = request_of(*slot.request);
        if (r.failed.load(std::memory_order_acquire))
            return false;
        if (!r.started.exchange(true, std::memory_order_acq_rel)) {
            std::lock_guard<std::mutex> g(r.error_mutex);
            r.first_exec = Clock::now();
        }
        return true;
    };
    hooks_.folded = &RequestPlan::on_folded;
    hooks_.failed = [](const WaveSlot& slot, std::exception_ptr error) {
        Request& r = request_of(*slot.request);
        std::lock_guard<std::mutex> g(r.error_mutex);
        if (!r.failed.load(std::memory_order_relaxed)) {
            r.error = std::move(error);
            r.failed.store(true, std::memory_order_release);
        }
    };
    assembler_ = std::thread([this] { assembler_loop(); });
}

SolveService::~SolveService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    assembler_.join();
}

void
SolveService::deadline_or_throw_locked(long long deadline,
                                       long long own_cost)
{
    // Serial projection: the assembler round-robins fairly, but charging
    // the FULL pending cost of every active tenant ahead of this request
    // is the conservative bound the admission contract promises — a
    // request admitted here can only finish sooner than projected.
    long long backlog = 0;
    for (const auto& request : active_)
        backlog +=
            request->pending_cost.load(std::memory_order_acquire);
    if (backlog + own_cost > deadline) {
        ++stats_.requests_rejected_deadline;
        throw DeadlineError(
            "deadline of " + std::to_string(deadline) +
            " cost units cannot cover the backlog (" +
            std::to_string(backlog) + " units ahead) plus this request's " +
            "schedule (" + std::to_string(own_cost) + " units)");
    }
}

SolveService::Ticket
SolveService::submit(const ising::IsingModel& model,
                     const device::Device& dev,
                     const frozenqubits::DriverConfig& config, int shots,
                     std::uint64_t seed, CompletionCallback on_complete,
                     CheckpointCallback on_checkpoint)
{
    return submit_request(model, dev, config, shots, seed,
                          /*restore_from=*/nullptr, std::move(on_complete),
                          std::move(on_checkpoint));
}

SolveService::Ticket
SolveService::submit_resume(const ising::IsingModel& model,
                            const device::Device& dev,
                            const frozenqubits::DriverConfig& config,
                            int shots, const SolveCheckpoint& snapshot,
                            CompletionCallback on_complete,
                            CheckpointCallback on_checkpoint)
{
    // Replan from the SNAPSHOT's seed; the restore fingerprint-checks that
    // this reproduces the plan the snapshot's cursor indexes into.
    return submit_request(model, dev, config, shots, snapshot.seed,
                          &snapshot, std::move(on_complete),
                          std::move(on_checkpoint));
}

SolveService::Ticket
SolveService::submit_request(const ising::IsingModel& model,
                             const device::Device& dev,
                             const frozenqubits::DriverConfig& config,
                             int shots, std::uint64_t seed,
                             const SolveCheckpoint* restore_from,
                             CompletionCallback on_complete,
                             CheckpointCallback on_checkpoint)
{
    FQ_REQUIRE(shots >= 1, "need at least one shot");

    // Admission pre-check before the expensive planning below; the
    // authoritative (race-free) check repeats at enqueue time.
    if (max_queue_depth_ > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        admit_or_throw_locked();
    }

    auto request = std::make_unique<Request>();
    request->model = model; // stable copies: the plan and the wave items
    request->dev = dev;     // reference the request's own storage
    request->config = config;
    request->on_complete = std::move(on_complete);
    request->on_checkpoint = std::move(on_checkpoint);

    // A durable request's sink runs on the assembler thread and contains
    // callback throws — the header contract says they must not, so a
    // violation is treated as "continue", mirroring CompletionCallback. A
    // false return suspends the request; the completion scan then
    // finishes it as a degraded anytime result.
    CheckpointSink sink;
    if (request->on_checkpoint)
        sink = [r = request.get()](const SolveCheckpoint& snapshot) {
            try {
                return r->on_checkpoint(r->id, snapshot);
            } catch (...) {
                return true;
            }
        };

    // Plan on the CALLING thread — the same step as a solo
    // ExecutionEngine::solve, so the schedule (and therefore every leaf's
    // plan-derived RNG stream) is bit-identical to a standalone run.
    // Concurrent submitters contend only on the shared template cache,
    // which compiles outside its lock. Scoring runs serially here: per-leaf
    // scores are a pure function of the leaf, so they — and the schedule —
    // match the engine's executor-parallel scoring exactly. A deadline
    // that covers no leaf at all is a typed rejection, counted like the
    // backlog-projection rejections at enqueue.
    Rng rng(seed);
    try {
        request->plan.emplace(request->model, request->dev, request->config,
                              shots, engine_.cache_, rng, seed, restore_from,
                              std::move(sink));
    } catch (const DeadlineError&) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests_rejected_deadline;
        throw;
    }
    request->plan->owner = request.get();
    request->pending_cost.store(remaining_cost(request->plan->wave),
                                std::memory_order_relaxed);

    request->submitted = Clock::now();
    Ticket ticket;
    ticket.future_ = request->promise.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FQ_REQUIRE(!stopping_, "submit on a stopping SolveService");
        if (max_queue_depth_ > 0)
            admit_or_throw_locked();
        // A resumed request gets the queue-depth check only: it was
        // already admitted against its deadline once — re-projecting the
        // backlog here could bounce it between shards forever.
        if (!restore_from && request->config.deadline_cost_units > 0)
            deadline_or_throw_locked(
                request->config.deadline_cost_units,
                request->pending_cost.load(std::memory_order_relaxed));
        request->id = next_id_++;
        ticket.id_ = request->id;
        ++stats_.requests_submitted;
        active_.push_back(std::move(request));
    }
    work_available_.notify_all();
    return ticket;
}

std::vector<SolveService::Request*>
SolveService::live_locked() const
{
    std::vector<Request*> live;
    live.reserve(active_.size());
    for (const auto& request : active_)
        if (!request->failed.load(std::memory_order_acquire))
            live.push_back(request.get());
    return live;
}

SolveService::Outcome
SolveService::reduce_request(Request& request)
{
    Outcome out;
    RequestPlan& plan = *request.plan;
    if (request.failed.load(std::memory_order_acquire)) {
        out.error = request.error;
    } else {
        try {
            out.solved = plan.reducer.finish();
        } catch (...) {
            // A reduction failure poisons only this request — an escaped
            // exception on the assembler thread would std::terminate the
            // whole service and every co-tenant.
            request.failed.store(true, std::memory_order_release);
            out.error = std::current_exception();
        }
    }

    plan.record_plan(out.diag);
    plan.record_execution(out.diag, engine_.leaf_executor(),
                          request.submitted);
    out.diag.request_id = request.id;
    out.diag.wave_occupancy =
        out.diag.waves == 0
            ? 0.0
            : request.occupancy_sum / static_cast<double>(out.diag.waves);
    if (request.started.load(std::memory_order_acquire))
        out.diag.queue_latency_ms =
            std::chrono::duration<double, std::milli>(request.first_exec -
                                                      request.submitted)
                .count();
    return out;
}

void
SolveService::deliver(Request& request, Outcome& outcome)
{
    if (outcome.error) {
        request.promise.set_exception(outcome.error);
        return;
    }
    if (request.on_complete) {
        try {
            request.on_complete(request.id, outcome.solved);
        } catch (...) {
            // Callbacks must not throw (header contract); a violation is
            // contained so the result below is still delivered and the
            // assembler survives.
        }
    }
    request.promise.set_value(std::move(outcome.solved));
}

void
SolveService::assembler_loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_available_.wait(
            lock, [&] { return stopping_ || !active_.empty(); });
        if (active_.empty()) {
            if (stopping_)
                return; // drained: every submitted request completed
            continue;
        }

        // One epoch over the live tenants — the step a solo solve runs
        // with a single tenant: assemble the shared wave under the lock
        // (fair round-robin, wave_share self-caps, cost weighting,
        // boundary caps), execute it without, then each live request's
        // post-barrier step.
        std::vector<Request*> live = live_locked();
        std::vector<WaveRequest*> tenants;
        for (Request* request : live)
            tenants.push_back(&request->plan->wave);
        std::vector<int> taken;
        std::vector<WaveSlot> wave;
        if (!tenants.empty())
            wave = assemble_wave(tenants, wave_size_, rotate_++, &taken);
        for (std::size_t t = 0; t < taken.size(); ++t) {
            if (taken[t] == 0)
                continue;
            live[t]->occupancy_sum += static_cast<double>(taken[t]) /
                                      static_cast<double>(wave.size());
            // The dispatch cursor just advanced; keep the deadline backlog
            // projection submit() reads in step with it.
            live[t]->pending_cost.store(remaining_cost(*tenants[t]),
                                        std::memory_order_release);
        }
        lock.unlock();
        int executed = 0;
        // Through the engine's executor seam: the local BatchExecutor by
        // default, a net::WorkerPool when one is attached.
        if (!wave.empty())
            executed = engine_.leaf_executor().execute_wave(wave, hooks_);
        lock.lock();
        if (!wave.empty()) {
            ++stats_.waves_executed;
            stats_.wave_slots += static_cast<std::uint64_t>(executed);
        }

        // Post-barrier scan, part 1 — after the wave barrier every
        // dispatched leaf has folded, so each request still live runs its
        // post-barrier step: a re-rank at a due boundary, a snapshot at a
        // due checkpoint. The re-score is CPU-heavy and the snapshot
        // copies every folded histogram, so both run WITHOUT the service
        // lock: they touch only per-request state the assembler alone
        // mutates, requests are heap-pinned in active_ until this same
        // iteration's completion scan, and no leaves are in flight.
        live = live_locked();
        lock.unlock();
        for (Request* request : live) {
            request->plan->post_barrier();
            // Re-ranks and suspensions rewrite the schedule tail; refresh
            // the deadline backlog projection to match.
            request->pending_cost.store(remaining_cost(request->plan->wave),
                                        std::memory_order_release);
        }
        lock.lock();

        // Post-barrier scan, part 2 — completion is a pure cursor check
        // against the (possibly just re-cut) schedule.
        std::vector<std::unique_ptr<Request>> finished;
        for (auto it = active_.begin(); it != active_.end();) {
            Request& r = **it;
            const bool done = r.failed.load(std::memory_order_acquire) ||
                              r.plan->folded() ==
                                  r.plan->schedule.executed.size();
            if (done) {
                finished.push_back(std::move(*it));
                it = active_.erase(it);
            } else {
                ++it;
            }
        }
        finishing_ += finished.size();
        lock.unlock();

        // Reduce without the lock (CPU-heavy for flat trees), then publish
        // diagnostics + counters BEFORE delivering promises/callbacks, so
        // a completion callback can read its own diagnostics() and
        // stats(). Callbacks run without the lock; drain() from a callback
        // is the one documented deadlock.
        std::vector<Outcome> outcomes;
        outcomes.reserve(finished.size());
        for (auto& request : finished)
            outcomes.push_back(reduce_request(*request));

        lock.lock();
        for (std::size_t k = 0; k < finished.size(); ++k) {
            completed_[finished[k]->id] = outcomes[k].diag;
            completed_order_.push_back(finished[k]->id);
            while (completed_order_.size() > kMaxCompletedDiagnostics) {
                completed_.erase(completed_order_.front());
                completed_order_.pop_front();
            }
            if (outcomes[k].error)
                ++stats_.requests_failed;
            else
                ++stats_.requests_completed;
        }
        lock.unlock();

        for (std::size_t k = 0; k < finished.size(); ++k)
            deliver(*finished[k], outcomes[k]);

        lock.lock();
        finishing_ -= finished.size();
        request_done_.notify_all();
    }
}

void
SolveService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    request_done_.wait(
        lock, [&] { return active_.empty() && finishing_ == 0; });
}

SolveService::TenantDiagnostics
SolveService::diagnostics(std::uint64_t request_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = completed_.find(request_id);
    FQ_REQUIRE(it != completed_.end(),
               "diagnostics are only available for completed requests");
    return it->second;
}

SolveService::Stats
SolveService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    const double denom = static_cast<double>(out.waves_executed) *
                         static_cast<double>(engine_.num_threads());
    out.mean_pool_fill =
        denom == 0.0 ? 0.0 : static_cast<double>(out.wave_slots) / denom;
    return out;
}

} // namespace fq::engine
