/**
 * @file
 * Distributed leaf execution suite: CRC framing defects surface as typed
 * errors, wire codecs round-trip, and — the acceptance bar — solves are
 * BIT-IDENTICAL local vs remote vs mixed, at any thread count, solo or
 * under service co-tenants, including a worker killed mid-wave whose
 * leaves hedge back onto the local arm.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "device/catalog.h"
#include "engine/engine.h"
#include "engine/solve_service.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker.h"
#include "net/worker_pool.h"
#include "solve_test_util.h"

namespace {

using namespace fq;

std::string
unique_address()
{
    static std::atomic<int> counter{0};
    return "unix:/tmp/fq_test_net_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A pipe pair: write_frame/read_frame work on any stream fd. */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        close_write();
        if (fds[0] >= 0)
            ::close(fds[0]);
    }
    void close_write()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
    int r() const { return fds[0]; }
    int w() const { return fds[1]; }
};

void
write_raw(int fd, const std::vector<std::uint8_t>& bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

// ---------------------------------------------------------------- framing

TEST(NetFrame, RoundTripOverPipe)
{
    Pipe p;
    const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
    net::write_frame(p.w(), net::kMsgExecBatch, payload);
    const auto frame = net::read_frame(p.r());
    EXPECT_EQ(frame.type, net::kMsgExecBatch);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(net::frame_wire_size(payload.size()), 20 + payload.size());
}

TEST(NetFrame, RejectsCorruptPayload)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgLeafCounts, {10, 20, 30, 40});
    bytes.back() ^= 0x01; // flip one payload bit: CRC must catch it
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsBadMagic)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgError, {1});
    bytes[0] ^= 0xFF;
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsTruncatedFrame)
{
    Pipe p;
    const auto bytes = net::encode_frame(net::kMsgLeafCounts,
                                         {9, 9, 9, 9, 9, 9, 9, 9});
    const std::vector<std::uint8_t> half(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<long>(
                                                 bytes.size() / 2));
    write_raw(p.w(), half);
    p.close_write(); // EOF mid-frame == peer died
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, RejectsOversizedLength)
{
    Pipe p;
    auto bytes = net::encode_frame(net::kMsgError, {});
    // Length field sits after magic+type; forge it past the cap.
    const std::uint64_t huge = net::kMaxFramePayload + 1;
    for (int i = 0; i < 8; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
    write_raw(p.w(), bytes);
    EXPECT_THROW(net::read_frame(p.r()), net::NetError);
}

TEST(NetFrame, SilenceIsTypedTimeout)
{
    Pipe p; // nothing ever written
    try {
        net::read_frame(p.r(), 50);
        FAIL() << "expected NetTimeout";
    } catch (const net::NetTimeout&) {
    } catch (const net::NetError& e) {
        FAIL() << "plain NetError instead of NetTimeout: " << e.what();
    }
}

// ------------------------------------------------------------------ wire

TEST(NetWire, OpenSessionRoundTrip)
{
    net::OpenSession msg;
    msg.session_id = 42;
    msg.model = test::ba_model(12, 3, 5);
    msg.device_name = "ibm-montreal";
    msg.config.num_freeze = 3;
    msg.config.seed = 1234;
    msg.config.sparsify_keep = 0.5;
    msg.config.max_depth = 2;
    msg.seed = 1234;
    msg.shots = 2048;
    msg.model_hash = 0xAABB;
    msg.config_hash = 0xCCDD;
    msg.plan_hash = 0xEEFF;

    const auto back = net::decode_open_session(
        net::encode_open_session(msg));
    EXPECT_EQ(back.session_id, 42u);
    EXPECT_EQ(back.device_name, "ibm-montreal");
    EXPECT_EQ(back.model.num_spins(), msg.model.num_spins());
    EXPECT_EQ(back.model.quadratic_terms().size(),
              msg.model.quadratic_terms().size());
    EXPECT_EQ(back.config.num_freeze, 3);
    EXPECT_EQ(back.config.seed, 1234u);
    EXPECT_DOUBLE_EQ(back.config.sparsify_keep, 0.5);
    EXPECT_EQ(back.config.max_depth, 2);
    // Execution-local knobs never travel: the worker runs its own.
    EXPECT_EQ(back.config.threads, 1);
    EXPECT_EQ(back.config.checkpoint_interval, 0);
    EXPECT_EQ(back.shots, 2048);
    EXPECT_EQ(back.model_hash, 0xAABBu);
    EXPECT_EQ(back.config_hash, 0xCCDDu);
    EXPECT_EQ(back.plan_hash, 0xEEFFu);
}

TEST(NetWire, LeafCountsRoundTrip)
{
    net::LeafCounts msg;
    msg.session_id = 7;
    msg.leaf_id = 3;
    msg.fused_hit = 1;
    msg.tier = 2;
    msg.width = 5;
    msg.histogram = {{0, 100}, {31, 900}, {uint64_t(1) << 40, 24}};
    const auto back = net::decode_leaf_counts(net::encode_leaf_counts(msg));
    EXPECT_EQ(back.session_id, 7u);
    EXPECT_EQ(back.leaf_id, 3);
    EXPECT_EQ(back.fused_hit, 1);
    EXPECT_EQ(back.tier, 2);
    EXPECT_EQ(back.width, 5);
    EXPECT_EQ(back.histogram, msg.histogram);
}

TEST(NetWire, RejectsTrailingGarbage)
{
    auto payload = net::encode_exec_batch({11, {0, 1, 2}});
    payload.push_back(0x55);
    EXPECT_THROW(net::decode_exec_batch(payload), net::NetError);
}

TEST(NetWire, RejectsTruncatedPayload)
{
    auto payload = net::encode_leaf_failed({3, 1, "boom"});
    payload.resize(payload.size() - 2);
    EXPECT_THROW(net::decode_leaf_failed(payload), net::NetError);
}

TEST(NetWire, InvalidModelTermIsNetError)
{
    // A term naming one spin twice passes every length check; the decoder
    // must refuse it as a wire defect (a plain fq::Error from the model
    // would escape a worker's connection handler).
    net::OpenSession msg;
    msg.model = test::ba_model(6, 2, 3);
    auto payload = net::encode_open_session(msg);
    const int n = msg.model.num_spins();
    // version, session id, spin count, linear terms, term count: then i, j.
    const std::size_t first_i =
        4 + 8 + 4 + 8 * static_cast<std::size_t>(n) + 8;
    std::copy_n(payload.begin() + first_i, 4, payload.begin() + first_i + 4);
    EXPECT_THROW(net::decode_open_session(payload), net::NetError);
}

// ---------------------------------------------------- distributed parity

/** N in-process workers on unique unix sockets. */
struct WorkerFleet
{
    std::vector<std::unique_ptr<net::WorkerServer>> servers;
    std::vector<std::string> addresses;

    explicit WorkerFleet(int n,
                         net::WorkerServer::Options opts =
                             net::WorkerServer::Options())
    {
        for (int i = 0; i < n; ++i)
            listen(unique_address(), opts);
    }
    /** Fresh workers (cold caches) on the given addresses. */
    explicit WorkerFleet(const std::vector<std::string>& at)
    {
        for (const auto& address : at)
            listen(address, net::WorkerServer::Options());
    }
    void listen(const std::string& address,
                const net::WorkerServer::Options& opts)
    {
        addresses.push_back(address);
        servers.push_back(std::make_unique<net::WorkerServer>(address, opts));
        servers.back()->start();
    }
    ~WorkerFleet()
    {
        for (auto& s : servers)
            s->stop();
    }
};

frozenqubits::DriverConfig
small_config(int threads)
{
    frozenqubits::DriverConfig config;
    config.num_freeze = 3; // 8 sub-spaces, 4 executed after mirroring
    config.threads = threads;
    config.seed = 21;
    return config;
}

frozenqubits::SampledSolve
local_solve(const ising::IsingModel& model, const device::Device& dev,
            const frozenqubits::DriverConfig& config, int shots)
{
    engine::ExecutionEngine eng(config.threads);
    return eng.solve(model, dev, config, shots, config.seed);
}

TEST(Distributed, OneWorkerMatchesLocalSerial)
{
    const auto model = test::ba_model(16, 3, 11);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = small_config(1);
    const auto expected = local_solve(model, dev, config, 1024);

    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 1024, config.seed);

    test::expect_solves_identical(expected, got);
    const auto& diag = eng.last_diagnostics();
    EXPECT_GT(diag.leaves_remote, 0);
    EXPECT_EQ(diag.leaves_remote + diag.leaves_local, 4);
    EXPECT_GT(diag.remote_bytes_sent, 0);
    EXPECT_GT(diag.remote_bytes_received, 0);
    long long dispatched = 0;
    for (const auto& [address, leaves] : diag.worker_dispatches) {
        EXPECT_EQ(address, fleet.addresses[0]);
        dispatched += leaves;
    }
    EXPECT_EQ(dispatched, diag.leaves_remote);
}

TEST(Distributed, EqualLoadTiesGoToWorkers)
{
    // One wave of eight equal-width leaves over a 1-thread local arm and
    // two 1-thread workers: the greedy ties on every third leaf, and a tie
    // goes remote (the driving thread also decodes and folds every
    // reply), so the local arm takes 2 leaves, not 3.
    const auto model = test::ba_model(16, 3, 11);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(1);
    config.num_freeze = 4; // 16 sub-spaces, 8 executed 12-qubit leaves
    const auto expected = local_solve(model, dev, config, 1024);

    net::WorkerServer::Options wopts;
    wopts.threads = 1;
    WorkerFleet fleet(2, wopts);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 1024, config.seed);

    test::expect_solves_identical(expected, got);
    const auto& diag = eng.last_diagnostics();
    EXPECT_EQ(diag.epochs, 1);
    EXPECT_EQ(diag.leaves_local, 2);
    EXPECT_EQ(diag.leaves_remote, 6);
}

TEST(Distributed, FourWorkersMatchLocalThreaded)
{
    const auto model = test::ba_model(18, 3, 13);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(4);
    config.num_freeze = 4; // 8 executed leaves: enough to spread around
    const auto expected = local_solve(model, dev, config, 2048);

    net::WorkerServer::Options wopts;
    wopts.threads = 2;
    WorkerFleet fleet(4, wopts);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 2048, config.seed);

    test::expect_solves_identical(expected, got);
    EXPECT_GT(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 4);
    // Consecutive solves on the SAME pool reuse the connections.
    const auto again = eng.solve(model, dev, config, 2048, config.seed);
    test::expect_solves_identical(expected, again);
}

TEST(Distributed, WorkerDeathMidWaveIsInvisible)
{
    const auto model = test::ba_model(16, 3, 17);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(2);
    config.num_freeze = 4;
    const auto expected = local_solve(model, dev, config, 1024);

    // The worker answers ONE leaf then hard-closes mid-batch — the
    // deterministic kill -9. Its unanswered leaves must hedge local.
    net::WorkerServer::Options wopts;
    wopts.die_after_leaves = 1;
    WorkerFleet fleet(1, wopts);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 1024, config.seed);

    test::expect_solves_identical(expected, got);
    const auto& diag = eng.last_diagnostics();
    EXPECT_GT(diag.leaves_redispatched, 0);
    EXPECT_EQ(pool.live_workers(), 0);

    // A dead fleet degrades to pure local — still identical.
    const auto after = eng.solve(model, dev, config, 1024, config.seed);
    test::expect_solves_identical(expected, after);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
}

TEST(Distributed, RngSeededPlanPinsLocal)
{
    // The Rng overload records no replayable seed (request.seed = 0), so
    // the worker's replan diverges, it REJECTS the session, and the pool
    // pins the request local — without killing the worker.
    const auto model = test::ba_model(14, 3, 19);
    const auto dev = device::make_device("ibm-montreal");
    const auto config = small_config(1);

    engine::ExecutionEngine baseline(config.threads);
    Rng rng_a(99);
    const auto expected =
        baseline.solve(model, dev, config, 512, rng_a);

    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    Rng rng_b(99);
    const auto got = eng.solve(model, dev, config, 512, rng_b);

    test::expect_solves_identical(expected, got);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 1);
}

TEST(Distributed, AllowRemoteFalsePinsLocal)
{
    const auto model = test::ba_model(16, 3, 23);
    const auto dev = device::make_device("ibm-montreal");
    auto config = small_config(1);
    config.allow_remote = false;
    const auto expected = local_solve(model, dev, config, 512);

    WorkerFleet fleet(2);
    engine::ExecutionEngine eng(config.threads);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    const auto got = eng.solve(model, dev, config, 512, config.seed);

    test::expect_solves_identical(expected, got);
    EXPECT_EQ(eng.last_diagnostics().leaves_remote, 0);
    EXPECT_EQ(pool.live_workers(), 2);
}

TEST(Distributed, ServiceCoTenantsMixedLocalRemote)
{
    const auto dev = device::make_device("ibm-montreal");
    const auto model_a = test::ba_model(16, 3, 29);
    const auto model_b = test::ba_model(14, 3, 31);
    const auto model_c = test::ba_model(18, 3, 37);

    auto config_a = small_config(2);
    auto config_b = small_config(2);
    config_b.num_freeze = 2;
    config_b.allow_remote = false; // workers=0 tenant
    auto config_c = small_config(2);
    config_c.num_freeze = 4;
    config_a.seed = 41;
    config_b.seed = 43;
    config_c.seed = 47;

    const auto expected_a = local_solve(model_a, dev, config_a, 1024);
    const auto expected_b = local_solve(model_b, dev, config_b, 1024);
    const auto expected_c = local_solve(model_c, dev, config_c, 1024);

    WorkerFleet fleet(2);
    engine::ExecutionEngine eng(2);
    net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                         fleet.addresses);
    eng.set_leaf_executor(&pool);
    engine::SolveService service(eng, {});

    auto ta = service.submit(model_a, dev, config_a, 1024, config_a.seed);
    auto tb = service.submit(model_b, dev, config_b, 1024, config_b.seed);
    auto tc = service.submit(model_c, dev, config_c, 1024, config_c.seed);
    service.drain();

    test::expect_solves_identical(expected_a, ta.get());
    test::expect_solves_identical(expected_b, tb.get());
    test::expect_solves_identical(expected_c, tc.get());

    const auto diag_a = service.diagnostics(ta.id());
    const auto diag_b = service.diagnostics(tb.id());
    const auto diag_c = service.diagnostics(tc.id());
    // The pinned tenant never left the process; the remote-capable ones
    // account every leaf as exactly one of local/remote.
    EXPECT_EQ(diag_b.leaves_remote, 0);
    EXPECT_EQ(diag_a.leaves_remote + diag_a.leaves_local,
              diag_a.leaves_executed);
    EXPECT_EQ(diag_c.leaves_remote + diag_c.leaves_local,
              diag_c.leaves_executed);
    EXPECT_GT(diag_a.leaves_remote + diag_c.leaves_remote, 0);
}

TEST(Distributed, OneRecordWhereverARequestRan)
{
    // The same request solved alone (last_diagnostics) and served as a
    // tenant (diagnostics(id)) reports the same SolveRecord, wall_ms
    // aside — fresh flat, re-ranked depth-2, resumed mid-schedule and
    // spread over two loopback workers. Each side gets a fresh engine
    // and, with workers, a fresh fleet on the same addresses, so every
    // cache tier starts equally cold.
    const auto dev = device::make_device("ibm-montreal");
    struct Case
    {
        const char* name;
        ising::IsingModel model;
        frozenqubits::DriverConfig config;
        int shots = 512;
        const engine::SolveCheckpoint* resume = nullptr;
        std::vector<std::string> workers;
    };
    const auto depth2 = [] {
        auto config = small_config(2);
        config.num_freeze = 2;
        config.max_depth = 2;
        config.max_circuits = 4;
        config.rerank_interval = 2;
        config.seed = 7;
        return config;
    };
    std::vector<Case> cases;
    cases.push_back({"flat", test::ba_model(16, 3, 11), small_config(2)});
    cases.push_back({"depth2-rerank", test::ba_model(16, 2, 5), depth2()});
    std::vector<engine::SolveCheckpoint> snapshots;
    {
        Case c{"resume", test::ba_model(16, 2, 5), depth2()};
        c.config.checkpoint_interval = 1;
        engine::ExecutionEngine eng(1);
        (void)eng.solve(c.model, dev, c.config, c.shots, c.config.seed,
                        [&](const engine::SolveCheckpoint& ck) {
                            snapshots.push_back(ck);
                            return true;
                        });
        ASSERT_GE(snapshots.size(), 2u);
        c.resume = &snapshots[snapshots.size() / 2];
        cases.push_back(c);
    }
    cases.push_back({"workers", test::ba_model(16, 3, 11), small_config(2),
                     512, nullptr,
                     {unique_address(), unique_address()}});

    /** Engine (+ fleet and pool when the case has workers). */
    struct Stack
    {
        std::unique_ptr<WorkerFleet> fleet;
        engine::ExecutionEngine eng{2};
        std::unique_ptr<net::WorkerPool> pool;
        explicit Stack(const std::vector<std::string>& workers)
        {
            if (workers.empty())
                return;
            fleet = std::make_unique<WorkerFleet>(workers);
            pool = std::make_unique<net::WorkerPool>(
                eng.local_leaf_executor(), eng.num_threads(),
                fleet->addresses);
            eng.set_leaf_executor(pool.get());
        }
    };
    const auto solo_record = [&](const Case& c) {
        Stack stack(c.workers);
        if (c.resume)
            (void)stack.eng.resume(c.model, dev, c.config, c.shots,
                                   *c.resume);
        else
            (void)stack.eng.solve(c.model, dev, c.config, c.shots,
                                  c.config.seed);
        return stack.eng.last_diagnostics();
    };
    const auto served_record = [&](const Case& c) {
        Stack stack(c.workers);
        engine::SolveService service(stack.eng);
        auto ticket = c.resume ? service.submit_resume(c.model, dev,
                                                       c.config, c.shots,
                                                       *c.resume)
                               : service.submit(c.model, dev, c.config,
                                                c.shots, c.config.seed);
        (void)ticket.get();
        return service.diagnostics(ticket.id());
    };

    for (const auto& c : cases) {
        SCOPED_TRACE(c.name);
        const auto solo = solo_record(c);
        test::expect_records_equal(solo, served_record(c));
        // A solo solve counts one fused lookup per leaf it executed
        // (every leaf here fuses; restored leaves ran before the resume).
        const int restored = std::max(0, solo.resumed_from);
        EXPECT_EQ(solo.leaves_scalar_backend + solo.leaves_simd_backend,
                  solo.leaves_scheduled);
        EXPECT_GT(solo.fused_lookups, 0u);
        EXPECT_EQ(solo.fused_lookups,
                  static_cast<std::uint64_t>(solo.leaves_executed -
                                             restored));
        EXPECT_LE(solo.fused_hits + solo.family_binds, solo.fused_lookups);
    }
    // Each case exercises what it is named for.
    EXPECT_GT(solo_record(cases[1]).reranks, 0);
    const auto resumed = solo_record(cases[2]);
    EXPECT_GT(resumed.resumed_from, 0);
    EXPECT_LT(resumed.waves, resumed.epochs); // epochs: snapshot's too
    EXPECT_GT(solo_record(cases[3]).leaves_remote, 0);
}

TEST(Distributed, WorkerSurvivesManyShortLivedConnections)
{
    // A long-lived worker serving many short-lived coordinators: each
    // pool connects (hello handshake) and disconnects. Finished
    // connection threads must be reaped as new connections arrive, and
    // the final stop() must join everything without hanging.
    WorkerFleet fleet(1);
    engine::ExecutionEngine eng(1);
    for (int i = 0; i < 8; ++i) {
        net::WorkerPool pool(eng.local_leaf_executor(), eng.num_threads(),
                             fleet.addresses);
        EXPECT_EQ(pool.live_workers(), 1);
    }
}

TEST(Distributed, BadAddressFailsAtStartup)
{
    engine::ExecutionEngine eng(1);
    EXPECT_THROW(net::WorkerPool(eng.local_leaf_executor(),
                                 eng.num_threads(),
                                 {"unix:/tmp/fq_no_such_worker.sock"}),
                 net::NetError);
}

} // namespace
