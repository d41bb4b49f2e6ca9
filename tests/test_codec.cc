/**
 * @file
 * Golden bytes for every format that crosses a process boundary: the
 * eight wire messages, one frame around a message, and one checkpoint in
 * both format versions. A round-trip test cannot see a change made to an
 * encoder and its decoder together; these compare whole byte vectors
 * against literals written by the codec at kProtocolVersion 1 and
 * kCheckpointFormatVersion 2. A failure here means the bytes on the wire
 * or on disk changed, which needs a version bump, not a new literal.
 *
 * Each literal is also decoded and re-encoded, so the decoders are pinned
 * to the same bytes as the encoders.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/checkpoint.h"
#include "engine/expander.h"
#include "net/frame.h"
#include "net/wire.h"

namespace {

using namespace fq;

std::string
hex(const std::vector<std::uint8_t>& bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(2 * bytes.size());
    for (const std::uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

std::vector<std::uint8_t>
unhex(const std::string& text)
{
    std::vector<std::uint8_t> out;
    for (std::size_t k = 0; k + 1 < text.size(); k += 2)
        out.push_back(static_cast<std::uint8_t>(
            std::stoul(text.substr(k, 2), nullptr, 16)));
    return out;
}

/** A quiet NaN with a non-canonical payload: the codecs must carry its
 *  bits, not just "some NaN". */
double
nan_with_payload()
{
    const std::uint64_t bits = 0x7FF80000DEADBEEFull;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

net::OpenSession
golden_open_session()
{
    net::OpenSession msg;
    msg.session_id = 0x0102030405060708ull;
    msg.model = ising::IsingModel(3);
    msg.model.set_linear(0, -0.0);
    msg.model.set_linear(1, nan_with_payload());
    msg.model.set_linear(2, 1.5);
    msg.model.add_quadratic(0, 1, -1.0);
    msg.model.add_quadratic(1, 2, 0.25);
    msg.model.set_offset(-3.5);
    msg.device_name = "ibm-montreal";
    auto& c = msg.config;
    c.num_freeze = 3;
    c.policy = frozenqubits::HotspotPolicy::WeightedDegree;
    c.symmetry_pruning = false;
    c.use_template_editing = false;
    c.fuse_simulation = false;
    c.parametric_templates = false;
    c.backend = sim::BackendSelection::Simd;
    c.compile.layout = transpiler::LayoutStrategy::DegreeGreedy;
    c.compile.router.lookahead = 9;
    c.compile.router.lookahead_weight = -0.0;
    c.compile.router.decay = 0.125;
    c.compile.router.seed = 0xABCDEF;
    c.compile.run_optimization_passes = false;
    c.compile.decompose_swaps = false;
    c.p1_grid_resolution = 17;
    c.seed = 99;
    c.max_depth = 2;
    c.max_circuits = 12345678901ll;
    c.partition_width = 8;
    c.prune_dominated = true;
    c.rerank_interval = 3;
    c.deadline_cost_units = -1;
    c.sparsify_keep = 0.5;
    msg.seed = 1234;
    msg.shots = 2048;
    msg.model_hash = 0xAABBCCDDEEFF0011ull;
    msg.config_hash = 0x2233445566778899ull;
    msg.plan_hash = 0x0F1E2D3C4B5A6978ull;
    return msg;
}

net::LeafCounts
golden_leaf_counts()
{
    net::LeafCounts msg;
    msg.session_id = 9;
    msg.leaf_id = 5;
    msg.fused_hit = 1;
    msg.tier = 2;
    msg.width = 11;
    msg.histogram = {{0, 3}, {0x400, 250}, {0x7FF, 3}};
    return msg;
}

engine::SolveCheckpoint
golden_checkpoint(double incumbent_cost)
{
    engine::SolveCheckpoint ck;
    ck.model_hash = 0x1111111111111111ull;
    ck.config_hash = 0x2222222222222222ull;
    ck.plan_hash = 0x3333333333333333ull;
    ck.device_name = "ibm-toronto";
    ck.seed = 7;
    ck.shots = 256;
    ck.cursor = 2;
    ck.next_rerank = 4;
    ck.epochs = 1;
    ck.executed = {3, 1, 0};
    ck.beyond_budget = {2};
    ck.pruned = {4};
    ck.reranks = 1;
    ck.rerank_pruned = 2;
    ck.rerank_promoted = 3;
    ck.rerank_demoted = 4;
    ck.deadline_trimmed = 5;
    const std::uint8_t freeze =
        engine::node_kind_info(engine::NodeKind::Freeze).frame_tag;
    ck.folded.push_back({3, 4, {{1, 200}, {15, 56}}, freeze});
    ck.folded.push_back({1, 4, {{0, 256}}, freeze});
    ck.incumbent_valid = true;
    ck.incumbent_cost = incumbent_cost;
    ck.incumbent_leaf = 3;
    ck.incumbent_assignment = {1, -1, -1, 1};
    return ck;
}

// ------------------------------------------------------- wire messages --

TEST(GoldenBytes, WorkerHello)
{
    const std::string golden = "0100000006000000";
    EXPECT_EQ(hex(net::encode_worker_hello({net::kProtocolVersion, 6})),
              golden);
    EXPECT_EQ(hex(net::encode_worker_hello(
                  net::decode_worker_hello(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, OpenSession)
{
    const std::string golden =
        "010000000807060504030201030000000000000000000080efbeadde0000"
        "f87f000000000000f83f0200000000000000000000000100000000000000"
        "0000f0bf0100000002000000000000000000d03f0000000000000cc00c00"
        "00000000000069626d2d6d6f6e747265616c030000000100000000000000"
        "0201000000090000000000000000000080000000000000c03fefcdab0000"
        "000000000011000000630000000000000002000000351cdcdf0200000008"
        "000000010300000000000000ffffffffffffffff000000000000e03fd204"
        "000000000000000800001100ffeeddccbbaa998877665544332278695a4b"
        "3c2d1e0f";
    EXPECT_EQ(hex(net::encode_open_session(golden_open_session())), golden);
    EXPECT_EQ(hex(net::encode_open_session(
                  net::decode_open_session(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, SessionReady)
{
    const std::string golden = "887766554433221104000000";
    EXPECT_EQ(hex(net::encode_session_ready({0x1122334455667788ull, 4})),
              golden);
    EXPECT_EQ(hex(net::encode_session_ready(
                  net::decode_session_ready(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, ExecBatch)
{
    const std::string golden =
        "090000000000000004000000000000000000000005000000ffffffff7011"
        "0100";
    EXPECT_EQ(hex(net::encode_exec_batch({9, {0, 5, -1, 70000}})), golden);
    EXPECT_EQ(hex(net::encode_exec_batch(
                  net::decode_exec_batch(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, LeafCounts)
{
    const std::string golden =
        "09000000000000000500000001020b000000030000000000000000000000"
        "0000000003000000000000000004000000000000fa00000000000000ff07"
        "0000000000000300000000000000";
    EXPECT_EQ(hex(net::encode_leaf_counts(golden_leaf_counts())), golden);
    EXPECT_EQ(hex(net::encode_leaf_counts(
                  net::decode_leaf_counts(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, LeafFailed)
{
    const std::string golden =
        "0900000000000000050000000400000000000000626f6f6d";
    EXPECT_EQ(hex(net::encode_leaf_failed({9, 5, "boom"})), golden);
    EXPECT_EQ(hex(net::encode_leaf_failed(
                  net::decode_leaf_failed(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, CloseSession)
{
    const std::string golden = "0900000000000000";
    EXPECT_EQ(hex(net::encode_close_session({9})), golden);
    EXPECT_EQ(hex(net::encode_close_session(
                  net::decode_close_session(unhex(golden)))),
              golden);
}

TEST(GoldenBytes, WireError)
{
    const std::string golden =
        "0900000000000000140000000000000066696e6765727072696e74206d69"
        "736d61746368";
    EXPECT_EQ(hex(net::encode_wire_error({9, "fingerprint mismatch"})),
              golden);
    EXPECT_EQ(hex(net::encode_wire_error(
                  net::decode_wire_error(unhex(golden)))),
              golden);
}

// --------------------------------------------------------------- frame --

TEST(GoldenBytes, FrameAroundLeafCounts)
{
    const std::string golden =
        "46514e57040000004a000000000000001b490d7709000000000000000500"
        "000001020b00000003000000000000000000000000000000030000000000"
        "00000004000000000000fa00000000000000ff0700000000000003000000"
        "00000000";
    EXPECT_EQ(hex(net::encode_frame(
                  net::kMsgLeafCounts,
                  net::encode_leaf_counts(golden_leaf_counts()))),
              golden);
}

// ---------------------------------------------------------- checkpoint --

void
expect_checkpoint_golden(const engine::SolveCheckpoint& ck,
                         std::uint32_t version, const std::string& golden)
{
    EXPECT_EQ(hex(engine::encode_checkpoint(ck, version)), golden);
    const auto bytes = unhex(golden);
    EXPECT_EQ(hex(engine::encode_checkpoint(
                  engine::decode_checkpoint(bytes.data(), bytes.size()),
                  version)),
              golden);
}

TEST(GoldenBytes, CheckpointVersionOne)
{
    expect_checkpoint_golden(golden_checkpoint(nan_with_payload()), 1,
        "5146434b01000000dc000000000000001a79a6ff11111111111111112222"
        "22222222222233333333333333330b00000069626d2d746f726f6e746f07"
        "000000000000000001000002000000000000000400000000000000010000"
        "000300000003000000010000000000000001000000020000000100000004"
        "000000010000000200000003000000040000000500000002000000030000"
        "0004000000020000000100000000000000c8000000000000000f00000000"
        "000000380000000000000001000000040000000100000000000000000000"
        "00000100000000000001efbeadde0000f87f030000000400000001ffff01");
}

TEST(GoldenBytes, CheckpointVersionTwo)
{
    expect_checkpoint_golden(golden_checkpoint(nan_with_payload()), 2,
        "5146434b02000000de00000000000000e4e3623711111111111111112222"
        "22222222222233333333333333330b00000069626d2d746f726f6e746f07"
        "000000000000000001000002000000000000000400000000000000010000"
        "000300000003000000010000000000000001000000020000000100000004"
        "000000010000000200000003000000040000000500000002000000030000"
        "000400000001020000000100000000000000c8000000000000000f000000"
        "000000003800000000000000010000000400000001010000000000000000"
        "000000000100000000000001efbeadde0000f87f030000000400000001ff"
        "ff01");
    expect_checkpoint_golden(golden_checkpoint(-0.0), 2,
        "5146434b02000000de00000000000000b63030e211111111111111112222"
        "22222222222233333333333333330b00000069626d2d746f726f6e746f07"
        "000000000000000001000002000000000000000400000000000000010000"
        "000300000003000000010000000000000001000000020000000100000004"
        "000000010000000200000003000000040000000500000002000000030000"
        "000400000001020000000100000000000000c8000000000000000f000000"
        "000000003800000000000000010000000400000001010000000000000000"
        "0000000001000000000000010000000000000080030000000400000001ff"
        "ff01");
}

} // namespace
