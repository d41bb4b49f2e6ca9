#include "net/wire.h"

#include "common/byte_codec.h"

namespace fq::net {

namespace {

using Writer = common::ByteWriter<std::uint64_t>;
using Reader = common::ByteReader<std::uint64_t, NetError>;

// Each message lists its fields once, as a generic lambda over a Writer
// or a Reader (common/byte_codec.h); encode() and decode() run that one
// list in opposite directions.

template <class Msg, class Fields>
std::vector<std::uint8_t>
encode(const Msg& msg, Fields fields)
{
    Writer out;
    fields(out, msg);
    return out.take();
}

template <class Msg, class Fields>
Msg
decode(const std::vector<std::uint8_t>& payload, Fields fields)
{
    Reader in(payload.data(), payload.size(), "net: message payload");
    Msg msg;
    fields(in, msg);
    in.finish();
    return msg;
}

void
check_version(std::uint32_t version)
{
    if (version != kProtocolVersion)
        throw NetError("net: peer speaks protocol version " +
                       std::to_string(version) + ", want " +
                       std::to_string(kProtocolVersion));
}

// ------------------------------------------------ model/config codecs --

void
model_fields(Writer& out, const ising::IsingModel& model)
{
    out.i32(model.num_spins());
    for (const double h : model.linear_terms())
        out.f64(h);
    out.list(model.quadratic_terms(), 4 + 4 + 8,
             [](Writer& w, const ising::QuadraticTerm& term) {
                 w.i32(term.i);
                 w.i32(term.j);
                 w.f64(term.coefficient);
             });
    out.f64(model.offset());
}

void
model_fields(Reader& in, ising::IsingModel& model)
{
    const std::int32_t n = in.i32();
    if (n < 0 || n > 1 << 20 ||
        static_cast<std::size_t>(n) > in.remaining() / 8)
        throw NetError("net: implausible model spin count");
    model = ising::IsingModel(n);
    for (std::int32_t i = 0; i < n; ++i)
        model.set_linear(i, in.f64());
    const std::size_t terms = in.count(4 + 4 + 8);
    for (std::size_t k = 0; k < terms; ++k) {
        const std::int32_t i = in.i32();
        const std::int32_t j = in.i32();
        if (i < 0 || j < 0 || i >= n || j >= n || i == j)
            throw NetError("net: model term names an invalid spin pair");
        model.add_quadratic(i, j, in.f64());
    }
    model.set_offset(in.f64());
}

/**
 * Result-relevant config fields: exactly the config_fingerprint set
 * (engine/checkpoint.cc) plus parametric_templates (result-neutral but
 * cache-behavior-relevant). threads / wave_share / checkpoint_interval /
 * allow_remote stay process-local, like the fingerprint excludes them.
 */
const auto config_fields = [](auto& io, auto& c) {
    io.i32(c.num_freeze);
    io.u32(c.policy);
    io.u8(c.symmetry_pruning);
    io.u8(c.use_template_editing);
    io.u8(c.fuse_simulation);
    io.u8(c.parametric_templates);
    io.u8(c.backend);
    io.u32(c.compile.layout);
    io.i32(c.compile.router.lookahead);
    io.f64(c.compile.router.lookahead_weight);
    io.f64(c.compile.router.decay);
    io.u64(c.compile.router.seed);
    io.u8(c.compile.run_optimization_passes);
    io.u8(c.compile.decompose_swaps);
    io.i32(c.p1_grid_resolution);
    io.u64(c.seed);
    io.i32(c.max_depth);
    io.i64(c.max_circuits);
    io.i32(c.partition_width);
    io.u8(c.prune_dominated);
    io.i64(c.rerank_interval);
    io.i64(c.deadline_cost_units);
    io.f64(c.sparsify_keep);
};

// ------------------------------------------------------- message fields --

const auto open_session_fields = [](auto& io, auto& m) {
    std::uint32_t version = kProtocolVersion;
    io.u32(version);
    check_version(version);
    io.u64(m.session_id);
    model_fields(io, m.model);
    io.str(m.device_name);
    config_fields(io, m.config);
    io.u64(m.seed);
    io.i32(m.shots);
    io.u64(m.model_hash);
    io.u64(m.config_hash);
    io.u64(m.plan_hash);
};

const auto session_ready_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
    io.i32(m.threads);
};

const auto exec_batch_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
    io.list(m.leaf_ids, 4, common::i32_item);
};

const auto leaf_counts_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
    io.i32(m.leaf_id);
    io.u8(m.fused_hit);
    io.u8(m.tier);
    io.i32(m.width);
    io.list(m.histogram, 8 + 8, common::u64_pair);
};

const auto leaf_failed_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
    io.i32(m.leaf_id);
    io.str(m.message);
};

const auto close_session_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
};

const auto wire_error_fields = [](auto& io, auto& m) {
    io.u64(m.session_id);
    io.str(m.message);
};

const auto worker_hello_fields = [](auto& io, auto& m) {
    io.u32(m.protocol_version);
    check_version(m.protocol_version);
    io.i32(m.threads);
};

} // namespace

std::vector<std::uint8_t>
encode_open_session(const OpenSession& msg)
{
    return encode(msg, open_session_fields);
}

OpenSession
decode_open_session(const std::vector<std::uint8_t>& payload)
{
    auto msg = decode<OpenSession>(payload, open_session_fields);
    // Workers execute leaves only: no checkpointing, no nested remoting.
    msg.config.threads = 1;
    msg.config.checkpoint_interval = 0;
    return msg;
}

std::vector<std::uint8_t>
encode_session_ready(const SessionReady& msg)
{
    return encode(msg, session_ready_fields);
}

SessionReady
decode_session_ready(const std::vector<std::uint8_t>& payload)
{
    return decode<SessionReady>(payload, session_ready_fields);
}

std::vector<std::uint8_t>
encode_exec_batch(const ExecBatch& msg)
{
    return encode(msg, exec_batch_fields);
}

ExecBatch
decode_exec_batch(const std::vector<std::uint8_t>& payload)
{
    return decode<ExecBatch>(payload, exec_batch_fields);
}

std::vector<std::uint8_t>
encode_leaf_counts(const LeafCounts& msg)
{
    return encode(msg, leaf_counts_fields);
}

LeafCounts
decode_leaf_counts(const std::vector<std::uint8_t>& payload)
{
    return decode<LeafCounts>(payload, leaf_counts_fields);
}

std::vector<std::uint8_t>
encode_leaf_failed(const LeafFailed& msg)
{
    return encode(msg, leaf_failed_fields);
}

LeafFailed
decode_leaf_failed(const std::vector<std::uint8_t>& payload)
{
    return decode<LeafFailed>(payload, leaf_failed_fields);
}

std::vector<std::uint8_t>
encode_close_session(const CloseSession& msg)
{
    return encode(msg, close_session_fields);
}

CloseSession
decode_close_session(const std::vector<std::uint8_t>& payload)
{
    return decode<CloseSession>(payload, close_session_fields);
}

std::vector<std::uint8_t>
encode_wire_error(const WireError& msg)
{
    return encode(msg, wire_error_fields);
}

WireError
decode_wire_error(const std::vector<std::uint8_t>& payload)
{
    return decode<WireError>(payload, wire_error_fields);
}

std::vector<std::uint8_t>
encode_worker_hello(const WorkerHello& msg)
{
    return encode(msg, worker_hello_fields);
}

WorkerHello
decode_worker_hello(const std::vector<std::uint8_t>& payload)
{
    return decode<WorkerHello>(payload, worker_hello_fields);
}

} // namespace fq::net
