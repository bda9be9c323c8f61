/// Tests for the compact binary frame body (net/binary_codec.hpp):
/// round-trips of every message type in both directions, bit-exact
/// doubles (the binary twin of JsonWriter::value_exact), cross-encoding
/// equivalence with the JSON codec, and a malformed-input matrix — a
/// truncated or over-long varint, a short double, a non-0/1 bool, an
/// unknown tag, and trailing bytes must all throw (the transport maps
/// the throw to a fatal "bad_message"), never crash or misparse.

#include "net/binary_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "test_helpers.hpp"

namespace lynceus::net {
namespace {

service::SessionSpec demo_spec() {
  service::SessionSpec spec;
  spec.optimizer = "lynceus";
  spec.seed = 42;
  spec.lookahead = 1;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  spec.incremental_refit = false;
  spec.branch_parallel = false;
  return spec;
}

core::RunResult demo_result() {
  core::RunResult r;
  r.runtime_seconds = 517.625;
  r.cost = 0.57514200000000003;  // not exactly representable in decimal
  r.timed_out = false;
  r.outcome = core::RunOutcome::kFailed;
  r.metrics = {1.5, -0.0, std::numeric_limits<double>::denorm_min()};
  return r;
}

TEST(BinaryCodec, EveryRequestTypeRoundTrips) {
  const service::SessionSpec spec = demo_spec();

  {
    const Request r = parse_binary_request(binary_encode_open(7, spec));
    EXPECT_EQ(r.type, Request::Type::Open);
    EXPECT_EQ(r.req, 7U);
    ASSERT_NE(r.spec, nullptr);
    EXPECT_EQ(r.spec->to_json(), spec.to_json());
  }
  {
    const Request r = parse_binary_request(
        binary_encode_restore(8, spec, "{\"snapshot\":true}"));
    EXPECT_EQ(r.type, Request::Type::Restore);
    EXPECT_EQ(r.req, 8U);
    ASSERT_NE(r.spec, nullptr);
    EXPECT_EQ(r.spec->to_json(), spec.to_json());
    EXPECT_EQ(r.snapshot, "{\"snapshot\":true}");
  }
  {
    const core::RunResult rr = demo_result();
    const Request r =
        parse_binary_request(binary_encode_tell(9, 1234567, 21, rr));
    EXPECT_EQ(r.type, Request::Type::Tell);
    EXPECT_EQ(r.req, 9U);
    EXPECT_EQ(r.session, 1234567U);
    EXPECT_EQ(r.config, 21U);
    EXPECT_EQ(r.spec, nullptr);  // only open/restore carry a spec
    // Bit-exact doubles: memcmp-level equality, sign of -0.0 included.
    EXPECT_EQ(r.result.runtime_seconds, rr.runtime_seconds);
    EXPECT_EQ(r.result.cost, rr.cost);
    EXPECT_EQ(r.result.timed_out, rr.timed_out);
    EXPECT_EQ(r.result.outcome, rr.outcome);
    ASSERT_EQ(r.result.metrics.size(), rr.metrics.size());
    for (std::size_t i = 0; i < rr.metrics.size(); ++i) {
      EXPECT_EQ(std::signbit(r.result.metrics[i]), std::signbit(rr.metrics[i]));
      EXPECT_EQ(r.result.metrics[i], rr.metrics[i]);
    }
  }
  {
    const Request r = parse_binary_request(binary_encode_next_runs(10));
    EXPECT_EQ(r.type, Request::Type::NextRuns);
    EXPECT_EQ(r.req, 10U);
  }
  {
    const Request r =
        parse_binary_request(binary_encode_snapshot_request(11, 3));
    EXPECT_EQ(r.type, Request::Type::Snapshot);
    EXPECT_EQ(r.session, 3U);
  }
  {
    const Request r = parse_binary_request(binary_encode_result_request(12, 4));
    EXPECT_EQ(r.type, Request::Type::Result);
    EXPECT_EQ(r.session, 4U);
  }
  {
    const Request r = parse_binary_request(binary_encode_close(13, 5));
    EXPECT_EQ(r.type, Request::Type::Close);
    EXPECT_EQ(r.session, 5U);
  }
}

TEST(BinaryCodec, EveryServerMessageTypeRoundTrips) {
  {
    const ServerMessage m =
        parse_binary_server_message(binary_encode_opened(1, 99));
    EXPECT_EQ(m.type, ServerMessage::Type::Opened);
    EXPECT_EQ(m.req, 1U);
    EXPECT_EQ(m.session, 99U);
  }
  {
    const ServerMessage m = parse_binary_server_message(
        binary_encode_told(2, 99, true, false, "budget: spent"));
    EXPECT_EQ(m.type, ServerMessage::Type::Told);
    EXPECT_TRUE(m.finished);
    EXPECT_FALSE(m.quarantined);
    EXPECT_EQ(m.stop_reason, "budget: spent");
  }
  {
    // A run without a timeout carries +infinity — no JSON omission trick
    // needed in binary, but the round trip must preserve it either way.
    service::PendingRun run;
    run.session = 17;
    run.config = 23;
    run.attempt = 2;
    run.timeout_seconds = std::numeric_limits<double>::infinity();
    run.start_delay = 0.125;
    const ServerMessage m =
        parse_binary_server_message(binary_encode_run(run));
    EXPECT_EQ(m.type, ServerMessage::Type::Run);
    EXPECT_EQ(m.run.session, 17U);
    EXPECT_EQ(m.run.config, 23U);
    EXPECT_EQ(m.run.attempt, 2U);
    EXPECT_TRUE(std::isinf(m.run.timeout_seconds));
    EXPECT_EQ(m.run.start_delay, 0.125);
  }
  {
    const ServerMessage m = parse_binary_server_message(
        binary_encode_snapshot_reply(3, 99, "{\"snapshot\":1}"));
    EXPECT_EQ(m.type, ServerMessage::Type::Snapshot);
    EXPECT_EQ(m.data, "{\"snapshot\":1}");
  }
  {
    core::OptimizerResult r;
    r.recommendation = 21;
    r.recommendation_feasible = true;
    r.history.push_back(core::Sample{3, 101.5, 0.25, true});
    r.history.push_back(core::Sample{9, 88.875, 0.125, false});
    r.failures.push_back(core::FailureRecord{5, 0.0625, 1});
    r.budget_spent = 1.4375;
    r.budget_spent_on_failures = 0.0625;
    r.decision_seconds = 0.5;
    r.decisions = 7;
    const ServerMessage m = parse_binary_server_message(
        binary_encode_result_reply(4, 99, true, false, "done", r));
    EXPECT_EQ(m.type, ServerMessage::Type::Result);
    ASSERT_TRUE(m.result.recommendation.has_value());
    EXPECT_EQ(*m.result.recommendation, 21U);
    EXPECT_TRUE(m.result.recommendation_feasible);
    ASSERT_EQ(m.result.history.size(), 2U);
    EXPECT_EQ(m.result.history[1].id, 9U);
    EXPECT_EQ(m.result.history[1].runtime_seconds, 88.875);
    EXPECT_FALSE(m.result.history[1].feasible);
    ASSERT_EQ(m.result.failures.size(), 1U);
    EXPECT_EQ(m.result.failures[0].after_samples, 1U);
    EXPECT_EQ(m.result.budget_spent, 1.4375);
    EXPECT_EQ(m.result.decisions, 7U);

    // No recommendation: the optional must stay empty through the wire.
    core::OptimizerResult none;
    const ServerMessage m2 = parse_binary_server_message(
        binary_encode_result_reply(5, 99, false, false, "", none));
    EXPECT_FALSE(m2.result.recommendation.has_value());
  }
  {
    const ServerMessage m =
        parse_binary_server_message(binary_encode_closed(6, 99));
    EXPECT_EQ(m.type, ServerMessage::Type::Closed);
  }
  {
    const ServerMessage m = parse_binary_server_message(
        binary_encode_error(7, "bad_request", "nope", true));
    EXPECT_EQ(m.type, ServerMessage::Type::Error);
    EXPECT_EQ(m.code, "bad_request");
    EXPECT_EQ(m.message, "nope");
    EXPECT_TRUE(m.fatal);
  }
}

/// The same logical message decoded from the JSON codec and the binary
/// codec must yield identical structures — the cross-encoding
/// equivalence the negotiation feature rests on.
TEST(BinaryCodec, BinaryAndJsonDecodeToIdenticalMessages) {
  const core::RunResult rr = demo_result();
  const Request a = parse_request(encode_tell(9, 1234567, 21, rr));
  const Request b = parse_binary_request(binary_encode_tell(9, 1234567, 21, rr));
  EXPECT_EQ(a.result.runtime_seconds, b.result.runtime_seconds);
  EXPECT_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.outcome, b.result.outcome);
  EXPECT_EQ(a.result.metrics, b.result.metrics);
  EXPECT_EQ(a.spec, nullptr);
  EXPECT_EQ(b.spec, nullptr);

  const service::SessionSpec spec = demo_spec();
  const Request c = parse_request(encode_open(1, spec));
  const Request d = parse_binary_request(binary_encode_open(1, spec));
  ASSERT_NE(c.spec, nullptr);
  ASSERT_NE(d.spec, nullptr);
  EXPECT_EQ(c.spec->to_json(), d.spec->to_json());
}

/// Binary framing is also smaller — the point of negotiating it. Pin the
/// hot-path messages (tell and run) well under their JSON twins so a
/// regression that bloats the encoding is caught here, not in bench.
TEST(BinaryCodec, HotPathMessagesAreSmallerThanJson) {
  core::RunResult rr;
  rr.runtime_seconds = 517.625;
  rr.cost = 0.5751419999999999;
  const std::string bin = binary_encode_tell(9, 64, 21, rr);
  const std::string json = encode_tell(9, 64, 21, rr);
  EXPECT_LT(bin.size() * 2, json.size())
      << "binary tell " << bin.size() << "B vs JSON " << json.size() << "B";

  service::PendingRun run;
  run.session = 64;
  run.config = 21;
  run.timeout_seconds = std::numeric_limits<double>::infinity();
  EXPECT_LT(binary_encode_run(run).size() * 2, encode_run(run).size());
}

TEST(BinaryCodec, MalformedBytesThrowInsteadOfMisparsing) {
  // Empty payload: no tag byte.
  EXPECT_THROW((void)parse_binary_request(""), std::runtime_error);

  // Unknown tag.
  EXPECT_THROW((void)parse_binary_request(std::string(1, '\x7f')),
               std::runtime_error);
  EXPECT_THROW((void)parse_binary_server_message(std::string(1, '\x01')),
               std::runtime_error);

  // Truncated varint: continue bit set, then nothing.
  EXPECT_THROW((void)parse_binary_request(std::string("\x04\xff", 2)),
               std::runtime_error);

  // Over-long varint: 10 continuation bytes overflow uint64.
  {
    std::string p(1, '\x04');
    p += std::string(10, '\xff');
    p += '\x01';
    EXPECT_THROW((void)parse_binary_request(p), std::runtime_error);
  }

  // Truncated double: told's frame cut inside stop_reason is caught by
  // the bytes-length bound; a tell cut inside the runtime double by the
  // 8-byte read bound.
  {
    const core::RunResult rr;
    std::string p = binary_encode_tell(1, 2, 3, rr);
    p.resize(p.size() - 3);
    EXPECT_THROW((void)parse_binary_request(p), std::runtime_error);
  }

  // bytes length larger than the remaining frame.
  {
    std::string p(1, '\x01');  // open
    p += '\x01';               // req = 1
    p += '\x7f';               // spec length 127, but no bytes follow
    EXPECT_THROW((void)parse_binary_request(p), std::runtime_error);
  }

  // Non-0/1 bool.
  {
    const core::RunResult rr;
    std::string p = binary_encode_tell(1, 2, 3, rr);
    // Layout: tag, req, session, config, runtime(8), cost(8), bool...
    p[1 + 1 + 1 + 1 + 8 + 8] = '\x02';
    EXPECT_THROW((void)parse_binary_request(p), std::runtime_error);
  }

  // Trailing bytes after a complete message.
  {
    std::string p = binary_encode_close(1, 2);
    p += '\x00';
    EXPECT_THROW((void)parse_binary_request(p), std::runtime_error);
    std::string q = binary_encode_closed(1, 2);
    q += '\x00';
    EXPECT_THROW((void)parse_binary_server_message(q), std::runtime_error);
  }

  // A valid message still parses after all that (the matrix above did
  // not poison any shared state).
  EXPECT_EQ(parse_binary_request(binary_encode_close(1, 2)).type,
            Request::Type::Close);
}

TEST(BinaryCodec, WireDispatchersFollowTheEncodingArgument) {
  const std::string js = encode_next_runs_wire(WireEncoding::kJson, 5);
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(parse_request_wire(WireEncoding::kJson, js).req, 5U);

  const std::string bin = encode_next_runs_wire(WireEncoding::kBinary, 5);
  EXPECT_EQ(bin.front(), '\x04');
  EXPECT_EQ(parse_request_wire(WireEncoding::kBinary, bin).req, 5U);

  WireEncoding e = WireEncoding::kJson;
  EXPECT_TRUE(wire_encoding_from_name("binary", e));
  EXPECT_EQ(e, WireEncoding::kBinary);
  EXPECT_TRUE(wire_encoding_from_name("json", e));
  EXPECT_EQ(e, WireEncoding::kJson);
  EXPECT_FALSE(wire_encoding_from_name("carrier-pigeon", e));
  EXPECT_STREQ(wire_encoding_name(WireEncoding::kBinary), "binary");
  EXPECT_STREQ(wire_encoding_name(WireEncoding::kJson), "json");
}

}  // namespace
}  // namespace lynceus::net
