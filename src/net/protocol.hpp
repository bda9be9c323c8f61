#pragma once

/// \file protocol.hpp
/// The wire protocol of the network tuning service (src/net/): framing,
/// message codec, and the typed request/reply structures the transport
/// and service-loop threads exchange.
///
/// ## Framing
///
/// Every message is one frame: a 4-byte big-endian unsigned payload
/// length, then exactly that many bytes of body. A frame whose
/// declared length is zero or exceeds the receiver's `max_frame_bytes`
/// is a framing violation: the receiver replies with a typed `error`
/// frame (code "bad_frame") and closes the connection. The body is
/// UTF-8 JSON by default, or the compact binary encoding below once a
/// connection has negotiated it. Bytes that fail to parse as JSON,
/// parse deeper than util/json's 256-level nesting bound, fail to
/// decode as a binary message, or form a document that is not a valid
/// protocol message are equally fatal (code "bad_message"). A peer that
/// disconnects mid-frame is simply dropped — there is nothing left to
/// reply to.
///
/// ## Negotiation handshake
///
/// A connection starts in JSON. A client that wants the binary body (or
/// an explicit version check) sends a `hello` as its very FIRST frame:
///
///   {"type":"hello","req":R,"version":1,
///    "encodings":["binary","json"]}            (preference order)
///
/// The server answers in JSON with its pick — the first offered
/// encoding it is configured to speak:
///
///   {"type":"hello","req":R,"version":1,"encoding":"binary"}
///
/// and every subsequent frame in BOTH directions uses the chosen
/// encoding. A first frame that is not a hello fixes the connection to
/// JSON forever (the pre-negotiation protocol — old clients keep
/// working unchanged). Negotiation failures are fatal typed errors with
/// code "bad_negotiation": an unsupported `version`, an offer with no
/// encoding the server accepts, a hello on a server configured
/// binary-only when the client never negotiated, and a hello arriving
/// after the first frame (negotiation replay).
///
/// ## Binary frame grammar
///
/// The negotiated binary body (encoding "binary", kProtocolVersion = 1)
/// is a tag byte followed by fields in a fixed per-type order.
/// Primitives:
///
///   varint  := LEB128 unsigned (7 bits/byte, high bit = continue;
///              at most 10 bytes — a longer or truncated varint is a
///              fatal decode error)
///   double  := 8 bytes, IEEE-754 bit pattern little-endian (bit-exact:
///              the binary twin of JsonWriter::value_exact; +infinity
///              needs no omission trick here)
///   bool    := 1 byte, 0 or 1 (anything else is a decode error)
///   bytes   := varint length, then that many raw bytes
///
/// Requests (client → server; tag in parentheses):
///
///   open     (0x01) req:varint spec:bytes            spec = SPEC JSON
///   restore  (0x02) req:varint spec:bytes snapshot:bytes
///   tell     (0x03) req:varint session:varint config:varint
///                   result:RunResult
///   next_runs(0x04) req:varint
///   snapshot (0x05) req:varint session:varint
///   result   (0x06) req:varint session:varint
///   close    (0x07) req:varint session:varint
///
/// Server messages (tag = request tag | 0x80):
///
///   opened   (0x81) req session
///   told     (0x82) req session finished:bool quarantined:bool
///                   stop_reason:bytes
///   run      (0x83) session:varint config:varint attempt:varint
///                   timeout_seconds:double start_delay:double
///   snapshot (0x84) req session data:bytes
///   result   (0x85) req session finished quarantined stop_reason:bytes
///                   result:OptimizerResult
///   closed   (0x86) req session
///   error    (0x87) req code:bytes message:bytes fatal:bool
///
///   RunResult       := runtime_seconds:double cost:double
///                      timed_out:bool outcome:u8(0 ok|1 failed|
///                      2 timed_out) metrics:varint-count double*
///   OptimizerResult := has_recommendation:bool [recommendation:varint]
///                      recommendation_feasible:bool
///                      history:varint-count {id:varint runtime:double
///                        cost:double feasible:bool}*
///                      failures:varint-count {id:varint cost:double
///                        after_samples:varint}*
///                      budget_spent:double
///                      budget_spent_on_failures:double
///                      decision_seconds:double decisions:varint
///
/// Session specs and stepper snapshots stay JSON *documents* carried as
/// `bytes` — they cross the wire once per session (cold path) and their
/// JSON codecs are the determinism-pinned ones. An unknown tag, a
/// truncated field, or trailing bytes after a complete message are all
/// fatal "bad_message" errors. Hellos never appear in binary — by the
/// time binary is active, negotiation is over.
///
/// ## Messages
///
/// Client → server (every request carries a client-chosen `req` token,
/// echoed verbatim in the matching reply; `session` ids are
/// server-assigned and globally unique across shards):
///
///   {"type":"open","req":R,"spec":SPEC}
///       SPEC is a service::SessionSpec document (session_spec.hpp)
///       carrying a `problem` reference the server resolves against its
///       workload registry.                      reply: opened
///   {"type":"restore","req":R,"spec":SPEC,"snapshot":TEXT}
///       Reopens a snapshot (bare stepper snapshot or service-session
///       envelope) under a fresh id.             reply: opened
///   {"type":"tell","req":R,"session":S,"config":C,"result":RESULT}
///       One completed profiling run.            reply: told
///   {"type":"next_runs","req":R}
///       Nudges every shard to sweep its ready sessions (runs are pushed
///       unprompted after open/tell; this is for drivers that dropped
///       pushes, e.g. after restore).            reply: none
///   {"type":"snapshot","req":R,"session":S}     reply: snapshot
///   {"type":"result","req":R,"session":S}       reply: result
///   {"type":"close","req":R,"session":S}        reply: closed
///
/// Server → client:
///
///   {"type":"opened","req":R,"session":S}
///   {"type":"told","req":R,"session":S,"finished":B,"quarantined":B,
///    "stop_reason":TEXT}
///   {"type":"run","session":S,"config":C,"attempt":A,
///    "timeout_seconds":T?,"start_delay":D}      (pushed, no req)
///       One profiling run the client must execute and tell back — the
///       server never runs jobs itself; the remote driver owns the
///       cluster (or its replay table).
///   {"type":"snapshot","req":R,"session":S,"data":TEXT}
///   {"type":"result","req":R,"session":S,"finished":B,"quarantined":B,
///    "stop_reason":TEXT,"result":RESULT_DOC}
///   {"type":"closed","req":R,"session":S}
///   {"type":"error","req":R?,"code":TEXT,"message":TEXT,"fatal":B}
///       Codes: "bad_frame" (framing violation), "bad_message"
///       (unparseable or structurally invalid message), "bad_request"
///       (a well-formed request the service rejected: unknown session,
///       out-of-order tell, unresolvable problem reference, invalid
///       spec), "bad_negotiation" (hello handshake rejected — see the
///       negotiation section above). All current errors are fatal: the
///       server closes the connection after sending, and every session
///       owned by the connection is closed.
///
/// Doubles cross the wire through JsonWriter::value_exact, so a result
/// told remotely is bit-identical to one told in process — the
/// determinism contract in tuning_server.hpp rests on this.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"
#include "util/json.hpp"

namespace lynceus::net {

inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Protocol version carried by the hello handshake. A hello with any
/// other version is rejected with "bad_negotiation".
inline constexpr std::uint64_t kProtocolVersion = 1;

/// The two negotiable frame-body encodings (see the handshake and
/// binary grammar sections above). JSON is the pre-negotiation default;
/// binary is opted into by the first frame. net/binary_codec.hpp holds
/// the binary implementation plus encoding-dispatching helpers.
enum class WireEncoding : std::uint8_t { kJson = 0, kBinary = 1 };

/// "json" / "binary" — the hello handshake's names for WireEncoding.
[[nodiscard]] const char* wire_encoding_name(WireEncoding e) noexcept;
/// Inverse of wire_encoding_name; empty optional-style contract via
/// bool return (the name may come off the wire or a CLI flag).
[[nodiscard]] bool wire_encoding_from_name(const std::string& name,
                                           WireEncoding& out) noexcept;

/// A framing violation (zero-length or oversized declared payload). The
/// receiver reports `code` ("bad_frame") and closes the connection.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Prefixes `payload` with its 4-byte big-endian length.
[[nodiscard]] std::string encode_frame(const std::string& payload);

/// Incremental frame splitter for a byte-stream connection: feed() the
/// bytes read() returned, next() yields complete payloads. Throws
/// FrameError on a zero-length or oversized header — the connection is
/// then poisoned and must be closed (the internal cursor stops moving).
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t size);
  /// Extracts the next complete payload into `payload`; false when the
  /// buffered bytes do not yet hold a whole frame.
  bool next(std::string& payload);

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t offset_ = 0;  ///< consumed prefix of buffer_
};

/// A decoded client → server request.
struct Request {
  enum class Type {
    Hello,
    Open,
    Restore,
    Tell,
    NextRuns,
    Snapshot,
    Result,
    Close
  };

  Type type = Type::NextRuns;
  std::uint64_t req = 0;
  std::uint64_t session = 0;       ///< tell / snapshot / result / close
  core::ConfigId config = 0;       ///< tell
  core::RunResult result;          ///< tell
  /// open / restore (both decoders always set it); null for every other
  /// type. Held by pointer so a default-constructed Request (an SPSC lane
  /// cell, a decoded tell) builds no SessionSpec — whose defaults read the
  /// environment — and a copy (the NextRuns broadcast) stays cheap.
  std::shared_ptr<const service::SessionSpec> spec;
  std::string snapshot;            ///< restore
  // hello (always JSON — negotiation precedes any binary frame)
  std::uint64_t version = 0;
  std::vector<std::string> encodings;  ///< offered, preference order
};

/// Parses one request payload. Throws std::runtime_error (including
/// util/json parse errors) on anything structurally invalid — the
/// transport maps that to a fatal "bad_message" error reply.
[[nodiscard]] Request parse_request(const std::string& payload);

/// A decoded server → client message.
struct ServerMessage {
  enum class Type { Hello, Opened, Told, Run, Snapshot, Result, Closed, Error };

  Type type = Type::Error;
  std::uint64_t req = 0;
  std::uint64_t session = 0;
  // hello reply
  std::uint64_t version = 0;
  std::string encoding;  ///< the server's pick ("json" | "binary")
  // told / result
  bool finished = false;
  bool quarantined = false;
  std::string stop_reason;
  // run
  service::PendingRun run;  ///< .session carries the wire session id
  // snapshot
  std::string data;
  // result
  core::OptimizerResult result;
  // error
  std::string code;
  std::string message;
  bool fatal = false;
};

[[nodiscard]] ServerMessage parse_server_message(const std::string& payload);

// --- Reply encoders (payloads; wrap with encode_frame before writing).

/// The negotiation handshake (JSON on both sides, by definition).
[[nodiscard]] std::string encode_hello_request(
    std::uint64_t req, std::uint64_t version,
    const std::vector<std::string>& encodings);
[[nodiscard]] std::string encode_hello_reply(std::uint64_t req,
                                             std::uint64_t version,
                                             const std::string& encoding);

[[nodiscard]] std::string encode_open(std::uint64_t req,
                                      const service::SessionSpec& spec);
[[nodiscard]] std::string encode_restore(std::uint64_t req,
                                         const service::SessionSpec& spec,
                                         const std::string& snapshot);
[[nodiscard]] std::string encode_tell(std::uint64_t req, std::uint64_t session,
                                      core::ConfigId config,
                                      const core::RunResult& result);
[[nodiscard]] std::string encode_next_runs(std::uint64_t req);
[[nodiscard]] std::string encode_snapshot_request(std::uint64_t req,
                                                  std::uint64_t session);
[[nodiscard]] std::string encode_result_request(std::uint64_t req,
                                                std::uint64_t session);
[[nodiscard]] std::string encode_close(std::uint64_t req,
                                       std::uint64_t session);

[[nodiscard]] std::string encode_opened(std::uint64_t req,
                                        std::uint64_t session);
[[nodiscard]] std::string encode_told(std::uint64_t req, std::uint64_t session,
                                      bool finished, bool quarantined,
                                      const std::string& stop_reason);
/// `run.session` must already hold the wire (global) session id.
[[nodiscard]] std::string encode_run(const service::PendingRun& run);
[[nodiscard]] std::string encode_snapshot_reply(std::uint64_t req,
                                                std::uint64_t session,
                                                const std::string& data);
[[nodiscard]] std::string encode_result_reply(
    std::uint64_t req, std::uint64_t session, bool finished, bool quarantined,
    const std::string& stop_reason, const core::OptimizerResult& result);
[[nodiscard]] std::string encode_closed(std::uint64_t req,
                                        std::uint64_t session);
[[nodiscard]] std::string encode_error(std::uint64_t req,
                                       const std::string& code,
                                       const std::string& message, bool fatal);

// --- Shared sub-codecs (bit-exact doubles).

void run_result_to_json(util::JsonWriter& w, const core::RunResult& r);
[[nodiscard]] core::RunResult run_result_from_json(const util::JsonValue& v);

void optimizer_result_to_json(util::JsonWriter& w,
                              const core::OptimizerResult& r);
[[nodiscard]] core::OptimizerResult optimizer_result_from_json(
    const util::JsonValue& v);

}  // namespace lynceus::net
