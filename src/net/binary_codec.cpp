#include "net/binary_codec.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "util/json.hpp"

namespace lynceus::net {

namespace {

// Message tags (net/protocol.hpp "Binary frame grammar"). Server tags
// are the request tag with the high bit set.
enum : std::uint8_t {
  kTagOpen = 0x01,
  kTagRestore = 0x02,
  kTagTell = 0x03,
  kTagNextRuns = 0x04,
  kTagSnapshotReq = 0x05,
  kTagResultReq = 0x06,
  kTagClose = 0x07,
  kTagOpened = 0x81,
  kTagTold = 0x82,
  kTagRun = 0x83,
  kTagSnapshotReply = 0x84,
  kTagResultReply = 0x85,
  kTagClosed = 0x86,
  kTagError = 0x87,
};

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("binary codec: ") + what);
}

/// Append-only encoder over a std::string (varint/double/bytes per the
/// grammar in protocol.hpp).
class Writer {
 public:
  explicit Writer(std::uint8_t tag) { out_.push_back(static_cast<char>(tag)); }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    char raw[8];
    for (int i = 0; i < 8; ++i) {
      raw[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
    }
    out_.append(raw, sizeof(raw));
  }

  void boolean(bool v) { out_.push_back(v ? '\1' : '\0'); }

  void byte(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void bytes(const std::string& v) {
    varint(v.size());
    out_.append(v);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder; every read throws on truncation.
class Reader {
 public:
  explicit Reader(const std::string& payload)
      : p_(payload.data()), n_(payload.size()) {}

  std::uint8_t byte() {
    if (off_ >= n_) fail("truncated message");
    return static_cast<std::uint8_t>(p_[off_++]);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (off_ >= n_) fail("truncated varint");
      const auto b = static_cast<std::uint8_t>(p_[off_++]);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // The 10th byte may only contribute the top bit of a u64.
        if (shift == 63 && b > 1) fail("over-long varint");
        return v;
      }
    }
    fail("over-long varint");
  }

  double f64() {
    if (n_ - off_ < 8) fail("truncated double");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(p_[off_ + i]))
              << (8 * i);
    }
    off_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() {
    const std::uint8_t b = byte();
    if (b > 1) fail("bool byte is not 0 or 1");
    return b == 1;
  }

  std::string bytes() {
    const std::uint64_t len = varint();
    if (len > n_ - off_) fail("bytes length exceeds the frame");
    std::string out(p_ + off_, static_cast<std::size_t>(len));
    off_ += static_cast<std::size_t>(len);
    return out;
  }

  /// A complete message must consume the whole frame: the frame header
  /// already carries the length, so slack bytes mean a corrupt peer.
  void expect_end() const {
    if (off_ != n_) fail("trailing bytes after message");
  }

 private:
  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

std::uint8_t outcome_code(core::RunOutcome o) {
  switch (o) {
    case core::RunOutcome::kOk: return 0;
    case core::RunOutcome::kFailed: return 1;
    case core::RunOutcome::kTimedOut: return 2;
  }
  return 0;
}

core::RunOutcome outcome_from_code(std::uint8_t c) {
  switch (c) {
    case 0: return core::RunOutcome::kOk;
    case 1: return core::RunOutcome::kFailed;
    case 2: return core::RunOutcome::kTimedOut;
    default: fail("unknown run outcome code");
  }
}

void put_run_result(Writer& w, const core::RunResult& r) {
  w.f64(r.runtime_seconds);
  w.f64(r.cost);
  w.boolean(r.timed_out);
  w.byte(outcome_code(r.outcome));
  w.varint(r.metrics.size());
  for (double m : r.metrics) w.f64(m);
}

core::RunResult get_run_result(Reader& r) {
  core::RunResult out;
  out.runtime_seconds = r.f64();
  out.cost = r.f64();
  out.timed_out = r.boolean();
  out.outcome = outcome_from_code(r.byte());
  const std::uint64_t metrics = r.varint();
  out.metrics.reserve(static_cast<std::size_t>(metrics));
  for (std::uint64_t i = 0; i < metrics; ++i) out.metrics.push_back(r.f64());
  return out;
}

void put_optimizer_result(Writer& w, const core::OptimizerResult& r) {
  w.boolean(r.recommendation.has_value());
  if (r.recommendation.has_value()) {
    w.varint(static_cast<std::uint64_t>(*r.recommendation));
  }
  w.boolean(r.recommendation_feasible);
  w.varint(r.history.size());
  for (const core::Sample& s : r.history) {
    w.varint(static_cast<std::uint64_t>(s.id));
    w.f64(s.runtime_seconds);
    w.f64(s.cost);
    w.boolean(s.feasible);
  }
  w.varint(r.failures.size());
  for (const core::FailureRecord& f : r.failures) {
    w.varint(static_cast<std::uint64_t>(f.id));
    w.f64(f.cost);
    w.varint(static_cast<std::uint64_t>(f.after_samples));
  }
  w.f64(r.budget_spent);
  w.f64(r.budget_spent_on_failures);
  w.f64(r.decision_seconds);
  w.varint(static_cast<std::uint64_t>(r.decisions));
}

core::OptimizerResult get_optimizer_result(Reader& r) {
  core::OptimizerResult out;
  if (r.boolean()) {
    out.recommendation = static_cast<core::ConfigId>(r.varint());
  }
  out.recommendation_feasible = r.boolean();
  const std::uint64_t history = r.varint();
  out.history.reserve(static_cast<std::size_t>(history));
  for (std::uint64_t i = 0; i < history; ++i) {
    core::Sample s;
    s.id = static_cast<core::ConfigId>(r.varint());
    s.runtime_seconds = r.f64();
    s.cost = r.f64();
    s.feasible = r.boolean();
    out.history.push_back(s);
  }
  const std::uint64_t failures = r.varint();
  out.failures.reserve(static_cast<std::size_t>(failures));
  for (std::uint64_t i = 0; i < failures; ++i) {
    core::FailureRecord f;
    f.id = static_cast<core::ConfigId>(r.varint());
    f.cost = r.f64();
    f.after_samples = static_cast<std::size_t>(r.varint());
    out.failures.push_back(f);
  }
  out.budget_spent = r.f64();
  out.budget_spent_on_failures = r.f64();
  out.decision_seconds = r.f64();
  out.decisions = static_cast<std::size_t>(r.varint());
  return out;
}

std::string spec_json(const service::SessionSpec& spec) {
  util::JsonWriter w;
  spec.to_json(w);
  return w.str();
}

std::shared_ptr<const service::SessionSpec> spec_from_bytes(
    const std::string& doc) {
  return std::make_shared<const service::SessionSpec>(
      service::SessionSpec::from_json(util::parse_json(doc)));
}

}  // namespace

// --- Parsers ----------------------------------------------------------------

Request parse_binary_request(const std::string& payload) {
  Reader r(payload);
  Request out;
  const std::uint8_t tag = r.byte();
  switch (tag) {
    case kTagOpen:
      out.type = Request::Type::Open;
      out.req = r.varint();
      out.spec = spec_from_bytes(r.bytes());
      break;
    case kTagRestore:
      out.type = Request::Type::Restore;
      out.req = r.varint();
      out.spec = spec_from_bytes(r.bytes());
      out.snapshot = r.bytes();
      break;
    case kTagTell:
      out.type = Request::Type::Tell;
      out.req = r.varint();
      out.session = r.varint();
      out.config = static_cast<core::ConfigId>(r.varint());
      out.result = get_run_result(r);
      break;
    case kTagNextRuns:
      out.type = Request::Type::NextRuns;
      out.req = r.varint();
      break;
    case kTagSnapshotReq:
      out.type = Request::Type::Snapshot;
      out.req = r.varint();
      out.session = r.varint();
      break;
    case kTagResultReq:
      out.type = Request::Type::Result;
      out.req = r.varint();
      out.session = r.varint();
      break;
    case kTagClose:
      out.type = Request::Type::Close;
      out.req = r.varint();
      out.session = r.varint();
      break;
    default:
      fail("unknown request tag");
  }
  r.expect_end();
  return out;
}

ServerMessage parse_binary_server_message(const std::string& payload) {
  Reader r(payload);
  ServerMessage out;
  const std::uint8_t tag = r.byte();
  switch (tag) {
    case kTagOpened:
      out.type = ServerMessage::Type::Opened;
      out.req = r.varint();
      out.session = r.varint();
      break;
    case kTagTold:
      out.type = ServerMessage::Type::Told;
      out.req = r.varint();
      out.session = r.varint();
      out.finished = r.boolean();
      out.quarantined = r.boolean();
      out.stop_reason = r.bytes();
      break;
    case kTagRun:
      out.type = ServerMessage::Type::Run;
      out.session = r.varint();
      out.run.session = out.session;
      out.run.config = static_cast<core::ConfigId>(r.varint());
      out.run.attempt = r.varint();
      out.run.timeout_seconds = r.f64();
      out.run.start_delay = r.f64();
      break;
    case kTagSnapshotReply:
      out.type = ServerMessage::Type::Snapshot;
      out.req = r.varint();
      out.session = r.varint();
      out.data = r.bytes();
      break;
    case kTagResultReply:
      out.type = ServerMessage::Type::Result;
      out.req = r.varint();
      out.session = r.varint();
      out.finished = r.boolean();
      out.quarantined = r.boolean();
      out.stop_reason = r.bytes();
      out.result = get_optimizer_result(r);
      break;
    case kTagClosed:
      out.type = ServerMessage::Type::Closed;
      out.req = r.varint();
      out.session = r.varint();
      break;
    case kTagError:
      out.type = ServerMessage::Type::Error;
      out.req = r.varint();
      out.code = r.bytes();
      out.message = r.bytes();
      out.fatal = r.boolean();
      break;
    default:
      fail("unknown message tag");
  }
  r.expect_end();
  return out;
}

// --- Encoders ---------------------------------------------------------------

std::string binary_encode_open(std::uint64_t req,
                               const service::SessionSpec& spec) {
  Writer w(kTagOpen);
  w.varint(req);
  w.bytes(spec_json(spec));
  return w.take();
}

std::string binary_encode_restore(std::uint64_t req,
                                  const service::SessionSpec& spec,
                                  const std::string& snapshot) {
  Writer w(kTagRestore);
  w.varint(req);
  w.bytes(spec_json(spec));
  w.bytes(snapshot);
  return w.take();
}

std::string binary_encode_tell(std::uint64_t req, std::uint64_t session,
                               core::ConfigId config,
                               const core::RunResult& result) {
  Writer w(kTagTell);
  w.varint(req);
  w.varint(session);
  w.varint(static_cast<std::uint64_t>(config));
  put_run_result(w, result);
  return w.take();
}

std::string binary_encode_next_runs(std::uint64_t req) {
  Writer w(kTagNextRuns);
  w.varint(req);
  return w.take();
}

std::string binary_encode_snapshot_request(std::uint64_t req,
                                           std::uint64_t session) {
  Writer w(kTagSnapshotReq);
  w.varint(req);
  w.varint(session);
  return w.take();
}

std::string binary_encode_result_request(std::uint64_t req,
                                         std::uint64_t session) {
  Writer w(kTagResultReq);
  w.varint(req);
  w.varint(session);
  return w.take();
}

std::string binary_encode_close(std::uint64_t req, std::uint64_t session) {
  Writer w(kTagClose);
  w.varint(req);
  w.varint(session);
  return w.take();
}

std::string binary_encode_opened(std::uint64_t req, std::uint64_t session) {
  Writer w(kTagOpened);
  w.varint(req);
  w.varint(session);
  return w.take();
}

std::string binary_encode_told(std::uint64_t req, std::uint64_t session,
                               bool finished, bool quarantined,
                               const std::string& stop_reason) {
  Writer w(kTagTold);
  w.varint(req);
  w.varint(session);
  w.boolean(finished);
  w.boolean(quarantined);
  w.bytes(stop_reason);
  return w.take();
}

std::string binary_encode_run(const service::PendingRun& run) {
  Writer w(kTagRun);
  w.varint(run.session);
  w.varint(static_cast<std::uint64_t>(run.config));
  w.varint(run.attempt);
  // No omission trick needed: +infinity has a bit pattern like any
  // other double.
  w.f64(run.timeout_seconds);
  w.f64(run.start_delay);
  return w.take();
}

std::string binary_encode_snapshot_reply(std::uint64_t req,
                                         std::uint64_t session,
                                         const std::string& data) {
  Writer w(kTagSnapshotReply);
  w.varint(req);
  w.varint(session);
  w.bytes(data);
  return w.take();
}

std::string binary_encode_result_reply(std::uint64_t req,
                                       std::uint64_t session, bool finished,
                                       bool quarantined,
                                       const std::string& stop_reason,
                                       const core::OptimizerResult& result) {
  Writer w(kTagResultReply);
  w.varint(req);
  w.varint(session);
  w.boolean(finished);
  w.boolean(quarantined);
  w.bytes(stop_reason);
  put_optimizer_result(w, result);
  return w.take();
}

std::string binary_encode_closed(std::uint64_t req, std::uint64_t session) {
  Writer w(kTagClosed);
  w.varint(req);
  w.varint(session);
  return w.take();
}

std::string binary_encode_error(std::uint64_t req, const std::string& code,
                                const std::string& message, bool fatal) {
  Writer w(kTagError);
  w.varint(req);
  w.bytes(code);
  w.bytes(message);
  w.boolean(fatal);
  return w.take();
}

// --- Wire dispatch ----------------------------------------------------------

Request parse_request_wire(WireEncoding e, const std::string& payload) {
  return e == WireEncoding::kBinary ? parse_binary_request(payload)
                                    : parse_request(payload);
}

ServerMessage parse_server_message_wire(WireEncoding e,
                                        const std::string& payload) {
  return e == WireEncoding::kBinary ? parse_binary_server_message(payload)
                                    : parse_server_message(payload);
}

std::string encode_open_wire(WireEncoding e, std::uint64_t req,
                             const service::SessionSpec& spec) {
  return e == WireEncoding::kBinary ? binary_encode_open(req, spec)
                                    : encode_open(req, spec);
}

std::string encode_restore_wire(WireEncoding e, std::uint64_t req,
                                const service::SessionSpec& spec,
                                const std::string& snapshot) {
  return e == WireEncoding::kBinary
             ? binary_encode_restore(req, spec, snapshot)
             : encode_restore(req, spec, snapshot);
}

std::string encode_tell_wire(WireEncoding e, std::uint64_t req,
                             std::uint64_t session, core::ConfigId config,
                             const core::RunResult& result) {
  return e == WireEncoding::kBinary
             ? binary_encode_tell(req, session, config, result)
             : encode_tell(req, session, config, result);
}

std::string encode_next_runs_wire(WireEncoding e, std::uint64_t req) {
  return e == WireEncoding::kBinary ? binary_encode_next_runs(req)
                                    : encode_next_runs(req);
}

std::string encode_snapshot_request_wire(WireEncoding e, std::uint64_t req,
                                         std::uint64_t session) {
  return e == WireEncoding::kBinary
             ? binary_encode_snapshot_request(req, session)
             : encode_snapshot_request(req, session);
}

std::string encode_result_request_wire(WireEncoding e, std::uint64_t req,
                                       std::uint64_t session) {
  return e == WireEncoding::kBinary
             ? binary_encode_result_request(req, session)
             : encode_result_request(req, session);
}

std::string encode_close_wire(WireEncoding e, std::uint64_t req,
                              std::uint64_t session) {
  return e == WireEncoding::kBinary ? binary_encode_close(req, session)
                                    : encode_close(req, session);
}

std::string encode_opened_wire(WireEncoding e, std::uint64_t req,
                               std::uint64_t session) {
  return e == WireEncoding::kBinary ? binary_encode_opened(req, session)
                                    : encode_opened(req, session);
}

std::string encode_told_wire(WireEncoding e, std::uint64_t req,
                             std::uint64_t session, bool finished,
                             bool quarantined,
                             const std::string& stop_reason) {
  return e == WireEncoding::kBinary
             ? binary_encode_told(req, session, finished, quarantined,
                                  stop_reason)
             : encode_told(req, session, finished, quarantined, stop_reason);
}

std::string encode_run_wire(WireEncoding e, const service::PendingRun& run) {
  return e == WireEncoding::kBinary ? binary_encode_run(run) : encode_run(run);
}

std::string encode_snapshot_reply_wire(WireEncoding e, std::uint64_t req,
                                       std::uint64_t session,
                                       const std::string& data) {
  return e == WireEncoding::kBinary
             ? binary_encode_snapshot_reply(req, session, data)
             : encode_snapshot_reply(req, session, data);
}

std::string encode_result_reply_wire(WireEncoding e, std::uint64_t req,
                                     std::uint64_t session, bool finished,
                                     bool quarantined,
                                     const std::string& stop_reason,
                                     const core::OptimizerResult& result) {
  return e == WireEncoding::kBinary
             ? binary_encode_result_reply(req, session, finished, quarantined,
                                          stop_reason, result)
             : encode_result_reply(req, session, finished, quarantined,
                                   stop_reason, result);
}

std::string encode_closed_wire(WireEncoding e, std::uint64_t req,
                               std::uint64_t session) {
  return e == WireEncoding::kBinary ? binary_encode_closed(req, session)
                                    : encode_closed(req, session);
}

std::string encode_error_wire(WireEncoding e, std::uint64_t req,
                              const std::string& code,
                              const std::string& message, bool fatal) {
  return e == WireEncoding::kBinary
             ? binary_encode_error(req, code, message, fatal)
             : encode_error(req, code, message, fatal);
}

}  // namespace lynceus::net
