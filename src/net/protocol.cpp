#include "net/protocol.hpp"

#include <cmath>
#include <cstring>

namespace lynceus::net {

namespace {

const char* outcome_name(core::RunOutcome outcome) {
  switch (outcome) {
    case core::RunOutcome::kOk: return "ok";
    case core::RunOutcome::kFailed: return "failed";
    case core::RunOutcome::kTimedOut: return "timed_out";
  }
  return "ok";
}

core::RunOutcome outcome_from_name(const std::string& name) {
  if (name == "ok") return core::RunOutcome::kOk;
  if (name == "failed") return core::RunOutcome::kFailed;
  if (name == "timed_out") return core::RunOutcome::kTimedOut;
  throw std::runtime_error("protocol: unknown run outcome '" + name + "'");
}

std::uint64_t req_of(const util::JsonValue& v) {
  return v.at("req").as_uint();
}

std::uint64_t session_of(const util::JsonValue& v) {
  return v.at("session").as_uint();
}

}  // namespace

const char* wire_encoding_name(WireEncoding e) noexcept {
  return e == WireEncoding::kBinary ? "binary" : "json";
}

bool wire_encoding_from_name(const std::string& name,
                             WireEncoding& out) noexcept {
  if (name == "json") {
    out = WireEncoding::kJson;
    return true;
  }
  if (name == "binary") {
    out = WireEncoding::kBinary;
    return true;
  }
  return false;
}

std::string encode_frame(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xFF));
  out.push_back(static_cast<char>((n >> 16) & 0xFF));
  out.push_back(static_cast<char>((n >> 8) & 0xFF));
  out.push_back(static_cast<char>(n & 0xFF));
  out += payload;
  return out;
}

void FrameAssembler::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool FrameAssembler::next(std::string& payload) {
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  if (buffer_.size() - offset_ < kFrameHeaderBytes) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(buffer_.data()) +
                  offset_;
  const std::uint32_t n = (static_cast<std::uint32_t>(p[0]) << 24) |
                          (static_cast<std::uint32_t>(p[1]) << 16) |
                          (static_cast<std::uint32_t>(p[2]) << 8) |
                          static_cast<std::uint32_t>(p[3]);
  if (n == 0) {
    throw FrameError("zero-length frame");
  }
  if (n > max_frame_bytes_) {
    throw FrameError("frame of " + std::to_string(n) +
                     " bytes exceeds the " +
                     std::to_string(max_frame_bytes_) + "-byte limit");
  }
  if (buffer_.size() - offset_ < kFrameHeaderBytes + n) return false;
  payload.assign(buffer_, offset_ + kFrameHeaderBytes, n);
  offset_ += kFrameHeaderBytes + n;
  return true;
}

Request parse_request(const std::string& payload) {
  const util::JsonValue v = util::parse_json(payload);
  if (v.type() != util::JsonValue::Type::Object) {
    throw std::runtime_error("protocol: request is not a JSON object");
  }
  const std::string& type = v.at("type").as_string();
  Request r;
  if (type == "hello") {
    r.type = Request::Type::Hello;
    r.req = req_of(v);
    r.version = v.at("version").as_uint();
    for (const util::JsonValue& e : v.at("encodings").items()) {
      r.encodings.push_back(e.as_string());
    }
  } else if (type == "open") {
    r.type = Request::Type::Open;
    r.req = req_of(v);
    r.spec = std::make_shared<const service::SessionSpec>(
        service::SessionSpec::from_json(v.at("spec")));
  } else if (type == "restore") {
    r.type = Request::Type::Restore;
    r.req = req_of(v);
    r.spec = std::make_shared<const service::SessionSpec>(
        service::SessionSpec::from_json(v.at("spec")));
    r.snapshot = v.at("snapshot").as_string();
  } else if (type == "tell") {
    r.type = Request::Type::Tell;
    r.req = req_of(v);
    r.session = session_of(v);
    r.config = static_cast<core::ConfigId>(v.at("config").as_uint());
    r.result = run_result_from_json(v.at("result"));
  } else if (type == "next_runs") {
    r.type = Request::Type::NextRuns;
    r.req = req_of(v);
  } else if (type == "snapshot") {
    r.type = Request::Type::Snapshot;
    r.req = req_of(v);
    r.session = session_of(v);
  } else if (type == "result") {
    r.type = Request::Type::Result;
    r.req = req_of(v);
    r.session = session_of(v);
  } else if (type == "close") {
    r.type = Request::Type::Close;
    r.req = req_of(v);
    r.session = session_of(v);
  } else {
    throw std::runtime_error("protocol: unknown request type '" + type + "'");
  }
  return r;
}

ServerMessage parse_server_message(const std::string& payload) {
  const util::JsonValue v = util::parse_json(payload);
  if (v.type() != util::JsonValue::Type::Object) {
    throw std::runtime_error("protocol: message is not a JSON object");
  }
  const std::string& type = v.at("type").as_string();
  ServerMessage m;
  if (type == "hello") {
    m.type = ServerMessage::Type::Hello;
    m.req = req_of(v);
    m.version = v.at("version").as_uint();
    m.encoding = v.at("encoding").as_string();
  } else if (type == "opened") {
    m.type = ServerMessage::Type::Opened;
    m.req = req_of(v);
    m.session = session_of(v);
  } else if (type == "told") {
    m.type = ServerMessage::Type::Told;
    m.req = req_of(v);
    m.session = session_of(v);
    m.finished = v.at("finished").as_bool();
    m.quarantined = v.at("quarantined").as_bool();
    m.stop_reason = v.at("stop_reason").as_string();
  } else if (type == "run") {
    m.type = ServerMessage::Type::Run;
    m.session = session_of(v);
    m.run.session = m.session;
    m.run.config = static_cast<core::ConfigId>(v.at("config").as_uint());
    m.run.attempt = v.at("attempt").as_uint();
    if (const auto* t = v.find("timeout_seconds")) {
      m.run.timeout_seconds = t->as_double();
    }
    m.run.start_delay = v.at("start_delay").as_double();
  } else if (type == "snapshot") {
    m.type = ServerMessage::Type::Snapshot;
    m.req = req_of(v);
    m.session = session_of(v);
    m.data = v.at("data").as_string();
  } else if (type == "result") {
    m.type = ServerMessage::Type::Result;
    m.req = req_of(v);
    m.session = session_of(v);
    m.finished = v.at("finished").as_bool();
    m.quarantined = v.at("quarantined").as_bool();
    m.stop_reason = v.at("stop_reason").as_string();
    m.result = optimizer_result_from_json(v.at("result"));
  } else if (type == "closed") {
    m.type = ServerMessage::Type::Closed;
    m.req = req_of(v);
    m.session = session_of(v);
  } else if (type == "error") {
    m.type = ServerMessage::Type::Error;
    if (const auto* r = v.find("req")) m.req = r->as_uint();
    m.code = v.at("code").as_string();
    m.message = v.at("message").as_string();
    m.fatal = v.at("fatal").as_bool();
  } else {
    throw std::runtime_error("protocol: unknown message type '" + type + "'");
  }
  return m;
}

std::string encode_hello_request(std::uint64_t req, std::uint64_t version,
                                 const std::vector<std::string>& encodings) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("hello");
  w.key("req").value(req);
  w.key("version").value(version);
  w.key("encodings").begin_array();
  for (const std::string& e : encodings) w.value(e);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string encode_hello_reply(std::uint64_t req, std::uint64_t version,
                               const std::string& encoding) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("hello");
  w.key("req").value(req);
  w.key("version").value(version);
  w.key("encoding").value(encoding);
  w.end_object();
  return w.str();
}

std::string encode_open(std::uint64_t req, const service::SessionSpec& spec) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("open");
  w.key("req").value(req);
  w.key("spec");
  spec.to_json(w);
  w.end_object();
  return w.str();
}

std::string encode_restore(std::uint64_t req,
                           const service::SessionSpec& spec,
                           const std::string& snapshot) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("restore");
  w.key("req").value(req);
  w.key("spec");
  spec.to_json(w);
  w.key("snapshot").value(snapshot);
  w.end_object();
  return w.str();
}

std::string encode_tell(std::uint64_t req, std::uint64_t session,
                        core::ConfigId config,
                        const core::RunResult& result) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("tell");
  w.key("req").value(req);
  w.key("session").value(session);
  w.key("config").value(static_cast<std::uint64_t>(config));
  w.key("result");
  run_result_to_json(w, result);
  w.end_object();
  return w.str();
}

std::string encode_next_runs(std::uint64_t req) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("next_runs");
  w.key("req").value(req);
  w.end_object();
  return w.str();
}

std::string encode_snapshot_request(std::uint64_t req, std::uint64_t session) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("snapshot");
  w.key("req").value(req);
  w.key("session").value(session);
  w.end_object();
  return w.str();
}

std::string encode_result_request(std::uint64_t req, std::uint64_t session) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("result");
  w.key("req").value(req);
  w.key("session").value(session);
  w.end_object();
  return w.str();
}

std::string encode_close(std::uint64_t req, std::uint64_t session) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("close");
  w.key("req").value(req);
  w.key("session").value(session);
  w.end_object();
  return w.str();
}

std::string encode_opened(std::uint64_t req, std::uint64_t session) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("opened");
  w.key("req").value(req);
  w.key("session").value(session);
  w.end_object();
  return w.str();
}

std::string encode_told(std::uint64_t req, std::uint64_t session,
                        bool finished, bool quarantined,
                        const std::string& stop_reason) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("told");
  w.key("req").value(req);
  w.key("session").value(session);
  w.key("finished").value(finished);
  w.key("quarantined").value(quarantined);
  w.key("stop_reason").value(stop_reason);
  w.end_object();
  return w.str();
}

std::string encode_run(const service::PendingRun& run) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("run");
  w.key("session").value(run.session);
  w.key("config").value(static_cast<std::uint64_t>(run.config));
  w.key("attempt").value(run.attempt);
  // +infinity (no timeout) is encoded by omission, as in RunPolicy.
  if (std::isfinite(run.timeout_seconds)) {
    w.key("timeout_seconds").value_exact(run.timeout_seconds);
  }
  w.key("start_delay").value_exact(run.start_delay);
  w.end_object();
  return w.str();
}

std::string encode_snapshot_reply(std::uint64_t req, std::uint64_t session,
                                  const std::string& data) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("snapshot");
  w.key("req").value(req);
  w.key("session").value(session);
  w.key("data").value(data);
  w.end_object();
  return w.str();
}

std::string encode_result_reply(std::uint64_t req, std::uint64_t session,
                                bool finished, bool quarantined,
                                const std::string& stop_reason,
                                const core::OptimizerResult& result) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("result");
  w.key("req").value(req);
  w.key("session").value(session);
  w.key("finished").value(finished);
  w.key("quarantined").value(quarantined);
  w.key("stop_reason").value(stop_reason);
  w.key("result");
  optimizer_result_to_json(w, result);
  w.end_object();
  return w.str();
}

std::string encode_closed(std::uint64_t req, std::uint64_t session) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("closed");
  w.key("req").value(req);
  w.key("session").value(session);
  w.end_object();
  return w.str();
}

std::string encode_error(std::uint64_t req, const std::string& code,
                         const std::string& message, bool fatal) {
  util::JsonWriter w;
  w.begin_object();
  w.key("type").value("error");
  w.key("req").value(req);
  w.key("code").value(code);
  w.key("message").value(message);
  w.key("fatal").value(fatal);
  w.end_object();
  return w.str();
}

void run_result_to_json(util::JsonWriter& w, const core::RunResult& r) {
  w.begin_object();
  w.key("runtime_seconds").value_exact(r.runtime_seconds);
  w.key("cost").value_exact(r.cost);
  w.key("timed_out").value(r.timed_out);
  w.key("outcome").value(outcome_name(r.outcome));
  if (!r.metrics.empty()) {
    w.key("metrics").begin_array();
    for (double m : r.metrics) w.value_exact(m);
    w.end_array();
  }
  w.end_object();
}

core::RunResult run_result_from_json(const util::JsonValue& v) {
  core::RunResult r;
  r.runtime_seconds = v.at("runtime_seconds").as_double();
  r.cost = v.at("cost").as_double();
  r.timed_out = v.at("timed_out").as_bool();
  r.outcome = outcome_from_name(v.at("outcome").as_string());
  if (const auto* m = v.find("metrics")) {
    for (const util::JsonValue& x : m->items()) {
      r.metrics.push_back(x.as_double());
    }
  }
  return r;
}

void optimizer_result_to_json(util::JsonWriter& w,
                              const core::OptimizerResult& r) {
  w.begin_object();
  if (r.recommendation.has_value()) {
    w.key("recommendation")
        .value(static_cast<std::uint64_t>(*r.recommendation));
  } else {
    w.key("recommendation").null();
  }
  w.key("recommendation_feasible").value(r.recommendation_feasible);
  w.key("history").begin_array();
  for (const core::Sample& s : r.history) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(s.id));
    w.key("runtime_seconds").value_exact(s.runtime_seconds);
    w.key("cost").value_exact(s.cost);
    w.key("feasible").value(s.feasible);
    w.end_object();
  }
  w.end_array();
  w.key("failures").begin_array();
  for (const core::FailureRecord& f : r.failures) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(f.id));
    w.key("cost").value_exact(f.cost);
    w.key("after_samples").value(static_cast<std::uint64_t>(f.after_samples));
    w.end_object();
  }
  w.end_array();
  w.key("budget_spent").value_exact(r.budget_spent);
  w.key("budget_spent_on_failures").value_exact(r.budget_spent_on_failures);
  w.key("decision_seconds").value_exact(r.decision_seconds);
  w.key("decisions").value(static_cast<std::uint64_t>(r.decisions));
  w.end_object();
}

core::OptimizerResult optimizer_result_from_json(const util::JsonValue& v) {
  core::OptimizerResult r;
  const util::JsonValue& rec = v.at("recommendation");
  if (!rec.is_null()) {
    r.recommendation = static_cast<core::ConfigId>(rec.as_uint());
  }
  r.recommendation_feasible = v.at("recommendation_feasible").as_bool();
  for (const util::JsonValue& s : v.at("history").items()) {
    core::Sample sample;
    sample.id = static_cast<core::ConfigId>(s.at("id").as_uint());
    sample.runtime_seconds = s.at("runtime_seconds").as_double();
    sample.cost = s.at("cost").as_double();
    sample.feasible = s.at("feasible").as_bool();
    r.history.push_back(sample);
  }
  for (const util::JsonValue& f : v.at("failures").items()) {
    core::FailureRecord rec2;
    rec2.id = static_cast<core::ConfigId>(f.at("id").as_uint());
    rec2.cost = f.at("cost").as_double();
    rec2.after_samples =
        static_cast<std::size_t>(f.at("after_samples").as_uint());
    r.failures.push_back(rec2);
  }
  r.budget_spent = v.at("budget_spent").as_double();
  r.budget_spent_on_failures = v.at("budget_spent_on_failures").as_double();
  r.decision_seconds = v.at("decision_seconds").as_double();
  r.decisions = static_cast<std::size_t>(v.at("decisions").as_uint());
  return r;
}

}  // namespace lynceus::net
