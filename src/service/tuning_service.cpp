#include "service/tuning_service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"

namespace lynceus::service {

namespace {

/// A service-session envelope's config id, range-checked against the
/// space *before* it is narrowed to ConfigId: a client-written id of
/// 2^32 + k would otherwise alias config k.
core::ConfigId envelope_config_id(const util::JsonValue& v,
                                  std::size_t space_rows,
                                  const char* section) {
  const std::uint64_t id = v.as_uint();
  if (id >= space_rows) {
    throw std::runtime_error(std::string("TuningService::restore: policy ") +
                             section + " config id " + std::to_string(id) +
                             " is outside the " + std::to_string(space_rows) +
                             "-row configuration space");
  }
  return static_cast<core::ConfigId>(id);
}

}  // namespace

TuningService::TuningService() : TuningService(Options{}) {}

TuningService::TuningService(Options options) : options_(std::move(options)) {
  options_.run_policy.validate();
  if (options_.root_cache_capacity > 0) {
    if (options_.cache != nullptr) {
      throw std::invalid_argument(
          "TuningService: set root_cache_capacity or a borrowed cache, not "
          "both");
    }
    cache_ = std::make_unique<core::RootCache>(
        core::RootCache::Options{options_.root_cache_capacity});
  }
}

TuningService::Session& TuningService::session_at(SessionId id) {
  if (id >= sessions_.size() || sessions_[id].closed) {
    throw std::invalid_argument("TuningService: unknown or closed session " +
                                std::to_string(id));
  }
  return sessions_[id];
}

const TuningService::Session& TuningService::session_at(SessionId id) const {
  if (id >= sessions_.size() || sessions_[id].closed) {
    throw std::invalid_argument("TuningService: unknown or closed session " +
                                std::to_string(id));
  }
  return sessions_[id];
}

SessionId TuningService::register_session(
    std::unique_ptr<core::OptimizerStepper> stepper) {
  if (stepper == nullptr) {
    throw std::invalid_argument("TuningService: null stepper");
  }
  Session s;
  s.stepper = std::move(stepper);
  s.policy = options_.run_policy;
  sessions_.push_back(std::move(s));
  return sessions_.size() - 1;
}

void TuningService::enqueue_ready(SessionId id) {
  Session& s = sessions_[id];
  if (s.queued || s.closed || s.stepper->finished()) return;
  ready_.push_back(id);
  s.queued = true;
}

double TuningService::effective_timeout(const Session& s) const {
  const RunPolicy& p = s.policy;
  double t = p.run_timeout_seconds;
  if (p.timeout_tmax_factor > 0.0) {
    t = std::min(t,
                 p.timeout_tmax_factor * s.stepper->problem().tmax_seconds);
  }
  return t;
}

void TuningService::journal(SessionId id) {
  if (options_.journal) options_.journal(id, snapshot_session(id));
}

SessionId TuningService::open(
    std::unique_ptr<core::OptimizerStepper> stepper) {
  const SessionId id = register_session(std::move(stepper));
  enqueue_ready(id);
  journal(id);
  return id;
}

SessionId TuningService::open_session(const SessionSpec& spec) {
  RunPolicy policy = spec.run_policy.value_or(options_.run_policy);
  policy.validate();
  const SessionId id = open(spec.make_stepper(shared_pool(), shared_cache()));
  sessions_[id].policy = policy;
  return id;
}

SessionId TuningService::restore_session(const SessionSpec& spec,
                                         const std::string& snapshot_json) {
  RunPolicy policy = spec.run_policy.value_or(options_.run_policy);
  policy.validate();
  const SessionId id =
      restore(spec.make_stepper(shared_pool(), shared_cache()), snapshot_json);
  sessions_[id].policy = policy;
  return id;
}

std::vector<PendingRun> TuningService::next_runs(std::size_t max_runs) {
  std::vector<PendingRun> out;
  // Queued retries first (their runs are already accounted in_flight —
  // the failed attempt never decremented it). The retry_pending flags of
  // the emitted retries are cleared only after the ready sweep below: a
  // session restored mid-batch sits in the ready queue with its retry
  // still queued, and the sweep must keep skipping the retried config or
  // it would be emitted twice.
  std::vector<std::pair<SessionId, core::ConfigId>> emitted_retries;
  while (!retry_queue_.empty() && out.size() < max_runs) {
    const RetryRun r = retry_queue_.front();
    Session& s = sessions_[r.session];
    if (s.closed || s.quarantined) {
      // Defensive: quarantine/close purge the queue eagerly.
      retry_queue_.pop_front();
      continue;
    }
    retry_queue_.pop_front();
    emitted_retries.emplace_back(r.session, r.config);
    PendingRun run;
    run.session = r.session;
    run.config = r.config;
    run.attempt = r.attempt;
    run.timeout_seconds = effective_timeout(s);
    run.start_delay = r.start_delay;
    out.push_back(run);
  }
  // One sweep over the sessions currently ready; sessions that finish emit
  // nothing, sessions that ask emit their batch and wait for tell()s.
  std::size_t remaining = ready_.size();
  while (remaining-- > 0 && out.size() < max_runs) {
    const SessionId id = ready_.front();
    ready_.pop_front();
    Session& s = sessions_[id];
    s.queued = false;
    if (s.closed || s.stepper->finished()) continue;
    const core::StepAction& action = s.stepper->ask();
    if (action.kind == core::StepAction::Kind::Finished) continue;
    // outstanding_configs(), not action.configs: a session restored from a
    // mid-batch snapshot already holds some of the batch's results. Configs
    // whose retry is queued (possible after restoring a journal envelope)
    // are emitted by the retry loop above, not re-launched here — but they
    // still count as in flight.
    const std::vector<core::ConfigId> todo = s.stepper->outstanding_configs();
    const double timeout = effective_timeout(s);
    for (core::ConfigId config : todo) {
      if (s.retry_pending.count(config) != 0) continue;
      PendingRun run;
      run.session = id;
      run.config = config;
      // Tell-time attempt counting: the count equals results received, so
      // a relaunch after crash restore reuses the lost run's attempt
      // number and replays its fault draw.
      const auto it = s.attempts.find(config);
      run.attempt = it == s.attempts.end() ? 0 : it->second;
      run.timeout_seconds = timeout;
      out.push_back(run);
    }
    // Everything outstanding — including retry-pending configs — is now in
    // flight. A freshly opened session entered the sweep with in_flight 0;
    // a session restored mid-batch entered with its outstanding runs
    // already counted, so adjust by the difference.
    in_flight_total_ -= s.in_flight;
    s.in_flight = todo.size();
    in_flight_total_ += s.in_flight;
  }
  for (const auto& [session, config] : emitted_retries) {
    sessions_[session].retry_pending.erase(config);
  }
  return out;
}

void TuningService::tell(SessionId session, core::ConfigId config,
                         const core::RunResult& result) {
  Session& s = session_at(session);
  // Late completion of a run that was in flight when the session was
  // quarantined: dropped, so drain loops reach idle.
  if (s.quarantined) return;
  if (s.in_flight == 0) {
    throw std::invalid_argument(
        "TuningService::tell: session " + std::to_string(session) +
        " has no run in flight");
  }
  // Validate before mutating anything (strong exception guarantee): the
  // config must be an untold batch member whose retry is not still queued.
  if (s.retry_pending.count(config) != 0) {
    throw std::invalid_argument(
        "TuningService::tell: configuration " + std::to_string(config) +
        " of session " + std::to_string(session) +
        " is awaiting its retry, no result is due");
  }
  const std::vector<core::ConfigId> outstanding =
      s.stepper->outstanding_configs();
  if (std::find(outstanding.begin(), outstanding.end(), config) ==
      outstanding.end()) {
    throw std::invalid_argument(
        "TuningService::tell: configuration " + std::to_string(config) +
        " is not an untold outstanding run of session " +
        std::to_string(session));
  }

  const RunPolicy& policy = s.policy;
  const std::uint64_t attempts_used = ++s.attempts[config];
  if (result.failed()) {
    ++s.consecutive_failures;
    if (policy.quarantine_after > 0 &&
        s.consecutive_failures >= policy.quarantine_after) {
      quarantine(session);
      journal(session);
      return;
    }
    if (attempts_used < policy.max_attempts) {
      // Retry instead of telling the stepper: the run stays in flight.
      RetryRun retry;
      retry.session = session;
      retry.config = config;
      retry.attempt = attempts_used;
      retry.start_delay =
          policy.backoff_base_seconds *
          std::pow(policy.backoff_multiplier,
                   static_cast<double>(attempts_used - 1));
      retry_queue_.push_back(retry);
      s.retry_pending.insert(config);
      journal(session);
      return;
    }
    // Attempts exhausted: the stepper records the failure.
  } else if (result.ok()) {
    s.consecutive_failures = 0;
  }
  s.stepper->tell(config, result);
  --s.in_flight;
  --in_flight_total_;
  // The batch is complete once the stepper holds nothing outstanding;
  // the session then re-enters the FIFO ready queue.
  if (s.in_flight == 0) enqueue_ready(session);
  journal(session);
}

void TuningService::quarantine(SessionId id) {
  Session& s = sessions_[id];
  s.stepper->abort("runner_failed");
  s.quarantined = true;
  in_flight_total_ -= s.in_flight;
  s.in_flight = 0;
  s.retry_pending.clear();
  retry_queue_.erase(
      std::remove_if(retry_queue_.begin(), retry_queue_.end(),
                     [id](const RetryRun& r) { return r.session == id; }),
      retry_queue_.end());
}

bool TuningService::quarantined(SessionId session) const {
  return session_at(session).quarantined;
}

std::vector<SessionId> TuningService::quarantined_sessions() const {
  std::vector<SessionId> out;
  for (SessionId id = 0; id < sessions_.size(); ++id) {
    if (!sessions_[id].closed && sessions_[id].quarantined) {
      out.push_back(id);
    }
  }
  return out;
}

bool TuningService::finished(SessionId session) const {
  return session_at(session).stepper->finished();
}

const std::string& TuningService::stop_reason(SessionId session) const {
  return session_at(session).stepper->stop_reason();
}

core::OptimizerResult TuningService::result(SessionId session) const {
  return session_at(session).stepper->result();
}

const core::OptimizerStepper& TuningService::stepper(
    SessionId session) const {
  return *session_at(session).stepper;
}

void TuningService::close(SessionId session) {
  Session& s = session_at(session);
  in_flight_total_ -= s.in_flight;
  s.in_flight = 0;
  s.closed = true;
  s.stepper.reset();
  s.retry_pending.clear();
  retry_queue_.erase(
      std::remove_if(
          retry_queue_.begin(), retry_queue_.end(),
          [session](const RetryRun& r) { return r.session == session; }),
      retry_queue_.end());
  ++closed_count_;
  // A queued entry for a closed session is skipped by next_runs().
}

std::string TuningService::snapshot(SessionId session) const {
  return session_at(session).stepper->snapshot();
}

std::string TuningService::snapshot_session(SessionId session) const {
  const Session& s = session_at(session);
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value("lynceus-service-session");
  w.key("version").value(1);
  w.key("policy").begin_object();
  w.key("consecutive_failures")
      .value(static_cast<std::uint64_t>(s.consecutive_failures));
  w.key("quarantined").value(s.quarantined);
  // The attempts map is unordered; serialize sorted by config so the
  // envelope bytes are deterministic.
  std::vector<std::pair<core::ConfigId, std::uint64_t>> attempts(
      s.attempts.begin(), s.attempts.end());
  std::sort(attempts.begin(), attempts.end());
  w.key("attempts").begin_array();
  for (const auto& [config, count] : attempts) {
    w.begin_object();
    w.key("config").value(static_cast<std::uint64_t>(config));
    w.key("count").value(count);
    w.end_object();
  }
  w.end_array();
  w.key("retries").begin_array();
  for (const RetryRun& r : retry_queue_) {
    if (r.session != session) continue;
    w.begin_object();
    w.key("config").value(static_cast<std::uint64_t>(r.config));
    w.key("attempt").value(r.attempt);
    w.key("delay").value_exact(r.start_delay);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("stepper").value(s.stepper->snapshot());
  w.end_object();
  return w.str();
}

SessionId TuningService::restore(
    std::unique_ptr<core::OptimizerStepper> stepper,
    const std::string& snapshot_json) {
  if (stepper == nullptr) {
    throw std::invalid_argument("TuningService: null stepper");
  }
  const util::JsonValue v = util::parse_json(snapshot_json);
  const util::JsonValue* format = v.find("format");
  if (format != nullptr &&
      format->type() == util::JsonValue::Type::String &&
      format->as_string() == "lynceus-service-session") {
    if (v.at("version").as_int() != 1) {
      throw std::runtime_error(
          "TuningService::restore: unsupported service-session version");
    }
    // Parse and validate the whole envelope before registering, so a
    // malformed one throws with no half-restored session left behind.
    stepper->restore(v.at("stepper").as_string());
    const std::size_t rows = stepper->problem().space->size();
    const util::JsonValue& policy = v.at("policy");
    const auto consecutive_failures =
        static_cast<std::size_t>(policy.at("consecutive_failures").as_uint());
    const bool quarantined = policy.at("quarantined").as_bool();
    std::unordered_map<core::ConfigId, std::uint64_t> attempts;
    for (const util::JsonValue& a : policy.at("attempts").items()) {
      attempts[envelope_config_id(a.at("config"), rows, "attempts")] =
          a.at("count").as_uint();
    }
    std::vector<RetryRun> retries;
    for (const util::JsonValue& r : policy.at("retries").items()) {
      RetryRun retry;
      retry.config = envelope_config_id(r.at("config"), rows, "retries");
      retry.attempt = r.at("attempt").as_uint();
      retry.start_delay = r.at("delay").as_double();
      retries.push_back(retry);
    }

    const SessionId id = register_session(std::move(stepper));
    Session& s = sessions_[id];
    s.consecutive_failures = consecutive_failures;
    s.quarantined = quarantined;
    s.attempts = std::move(attempts);
    for (RetryRun& retry : retries) {
      retry.session = id;
      retry_queue_.push_back(retry);
      s.retry_pending.insert(retry.config);
    }
    // Runs in flight at the crash (retry-pending ones included) are still
    // owed a result: count them so a tell() or a retry emission arriving
    // before the first ready sweep finds consistent accounting. The sweep
    // re-launches the lost ones and keeps the count.
    s.in_flight = s.stepper->outstanding_configs().size();
    in_flight_total_ += s.in_flight;
    enqueue_ready(id);
    journal(id);
    return id;
  }
  stepper->restore(snapshot_json);
  const SessionId id = register_session(std::move(stepper));
  enqueue_ready(id);
  journal(id);
  return id;
}

void drain(TuningService& service, eval::AsyncTableRunner& runner) {
  while (true) {
    for (const PendingRun& run : service.next_runs()) {
      eval::AsyncTableRunner::SubmitOptions opts;
      opts.timeout_seconds = run.timeout_seconds;
      opts.attempt = run.attempt;
      opts.start_delay = run.start_delay;
      runner.submit(run.session, run.config, opts);
    }
    const auto completion = runner.next_completion();
    if (!completion.has_value()) return;
    service.tell(completion->tag, completion->config, completion->result);
  }
}

void drain_sharded(std::vector<TuningService>& services,
                   std::vector<eval::AsyncTableRunner>& runners) {
  if (services.size() != runners.size()) {
    throw std::invalid_argument(
        "drain_sharded: one runner per service required");
  }
  std::vector<std::exception_ptr> errors(services.size());
  const auto drain_shard = [&](std::size_t k) {
    try {
      drain(services[k], runners[k]);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(services.size());
  try {
    for (std::size_t k = 1; k < services.size(); ++k) {
      threads.emplace_back(drain_shard, k);
    }
  } catch (...) {
    // Could not start a thread: join the ones already running first.
    for (std::thread& t : threads) t.join();
    throw;
  }
  if (!services.empty()) drain_shard(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace lynceus::service
