#pragma once

/// \file tuning_service.hpp
/// Multiplexes many concurrent tuning sessions — one ask/tell stepper per
/// job being tuned — behind a single service object: the process-level
/// building block of the ROADMAP's production tuning service.
///
/// The classic optimize() entrypoint blocks one thread for one job until
/// its budget runs out. Cloud profiling runs take minutes and complete
/// asynchronously, so a server must instead keep N sessions suspended
/// while their runs are in flight and advance whichever session's result
/// arrives next. With the optimizers inverted into ask/tell steppers
/// (core/stepper.hpp) that is exactly what this class does:
///
///   * `open_session(spec)` starts a session from one declarative
///     `SessionSpec` (service/session_spec.hpp: optimizer kind — Lynceus,
///     multi-constraint, BO or RND — problem, knobs, run policy, seed),
///     injecting the service's shared resources: the borrowed
///     `util::ThreadPool` (Options::pool) fanning out every session's
///     root simulations, and optionally one shared `core::RootCache`, so
///     a session that reaches a decision state another session already
///     decided (recurrent jobs, repeated specs) skips that decision.
///     Per-session observers and budgets ride in unchanged through the
///     optimizer options / the problem.
///   * `next_runs()` drains the ready queue: it ask()s every session with
///     no outstanding runs, in deterministic round-robin order (see
///     below), and returns the profiling runs to launch.
///   * `tell()` routes one completed run back to its session; when that
///     session's outstanding batch completes it re-enters the ready
///     queue.
///
/// ## Scheduling determinism
///
/// The ready queue is FIFO: sessions enter in open() order and re-enter
/// when their last outstanding tell() lands, so for a given sequence of
/// open/tell calls, next_runs() output is a pure function of that
/// sequence — no wall-clock, thread or hash-order dependence. Because
/// each stepper applies its tell()ed batches in canonical ask() order
/// (core/stepper.hpp), per-session trajectories are **bit-identical to
/// the session's solo optimize() run** no matter how many sessions are
/// multiplexed or how their completions interleave; the shared decision
/// cache cannot perturb this either (an exact-key hit returns the very
/// choice the skipped decision would make). tests/test_tuning_service.cpp pins both, up to
/// 64 interleaved sessions with out-of-order completions.
///
/// ## Run policy: retries, timeouts, quarantine
///
/// Real profiling runs fail (core::RunOutcome). The service interposes a
/// RunPolicy between the runner and the steppers:
///
///   * a FAILED result is retried up to `max_attempts` total tries, each
///     retry delayed by deterministic exponential backoff in *simulated*
///     time (PendingRun::start_delay — the driver applies it; no
///     wall-clock anywhere). The stepper is only told the failure once
///     attempts are exhausted; an eventual success is told as if the
///     failures never happened.
///   * every launched run carries a timeout (PendingRun::timeout_seconds):
///     the smaller of an absolute cap and `timeout_tmax_factor × Tmax` of
///     the session's problem — the paper's budget-capping instinct: a run
///     that has already exceeded Tmax can never be feasible, so letting it
///     keep billing the profiling budget buys nothing beyond the censored
///     observation, which the cap itself supplies.
///   * after `quarantine_after` consecutive FAILED results (successes
///     reset the streak; timeouts leave it unchanged), the session is
///     quarantined: its stepper is aborted with stop_reason
///     "runner_failed", queued retries are dropped, and late tell()s for
///     it are silently ignored so a drain loop reaches idle.
///
/// Retry attempt numbers are per (session, config) and monotone: the
/// fault-injection contract (eval/runner.hpp) keys fault draws by
/// (config, attempt), so a retried attempt gets fresh draws while replay
/// of the whole schedule stays byte-deterministic.
///
/// ## Snapshot / restore and crash safety
///
/// snapshot(session) serializes the session's complete resumable state
/// (the stepper snapshot of core/stepper.hpp). restore_*() reopens it —
/// in this process or another — given the same problem, options and
/// seed; the restored session finishes byte-identically. In-flight runs
/// at snapshot time are part of the state: results already told are
/// carried in the snapshot, still-missing ones are simply re-asked
/// for by next_runs() after restore (the pending batch survives).
///
/// snapshot_session(session) wraps the stepper snapshot together with the
/// run-policy state (attempt counters, failure streak, queued retries,
/// quarantine flag) in a "lynceus-service-session" JSON envelope;
/// restore() accepts either format and re-schedules any saved retries.
/// With Options::journal set, the service auto-snapshots a session at
/// open/restore and after every tell() — a crashed process restores every
/// session from its last journal entry and, because per-session
/// trajectories are interleaving-independent and fault draws are keyed by
/// (config, attempt), finishes each one byte-identically to the
/// uninterrupted run (the crash-recovery drill in tests/test_faults.cpp).
///
/// ## Sharded drain: many sessions on many cores
///
/// The FIFO loop advances sessions from one thread. For multi-core session
/// parallelism, drain_sharded() (below) drains K independent services on
/// K threads — the in-process twin of the network server's shard loops.
/// The caller places session i on shard `i % K`; every shard is a plain
/// FIFO service with its own runner, so per-session trajectories,
/// quarantine and journal-per-tell semantics are exactly the FIFO ones
/// above. Shards share nothing but what the caller hands them (problem,
/// dataset — read-only; a root-simulation pool, which serves concurrent
/// callers); a journal callback shared across shards is invoked from
/// every shard's thread and must be thread-safe.
///
/// Single-threaded by design: the service is an event-loop core — calls
/// are cheap state transitions (ask() decision work happens inside
/// next_runs()), and callers own the concurrency model around it.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/random_search.hpp"
#include "core/stepper.hpp"
#include "core/types.hpp"
#include "eval/runner.hpp"
#include "service/session_spec.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::service {

using SessionId = std::uint64_t;

/// One profiling run the driver must execute and tell() back. The policy
/// fields map 1:1 onto eval::AsyncTableRunner::SubmitOptions; drivers with
/// no fault/timeout support may ignore them (the defaults are inert).
struct PendingRun {
  SessionId session = 0;
  core::ConfigId config = 0;
  /// Attempt number for this (session, config): 0 for a first try,
  /// incremented per retry. Feed to the fault-injection layer.
  std::uint64_t attempt = 0;
  /// Kill the run at this cap (kTimedOut); +infinity = no cap.
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Retry backoff: start the run this many simulated seconds late.
  double start_delay = 0.0;
};

// RunPolicy (the failure-handling policy; see the "Run policy" section of
// the file comment) now lives in service/session_spec.hpp so a SessionSpec
// can carry a per-session policy across the wire.

class TuningService {
 public:
  struct Options {
    /// Root-simulation pool shared by every session's fan-out, borrowed:
    /// the caller owns it and keeps it alive for the service's lifetime
    /// (nullptr = decisions run inline) — LynceusOptions::pool's contract.
    /// Services on different threads may borrow one pool; it serves
    /// concurrent callers, and an idle worker helps whichever decision is
    /// running. The width changes only the wall clock, never a trajectory
    /// (core/lookahead.hpp's pooled-determinism contract).
    util::ThreadPool* pool = nullptr;
    /// Capacity of a service-owned decision cache (core::RootCache)
    /// shared across this service's sessions (0 = none). Its key is
    /// exact, so any mix of problems and specs may share it; trajectories
    /// are unaffected either way.
    std::size_t root_cache_capacity = 0;
    /// A decision cache borrowed instead, e.g. one a server shares across
    /// its shards (the caller owns it and keeps it alive for the
    /// service's lifetime; RootCache is thread-safe). Setting both this
    /// and root_cache_capacity throws std::invalid_argument.
    core::RootCache* cache = nullptr;
    /// Failure-handling policy applied to every session whose SessionSpec
    /// does not carry its own (default: inert).
    RunPolicy run_policy;
    /// Crash-safety journal: when set, invoked with (session id,
    /// snapshot_session(id)) at open/restore and after every tell() —
    /// persist the string; restore() of the latest entry per session
    /// resumes the service byte-identically after a crash. The callback
    /// must not call back into the service.
    std::function<void(SessionId, const std::string&)> journal;
  };

  TuningService();
  explicit TuningService(Options options);

  /// THE session entrypoint: opens a session described by one declarative
  /// SessionSpec (service/session_spec.hpp) — optimizer kind, problem,
  /// knobs, optional per-session RunPolicy, seed. The service injects its
  /// shared pool/cache into the stepper; `spec.problem` must be set (and
  /// outlive the session) — callers holding only a ProblemRef resolve it
  /// first (the network server does this via its workload registry). The
  /// CLI, the examples and the wire protocol all funnel through here.
  SessionId open_session(const SessionSpec& spec);

  /// Reopens a snapshot — either a bare stepper snapshot or a
  /// snapshot_session() envelope — into a fresh session built from `spec`
  /// (which must describe the saved session: same optimizer, problem,
  /// knobs and seed). The restored session finishes byte-identically.
  SessionId restore_session(const SessionSpec& spec,
                            const std::string& snapshot_json);

  /// Opens a session around a caller-built stepper (open_session is
  /// preferred — it injects the shared pool and cache; this overload wires
  /// in whatever the stepper was built with). The problem behind the
  /// stepper must outlive the session.
  SessionId open(std::unique_ptr<core::OptimizerStepper> stepper);

  /// Advances every ready session (deterministic round-robin; see file
  /// comment) and returns the profiling runs to launch. Sessions that
  /// finish during the sweep emit no runs — query finished()/result().
  /// `max_runs` caps the sweep (remaining ready sessions stay queued).
  [[nodiscard]] std::vector<PendingRun> next_runs(
      std::size_t max_runs = SIZE_MAX);

  /// Routes one completed run to its session, applying the run policy
  /// (retry scheduling, failure streaks, quarantine) first. Throws
  /// std::invalid_argument for an unknown session or a run the session did
  /// not ask for — with the strong exception guarantee: a throwing tell()
  /// leaves the service state untouched. Tells for a quarantined session
  /// are silently dropped (late completions of in-flight runs).
  void tell(SessionId session, core::ConfigId config,
            const core::RunResult& result);

  /// True when the session was quarantined by the run policy (its stepper
  /// reports stop_reason "runner_failed").
  [[nodiscard]] bool quarantined(SessionId session) const;
  /// Every open session currently quarantined, in id order.
  [[nodiscard]] std::vector<SessionId> quarantined_sessions() const;

  [[nodiscard]] bool finished(SessionId session) const;
  /// The stepper's stop reason (empty while running).
  [[nodiscard]] const std::string& stop_reason(SessionId session) const;
  /// The session's (partial, until finished) optimization result.
  [[nodiscard]] core::OptimizerResult result(SessionId session) const;
  [[nodiscard]] const core::OptimizerStepper& stepper(
      SessionId session) const;

  /// True when no session has runs in flight and none is ready to ask —
  /// i.e. next_runs() would return nothing.
  [[nodiscard]] bool idle() const noexcept {
    return ready_.empty() && in_flight_total_ == 0;
  }
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size() - closed_count_;
  }

  /// Releases a session's state (finished or abandoned mid-flight). Its
  /// id is never reused.
  void close(SessionId session);

  /// Serializes the session (see core/stepper.hpp "Snapshot format").
  [[nodiscard]] std::string snapshot(SessionId session) const;

  /// Serializes the session *including its run-policy state* (attempt
  /// counters, failure streak, queued retries, quarantine flag) in the
  /// "lynceus-service-session" envelope — what the journal emits.
  [[nodiscard]] std::string snapshot_session(SessionId session) const;

  /// Reopens a snapshot into a caller-built stepper (restore_session is
  /// preferred). Accepts both a bare stepper snapshot and a
  /// snapshot_session() envelope (the latter also re-schedules queued
  /// retries and restores the policy state). The restored session
  /// re-enters the ready queue unless finished. The whole snapshot is
  /// parsed and validated first (every config id range-checked against
  /// the space): a malformed one throws and registers no session.
  SessionId restore(std::unique_ptr<core::OptimizerStepper> stepper,
                    const std::string& snapshot_json);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The shared resources, for callers building their own steppers.
  [[nodiscard]] util::ThreadPool* shared_pool() noexcept {
    return options_.pool;
  }
  [[nodiscard]] core::RootCache* shared_cache() noexcept {
    return options_.cache != nullptr ? options_.cache : cache_.get();
  }

 private:
  struct Session {
    std::unique_ptr<core::OptimizerStepper> stepper;
    /// Failure-handling policy for THIS session: the spec's own when
    /// open_session() got one, the service-wide Options::run_policy
    /// otherwise. All retry/timeout/quarantine decisions read this.
    RunPolicy policy;
    std::size_t in_flight = 0;  ///< runs handed out, not yet told
    bool queued = false;        ///< in ready_
    bool closed = false;
    bool quarantined = false;   ///< run policy gave up on this session
    /// Results received per config (tell-time increment), so a relaunch
    /// after crash restore reuses the lost in-flight run's attempt number.
    std::unordered_map<core::ConfigId, std::uint64_t> attempts;
    std::size_t consecutive_failures = 0;
    /// Configs with a retry queued in retry_queue_ (still outstanding in
    /// the stepper, so a ready-sweep must not re-emit them).
    std::set<core::ConfigId> retry_pending;
  };

  /// A retry awaiting emission by next_runs().
  struct RetryRun {
    SessionId session = 0;
    core::ConfigId config = 0;
    std::uint64_t attempt = 0;
    double start_delay = 0.0;
  };

  Session& session_at(SessionId id);
  [[nodiscard]] const Session& session_at(SessionId id) const;
  SessionId register_session(std::unique_ptr<core::OptimizerStepper> stepper);
  void enqueue_ready(SessionId id);
  [[nodiscard]] double effective_timeout(const Session& s) const;
  void quarantine(SessionId id);
  void journal(SessionId id);

  Options options_;
  std::unique_ptr<core::RootCache> cache_;
  std::vector<Session> sessions_;  ///< index = SessionId
  std::deque<SessionId> ready_;    ///< FIFO of sessions to ask next
  std::deque<RetryRun> retry_queue_;  ///< retries to emit, FIFO
  std::size_t in_flight_total_ = 0;
  std::size_t closed_count_ = 0;
};

/// Drains `service` to completion against the simulated-async replay
/// runner: launches everything next_runs() asks for (tagged with the
/// session id, with the run policy's timeout/attempt/backoff applied),
/// routes each completion — earliest simulated finish first, i.e. out of
/// submission order — back to its session, and returns once the service
/// is idle. Under fault injection this includes failed and timed-out
/// completions; sessions the policy quarantines simply stop emitting runs
/// and the drain still reaches idle. The event loop the CLI batch mode,
/// the service benchmarks and the examples all share; a real deployment
/// replaces it with its cluster transport. If only forever-hung runs
/// remain (an un-capped hang), it returns with those sessions unfinished.
void drain(TuningService& service, eval::AsyncTableRunner& runner);

/// The sharded drain ("Sharded drain" in the file comment): runs drain()
/// on every shard `services[k]` against its own `runners[k]`, on one
/// thread per shard — the caller's thread is one of them — and returns
/// once every shard has returned. If shards throw, every thread is still
/// joined first; then the exception of the lowest-numbered failing shard
/// is rethrown. Throws std::invalid_argument when the two vectors differ
/// in size.
void drain_sharded(std::vector<TuningService>& services,
                   std::vector<eval::AsyncTableRunner>& runners);

}  // namespace lynceus::service
