#pragma once

/// \file bench.hpp
/// Shared vocabulary of the end-to-end tuning-server benchmark: workload
/// definitions, the seeded session stream, the replay runner the load
/// generator executes profiling runs with, result digests, the record a
/// remote run leaves behind, and the traced-run span tables.
///
/// The benchmark drives one `net::TuningServer` over loopback from a
/// single process: 2 shards, 2 client connections served by one client
/// thread. Everything the server sees is a generated `SessionSpec`; the
/// workload seed picks jobs and session seeds.

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/dataset.hpp"
#include "core/types.hpp"
#include "eval/runner.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"

namespace perfbench {

using namespace lynceus;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Server shards and client connections: shards plus connections stay
/// within a 4-core box, and one client thread multiplexes both
/// connections (see set_up for why both use the same transport thread).
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kConnections = 2;

/// Seconds the load runs before measurement starts. Closed loops ramp
/// their active sessions up over the first half, so session starts are
/// spread out instead of moving through the run as one wave.
inline constexpr double kWarmupSeconds = 3.0;

// --- Workloads -------------------------------------------------------------

enum class Loop { kClosed, kOpen };

struct Workload {
  std::string name;
  Loop loop = Loop::kClosed;
  /// Closed loop: sessions kept active on every shard at once. Sessions
  /// are opened ahead into per-shard pools so each shard always carries
  /// exactly this many (the server places sessions by id % shards).
  std::size_t active_per_shard = 1;
  /// Open loop: mean session arrivals per second (originals + repeats).
  double arrival_rate = 0.0;
  /// Open loop: wall-clock delay of a run whose simulated duration equals
  /// its dataset's mean runtime; other runs scale linearly.
  double run_delay_ms = 0.0;
  /// Per-shard RootCache capacity on the server (and the traced replay).
  std::size_t root_cache_capacity = 0;
  /// Tell latency limit for tell_slo_miss_ratio.
  double slo_ms = 0.0;
  /// Sessions (by stream index) whose final results define cno_p90 and
  /// explore_cost_usd; the same set on every run of one seed.
  std::size_t quality_sessions = 0;
  /// Open loop: snapshot, close and restore every session on the other
  /// connection once, this many tells after its bootstrap.
  bool snapshot_restore = false;
};

/// The three named workloads; throws std::invalid_argument on an unknown
/// name.
Workload workload_by_name(const std::string& name);

/// The bundled replay datasets (the same ones the server builds).
struct Datasets {
  std::vector<cloud::Dataset> scout, tf, cherrypick;
  Datasets();
  [[nodiscard]] const cloud::Dataset& find(const std::string& suite,
                                           const std::string& job) const;
};

/// One generated session: the spec the server receives, plus what the
/// load generator needs to execute its runs.
struct PlannedSession {
  service::SessionSpec spec;
  const cloud::Dataset* dataset = nullptr;
  /// In-process twin of spec.problem_ref (owned by the stream).
  const core::OptimizationProblem* problem = nullptr;
  eval::FaultPlan faults;  ///< inactive unless the workload injects
  /// Mean runtime of the dataset (open loop: scales run delays).
  double mean_runtime_s = 1.0;
  /// Open loop: arrival time after the load starts (warm-up included),
  /// seconds.
  double arrival_s = 0.0;
  /// Tells after which the session is snapshotted (0 = never).
  std::size_t snapshot_after = 0;
};

/// The seeded, unbounded stream of sessions of one workload.
class SessionStream {
 public:
  SessionStream(const Workload& workload, std::uint64_t seed,
                const Datasets& datasets);
  /// Session `i` of the stream (generated on first use, then cached).
  const PlannedSession& at(std::size_t i);
  /// One session per distinct job of the workload (set-up warm-up).
  [[nodiscard]] std::vector<service::SessionSpec> distinct_job_specs() const;

 private:
  struct Job {
    std::string suite;
    std::string job;
    unsigned lookahead = 1;
    unsigned screen_width = 24;
    double budget = 3.0;  ///< the paper's b (3 = medium)
  };
  PlannedSession make(std::size_t i);
  static service::SessionSpec spec_for(const Job& job, std::uint64_t seed);

  Workload workload_;
  std::uint64_t seed_;
  const Datasets* datasets_;
  std::vector<Job> jobs_;
  std::map<std::string, core::OptimizationProblem> problems_;
  std::deque<PlannedSession> cache_;  ///< stable references
};

// --- The eval layer: executing a pushed run ---------------------------------

struct ExecutedRun {
  core::RunResult result;
  /// Simulated seconds from submission until the run resolves (backoff
  /// delay + duration, capped at the timeout).
  double simulated_seconds = 0.0;
};

/// Executes `run` against the session's replay table under its fault plan.
/// Pure: the same (session, run) always yields the same result, so remote
/// and in-process replays agree regardless of interleaving.
ExecutedRun execute_run(const PlannedSession& session,
                        const service::PendingRun& run);

// --- Output check ----------------------------------------------------------

/// FNV-1a digest of a session's history ids and measurements, failure
/// ledger, budget bits, recommendation and decision count (decision time
/// excluded: it is wall-clock).
std::uint64_t digest(const core::OptimizerResult& r);

struct SoloReplay {
  core::OptimizerResult result;
  bool finished = false;
};
/// Replays `session` alone in process, telling the runs of `told` configs
/// in that order and sweeping after every tell as the server does.
SoloReplay replay_solo(const PlannedSession& session,
                       const std::vector<core::ConfigId>& told);
/// Runs `session` alone in process until it finishes.
SoloReplay replay_to_completion(const PlannedSession& session);

// --- What a remote run leaves behind ---------------------------------------

/// Client-side spans of one remote tell (traced run only). Times are
/// steady-clock nanoseconds; durations are nanoseconds.
struct ClientTellSpan {
  std::uint64_t key = 0;     ///< (stream index << 24) | tell index
  std::int64_t start = 0;    ///< closed loop: run picked up; open: due time
  std::int64_t eval_ns = 0;  ///< runner (closed) or generator lateness (open)
  std::int64_t encode_ns = 0;
  std::int64_t rtt_ns = 0;   ///< tell written → told frame received
  std::int64_t decode_ns = 0;
  std::int64_t end = 0;
};

/// One client operation, in send order (traced run only): what the
/// in-process replay of the same specs re-executes per shard.
struct LoggedOp {
  enum class Kind { kOpen, kRestore, kTell, kSnapshot, kClose };
  Kind kind = Kind::kOpen;
  std::size_t session = 0;    ///< stream index
  std::uint64_t wire_id = 0;  ///< remote session id the op addresses
  std::size_t tell_index = 0;
  core::ConfigId config = 0;
  core::RunResult result;
  std::string snapshot;       ///< restore: the remote snapshot text
  bool has_digest = false;    ///< close: remote result fetched just before
  std::uint64_t digest = 0;
};

struct SessionOutcome {
  std::size_t index = 0;  ///< stream index
  std::vector<core::ConfigId> told;  ///< configs told, in send order
  bool finished = false;
  bool has_result = false;
  core::OptimizerResult result;
  std::uint64_t digest = 0;
};

/// Messages captured in the traced run for codec re-timing.
struct CapturedTell {
  std::uint64_t req = 0, session = 0;
  core::ConfigId config = 0;
  core::RunResult result;
};
struct CapturedTold {
  std::uint64_t req = 0, session = 0;
  bool finished = false, quarantined = false;
  std::string stop_reason;
};

/// One slice (about a second) of the measurement window. Rate metrics
/// take the median slice, so a stretch of a run on a faster or slower
/// shared host moves a few slices instead of the whole figure.
struct Slice {
  double seconds = 0.0;
  double cpu_s = 0.0;  ///< process CPU spent in the slice
  /// Deciding tells answered in the slice: a session's last bootstrap
  /// tell and every later one, each of which can trigger a decision.
  /// The earlier bootstrap tells arrive in bursts and cost next to
  /// nothing, so counting them would make slice rates jumpy.
  std::size_t deciding_tells = 0;
};

struct RemoteRun {
  double window_s = 0.0;  ///< end of warm-up → last reply of the drain
  double peak_rss_mb = 0.0;
  std::vector<Slice> slices;  ///< whole slices before the deadline
  std::vector<double> tell_ms;  ///< latency of every tell answered after
                                ///< warm-up, in completion order
  /// Σ decisions / Σ deciding tells over every session of the run
  /// (warm-up included): scales slice rates to decision rates.
  double decisions_per_deciding_tell = 0.0;
  std::vector<double> gen_lag_ms;  ///< open loop: lateness of each send
  std::size_t attempted = 0;  ///< operations sent
  std::size_t failed = 0;     ///< protocol/socket errors
  std::vector<std::string> errors;
  std::vector<SessionOutcome> sessions;
  std::size_t decisions = 0;       ///< Σ OptimizerResult::decisions
  double decision_seconds = 0.0;   ///< Σ OptimizerResult::decision_seconds
  std::size_t retries = 0;         ///< pushed runs with attempt > 0
  std::size_t snapshots = 0;
  std::size_t snapshot_bytes = 0;  ///< snapshot reply frames
  std::size_t tell_frame_bytes = 0;  ///< tell + told + run frames
  std::int64_t runner_ns = 0;      ///< eval layer, summed over tells
  std::size_t lane_high_water = 0;
  std::size_t lane_stalls = 0;
  std::vector<std::size_t> shard_sessions;
  // Traced run only.
  std::vector<ClientTellSpan> spans;
  std::vector<LoggedOp> log;
  std::vector<CapturedTell> captured_tells;
  std::vector<service::PendingRun> captured_runs;
  std::vector<CapturedTold> captured_tolds;
};

// --- Driving the server ----------------------------------------------------

/// Constructs a server for `workload`, connects both clients and opens
/// (then closes) one session per distinct job, forcing the bundled dataset
/// builds. Stores the seconds this took in `seconds` and returns the
/// server and clients for the measured run.
struct Setup;
struct SetupDeleter {
  void operator()(Setup* s) const;
};
using SetupPtr = std::unique_ptr<Setup, SetupDeleter>;
SetupPtr set_up(const Workload& workload, SessionStream& stream,
                double& seconds);

/// Runs the workload against the set-up server for its warm-up plus
/// `seconds` of measurement, then drains, fetches every session's result
/// and closes it. `traced` records client spans (warm-up included), the
/// operation log and messages for codec re-timing.
RemoteRun run_remote(Setup& setup, const Workload& workload,
                     SessionStream& stream, double seconds, bool traced);

// --- Traced run: in-process replay and summaries ---------------------------

/// Per-tell service-side spans from the in-process replay, keyed like
/// ClientTellSpan::key.
struct ServiceTellSpan {
  std::uint64_t key = 0;
  std::int64_t tell_ns = 0;      ///< TuningService::tell
  std::int64_t sweep_ns = 0;     ///< TuningService::next_runs after it
  std::int64_t decision_ns = 0;  ///< Δ OptimizerResult::decision_seconds
  std::int64_t model_ns = 0;     ///< timed model calls inside the sweep
  std::size_t sweep_runs = 0;
};

struct ModelMethodStats {
  std::size_t calls = 0;
  std::size_t rows = 0;
  std::int64_t ns = 0;
};

struct ReplayTrace {
  std::vector<ServiceTellSpan> tells;
  std::vector<double> snapshot_us, restore_us;
  std::vector<double> viable, simulated_roots;
  ModelMethodStats fit, predict_subset, predict_all, append_and_update;
  std::size_t decisions = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t digest_checks = 0;
  std::vector<std::string> mismatches;
  double seconds = 0.0;
};

/// Replays the traced run's operation log in process: one TuningService
/// per shard (sessions partitioned by wire id % shards, same cache
/// capacity), each spec carrying a timing model decorator and a decision
/// observer, with spans around tell / next_runs / snapshot / restore.
/// Digests taken before logged closes must equal the remote ones.
ReplayTrace replay_traced(const RemoteRun& run, SessionStream& stream,
                          const Workload& workload);

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Re-times the public JSON and binary codecs on the captured messages.
void codec_metrics(const RemoteRun& run, double mean_tell_ms,
                   std::vector<Metric>& out);

/// Per-layer self time p50/p99, share of a tell and completeness.
void layer_metrics(const RemoteRun& run, const ReplayTrace& replay,
                   std::vector<Metric>& out);

/// Writes the span tables of a traced run (CSV) once, at the end.
void write_spans(const std::string& path, const RemoteRun& run,
                 const ReplayTrace& replay);

}  // namespace perfbench
