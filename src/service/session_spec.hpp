#pragma once

/// \file session_spec.hpp
/// The declarative session surface of the tuning service: one value type,
/// `SessionSpec`, describes everything a session is — optimizer kind,
/// problem, optimizer options, run policy, seed — so the same description
/// can arrive as C++ code (`TuningService::open_session`), as a CLI flag
/// set (`lynceus_tune`), inside a snapshot, or as a length-prefixed JSON
/// frame over TCP (src/net/). A wire protocol cannot carry a C++ overload
/// set, so the spec is the unit the session API speaks.
///
/// ## One codec
///
/// `to_json()` / `from_json()` round-trip every *declarative* field
/// through util/json with bit-exact doubles (JsonWriter::value_exact), so
/// a spec parsed from a wire frame opens a session whose trajectory is
/// byte-identical to the same spec constructed in process — the network
/// determinism contract in src/net/tuning_server.hpp rests on this.
///
/// Three fields are runtime wiring and deliberately do NOT serialize:
///   * `problem` — an in-process pointer. Remote specs carry `problem_ref`
///     (suite / job / budget multiplier) instead, and the server resolves
///     it against its workload registry.
///   * `observer`, `model_factory`, `setup_cost` — process-local hooks.
///     A spec carrying any of them serializes fine (they are simply
///     dropped); a ConstraintSpec carrying a *functional* threshold does
///     not (to_json throws — a closure cannot cross the wire).
///
/// The flat knob set is the union of LynceusOptions /
/// MultiConstraintOptions / BoOptions; kinds ignore knobs they do not
/// have (BO reads only `ei_stop_fraction` + `model_factory`, RND reads
/// nothing but the seed). Defaults mirror the per-optimizer structs,
/// including the `LYNCEUS_INCREMENTAL_REFIT` / `LYNCEUS_BRANCH_PARALLEL`
/// environment toggles and multi_constraint's lookahead default of 1 —
/// except that from_json() reads an absent `incremental_refit` or
/// `branch_parallel` key as false, so a decoded spec never depends on
/// the decoding host's environment.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lynceus.hpp"
#include "core/types.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace lynceus::service {

/// Failure-handling policy applied by the service to a session (see the
/// "Run policy" section of service/tuning_service.hpp). The default
/// policy is inert: no retries, no timeout, no quarantine — behavior is
/// bitwise identical to a policy-less service.
struct RunPolicy {
  /// Total tries per proposed run (>= 1; 1 = no retries). A FAILED result
  /// is retried until this many attempts have been spent, then told to
  /// the stepper as a failure.
  std::size_t max_attempts = 1;
  /// Simulated-seconds delay before the k-th retry:
  /// backoff_base_seconds × backoff_multiplier^(k-1). 0 = immediate.
  double backoff_base_seconds = 0.0;
  double backoff_multiplier = 2.0;
  /// Absolute per-run timeout; +infinity = none.
  double run_timeout_seconds = std::numeric_limits<double>::infinity();
  /// When > 0, additionally cap each run at factor × the session problem's
  /// Tmax (a run past Tmax is infeasible regardless, so the cap only
  /// trades the tail of a doomed run's bill for a censored observation).
  /// The effective timeout is the smaller of both caps.
  double timeout_tmax_factor = 0.0;
  /// Quarantine a session after this many *consecutive* FAILED results
  /// (ok resets the streak, timeouts leave it unchanged); 0 = never.
  std::size_t quarantine_after = 0;

  void validate() const;

  /// JSON codec ("{}" round-trips to the inert default; the non-finite
  /// run_timeout sentinel is encoded by omission).
  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] static RunPolicy from_json(const util::JsonValue& v);
};

/// One auxiliary constraint of a multi_constraint session. The wire form
/// carries a constant threshold; in-process callers may instead install a
/// per-configuration threshold function (which cannot serialize).
struct ConstraintSpec {
  std::string name;
  std::size_t metric_index = 0;
  /// Constant threshold t_i (used when `threshold_fn` is empty).
  double threshold = 0.0;
  /// Optional per-configuration threshold; takes precedence. NOT
  /// serializable — SessionSpec::to_json throws if set.
  std::function<double(core::ConfigId)> threshold_fn;

  [[nodiscard]] core::ConstraintDef def() const;
};

/// Declarative reference to a problem the receiver resolves itself:
/// workload suite ("tf" | "scout" | "cherrypick" | a registered name),
/// job within the suite, and the paper's budget multiple b (budget =
/// b × mean profiling cost). Used instead of SessionSpec::problem when
/// the spec crosses a process boundary.
struct ProblemRef {
  std::string suite;
  std::string job;
  double budget_multiplier = 3.0;

  [[nodiscard]] bool empty() const noexcept {
    return suite.empty() && job.empty();
  }
};

struct SessionSpec {
  /// "lynceus" | "multi_constraint" | "bo" | "random".
  std::string optimizer = "lynceus";
  std::uint64_t seed = 1;

  /// The problem to tune, exactly one of:
  ///   * `problem` — in-process pointer (must outlive the session), or
  ///   * `problem_ref` — declarative reference the opening side resolves.
  const core::OptimizationProblem* problem = nullptr;
  ProblemRef problem_ref;

  // --- Flat optimizer knob set (union of the per-optimizer structs; see
  // --- the file comment for which kinds read which).
  unsigned lookahead = 2;  ///< multi_constraint defaults to 1 (from_json too)
  unsigned gh_points = 3;
  double gamma = 0.9;
  double feasibility_quantile = 0.99;
  unsigned screen_width = 0;
  double ei_stop_fraction = 0.0;
  double prune_weight = 1e-3;  ///< multi_constraint only
  bool incremental_refit = util::env_flag("LYNCEUS_INCREMENTAL_REFIT");
  bool branch_parallel = util::env_flag("LYNCEUS_BRANCH_PARALLEL");
  bool blacklist_failed = true;

  /// multi_constraint only; must be empty for other kinds.
  std::vector<ConstraintSpec> constraints;

  /// Per-session failure policy; empty = inherit the service-wide
  /// Options::run_policy.
  std::optional<RunPolicy> run_policy;

  // --- Runtime wiring (process-local, never serialized).
  core::OptimizerObserver* observer = nullptr;
  model::ModelFactory model_factory;
  core::SetupCostFn setup_cost;

  /// Factories over the per-optimizer option structs: copy every knob into
  /// a spec (pool/root_cache excluded — the service injects its shared
  /// ones at open).
  [[nodiscard]] static SessionSpec lynceus(
      const core::OptimizationProblem& problem,
      const core::LynceusOptions& options, std::uint64_t seed);
  [[nodiscard]] static SessionSpec multi_constraint(
      const core::OptimizationProblem& problem,
      const std::vector<core::ConstraintDef>& constraints,
      const core::MultiConstraintOptions& options, std::uint64_t seed);
  [[nodiscard]] static SessionSpec bo(const core::OptimizationProblem& problem,
                                      const core::BoOptions& options,
                                      std::uint64_t seed);
  [[nodiscard]] static SessionSpec random(
      const core::OptimizationProblem& problem, std::uint64_t seed);

  /// The per-optimizer option structs this spec denotes (pool/cache left
  /// null — callers inject them). Throws std::invalid_argument when the
  /// spec's kind does not match.
  [[nodiscard]] core::LynceusOptions lynceus_options() const;
  [[nodiscard]] core::MultiConstraintOptions multi_constraint_options() const;
  [[nodiscard]] core::BoOptions bo_options() const;

  /// Builds the session's stepper: resolves the kind, assembles its
  /// options with `pool`/`cache` injected, and calls the optimizer's
  /// make_stepper(problem, seed). Requires `problem` to be set (resolve
  /// `problem_ref` first when the spec came over a process boundary).
  [[nodiscard]] std::unique_ptr<core::OptimizerStepper> make_stepper(
      util::ThreadPool* pool, core::RootCache* cache) const;

  /// Structural validation (kind known, constraints only for
  /// multi_constraint, policy valid, ...). Does not require `problem`.
  void validate() const;

  /// One codec for CLI, snapshots and wire frames; see the file comment
  /// for what does not serialize. Doubles are bit-exact round trips.
  void to_json(util::JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static SessionSpec from_json(const util::JsonValue& v);
  [[nodiscard]] static SessionSpec from_json(const std::string& text);
};

}  // namespace lynceus::service
