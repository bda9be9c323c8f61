#pragma once

/// \file stepper.hpp
/// The inverted (ask/tell) form of the optimizer loop, and the machinery
/// every optimizer's suspend/resume state machine shares.
///
/// The paper's Algorithm 1 is a closed propose–profile–update loop: every
/// `Optimizer::optimize(problem, runner, seed)` in this repo used to block
/// inside that loop until the budget ran out. Real profiling runs take
/// minutes and complete asynchronously across many concurrently tuned jobs
/// (the ROADMAP's production-service north star; Tuneful and the Tencent
/// Spark tuner are built as ask/tell services for the same reason), so the
/// loop is inverted here:
///
///   * `ask()` computes the optimizer's next move *without touching a
///     JobRunner*: a batch of configurations to profile (the LHS bootstrap
///     batch first, then one configuration per decision), or a stop
///     reason. ask() is idempotent — it returns the same pending action
///     until the outstanding runs are resolved.
///   * `tell(config, result)` hands back one completed run. Results for a
///     batch may arrive in ANY order (the caller launches them
///     concurrently); the stepper buffers them and applies the whole batch
///     in the canonical ask() order once the last one lands, so the
///     optimizer state — and hence the trajectory — is independent of
///     completion order.
///   * `drive()` is the thin loop reconstructing the classic blocking
///     entrypoint; each optimizer's optimize() is exactly
///     `drive(*make_stepper(problem, seed), runner)`.
///
/// ## State machine
///
///   Bootstrap --ask--> Profile{LHS batch}   --all told--> Decide
///       (warm-start priors skip straight to Decide)
///   Decide    --ask--> Profile{one config}  --told-->      Decide
///   Decide    --ask--> Finished{stop reason}               (terminal)
///
/// ask() performs the decision work (model refit, Γ filter, path
/// simulation) and the observer's on_decision/on_stop callbacks; tell()
/// performs the state update (budget charge, sample append, setup-cost
/// spend) and on_run. A Finished action is terminal and idempotent.
///
/// ## Determinism contract
///
/// Driving a stepper with a deterministic runner reproduces the classic
/// optimize() trajectory **bit-for-bit** — same sample ids in the same
/// order, same costs, same budget arithmetic (identical floating-point
/// operation order), same recommendation, same decision count — for all
/// four optimizers, with the root cache, incremental refit and branch
/// parallelism on or off. Out-of-order tell()s cannot perturb this: batch
/// results are applied in ask() order regardless of arrival order, and a
/// decision is only ever computed when no run is outstanding. The
/// trajectory-identity suite (tests/test_stepper.cpp) and the CI
/// `trajectory_dump --via-steps` diff enforce the contract.
///
/// ## Snapshot format
///
/// snapshot() serializes the complete resumable state as one JSON object
/// (util/json; doubles via JsonWriter::value_exact, so write→parse is
/// bit-exact):
///
///   {
///     "format": "lynceus-session", "version": 1,
///     "optimizer": <name()>,            // restore() refuses a mismatch
///     "space_rows": N,                  // config-space size sanity check
///     "phase": "bootstrap" | "decide" | "finished",
///     "rng": {"s0".."s3", "spare", "has_spare"},   // xoshiro256** state
///     "budget_spent": <exact double>,
///     "budget_failed": <exact double>,  // only when failures occurred
///     "samples": [{"id", "runtime", "cost", "feasible"}, ...],
///     "failures": [{"id", "cost", "seq"}, ...],  // only when non-empty;
///                                       // seq = FailureRecord::after_samples
///     "pending": [config, ...],         // outstanding ask() batch
///     "told": [null | {"runtime", "cost", "timed_out", "outcome",
///                      "metrics"}, ...],  // "outcome" only when != ok
///     "stop_reason": <string>,          // finished only
///     "decisions": N, "decision_seconds": <double>,
///     "extra": { ... }                  // optimizer-specific (iteration
///   }                                   // counter, metrics, model state)
///
/// Failure-aware additions ("budget_failed", "failures", "outcome") are
/// emitted only when a fault actually occurred, so fault-free snapshots are
/// byte-identical to the pre-failure-aware format and version 1 snapshots
/// from either era restore interchangeably (absent keys default to the
/// fault-free reading). Restore interleaves the saved failures with the
/// samples by their `seq` key, replaying the exact event order — which is
/// what makes the untested-list permutation (and hence the resumed
/// trajectory) byte-identical under fault injection too.
///
/// restore() rebuilds a *freshly constructed* stepper (same problem,
/// options and seed — none of those are serialized) to the saved state:
/// samples are replayed in order (which reconstructs the exact
/// untested-list permutation), the RNG stream continues bit-identically,
/// and buffered partial batches are reinstated. A restored session
/// finishes **byte-identically** to the uninterrupted run. Model fit
/// state does not need to be part of the snapshot for that guarantee —
/// every decision refits from (samples, derived seed) deterministically —
/// but steppers that own a persistently fitted model (BO) embed it via
/// Regressor::save_fit so the restored process matches the saved one
/// in memory, not just in trajectory.
///
/// Observers are runtime wiring, not state: a restored stepper fires
/// events from the resume point onward only.

#include <optional>
#include <string>
#include <vector>

#include "core/sequential.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "util/json.hpp"

namespace lynceus::core {

/// What the driver must do next (returned by OptimizerStepper::ask()).
struct StepAction {
  enum class Kind {
    /// Profile every configuration in `configs` (any order, concurrently
    /// if desired) and tell() each result back.
    Profile,
    /// The run is over; `stop_reason` says why. Terminal.
    Finished,
  };

  Kind kind = Kind::Finished;
  std::vector<ConfigId> configs;
  std::string stop_reason;
};

/// Base of the four optimizer state machines (file comment above). The
/// base owns the phase logic, the canonical-order result application, the
/// observer plumbing and the snapshot scaffolding; subclasses implement
/// decide() plus optional apply/save hooks. The problem passed at
/// construction must outlive the stepper.
class OptimizerStepper {
 public:
  virtual ~OptimizerStepper() = default;

  OptimizerStepper(const OptimizerStepper&) = delete;
  OptimizerStepper& operator=(const OptimizerStepper&) = delete;

  /// The pending action. Computes the next decision when no run is
  /// outstanding; otherwise returns the current batch unchanged. The
  /// reference stays valid until the next tell()/restore() call.
  [[nodiscard]] const StepAction& ask();

  /// Supplies the result of one outstanding run. `config` must be an
  /// untold member of the current Profile batch (std::invalid_argument
  /// otherwise; std::logic_error when nothing is outstanding).
  ///
  /// Non-ok results are first-class: a kFailed result records a
  /// FailureRecord (partial cost billed, config blacklisted when the
  /// optimizer's `blacklist_failed` option is set — no sample); a
  /// kTimedOut result records a censored sample at the cap (never
  /// feasible). If every bootstrap run fails, the stepper finishes with
  /// stop_reason "no_successful_runs" instead of attempting a decision on
  /// an empty training set.
  void tell(ConfigId config, const RunResult& result);

  /// Forcibly finishes the run with the given stop reason (e.g. the tuning
  /// service quarantining a session whose runner keeps failing). Any
  /// outstanding batch is discarded; late tell()s then throw like on any
  /// finished stepper. Idempotent once finished.
  void abort(const std::string& reason);

  /// True once ask() has reported Finished.
  [[nodiscard]] bool finished() const noexcept {
    return phase_ == Phase::Finished;
  }

  /// Number of asked-but-untold runs.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return action_ready_ && action_.kind == StepAction::Kind::Profile
               ? action_.configs.size() - told_count_
               : 0;
  }

  /// The untold members of the current Profile batch in canonical order
  /// (empty when nothing is outstanding). After a restore() of a snapshot
  /// taken mid-batch this is the set still to be (re-)launched — results
  /// already told are carried inside the snapshot.
  [[nodiscard]] std::vector<ConfigId> outstanding_configs() const;

  /// The Finished action's reason; empty while running.
  [[nodiscard]] const std::string& stop_reason() const noexcept {
    return action_.kind == StepAction::Kind::Finished ? action_.stop_reason
                                                      : empty_;
  }

  /// The result so far (identical to the classic optimize() return once
  /// finished(); a partial trajectory before that).
  [[nodiscard]] OptimizerResult result() const;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const OptimizationProblem& problem() const noexcept {
    return *st_.problem;
  }

  /// Serializes the resumable state (see the snapshot format above).
  [[nodiscard]] std::string snapshot() const;

  /// Restores a snapshot into this freshly constructed stepper (no ask()
  /// or tell() may have happened yet). The stepper must have been built
  /// with the same problem, options and seed as the saved one; the
  /// optimizer name and space size are verified, the rest is the caller's
  /// contract. Throws std::runtime_error on malformed input (including a
  /// "decide" phase with no sample, a state the live loop never reaches)
  /// or a mismatched stepper, std::logic_error when this stepper already
  /// ran.
  void restore(const std::string& snapshot_json);

 protected:
  OptimizerStepper(const OptimizationProblem& problem, std::uint64_t seed,
                   OptimizerObserver* observer);

  /// Decision hook, called by ask() with the bootstrap applied and no run
  /// outstanding: returns the configuration to profile next, or sets
  /// `stop_reason` and returns nullopt to finish. Implementations manage
  /// timer_ themselves (start/stop around the decision computation,
  /// discard on a stop) and fire their own on_decision events.
  virtual std::optional<ConfigId> decide(std::string& stop_reason) = 0;

  /// Applies one bootstrap run in canonical order. Default:
  /// LoopState::record.
  virtual void apply_bootstrap_run(ConfigId config, const RunResult& r);

  /// Applies one decision run. Default: LoopState::record + on_run.
  virtual void apply_decision_run(ConfigId config, const RunResult& r);

  /// Applies one FAILED run (bootstrap or decision — failures carry no
  /// phase-specific state). Default: LoopState::record_failure +
  /// on_failure. Note Lynceus intentionally does NOT override this: the
  /// per-run setup cost is charged only for runs that actually set up and
  /// produced a measurement; a failed attempt bills exactly its reported
  /// partial cost.
  virtual void apply_failed_run(ConfigId config, const RunResult& r);

  /// Optimizer-specific snapshot members, written into / read from the
  /// snapshot's "extra" object.
  virtual void save_extra(util::JsonWriter& w) const;
  virtual void load_extra(const util::JsonValue& extra);

  LoopState st_;
  DecisionTimer timer_;
  OptimizerObserver* observer_ = nullptr;

 private:
  enum class Phase { Bootstrap, Decide, Finished };

  /// Fires on_bootstrap for every sample once the bootstrap is in place.
  void finish_bootstrap();
  void compute_next();
  /// Transitions to Finished with `stop_reason`, discarding any
  /// outstanding batch, and fires on_stop.
  void finish(const std::string& stop_reason);

  Phase phase_ = Phase::Bootstrap;
  StepAction action_;
  bool action_ready_ = false;  ///< action_ reflects the current state
  std::vector<std::optional<RunResult>> told_;  ///< parallel to configs
  std::size_t told_count_ = 0;
  bool started_ = false;  ///< any ask()/tell() yet (restore() guard)
  static const std::string empty_;
};

/// The classic blocking loop over a stepper: profile what ask() requests,
/// tell the results back, return the final result. With a deterministic
/// runner this reproduces the corresponding optimize() bit-for-bit.
[[nodiscard]] OptimizerResult drive(OptimizerStepper& stepper,
                                    JobRunner& runner);

}  // namespace lynceus::core
