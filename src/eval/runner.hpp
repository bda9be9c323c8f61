#pragma once

/// \file runner.hpp
/// JobRunner implementations for evaluation: the table-backed replay runner
/// (the paper's simulation methodology, §5.2), deterministic fault
/// injection, and the asynchronous-completion adapter the tuning service
/// is driven with.
///
/// ## Fault-determinism contract
///
/// Every injected fault is a pure function of (FaultPlan::seed, config id,
/// attempt number): the fault draws come from a dedicated
/// `util::Rng(derive_seed(derive_seed(seed, config), attempt))` stream, in
/// a fixed draw order, consumed nowhere else. Consequences:
///
///  * Replay is byte-for-byte: re-running any scenario with the same plan
///    reproduces the same failures, hangs, stragglers and partial costs.
///  * Faults are *interleaving-independent*: whether a config's run is
///    submitted first or last, alone or among 10k outstanding runs from
///    other sessions, its fault draw is the same. This is what makes the
///    crash-recovery drill possible — a restored session replays its own
///    fault history regardless of how the surrounding schedule changed.
///  * A retry of the same config is a *new* attempt with fresh draws
///    (attempt increments), so transient failures can succeed on retry
///    while a config with fail-prone draws at every attempt behaves like a
///    deterministic crasher.
///
/// A plan with all rates zero is inert: `active()` is false, no RNG is
/// constructed, and runners behave bitwise exactly as without the plan.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cloud/dataset.hpp"
#include "core/types.hpp"

namespace lynceus::eval {

/// Replays a measured dataset: running configuration x returns the
/// recorded runtime and cost. Optionally produces synthetic auxiliary
/// metrics for the multi-constraint extension.
class TableRunner final : public core::JobRunner {
 public:
  using MetricsFn = std::function<std::vector<double>(space::ConfigId)>;

  explicit TableRunner(const cloud::Dataset& dataset,
                       MetricsFn metrics = nullptr);

  [[nodiscard]] core::RunResult run(space::ConfigId id) override;

  /// Number of runs served so far.
  [[nodiscard]] std::size_t runs_served() const noexcept { return served_; }

 private:
  const cloud::Dataset* dataset_;
  MetricsFn metrics_;
  std::size_t served_ = 0;
};

/// Seeded description of the faults to inject into profiling runs (see the
/// fault-determinism contract in the file comment). Rates are independent
/// per-attempt probabilities; a single attempt can be both a straggler and
/// a failure (it straggles, then crashes).
struct FaultPlan {
  std::uint64_t seed = 0;
  /// P(attempt crashes partway through): the run becomes
  /// RunOutcome::kFailed at a uniform fraction of its (possibly
  /// straggler-inflated) duration, billing the partial cost.
  double fail_rate = 0.0;
  /// P(attempt hangs forever): it never finishes on its own. With a run
  /// timeout it is killed at the cap (kTimedOut); without one, the
  /// synchronous runner throws and the asynchronous runner keeps it
  /// outstanding forever.
  double hang_rate = 0.0;
  /// P(attempt straggles): its duration — and hence billed cost, and the
  /// runtime measurement if it completes — is multiplied by
  /// `straggler_factor`.
  double straggler_rate = 0.0;
  double straggler_factor = 1.0;  ///< duration multiplier, >= 1

  /// True when any fault can occur. Inactive plans draw no random numbers
  /// and leave runs bitwise untouched.
  [[nodiscard]] bool active() const noexcept {
    return fail_rate > 0.0 || hang_rate > 0.0 || straggler_rate > 0.0;
  }

  /// Rates must lie in [0,1], the factor must be >= 1 and finite.
  void validate() const;
};

/// One attempt's fate under a FaultPlan, before any timeout is applied.
struct InjectedRun {
  /// Simulated seconds until the run resolves on its own; +infinity for a
  /// hang.
  double duration = 0.0;
  /// The result as of `duration` (meaningless for a hang): kOk or kFailed,
  /// runtime/cost scaled to the injected duration.
  core::RunResult result;
};

/// Applies `plan` to attempt number `attempt` of `config`, whose fault-free
/// result is `base` (cost is rescaled as base.cost × duration /
/// base.runtime — elapsed-time billing). Pure: same inputs, same fate.
[[nodiscard]] InjectedRun inject_faults(const FaultPlan& plan,
                                        space::ConfigId config,
                                        std::uint64_t attempt,
                                        const core::RunResult& base);

/// Caps an injected run at `timeout_seconds`: if it would resolve later
/// (or hang), the result becomes kTimedOut at the cap — a censored
/// observation with runtime = cap and the cost prorated to the cap.
/// Timed-out results keep their metrics (the multi-constraint stepper
/// records metrics for every sample); failed results carry none.
[[nodiscard]] core::RunResult cap_injected_run(const InjectedRun& run,
                                               const core::RunResult& base,
                                               double timeout_seconds);

/// Synchronous fault-injecting decorator: wraps any JobRunner and applies
/// a FaultPlan per run, tracking attempt numbers per config internally (a
/// repeated run of the same config is the next attempt). A hang with no
/// timeout throws std::runtime_error — the degenerate "runner error"
/// surface the optimizers are tested to propagate.
class FaultInjectingRunner final : public core::JobRunner {
 public:
  FaultInjectingRunner(
      core::JobRunner& inner, FaultPlan plan,
      double timeout_seconds = std::numeric_limits<double>::infinity());

  [[nodiscard]] core::RunResult run(space::ConfigId id) override;

 private:
  core::JobRunner* inner_;
  FaultPlan plan_;
  double timeout_seconds_;
  std::unordered_map<space::ConfigId, std::uint64_t> attempts_;
};

/// Asynchronous-completion adapter over the replay table: profiling runs
/// are submitted instead of executed inline, and completions pop in
/// *simulated-time* order — a run submitted at simulated time t finishes
/// at t + its recorded runtime, so cheap runs from one tuning session
/// overtake expensive runs from another exactly as they would on a real
/// cluster. This is the driver the TuningService tests and the
/// `lynceus_tune --sessions` batch mode feed sessions with: it produces
/// realistic out-of-order tell() sequences while staying fully
/// deterministic (ties break by submission ticket).
///
/// The simulated clock starts at 0 and advances to the finish time of
/// each popped completion; submissions are stamped with the clock at
/// submit time. Tags let the caller route a completion back to the
/// session that asked for it.
///
/// Outstanding runs live in a binary min-heap keyed (finish_time, ticket),
/// so submit/pop are O(log n) and scenarios with thousands of outstanding
/// runs stay cheap.
///
/// With a FaultPlan attached (set_fault_plan), each submission is routed
/// through inject_faults under the fault-determinism contract above, in
/// simulated time: failures and timeouts complete at their injected
/// moment, stragglers finish late, and an un-capped hang stays outstanding
/// forever (next_completion() reports idle rather than advancing the clock
/// to infinity).
class AsyncTableRunner {
 public:
  using MetricsFn = TableRunner::MetricsFn;

  struct Completion {
    std::uint64_t ticket = 0;     ///< submission order, 0-based
    std::uint64_t tag = 0;        ///< caller routing tag (e.g. session id)
    space::ConfigId config = 0;
    double finish_time = 0.0;     ///< simulated seconds
    core::RunResult result;
  };

  /// Per-submission knobs (retry/timeout support for the tuning service's
  /// RunPolicy).
  struct SubmitOptions {
    /// Kill the run at this many seconds after it starts (kTimedOut).
    double timeout_seconds = std::numeric_limits<double>::infinity();
    /// Attempt number for the fault draw (0 = first try). The service
    /// increments this on retries so each retry gets fresh fault draws.
    std::uint64_t attempt = 0;
    /// Start the run this many simulated seconds after now() (retry
    /// backoff); it finishes at now() + start_delay + duration.
    double start_delay = 0.0;
  };

  explicit AsyncTableRunner(const cloud::Dataset& dataset,
                            MetricsFn metrics = nullptr);

  /// Attaches (or replaces) the fault plan applied to subsequent
  /// submissions. Already-outstanding runs are unaffected.
  void set_fault_plan(const FaultPlan& plan);

  /// Enqueues a profiling run of `config`, finishing at
  /// now() + runtime(config) (fault plan permitting). Returns the
  /// submission ticket.
  std::uint64_t submit(std::uint64_t tag, space::ConfigId config);

  /// Enqueues a profiling run with explicit timeout/attempt/delay.
  std::uint64_t submit(std::uint64_t tag, space::ConfigId config,
                       const SubmitOptions& options);

  /// Pops the earliest-finishing outstanding run (ties by ticket) and
  /// advances the simulated clock to its finish time. Empty when idle —
  /// or when every outstanding run is hung forever (outstanding() > 0 but
  /// nothing will ever complete; only possible with an un-capped hang).
  [[nodiscard]] std::optional<Completion> next_completion();

  /// Finish time of the run next_completion() would pop; empty when
  /// idle or when only forever-hung runs remain. Lets a driver merging
  /// several runners pick the globally earliest completion.
  [[nodiscard]] std::optional<double> next_finish_time() const;

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t runs_served() const noexcept { return served_; }

 private:
  const cloud::Dataset* dataset_;
  MetricsFn metrics_;
  FaultPlan plan_;  ///< inactive by default
  std::vector<Completion> pending_;  ///< min-heap on (finish_time, ticket)
  double now_ = 0.0;
  std::uint64_t next_ticket_ = 0;
  std::size_t served_ = 0;
};

}  // namespace lynceus::eval
