#pragma once

/// \file lynceus.hpp
/// The Lynceus optimizer (paper §4, Algorithms 1 and 2): budget-aware,
/// long-sighted Bayesian optimization.
///
/// Per decision, Lynceus:
///  1. filters the untested configurations to the budget-viable set
///     Γ = {x : P(c(x) <= β) >= 0.99} (Algorithm 1, line 23);
///  2. for every root x ∈ Γ, simulates an exploration path of up to LA
///     further steps: the speculated cost of each step is discretized into
///     K Gauss–Hermite branches, each branch refits the model with the
///     fantasy sample and continues greedily (argmax EIc) from the updated
///     state (Algorithm 2);
///  3. profiles the root of the path maximizing the ratio of the
///     γ-discounted cumulative reward to the cumulative expected cost
///     (Algorithm 1, line 28).
///
/// LA = 0 degenerates to the cost-normalized myopic policy EIc(x)/E[c(x)]
/// (the paper's "Lynceus, LA=0" baseline); setting γ = 0 likewise collapses
/// the lookahead to the greedy policy.
///
/// Optional extensions (§4.4): a setup-cost function charged when the
/// deployed configuration changes, both in reality and inside simulated
/// paths. (Multiple constraints live in constraints.hpp.)
///
/// The path simulation itself — delta-maintained states, candidate-pruned
/// subset prediction, fused acquisition — lives in core/lookahead.hpp; this
/// class runs the outer optimization loop (bootstrap, stop rules, root
/// screening, profiling) on top of that engine.

#include <functional>
#include <memory>
#include <optional>

#include "core/lookahead.hpp"
#include "core/stepper.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "model/regressor.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::core {

struct LynceusOptions {
  /// Lookahead window LA (paper default: 2).
  unsigned lookahead = 2;
  /// Gauss–Hermite nodes K per simulated step. The paper leaves K
  /// unspecified; 3 captures mean and spread and keeps the K^LA branching
  /// factor low (see bench_ablation for the sensitivity).
  unsigned gh_points = 3;
  /// Reward discount γ for steps deeper in the path (paper: 0.9).
  double gamma = 0.9;
  /// Budget-viability quantile of the Γ filter (paper: 0.99).
  double feasibility_quantile = 0.99;
  /// Cost-model factory; defaults to the bagging ensemble of 10 random
  /// trees (paper §5.2).
  model::ModelFactory model_factory;
  /// Implementation approximation (see DESIGN.md §5): when more than this
  /// many roots are budget-viable, only the `screen_width` best roots by
  /// the one-step EIc/E[cost] score are path-simulated. 0 = simulate every
  /// viable root (paper-faithful).
  unsigned screen_width = 0;
  /// Optional early stop when max EIc drops below this fraction of the
  /// incumbent cost (0 = run until the budget is exhausted, as in §5.2).
  double ei_stop_fraction = 0.0;
  /// Optional parallelism across root candidates (§4.3: root paths are
  /// independent). Null = single-threaded.
  util::ThreadPool* pool = nullptr;
  /// Also parallelize *inside* each root simulation: the depth-0
  /// fantasy-branch fan-out is statically partitioned across `pool` with
  /// per-worker workspace replicas and a fixed reduction order, so
  /// trajectories stay byte-identical to serial runs (see the
  /// pooled-determinism contract in core/lookahead.hpp). No effect when
  /// `pool` is null or has zero workers. Useful when viable roots are
  /// fewer than cores, or to cut single-decision tail latency. Defaults
  /// to the LYNCEUS_BRANCH_PARALLEL environment toggle (false when
  /// unset).
  bool branch_parallel = util::env_flag("LYNCEUS_BRANCH_PARALLEL");
  /// Optional setup-cost extension (§4.4).
  SetupCostFn setup_cost;
  /// Optional decision cache (see RootCache in core/lookahead.hpp): share
  /// one instance across optimize() runs or sessions so a decision whose
  /// exact state has already been decided returns the stored choice,
  /// skipping the root fit, the predictions and every path simulation.
  /// Bypassed when `setup_cost` or `model_factory` is set (a function
  /// cannot be keyed). Null disables caching (within one run the cache
  /// can never hit). Trajectories are identical either way. Not owned.
  RootCache* root_cache = nullptr;
  /// Opt-in incremental ensemble refit of simulated branches (see the
  /// "Incremental-refit determinism contract" in core/lookahead.hpp):
  /// ~1.5-2x faster cold decisions at lookahead >= 1, trajectories
  /// internally deterministic but not bit-identical to the flag-off golden
  /// path. Defaults to the LYNCEUS_INCREMENTAL_REFIT environment toggle
  /// (false when unset) so CI can run the whole suite once with the flag
  /// on; tests pinning the golden flag-off semantics set it explicitly.
  bool incremental_refit = util::env_flag("LYNCEUS_INCREMENTAL_REFIT");
  /// Blacklist configurations whose profiling run FAILED
  /// (core::RunOutcome::kFailed) from future proposals; see
  /// LoopState::blacklist_failed. Irrelevant for fault-free runs.
  bool blacklist_failed = true;
  /// Optional observer notified of bootstrap samples, decisions, run
  /// outcomes (including failures, via on_failure) and the stop reason
  /// (see core/trace.hpp). Not owned.
  OptimizerObserver* observer = nullptr;

  void validate() const;
};

class LynceusOptimizer final : public Optimizer {
 public:
  explicit LynceusOptimizer(LynceusOptions options = {});

  /// Thin drive loop over make_stepper() — bit-identical to the classic
  /// closed-loop implementation (see core/stepper.hpp).
  [[nodiscard]] OptimizerResult optimize(const OptimizationProblem& problem,
                                         JobRunner& runner,
                                         std::uint64_t seed) override;

  /// The suspend/resume (ask/tell) form of one Lynceus run — what the
  /// tuning service multiplexes (src/service/). `problem` must outlive
  /// the stepper; so must any pool/cache/observer wired into options().
  [[nodiscard]] std::unique_ptr<OptimizerStepper> make_stepper(
      const OptimizationProblem& problem, std::uint64_t seed) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const LynceusOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Impl;
  LynceusOptions options_;
};

}  // namespace lynceus::core
