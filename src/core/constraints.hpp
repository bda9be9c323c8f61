#pragma once

/// \file constraints.hpp
/// The paper's §4.4 "Multiple constraints" extension: in addition to the
/// deadline T(x) <= Tmax, the job must satisfy I further constraints of the
/// form "metric m_i <= t_i" (e.g. energy, p99 latency, error rate).
///
/// Following §4.4:
///  * one regression model is trained per constraint metric (the deadline
///    keeps using the cost model through C(x) = T(x)·U(x));
///  * EIc(x) becomes EI(x) · P(C(x) <= Tmax·U(x)) · Π_i P(m_i(x) <= t_i),
///    assuming independent constraint variables;
///  * path simulation speculates jointly on the cost and on every
///    constraint metric: the Cartesian product of the per-variable
///    Gauss–Hermite discretizations yields K^(I+1) weighted combinations
///    per step, pruned of combinations with negligible weight (the paper
///    points to numerical pruning methods [31, 38]).
///
/// The combinatorial growth makes deep lookahead expensive; the default
/// lookahead here is 1 (the ablation in bench_ablation shows the marginal
/// return of deeper lookahead on small spaces, mirroring §6.2).

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lynceus.hpp"
#include "core/types.hpp"
#include "model/regressor.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::core {

/// One auxiliary constraint "metric <= threshold(x)". `metric_index`
/// selects the entry of RunResult::metrics holding the measured value.
/// The threshold function must be pure (the same `x` always yields the
/// same value): the engine precomputes thresholds once per space.
struct ConstraintDef {
  std::string name;
  std::size_t metric_index = 0;
  /// Per-configuration threshold t_i (constant thresholds simply ignore x).
  std::function<double(ConfigId)> threshold;
};

/// JobRunner decorator recording the auxiliary metrics of every run.
/// LoopState keeps only runtime/cost; the multi-constraint optimizers need
/// the measured metric values to train the per-constraint models and to
/// judge sample feasibility. Throws if the inner runner reports fewer
/// metrics than `expected`.
class MetricRecordingRunner final : public JobRunner {
 public:
  MetricRecordingRunner(JobRunner& inner, std::size_t expected)
      : inner_(&inner), expected_(expected) {}

  RunResult run(ConfigId id) override {
    RunResult r = inner_->run(id);
    if (r.metrics.size() < expected_) {
      throw std::runtime_error(
          "MetricRecordingRunner: runner returned too few metrics");
    }
    metrics_.push_back(r.metrics);
    return r;
  }

  /// Per-run metric vectors, in run order.
  [[nodiscard]] const std::vector<std::vector<double>>& metrics() const {
    return metrics_;
  }

 private:
  JobRunner* inner_;
  std::size_t expected_;
  std::vector<std::vector<double>> metrics_;
};

struct MultiConstraintOptions {
  unsigned lookahead = 1;
  unsigned gh_points = 3;
  double gamma = 0.9;
  double feasibility_quantile = 0.99;
  /// Joint-speculation combinations whose weight falls below this value
  /// are pruned (weights are renormalized afterwards).
  double prune_weight = 1e-3;
  model::ModelFactory model_factory;
  /// Optional parallelism across root candidates (root paths are
  /// independent, exactly as in §4.3). Null = single-threaded.
  util::ThreadPool* pool = nullptr;
  /// Also parallelize *inside* each root simulation: the depth-0 pruned
  /// joint-speculation combo scan is statically partitioned across `pool`
  /// with per-worker workspace replicas and a fixed reduction order —
  /// trajectories stay byte-identical to serial runs (pooled-determinism
  /// contract in core/lookahead.hpp). No effect when `pool` is null or
  /// worker-less. Defaults to the LYNCEUS_BRANCH_PARALLEL environment
  /// toggle, mirroring LynceusOptions::branch_parallel.
  bool branch_parallel = util::env_flag("LYNCEUS_BRANCH_PARALLEL");
  /// Optional decision cache (see RootCache in core/lookahead.hpp): a
  /// decision whose exact state some run sharing the cache has already
  /// decided returns the stored choice without fitting or simulating.
  /// Bypassed when `model_factory` is set (a function cannot be keyed).
  /// Null disables caching. Trajectories are identical either way. Not
  /// owned.
  RootCache* root_cache = nullptr;
  /// Opt-in incremental refit of the I+1 per-branch ensembles (see the
  /// "Incremental-refit determinism contract" in core/lookahead.hpp).
  /// Defaults to the LYNCEUS_INCREMENTAL_REFIT environment toggle (false
  /// when unset), mirroring LynceusOptions::incremental_refit.
  bool incremental_refit = util::env_flag("LYNCEUS_INCREMENTAL_REFIT");
  /// Blacklist configurations whose profiling run FAILED from future
  /// proposals (see LoopState::blacklist_failed), mirroring
  /// LynceusOptions::blacklist_failed. Failed runs record no constraint
  /// metrics — the per-sample metric table stays aligned with the sample
  /// history. Irrelevant for fault-free runs.
  bool blacklist_failed = true;
  /// Optional observer (see core/trace.hpp), mirroring
  /// LynceusOptions::observer: bootstrap samples, per-decision events
  /// (`viable_count`/`simulated_roots` = |Γ|, §4.4 simulates every viable
  /// root), run outcomes with the auxiliary-constraint feasibility already
  /// folded in, and the stop reason. Not owned. Purely observational —
  /// trajectories are unchanged whether an observer is attached or not.
  OptimizerObserver* observer = nullptr;

  void validate() const;
};

class MultiConstraintLynceus final : public Optimizer {
 public:
  MultiConstraintLynceus(std::vector<ConstraintDef> constraints,
                         MultiConstraintOptions options = {});

  /// The runner must fill RunResult::metrics with every constrained metric.
  /// Thin drive loop over make_stepper() — bit-identical to the classic
  /// closed-loop implementation (see core/stepper.hpp).
  [[nodiscard]] OptimizerResult optimize(const OptimizationProblem& problem,
                                         JobRunner& runner,
                                         std::uint64_t seed) override;

  /// The ask/tell form of one multi-constraint run (see core/stepper.hpp):
  /// constraint metrics arrive through RunResult::metrics of every tell()
  /// (the stepper takes over MetricRecordingRunner's bookkeeping).
  /// `problem` must outlive the stepper, and must carry no prior_samples —
  /// warm-start priors record no constraint metrics, so the
  /// multi-constraint optimizer cannot evaluate them (the closed loop
  /// never supported this either; the stepper makes it a hard error).
  [[nodiscard]] std::unique_ptr<OptimizerStepper> make_stepper(
      const OptimizationProblem& problem, std::uint64_t seed) const override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::vector<ConstraintDef>& constraints()
      const noexcept {
    return constraints_;
  }

 private:
  struct Impl;
  std::vector<ConstraintDef> constraints_;
  MultiConstraintOptions options_;
};

}  // namespace lynceus::core
