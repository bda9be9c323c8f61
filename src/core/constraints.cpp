#include "core/constraints.hpp"

#include <stdexcept>

#include "core/bo.hpp"
#include "core/lookahead.hpp"
#include "core/sequential.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace lynceus::core {

void MultiConstraintOptions::validate() const {
  if (gh_points == 0) {
    throw std::invalid_argument(
        "MultiConstraintOptions: gh_points must be >= 1");
  }
  if (gamma < 0.0 || gamma > 1.0) {
    throw std::invalid_argument(
        "MultiConstraintOptions: gamma must lie in [0, 1]");
  }
  if (feasibility_quantile <= 0.0 || feasibility_quantile >= 1.0) {
    throw std::invalid_argument(
        "MultiConstraintOptions: feasibility_quantile must lie in (0, 1)");
  }
  if (prune_weight < 0.0 || prune_weight >= 1.0) {
    throw std::invalid_argument(
        "MultiConstraintOptions: prune_weight must lie in [0, 1)");
  }
}

MultiConstraintLynceus::MultiConstraintLynceus(
    std::vector<ConstraintDef> constraints, MultiConstraintOptions options)
    : constraints_(std::move(constraints)), options_(std::move(options)) {
  options_.validate();
  for (const auto& c : constraints_) {
    if (!c.threshold) {
      throw std::invalid_argument("ConstraintDef '" + c.name +
                                  "': threshold function is required");
    }
  }
}

std::string MultiConstraintLynceus::name() const {
  return util::format("Lynceus-MC(LA=%u,I=%zu)", options_.lookahead,
                      constraints_.size());
}

namespace {

/// The §4.4 multi-constraint loop as an ask/tell state machine (see
/// core/stepper.hpp). The stepper records every run's auxiliary metrics
/// from RunResult::metrics — the job MetricRecordingRunner used to do
/// inside the closed loop — so it never needs a runner of its own.
/// Trajectories are bit-identical to the pre-ask/tell implementation.
class MultiConstraintStepper final : public OptimizerStepper {
 public:
  MultiConstraintStepper(const std::vector<ConstraintDef>& constraints,
                         const MultiConstraintOptions& options,
                         const OptimizationProblem& problem,
                         std::uint64_t seed)
      : OptimizerStepper(problem, seed, options.observer),
        constraints_(constraints),
        options_(options),
        seed_(seed),
        factory_(options_.model_factory
                     ? options_.model_factory
                     : default_tree_model_factory(*problem.space)),
        engine_(problem, engine_options(constraints_, options_), factory_,
                options_.pool != nullptr ? options_.pool->worker_count() + 1
                                         : 1) {
    if (!problem.prior_samples.empty()) {
      throw std::invalid_argument(
          "MultiConstraintLynceus: prior_samples carry no constraint "
          "metrics and are not supported");
    }
    st_.blacklist_failed = options_.blacklist_failed;
    // A function cannot be keyed: a custom model factory bypasses the
    // cache (the thresholds are keyed by value, per configuration).
    if (options_.root_cache != nullptr && !options_.model_factory) {
      cache_ = options_.root_cache;
      key_.set_context(key_context(constraints_, options_, problem));
    }
  }

  [[nodiscard]] std::string name() const override {
    return util::format("Lynceus-MC(LA=%u,I=%zu)", options_.lookahead,
                        constraints_.size());
  }

 protected:
  std::optional<ConfigId> decide(std::string& stop_reason) override {
    if (st_.untested.empty()) {
      stop_reason = "search space exhausted";
      return std::nullopt;
    }
    timer_.start();
    ++iteration_;

    rows_.clear();
    y_cost_.clear();
    y_metric_.assign(constraints_.size(), {});
    feasible_.clear();
    for (std::size_t i = 0; i < st_.samples.size(); ++i) {
      rows_.push_back(st_.samples[i].id);
      y_cost_.push_back(st_.samples[i].cost);
      for (std::size_t c = 0; c < constraints_.size(); ++c) {
        y_metric_[c].push_back(metrics_[i][constraints_[c].metric_index]);
      }
      feasible_.push_back(sample_feasible(i) ? 1 : 0);
    }

    if (cache_ != nullptr) {
      key_.begin_state(seed_, iteration_, st_.budget.remaining(), st_.samples,
                       st_.failures);
      for (const auto& per_constraint : y_metric_) {
        for (double m : per_constraint) key_.put(m);
      }
      DecisionEvent hit;
      if (cache_->lookup(key_, hit)) {
        timer_.stop();
        if (observer_ != nullptr) observer_->on_decision(hit);
        return hit.chosen;
      }
    }

    engine_.begin_decision(rows_, y_cost_, y_metric_, feasible_,
                           st_.budget.remaining(),
                           util::derive_seed(seed_, iteration_));

    // Γ = ∅: the budget affords nothing else. (timer_.stop(), not
    // discard(): the closed loop counted this aborted decision, and the
    // decisions count is part of the bit-parity contract.)
    // The engine infers testedness from the sample rows, so configs
    // blacklisted after a failed run would resurface in Γ: filter them
    // out. Fault-free runs have no failures and take the reference
    // directly (no copy, bitwise-identical trajectories).
    const std::vector<ConfigId>* roots_ptr = &engine_.viable();
    if (!st_.failures.empty()) {
      screened_.clear();
      for (const ConfigId id : *roots_ptr) {
        if (st_.tested[id] == 0) screened_.push_back(id);
      }
      roots_ptr = &screened_;
    }
    const std::vector<ConfigId>& roots = *roots_ptr;
    if (roots.empty()) {
      timer_.stop();
      stop_reason = "budget: no viable configuration left";
      return std::nullopt;
    }

    // One simulated path per viable root (§4.4 uses no root screening),
    // in parallel when a pool is provided — root paths are independent.
    const detail::RootChoice best = detail::best_root(
        engine_, options_.pool, roots, seed_, iteration_, values_);
    timer_.stop();

    DecisionEvent event;
    event.iteration = static_cast<std::size_t>(iteration_);
    event.chosen = best.id;
    event.viable_count = roots.size();
    event.simulated_roots = roots.size();
    event.predicted_cost = engine_.root_cost_predictions()[best.id].mean;
    event.incumbent = engine_.incumbent();
    event.best_ratio = best.ratio;
    event.remaining_budget = st_.budget.remaining();
    if (cache_ != nullptr) cache_->store(key_, event);
    if (observer_ != nullptr) observer_->on_decision(event);
    return best.id;
  }

  void apply_bootstrap_run(ConfigId config, const RunResult& r) override {
    record_metrics(r);
    st_.record(config, r);
  }

  void apply_decision_run(ConfigId config, const RunResult& r) override {
    record_metrics(r);
    const Sample& ran = st_.record(config, r);
    // Patch the sample's feasibility with the auxiliary constraints so the
    // final recommendation respects all of them.
    st_.samples.back().feasible = sample_feasible(st_.samples.size() - 1);
    if (observer_ != nullptr) observer_->on_run(ran);
  }

  void save_extra(util::JsonWriter& w) const override {
    w.key("iteration").value(iteration_);
    w.key("metrics").begin_array();
    for (const auto& per_run : metrics_) {
      w.begin_array();
      for (double m : per_run) w.value_exact(m);
      w.end_array();
    }
    w.end_array();
  }
  void load_extra(const util::JsonValue& extra) override {
    iteration_ = extra.at("iteration").as_uint();
    metrics_.clear();
    for (const util::JsonValue& per_run : extra.at("metrics").items()) {
      std::vector<double> row;
      row.reserve(per_run.size());
      for (const util::JsonValue& m : per_run.items()) {
        row.push_back(m.as_double());
      }
      metrics_.push_back(std::move(row));
    }
    if (metrics_.size() != st_.samples.size()) {
      throw std::runtime_error(
          "MultiConstraintLynceus: snapshot metrics/samples mismatch");
    }
  }

 private:
  /// The per-stepper part of the decision key (see RootCache): the
  /// problem, every trajectory-changing option and each constraint's
  /// metric index and per-configuration threshold.
  static std::string key_context(const std::vector<ConstraintDef>& constraints,
                                 const MultiConstraintOptions& o,
                                 const OptimizationProblem& problem) {
    std::string c = "multi_constraint";
    RootCache::Key::append_problem(c, problem);
    RootCache::Key::append(c, o.lookahead);
    RootCache::Key::append(c, o.gh_points);
    RootCache::Key::append(c, o.gamma);
    RootCache::Key::append(c, o.feasibility_quantile);
    RootCache::Key::append(c, o.prune_weight);
    RootCache::Key::append(c, o.incremental_refit);
    RootCache::Key::append(c, o.blacklist_failed);
    RootCache::Key::append(c, constraints.size());
    for (const ConstraintDef& def : constraints) {
      RootCache::Key::append(c, def.metric_index);
      for (ConfigId id = 0; id < problem.space->size(); ++id) {
        RootCache::Key::append(c, def.threshold(id));
      }
    }
    return c;
  }

  static MultiConstraintEngine::Options engine_options(
      const std::vector<ConstraintDef>& constraints,
      const MultiConstraintOptions& options) {
    MultiConstraintEngine::Options eopts;
    eopts.lookahead = options.lookahead;
    eopts.gh_points = options.gh_points;
    eopts.gamma = options.gamma;
    eopts.feasibility_quantile = options.feasibility_quantile;
    eopts.prune_weight = options.prune_weight;
    eopts.thresholds.reserve(constraints.size());
    for (const auto& c : constraints) eopts.thresholds.push_back(c.threshold);
    eopts.incremental_refit = options.incremental_refit;
    eopts.branch_pool = options.branch_parallel ? options.pool : nullptr;
    return eopts;
  }

  void record_metrics(const RunResult& r) {
    if (r.metrics.size() < constraints_.size()) {
      throw std::runtime_error(
          "MultiConstraintLynceus: run result carries too few metrics");
    }
    metrics_.push_back(r.metrics);
  }

  [[nodiscard]] bool sample_feasible(std::size_t i) const {
    if (!st_.samples[i].feasible) return false;
    for (const auto& c : constraints_) {
      if (metrics_[i][c.metric_index] > c.threshold(st_.samples[i].id)) {
        return false;
      }
    }
    return true;
  }

  const std::vector<ConstraintDef> constraints_;
  const MultiConstraintOptions options_;
  const std::uint64_t seed_;
  const model::ModelFactory factory_;
  MultiConstraintEngine engine_;
  RootCache* cache_ = nullptr;  ///< null when off or bypassed
  RootCache::Key key_;
  std::uint64_t iteration_ = 0;
  std::vector<std::vector<double>> metrics_;  ///< per-sample metric vectors
  std::vector<std::uint32_t> rows_;
  std::vector<double> y_cost_;
  std::vector<std::vector<double>> y_metric_;
  std::vector<char> feasible_;
  std::vector<PathValue> values_;
  std::vector<ConfigId> screened_;  ///< viable minus blacklisted configs
};

}  // namespace

std::unique_ptr<OptimizerStepper> MultiConstraintLynceus::make_stepper(
    const OptimizationProblem& problem, std::uint64_t seed) const {
  return std::make_unique<MultiConstraintStepper>(constraints_, options_,
                                                  problem, seed);
}

OptimizerResult MultiConstraintLynceus::optimize(
    const OptimizationProblem& problem, JobRunner& runner,
    std::uint64_t seed) {
  auto stepper = make_stepper(problem, seed);
  return drive(*stepper, runner);
}

}  // namespace lynceus::core
