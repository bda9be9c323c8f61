#pragma once

/// \file constraints_reference.hpp
/// The naive copy-based reference implementation of the multi-constraint
/// Lynceus path simulation (paper §4.4) — the semantics oracle for
/// MultiConstraintEngine.
///
/// This is a faithful, header-only port of the pre-engine
/// `MultiConstraintLynceus` decision loop: per-branch deep-copied
/// `McState`s, full-space `predict_all` at every branch, per-consumer
/// `prob_within` scans, and heap-allocated joint-speculation combos. It is
/// deliberately slow and allocation-heavy; its only job is to pin the
/// trajectory semantics bit-for-bit. The golden-trajectory tests
/// (tests/test_constraints.cpp) assert that the production optimizer picks
/// the identical configuration sequence, and bench_micro measures the
/// speedup of the engine over this path.
///
/// Mirrors the single-constraint oracle (NaiveLynceus in
/// tests/lookahead_reference.hpp); a test oracle kept out of the library,
/// which bench_micro includes from tests/ to time single reference
/// decisions.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/acquisition.hpp"
#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/sequential.hpp"
#include "math/gauss_hermite.hpp"
#include "util/rng.hpp"

namespace lynceus::core::reference {

/// Trajectory state: training rows with cost and per-constraint metric
/// targets. Deep-copied per speculated branch — the copies the engine's
/// delta states replace.
struct McState {
  std::vector<std::uint32_t> rows;
  std::vector<double> y_cost;
  std::vector<std::vector<double>> y_metric;  // [constraint][sample]
  std::vector<char> sample_feasible;
  std::vector<char> tested;
  double beta = 0.0;
};

/// Full-space predictions of one node's models, plus the incumbent.
struct McCtx {
  std::vector<model::Prediction> cost_preds;
  std::vector<std::vector<model::Prediction>> metric_preds;
  double y_star = 0.0;
};

/// One pruned combination of speculated (cost, metrics...) values.
struct SpeculationCombo {
  double cost = 0.0;
  std::vector<double> metrics;
  double weight = 0.0;
};

/// The naive decision core: build_ctx / next_step / explore over deep
/// copies. Exposed separately from the optimizer loop so bench_micro can
/// time single reference decisions.
class McSimulator {
 public:
  McSimulator(const OptimizationProblem& problem,
              const std::vector<ConstraintDef>& constraints,
              const MultiConstraintOptions& options,
              const model::ModelFactory& factory)
      : problem_(problem),
        constraints_(constraints),
        options_(options),
        fm_(*problem.space),
        quadrature_(options.gh_points) {
    cost_model_ = factory();
    metric_models_.reserve(constraints_.size());
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      metric_models_.push_back(factory());
    }
  }

  /// EIc with the product of all constraint-satisfaction probabilities
  /// (§4.4, modification 1).
  [[nodiscard]] double eic(const McCtx& ctx, ConfigId x) const {
    double acq = expected_improvement(ctx.y_star, ctx.cost_preds[x]);
    if (acq <= 0.0) return 0.0;
    acq *= prob_within(problem_.feasibility_cost_cap(x), ctx.cost_preds[x]);
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      acq *= prob_within(constraints_[i].threshold(x),
                         ctx.metric_preds[i][x]);
    }
    return acq;
  }

  void build_ctx(const McState& st, McCtx& ctx, std::uint64_t fit_seed) {
    cost_model_->fit(fm_, st.rows, st.y_cost, util::derive_seed(fit_seed, 0));
    cost_model_->predict_all(fm_, ctx.cost_preds);
    ctx.metric_preds.resize(constraints_.size());
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      metric_models_[i]->fit(fm_, st.rows, st.y_metric[i],
                             util::derive_seed(fit_seed, i + 1));
      metric_models_[i]->predict_all(fm_, ctx.metric_preds[i]);
    }

    bool any = false;
    double best = 0.0;
    double most_expensive = st.y_cost.front();
    for (std::size_t i = 0; i < st.y_cost.size(); ++i) {
      most_expensive = std::max(most_expensive, st.y_cost[i]);
      if (st.sample_feasible[i] != 0 && (!any || st.y_cost[i] < best)) {
        best = st.y_cost[i];
        any = true;
      }
    }
    if (any) {
      ctx.y_star = best;
    } else {
      double max_stddev = 0.0;
      for (std::size_t id = 0; id < ctx.cost_preds.size(); ++id) {
        if (st.tested[id] == 0) {
          max_stddev = std::max(max_stddev, ctx.cost_preds[id].stddev);
        }
      }
      ctx.y_star = most_expensive + 3.0 * max_stddev;
    }
  }

  [[nodiscard]] std::optional<ConfigId> next_step(const McState& st,
                                                  const McCtx& ctx) const {
    double best = -std::numeric_limits<double>::infinity();
    std::optional<ConfigId> best_id;
    for (std::size_t id = 0; id < ctx.cost_preds.size(); ++id) {
      if (st.tested[id] != 0) continue;
      if (prob_within(st.beta, ctx.cost_preds[id]) <
          options_.feasibility_quantile) {
        continue;
      }
      const double acq = eic(ctx, static_cast<ConfigId>(id));
      if (acq > best) {
        best = acq;
        best_id = static_cast<ConfigId>(id);
      }
    }
    return best_id;
  }

  /// Joint speculation (§4.4, modification 2): Cartesian product of the
  /// per-variable Gauss–Hermite discretizations, pruned of combinations
  /// with weight below prune_weight and renormalized.
  [[nodiscard]] std::vector<SpeculationCombo> speculate(const McCtx& ctx,
                                                        ConfigId x) const {
    const auto cost_nodes = quadrature_.for_normal(ctx.cost_preds[x].mean,
                                                   ctx.cost_preds[x].stddev);
    std::vector<std::vector<math::QuadraturePoint>> metric_nodes;
    metric_nodes.reserve(constraints_.size());
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      metric_nodes.push_back(quadrature_.for_normal(
          ctx.metric_preds[i][x].mean, ctx.metric_preds[i][x].stddev));
    }

    const std::size_t vars = 1 + constraints_.size();
    const std::size_t k = quadrature_.size();
    std::vector<std::size_t> index(vars, 0);
    std::vector<SpeculationCombo> combos;
    double kept_mass = 0.0;
    for (;;) {
      SpeculationCombo combo;
      combo.cost =
          std::max(cost_nodes[index[0]].value,
                   0.001 * std::max(ctx.cost_preds[x].mean, 1e-12));
      combo.weight = cost_nodes[index[0]].weight;
      combo.metrics.resize(constraints_.size());
      for (std::size_t i = 0; i < constraints_.size(); ++i) {
        // Physical metrics (energy, latency, ...) are non-negative.
        combo.metrics[i] = std::max(metric_nodes[i][index[i + 1]].value, 0.0);
        combo.weight *= metric_nodes[i][index[i + 1]].weight;
      }
      if (combo.weight >= options_.prune_weight) {
        kept_mass += combo.weight;
        combos.push_back(std::move(combo));
      }
      // Advance the mixed-radix index.
      std::size_t d = 0;
      while (d < vars && ++index[d] == k) {
        index[d] = 0;
        ++d;
      }
      if (d == vars) break;
    }
    if (kept_mass > 0.0) {
      for (auto& c : combos) c.weight /= kept_mass;
    }
    return combos;
  }

  [[nodiscard]] bool combo_feasible(const SpeculationCombo& combo,
                                    ConfigId x) const {
    if (combo.cost > problem_.feasibility_cost_cap(x)) return false;
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (combo.metrics[i] > constraints_[i].threshold(x)) return false;
    }
    return true;
  }

  PathValue explore(const McState& st, const McCtx& ctx, ConfigId x,
                    unsigned l, std::uint64_t path_seed) {
    PathValue v;
    v.reward = eic(ctx, x);
    v.cost = ctx.cost_preds[x].mean;
    if (l == 0) return v;

    const auto combos = speculate(ctx, x);
    for (std::size_t i = 0; i < combos.size(); ++i) {
      const auto& combo = combos[i];
      McState child;
      child.rows = st.rows;
      child.y_cost = st.y_cost;
      child.y_metric = st.y_metric;
      child.sample_feasible = st.sample_feasible;
      child.tested = st.tested;
      child.rows.push_back(x);
      child.y_cost.push_back(combo.cost);
      for (std::size_t c = 0; c < constraints_.size(); ++c) {
        child.y_metric[c].push_back(combo.metrics[c]);
      }
      child.sample_feasible.push_back(combo_feasible(combo, x) ? 1 : 0);
      child.tested[x] = 1;
      child.beta = st.beta - combo.cost;

      McCtx child_ctx;
      build_ctx(child, child_ctx, util::derive_seed(path_seed, i + 1));
      const auto x_next = next_step(child, child_ctx);
      if (!x_next) continue;
      const PathValue sub = explore(child, child_ctx, *x_next, l - 1,
                                    util::derive_seed(path_seed, 131 * i + 7));
      v.cost += combo.weight * sub.cost;
      v.reward += options_.gamma * combo.weight * sub.reward;
    }
    return v;
  }

  [[nodiscard]] const MultiConstraintOptions& options() const noexcept {
    return options_;
  }

 private:
  const OptimizationProblem& problem_;
  const std::vector<ConstraintDef>& constraints_;
  const MultiConstraintOptions& options_;
  const model::FeatureMatrix fm_;
  const math::GaussHermite quadrature_;
  std::unique_ptr<model::Regressor> cost_model_;
  std::vector<std::unique_ptr<model::Regressor>> metric_models_;
};

/// The naive multi-constraint optimizer loop on top of McSimulator: the
/// exact pre-engine `MultiConstraintLynceus::optimize`, kept as the
/// golden-trajectory reference.
class NaiveMultiConstraintLynceus {
 public:
  NaiveMultiConstraintLynceus(std::vector<ConstraintDef> constraints,
                              MultiConstraintOptions options = {})
      : constraints_(std::move(constraints)), options_(std::move(options)) {
    options_.validate();
    for (const auto& c : constraints_) {
      if (!c.threshold) {
        throw std::invalid_argument("ConstraintDef '" + c.name +
                                    "': threshold function is required");
      }
    }
  }

  [[nodiscard]] OptimizerResult optimize(const OptimizationProblem& problem,
                                         JobRunner& runner,
                                         std::uint64_t seed) {
    LoopState st(problem, runner, seed);
    DecisionTimer timer;

    MetricRecordingRunner recorder(runner, constraints_.size());
    st.runner = &recorder;
    st.bootstrap();

    const model::ModelFactory factory =
        options_.model_factory ? options_.model_factory
                               : default_tree_model_factory(*problem.space);
    McSimulator sim(problem, constraints_, options_, factory);

    auto sample_feasible = [&](std::size_t i) {
      if (!st.samples[i].feasible) return false;
      for (const auto& c : constraints_) {
        if (recorder.metrics()[i][c.metric_index] >
            c.threshold(st.samples[i].id)) {
          return false;
        }
      }
      return true;
    };

    McState root;
    McCtx root_ctx;
    std::uint64_t iteration = 0;
    while (!st.untested.empty()) {
      timer.start();
      ++iteration;

      root.rows.clear();
      root.y_cost.clear();
      root.y_metric.assign(constraints_.size(), {});
      root.sample_feasible.clear();
      for (std::size_t i = 0; i < st.samples.size(); ++i) {
        root.rows.push_back(st.samples[i].id);
        root.y_cost.push_back(st.samples[i].cost);
        for (std::size_t c = 0; c < constraints_.size(); ++c) {
          root.y_metric[c].push_back(
              recorder.metrics()[i][constraints_[c].metric_index]);
        }
        root.sample_feasible.push_back(sample_feasible(i) ? 1 : 0);
      }
      root.tested.assign(problem.space->size(), 0);
      for (const auto& s : st.samples) root.tested[s.id] = 1;
      root.beta = st.budget.remaining();

      sim.build_ctx(root, root_ctx, util::derive_seed(seed, iteration));

      // Γ filter + path simulation per viable root.
      std::vector<ConfigId> viable;
      for (std::size_t id = 0; id < problem.space->size(); ++id) {
        if (root.tested[id] != 0) continue;
        if (prob_within(root.beta, root_ctx.cost_preds[id]) >=
            options_.feasibility_quantile) {
          viable.push_back(static_cast<ConfigId>(id));
        }
      }
      if (viable.empty()) {
        timer.stop();
        break;
      }

      double best_ratio = -std::numeric_limits<double>::infinity();
      ConfigId best_id = viable.front();
      for (ConfigId x : viable) {
        const PathValue v = sim.explore(
            root, root_ctx, x, options_.lookahead,
            util::derive_seed(seed, iteration * 1000003ULL + x));
        const double ratio = v.reward / std::max(v.cost, 1e-12);
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_id = x;
        }
      }
      timer.stop();

      st.profile(best_id);
      // Patch the sample's feasibility with the auxiliary constraints so the
      // final recommendation respects all of them.
      st.samples.back().feasible = sample_feasible(st.samples.size() - 1);
    }

    OptimizerResult out = st.finalize();
    timer.write_to(out);
    return out;
  }

 private:
  std::vector<ConstraintDef> constraints_;
  MultiConstraintOptions options_;
};

}  // namespace lynceus::core::reference
