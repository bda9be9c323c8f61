#pragma once

/// \file lookahead_reference.hpp
/// The naive copy-based reference implementation of the single-constraint
/// Lynceus decision loop (paper §4.3, Algorithms 1 and 2) — the semantics
/// oracle for LookaheadEngine / LynceusOptimizer.
///
/// This is the faithful port of the pre-engine decision loop: per-branch
/// deep-copied states, full-space `predict_all` at every branch,
/// per-consumer `prob_within` scans. It is deliberately slow and
/// allocation-heavy; its only job is to pin the trajectory semantics
/// bit-for-bit. The golden-trajectory tests (tests/test_lookahead.cpp)
/// assert the production optimizer picks the identical configuration
/// sequence with `incremental_refit` off, and the differential suite
/// (tests/test_incremental_refit.cpp) measures trajectory-quality parity
/// against it with the flag on.
///
/// The multi-constraint twin lives in tests/constraints_reference.hpp;
/// this header mirrors its structure. Both are test oracles, kept out of
/// the library; bench_micro includes them from tests/ to time reference
/// decisions.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/acquisition.hpp"
#include "core/bo.hpp"
#include "core/lynceus.hpp"
#include "core/sequential.hpp"
#include "math/gauss_hermite.hpp"
#include "util/rng.hpp"

namespace lynceus::core::reference {

/// Faithful port of the pre-engine Lynceus decision loop: per-branch
/// deep-copied states, full-space predictions, per-consumer prob_within
/// scans. Kept as the reference semantics for the lookahead engine: both
/// must pick the same configuration sequence for identical seeds (with
/// LynceusOptions::incremental_refit off; the reference has no
/// incremental path by construction).
class NaiveLynceus {
 public:
  explicit NaiveLynceus(LynceusOptions options) : opts_(std::move(options)) {}

  OptimizerResult optimize(const OptimizationProblem& problem,
                           JobRunner& runner, std::uint64_t seed) {
    LoopState st(problem, runner, seed);
    st.bootstrap();
    const model::FeatureMatrix fm(*problem.space);
    const math::GaussHermite quadrature(opts_.gh_points);
    const model::ModelFactory factory =
        opts_.model_factory ? opts_.model_factory
                            : default_tree_model_factory(*problem.space);
    auto root_model = factory();
    auto path_model = factory();

    std::uint64_t iteration = 0;
    while (!st.untested.empty()) {
      ++iteration;
      State root;
      for (const auto& s : st.samples) {
        root.rows.push_back(s.id);
        root.y.push_back(s.cost);
        root.feasible.push_back(s.feasible ? 1 : 0);
      }
      root.tested.assign(problem.space->size(), 0);
      for (const auto& s : st.samples) root.tested[s.id] = 1;
      root.beta = st.budget.remaining();
      root.chi = st.samples.empty()
                     ? std::nullopt
                     : std::optional<ConfigId>(st.samples.back().id);

      Ctx root_ctx;
      build_ctx(problem, fm, *root_model, root, root_ctx,
                util::derive_seed(seed, iteration));

      std::vector<ConfigId> viable;
      for (std::size_t id = 0; id < root_ctx.preds.size(); ++id) {
        if (root.tested[id] != 0) continue;
        if (prob_within(root.beta, root_ctx.preds[id]) >=
            opts_.feasibility_quantile) {
          viable.push_back(static_cast<ConfigId>(id));
        }
      }
      if (viable.empty()) break;

      std::vector<ConfigId> roots = viable;
      if (opts_.screen_width > 0 && roots.size() > opts_.screen_width) {
        std::partial_sort(
            roots.begin(), roots.begin() + opts_.screen_width, roots.end(),
            [&](ConfigId a, ConfigId b) {
              const double sa = eic(problem, root_ctx, a) /
                                std::max(root_ctx.preds[a].mean, 1e-12);
              const double sb = eic(problem, root_ctx, b) /
                                std::max(root_ctx.preds[b].mean, 1e-12);
              return sa > sb;
            });
        roots.resize(opts_.screen_width);
      }

      double best_ratio = -std::numeric_limits<double>::infinity();
      ConfigId best_id = roots.front();
      for (ConfigId x : roots) {
        const PathValue v = explore(
            problem, fm, quadrature, *path_model, root, root_ctx, x,
            opts_.lookahead,
            util::derive_seed(seed, iteration * 1000003ULL + x));
        const double ratio = v.reward / std::max(v.cost, 1e-12);
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_id = x;
        }
      }

      if (opts_.setup_cost) {
        st.budget.spend(std::max(0.0, opts_.setup_cost(root.chi, best_id)));
      }
      st.profile(best_id);
    }
    return st.finalize();
  }

 private:
  struct State {
    std::vector<std::uint32_t> rows;
    std::vector<double> y;
    std::vector<char> feasible;
    std::vector<char> tested;
    double beta = 0.0;
    std::optional<ConfigId> chi;
  };
  struct Ctx {
    std::vector<model::Prediction> preds;
    double y_star = 0.0;
  };

  [[nodiscard]] double eic(const OptimizationProblem& problem, const Ctx& ctx,
                           ConfigId x) const {
    return constrained_ei(ctx.y_star, ctx.preds[x],
                          problem.feasibility_cost_cap(x));
  }

  [[nodiscard]] double setup(const std::optional<ConfigId>& from,
                             ConfigId to) const {
    return opts_.setup_cost ? opts_.setup_cost(from, to) : 0.0;
  }

  void build_ctx(const OptimizationProblem& problem,
                 const model::FeatureMatrix& fm, model::Regressor& model,
                 const State& st, Ctx& ctx, std::uint64_t fit_seed) const {
    (void)problem;
    model.fit(fm, st.rows, st.y, fit_seed);
    model.predict_all(fm, ctx.preds);
    bool any = false;
    double best = 0.0;
    double most_expensive = st.y.front();
    for (std::size_t i = 0; i < st.y.size(); ++i) {
      most_expensive = std::max(most_expensive, st.y[i]);
      if (st.feasible[i] != 0 && (!any || st.y[i] < best)) {
        best = st.y[i];
        any = true;
      }
    }
    if (any) {
      ctx.y_star = best;
      return;
    }
    double max_stddev = 0.0;
    for (std::size_t id = 0; id < ctx.preds.size(); ++id) {
      if (st.tested[id] == 0) {
        max_stddev = std::max(max_stddev, ctx.preds[id].stddev);
      }
    }
    ctx.y_star = most_expensive + 3.0 * max_stddev;
  }

  [[nodiscard]] std::optional<ConfigId> next_step(
      const OptimizationProblem& problem, const State& st,
      const Ctx& ctx) const {
    double best = -std::numeric_limits<double>::infinity();
    std::optional<ConfigId> best_id;
    for (std::size_t id = 0; id < ctx.preds.size(); ++id) {
      if (st.tested[id] != 0) continue;
      if (prob_within(st.beta, ctx.preds[id]) < opts_.feasibility_quantile) {
        continue;
      }
      const double acq = eic(problem, ctx, static_cast<ConfigId>(id));
      if (acq > best) {
        best = acq;
        best_id = static_cast<ConfigId>(id);
      }
    }
    return best_id;
  }

  PathValue explore(const OptimizationProblem& problem,
                    const model::FeatureMatrix& fm,
                    const math::GaussHermite& quadrature,
                    model::Regressor& model, const State& st, const Ctx& ctx,
                    ConfigId x, unsigned l, std::uint64_t path_seed) const {
    const model::Prediction& pred = ctx.preds[x];
    PathValue v;
    v.reward = eic(problem, ctx, x);
    v.cost = pred.mean + setup(st.chi, x);
    if (l == 0) return v;

    const auto nodes = quadrature.for_normal(pred.mean, pred.stddev);
    const double cap = problem.feasibility_cost_cap(x);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double ci = std::max(nodes[i].value, 0.001 * pred.mean);
      const double wi = nodes[i].weight;

      State child = st;  // the deep copy the engine's deltas replace
      child.rows.push_back(x);
      child.y.push_back(ci);
      child.feasible.push_back(ci <= cap ? 1 : 0);
      child.tested[x] = 1;
      child.beta = st.beta - ci - setup(st.chi, x);
      child.chi = x;

      Ctx child_ctx;
      build_ctx(problem, fm, model, child, child_ctx,
                util::derive_seed(path_seed, i + 1));
      const auto x_next = next_step(problem, child, child_ctx);
      if (!x_next) continue;

      const PathValue sub =
          explore(problem, fm, quadrature, model, child, child_ctx, *x_next,
                  l - 1, util::derive_seed(path_seed, 131 * (i + 1) + 7));
      v.cost += wi * sub.cost;
      v.reward += opts_.gamma * wi * sub.reward;
    }
    return v;
  }

  LynceusOptions opts_;
};

}  // namespace lynceus::core::reference
