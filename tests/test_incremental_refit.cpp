/// Differential / property harness for the incremental ensemble refit
/// (ROADMAP "Incremental ensemble refit"; see the determinism contract in
/// core/lookahead.hpp).
///
/// Three layers of pinning:
///  1. model-level: randomized comparison of incremental vs from-scratch
///     ensemble fits across seeds, sample counts and feature spaces —
///     predictions must agree within a tolerance *calibrated against the
///     from-scratch fit's own seed-to-seed variability* (the incremental
///     update changes the bootstrap composition, exactly like refitting
///     with another seed does, so that variability is the natural yard
///     stick), plus bitwise repeatability and assign_fitted identity;
///  2. trajectory-level: full optimizer runs with the flag on, measured
///     against both naive references (reference::NaiveLynceus,
///     reference::NaiveMultiConstraintLynceus) on the TF-CNN and Scout
///     workloads — recommendation-quality (relative-regret) parity, not
///     id-by-id equality, which the flag deliberately does not promise;
///  3. guards: the flag-off path stays bit-identical to the references,
///     engine-level defaults are env-independent, two flag-on runs are
///     byte-identical, and a warm-started flag-on run through a
///     decision cache replays the cache-off trajectory exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "cloud/workloads.hpp"
#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "constraints_reference.hpp"
#include "core/lookahead.hpp"
#include "lookahead_reference.hpp"
#include "core/lynceus.hpp"
#include "core/sequential.hpp"
#include "eval/runner.hpp"
#include "model/bagging.hpp"
#include "model/gp.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"

namespace lynceus::core {
namespace {

std::vector<ConfigId> history_ids(const OptimizerResult& r) {
  std::vector<ConfigId> out;
  for (const auto& s : r.history) out.push_back(s.id);
  return out;
}

// ---------------------------------------------------------------------------
// Model level: incremental vs from-scratch ensembles
// ---------------------------------------------------------------------------

struct ModelCase {
  const char* name;
  cloud::Dataset ds;
};

std::vector<ModelCase> model_cases() {
  std::vector<ModelCase> cases;
  cases.push_back({"tinybowl", testing::tiny_dataset()});
  cases.push_back(
      {"tf_cnn", cloud::make_tensorflow_dataset(cloud::TfModel::CNN)});
  return cases;
}

/// Mean absolute difference of the predicted means over the whole space.
double mean_abs_diff(const std::vector<model::Prediction>& a,
                     const std::vector<model::Prediction>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::abs(a[i].mean - b[i].mean);
  }
  return acc / static_cast<double>(a.size());
}

/// Draws `n` training samples (with repetition) from the dataset.
void draw_samples(const cloud::Dataset& ds, std::size_t n, std::uint64_t seed,
                  std::vector<std::uint32_t>& rows, std::vector<double>& y) {
  util::Rng rng(seed);
  rows.clear();
  y.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<space::ConfigId>(rng.below(ds.size()));
    rows.push_back(id);
    y.push_back(ds.cost(id));
  }
}

/// The documented agreement tolerance: the incremental fit may deviate
/// from the from-scratch fit by at most 3x the from-scratch fit's own
/// seed-to-seed variability, plus 2% of the observed target range as an
/// absolute floor (guards against a near-zero calibration baseline).
constexpr double kVariabilityFactor = 3.0;
constexpr double kRangeFloor = 0.02;

TEST(IncrementalRefitModel, MatchesScratchWithinCalibratedTolerance) {
  for (const auto& mc : model_cases()) {
    const model::FeatureMatrix fm(mc.ds.space());
    std::vector<std::uint32_t> rows;
    std::vector<double> y;
    for (const std::size_t n : {8UL, 16UL}) {
      for (const std::size_t appends : {1UL, 3UL}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          draw_samples(mc.ds, n + appends, util::derive_seed(seed, n), rows,
                       y);
          const std::vector<std::uint32_t> base_rows(rows.begin(),
                                                     rows.end() - appends);
          const std::vector<double> base_y(y.begin(), y.end() - appends);

          // From-scratch fit on the full n+appends samples.
          model::BaggingEnsemble scratch;
          scratch.fit(fm, rows, y, seed);
          std::vector<model::Prediction> scratch_preds;
          scratch.predict_all(fm, scratch_preds);

          // Calibration: the same from-scratch fit under a different seed.
          model::BaggingEnsemble scratch_alt;
          scratch_alt.fit(fm, rows, y, seed + 101);
          std::vector<model::Prediction> alt_preds;
          scratch_alt.predict_all(fm, alt_preds);

          // Incremental: fit the base samples, append the rest one by one.
          model::BaggingEnsemble inc;
          ASSERT_TRUE(
              inc.enable_incremental(static_cast<unsigned>(appends)));
          inc.fit(fm, base_rows, base_y, seed);
          for (std::size_t j = 0; j < appends; ++j) {
            ASSERT_TRUE(inc.append_and_update(
                fm, rows[n + j], y[n + j],
                util::derive_seed(seed, 1000 + j)));
          }
          ASSERT_TRUE(inc.incremental_ready());
          std::vector<model::Prediction> inc_preds;
          inc.predict_all(fm, inc_preds);

          double lo = y.front();
          double hi = y.front();
          for (double v : y) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          const double baseline = mean_abs_diff(alt_preds, scratch_preds);
          const double tolerance = std::max(kVariabilityFactor * baseline,
                                            kRangeFloor * (hi - lo));
          const double diff = mean_abs_diff(inc_preds, scratch_preds);
          EXPECT_LE(diff, tolerance)
              << mc.name << " n=" << n << " appends=" << appends
              << " seed=" << seed << " (seed-to-seed baseline " << baseline
              << ")";
        }
      }
    }
  }
}

TEST(IncrementalRefitModel, AppendsAreBitwiseRepeatable) {
  const auto ds = testing::tiny_dataset();
  const model::FeatureMatrix fm(ds.space());
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  draw_samples(ds, 12, 3, rows, y);

  auto run = [&](std::vector<model::Prediction>& out) {
    model::BaggingEnsemble ens;
    ASSERT_TRUE(ens.enable_incremental(2));
    ens.fit(fm, {rows.begin(), rows.end() - 2}, {y.begin(), y.end() - 2}, 9);
    ASSERT_TRUE(ens.append_and_update(fm, rows[10], y[10], 555));
    ASSERT_TRUE(ens.append_and_update(fm, rows[11], y[11], 556));
    ens.predict_all(fm, out);
  };
  std::vector<model::Prediction> a;
  std::vector<model::Prediction> b;
  run(a);
  run(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean, b[i].mean) << i;
    EXPECT_EQ(a[i].stddev, b[i].stddev) << i;
  }
}

TEST(IncrementalRefitModel, AssignFittedIsBitwiseIdentical) {
  const auto ds = testing::tiny_dataset();
  const model::FeatureMatrix fm(ds.space());
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  draw_samples(ds, 10, 7, rows, y);

  model::BaggingEnsemble src;
  ASSERT_TRUE(src.enable_incremental(2));
  src.fit(fm, rows, y, 21);
  ASSERT_TRUE(src.append_and_update(fm, 3, ds.cost(3), 777));

  model::BaggingEnsemble dst;
  ASSERT_TRUE(dst.enable_incremental(2));
  ASSERT_TRUE(dst.assign_fitted(src));
  ASSERT_TRUE(dst.incremental_ready());

  std::vector<model::Prediction> from_src;
  std::vector<model::Prediction> from_dst;
  src.predict_all(fm, from_src);
  dst.predict_all(fm, from_dst);
  for (std::size_t i = 0; i < from_src.size(); ++i) {
    EXPECT_EQ(from_src[i].mean, from_dst[i].mean) << i;
    EXPECT_EQ(from_src[i].stddev, from_dst[i].stddev) << i;
  }

  // The copy then diverges independently: appending to dst must not touch
  // src (deep, buffer-reusing copy, not aliasing).
  ASSERT_TRUE(dst.append_and_update(fm, 5, ds.cost(5), 778));
  std::vector<model::Prediction> src_after;
  src.predict_all(fm, src_after);
  for (std::size_t i = 0; i < from_src.size(); ++i) {
    EXPECT_EQ(from_src[i].mean, src_after[i].mean) << i;
  }
}

// A branch model in the engines is populated exclusively via
// assign_fitted() — it never runs fit() itself — yet its appends must
// honor the zero-allocation guarantee, including the re-splitting path
// (the split-scan scratch sizing has to travel with the assignment).
TEST(IncrementalRefitModel, AssignOnlyModelAppendsAreAllocationFree) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto ds = testing::tiny_dataset();
  const model::FeatureMatrix fm(ds.space());
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  draw_samples(ds, 12, 5, rows, y);

  model::BaggingEnsemble src;
  ASSERT_TRUE(src.enable_incremental(3));
  src.fit(fm, rows, y, 17);

  model::BaggingEnsemble dst;
  ASSERT_TRUE(dst.enable_incremental(3));
  ASSERT_TRUE(dst.assign_fitted(src));

  util::AllocCountGuard guard;
  ASSERT_TRUE(dst.append_and_update(fm, 2, ds.cost(2), 901));
  ASSERT_TRUE(dst.append_and_update(fm, 7, ds.cost(7), 902));
  ASSERT_TRUE(dst.append_and_update(fm, 13, ds.cost(13), 903));
  EXPECT_EQ(guard.delta(), 0U)
      << "append_and_update on an assign_fitted-only model touched the heap";
}

TEST(IncrementalRefitModel, GaussianProcessDeclines) {
  model::GaussianProcess gp;
  EXPECT_FALSE(gp.enable_incremental(2));
  EXPECT_FALSE(gp.incremental_ready());
  const auto ds = testing::tiny_dataset();
  const model::FeatureMatrix fm(ds.space());
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  draw_samples(ds, 6, 2, rows, y);
  gp.fit(fm, rows, y, 4);
  EXPECT_FALSE(gp.append_and_update(fm, 1, ds.cost(1), 9));
}

TEST(IncrementalRefitModel, UnfittedOrUncapturedEnsembleDeclines) {
  const auto ds = testing::tiny_dataset();
  const model::FeatureMatrix fm(ds.space());
  model::BaggingEnsemble ens;
  // No capture enabled: append must refuse even after a fit.
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  draw_samples(ds, 6, 2, rows, y);
  ens.fit(fm, rows, y, 4);
  EXPECT_FALSE(ens.incremental_ready());
  EXPECT_FALSE(ens.append_and_update(fm, 1, ds.cost(1), 9));
  // Capture enabled but not yet fitted: also refuse.
  model::BaggingEnsemble fresh;
  ASSERT_TRUE(fresh.enable_incremental(1));
  EXPECT_FALSE(fresh.incremental_ready());
  EXPECT_FALSE(fresh.append_and_update(fm, 1, ds.cost(1), 9));
}

// ---------------------------------------------------------------------------
// Trajectory level: flag-on optimizer vs the naive references
// ---------------------------------------------------------------------------

/// Cheapest deadline-feasible cost of the dataset (the regret zero point).
double best_feasible_cost(const cloud::Dataset& ds) {
  double best = -1.0;
  for (space::ConfigId id = 0; id < ds.size(); ++id) {
    if (!ds.feasible(id)) continue;
    if (best < 0.0 || ds.cost(id) < best) best = ds.cost(id);
  }
  return best;
}

/// Relative regret of a run's recommendation; an absent or infeasible
/// recommendation counts as the 100% cap.
double rel_regret(const cloud::Dataset& ds, const OptimizerResult& r) {
  const double best = best_feasible_cost(ds);
  if (!r.recommendation || !r.recommendation_feasible || best <= 0.0) {
    return 1.0;
  }
  return std::min(1.0, (ds.cost(*r.recommendation) - best) / best);
}

/// Trajectory-quality parity bound: over the seed set, the flag-on
/// optimizer's mean relative regret may exceed the naive reference's by at
/// most this many percentage points (the references themselves move more
/// than this between adjacent seeds).
constexpr double kRegretSlack = 0.10;

TEST(IncrementalRefitTrajectory, SingleConstraintParityVsNaiveReference) {
  struct Workload {
    const char* name;
    cloud::Dataset ds;
    double b;
  };
  const Workload workloads[] = {
      {"scout_0", cloud::make_scout_datasets().front(), 3.0},
      {"tf_cnn", cloud::make_tensorflow_dataset(cloud::TfModel::CNN), 2.0},
  };
  for (const auto& w : workloads) {
    const auto problem = eval::make_problem(w.ds, w.b);
    double naive_regret = 0.0;
    double inc_regret = 0.0;
    int inc_feasible = 0;
    const int seeds = 5;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      LynceusOptions opts;
      opts.lookahead = 1;
      opts.screen_width = 24;
      opts.incremental_refit = false;
      eval::TableRunner naive_runner(w.ds);
      const auto naive = reference::NaiveLynceus(opts).optimize(
          problem, naive_runner, seed);

      opts.incremental_refit = true;
      eval::TableRunner inc_runner(w.ds);
      const auto inc =
          LynceusOptimizer(opts).optimize(problem, inc_runner, seed);

      naive_regret += rel_regret(w.ds, naive);
      inc_regret += rel_regret(w.ds, inc);
      if (inc.recommendation && inc.recommendation_feasible) ++inc_feasible;
      // Budget accounting must hold under the flag exactly as without it:
      // the Γ filter is probabilistic (P(c <= β) >= 0.99), so a run may
      // overshoot by at most the final profiled run's cost.
      double max_cost = 0.0;
      for (space::ConfigId id = 0; id < w.ds.size(); ++id) {
        max_cost = std::max(max_cost, w.ds.cost(id));
      }
      EXPECT_LE(inc.budget_spent, problem.budget + max_cost)
          << w.name << " seed " << seed;
    }
    naive_regret /= seeds;
    inc_regret /= seeds;
    std::printf("[parity] %s: mean rel-regret naive=%.4f incremental=%.4f\n",
                w.name, naive_regret, inc_regret);
    EXPECT_LE(inc_regret, naive_regret + kRegretSlack)
        << w.name << ": incremental mean regret " << inc_regret
        << " vs naive " << naive_regret;
    EXPECT_GE(inc_feasible, seeds - 1)
        << w.name << ": incremental runs must keep finding feasible "
        << "recommendations";
  }
}

TEST(IncrementalRefitTrajectory, MultiConstraintParityVsNaiveReference) {
  // Scout workload with the synthetic energy cap used across the benches
  // and trajectory_dump. (The TF-space multi-constraint reference takes
  // ~0.5 s *per decision*, so the TF workload is covered by the
  // single-constraint parity case above and the Scout one here.)
  const auto scout = cloud::make_scout_datasets().front();
  auto energy_of = [&scout](space::ConfigId id) {
    return 0.05 * scout.runtime(id) *
           (1.0 + 0.1 * static_cast<double>(id % 7));
  };
  double min_energy = 1e300;
  for (space::ConfigId id = 0; id < scout.size(); ++id) {
    if (scout.feasible(id)) min_energy = std::min(min_energy, energy_of(id));
  }
  const double cap = 1.5 * min_energy;
  ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  const auto problem = eval::make_problem(scout, 3.0);

  double naive_regret = 0.0;
  double inc_regret = 0.0;
  const int seeds = 3;
  for (std::uint64_t seed = 5; seed < 5 + seeds; ++seed) {
    MultiConstraintOptions opts;
    opts.lookahead = 1;
    opts.incremental_refit = false;
    eval::TableRunner naive_runner(scout, [&](space::ConfigId id) {
      return std::vector<double>{energy_of(id)};
    });
    const auto naive = reference::NaiveMultiConstraintLynceus({c}, opts)
                           .optimize(problem, naive_runner, seed);

    opts.incremental_refit = true;
    eval::TableRunner inc_runner(scout, [&](space::ConfigId id) {
      return std::vector<double>{energy_of(id)};
    });
    const auto inc =
        MultiConstraintLynceus({c}, opts).optimize(problem, inc_runner, seed);

    naive_regret += rel_regret(scout, naive);
    inc_regret += rel_regret(scout, inc);
  }
  naive_regret /= seeds;
  inc_regret /= seeds;
  std::printf("[parity] scout_mc: mean rel-regret naive=%.4f incremental=%.4f\n",
              naive_regret, inc_regret);
  EXPECT_LE(inc_regret, naive_regret + kRegretSlack)
      << "incremental mean regret " << inc_regret << " vs naive "
      << naive_regret;
}

// ---------------------------------------------------------------------------
// Guards: defaults, repeatability, cache interplay, env toggle
// ---------------------------------------------------------------------------

TEST(IncrementalRefitGuard, EngineDefaultsAreOffAndEnvIndependent) {
  // The *engine* options are plain defaults — only the optimizer-level
  // options read the environment toggle, so libraries embedding the
  // engines directly can never be surprised by it.
  EXPECT_FALSE(LookaheadEngine::Options{}.incremental_refit);
  EXPECT_FALSE(MultiConstraintEngine::Options{}.incremental_refit);
}

TEST(IncrementalRefitGuard, EnvToggleDrivesOptimizerDefaults) {
  const char* prior = std::getenv("LYNCEUS_INCREMENTAL_REFIT");
  const std::string saved = prior != nullptr ? prior : "";

  ::setenv("LYNCEUS_INCREMENTAL_REFIT", "1", 1);
  EXPECT_TRUE(LynceusOptions{}.incremental_refit);
  EXPECT_TRUE(MultiConstraintOptions{}.incremental_refit);
  ::setenv("LYNCEUS_INCREMENTAL_REFIT", "0", 1);
  EXPECT_FALSE(LynceusOptions{}.incremental_refit);
  ::unsetenv("LYNCEUS_INCREMENTAL_REFIT");
  EXPECT_FALSE(LynceusOptions{}.incremental_refit);
  EXPECT_FALSE(MultiConstraintOptions{}.incremental_refit);

  if (prior != nullptr) {
    ::setenv("LYNCEUS_INCREMENTAL_REFIT", saved.c_str(), 1);
  }
}

// The default-path guard proper: with the flag explicitly off, the
// production optimizer must stay bit-identical to the committed naive
// references for LA 0/1/2, one and two constraints — so the flag's
// existence can never silently change the pinned semantics. (The broader
// multi-seed golden suites in test_lookahead.cpp / test_constraints.cpp
// pin the same property; this one concentrates it where the flag lives.)
TEST(IncrementalRefitGuard, FlagOffStaysBitIdenticalToReferences) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  for (unsigned la = 0; la <= 2; ++la) {
    LynceusOptions opts;
    opts.lookahead = la;
    opts.screen_width = 6;
    opts.incremental_refit = false;
    eval::TableRunner naive_runner(ds);
    const auto naive =
        reference::NaiveLynceus(opts).optimize(problem, naive_runner, 11);
    eval::TableRunner engine_runner(ds);
    const auto engine =
        LynceusOptimizer(opts).optimize(problem, engine_runner, 11);
    EXPECT_EQ(history_ids(naive), history_ids(engine)) << "la " << la;
    EXPECT_EQ(naive.recommendation, engine.recommendation) << "la " << la;
  }
}

TEST(IncrementalRefitGuard, SameSeedRunsAreByteIdentical) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  LynceusOptions opts;
  opts.lookahead = 2;
  opts.screen_width = 6;
  opts.incremental_refit = true;
  eval::TableRunner r1(ds);
  eval::TableRunner r2(ds);
  const auto a = LynceusOptimizer(opts).optimize(problem, r1, 42);
  const auto b = LynceusOptimizer(opts).optimize(problem, r2, 42);
  EXPECT_EQ(history_ids(a), history_ids(b));
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.budget_spent, b.budget_spent);
}

// Replaying incremental-refit decisions from the decision cache must
// reproduce the cache-off incremental trajectory byte-for-byte: the key
// carries the incremental flag, and a hit returns the choice the skipped
// incremental decision would make.
TEST(IncrementalRefitGuard, RootCacheWarmStartReplaysByteIdentically) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  LynceusOptions opts;
  opts.lookahead = 1;
  opts.screen_width = 6;
  opts.incremental_refit = true;

  eval::TableRunner r0(ds);
  const auto baseline = LynceusOptimizer(opts).optimize(problem, r0, 33);

  RootCache cache(RootCache::Options{64});
  opts.root_cache = &cache;
  eval::TableRunner r1(ds);
  const auto first = LynceusOptimizer(opts).optimize(problem, r1, 33);
  eval::TableRunner r2(ds);
  const auto second = LynceusOptimizer(opts).optimize(problem, r2, 33);

  EXPECT_EQ(cache.stats().hits, baseline.decisions);
  EXPECT_GT(cache.stats().hits, 0U);
  EXPECT_EQ(history_ids(baseline), history_ids(first));
  EXPECT_EQ(history_ids(baseline), history_ids(second));
  EXPECT_EQ(baseline.recommendation, second.recommendation);
}

}  // namespace
}  // namespace lynceus::core
