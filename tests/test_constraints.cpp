#include "core/constraints.hpp"

#include <gtest/gtest.h>

#include "core/bo.hpp"
#include "constraints_reference.hpp"
#include "core/lookahead.hpp"
#include "core/sequential.hpp"
#include "eval/runner.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"

namespace lynceus::core {
namespace {

/// Synthetic "energy" metric over the tiny space: grows with both
/// dimensions, so the energy cap rules out part of the cheap region and
/// forces a genuine trade-off.
double energy_of(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn energy_metrics() {
  const auto sp = testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{energy_of(*sp, id)};
  };
}

ConstraintDef energy_constraint(double cap) {
  ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

TEST(MultiConstraintOptions, Validation) {
  MultiConstraintOptions opts;
  opts.gh_points = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = MultiConstraintOptions{};
  opts.prune_weight = 1.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(MultiConstraintLynceus, RequiresThresholdFunctions) {
  ConstraintDef c;
  c.name = "broken";
  EXPECT_THROW(MultiConstraintLynceus({c}), std::invalid_argument);
}

TEST(MultiConstraintLynceus, NameListsConstraintCount) {
  MultiConstraintLynceus opt({energy_constraint(30.0)});
  EXPECT_EQ(opt.name(), "Lynceus-MC(LA=1,I=1)");
}

TEST(MultiConstraintLynceus, RunnerMustProvideMetrics) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  eval::TableRunner runner(ds);  // no metrics function
  MultiConstraintLynceus opt({energy_constraint(30.0)});
  EXPECT_THROW((void)opt.optimize(problem, runner, 1), std::runtime_error);
}

TEST(MultiConstraintLynceus, RecommendationRespectsEnergyCap) {
  const auto ds = testing::tiny_dataset();
  const auto sp = testing::tiny_space();
  const auto problem = testing::tiny_problem();
  const double cap = 26.0;
  MultiConstraintLynceus opt({energy_constraint(cap)});
  int feasible_recs = 0;
  int total = 0;
  for (int t = 0; t < 8; ++t) {
    eval::TableRunner runner(ds, energy_metrics());
    const auto result = opt.optimize(problem, runner, 500 + t);
    ASSERT_TRUE(result.recommendation.has_value());
    if (result.recommendation_feasible) {
      ++feasible_recs;
      EXPECT_LE(energy_of(*sp, *result.recommendation), cap);
      EXPECT_LE(ds.runtime(*result.recommendation), ds.tmax_seconds());
    }
    ++total;
  }
  // The cap leaves feasible points; the optimizer must find them usually.
  EXPECT_GE(feasible_recs, total / 2);
}

TEST(MultiConstraintLynceus, TightCapShiftsRecommendation) {
  // With a loose cap the best config matches the single-constraint
  // optimum; a tight cap must push the recommendation elsewhere.
  const auto ds = testing::tiny_dataset();
  const auto sp = testing::tiny_space();
  const auto problem = testing::tiny_problem();
  MultiConstraintLynceus loose(
      {energy_constraint(1000.0)});  // never binding
  MultiConstraintLynceus tight({energy_constraint(22.0)});
  eval::TableRunner r1(ds, energy_metrics());
  eval::TableRunner r2(ds, energy_metrics());
  const auto a = loose.optimize(problem, r1, 31);
  const auto b = tight.optimize(problem, r2, 31);
  ASSERT_TRUE(a.recommendation && b.recommendation);
  if (b.recommendation_feasible) {
    EXPECT_LE(energy_of(*sp, *b.recommendation), 22.0);
    // The loose optimum violates the tight cap, so they must differ.
    if (energy_of(*sp, *a.recommendation) > 22.0) {
      EXPECT_NE(*a.recommendation, *b.recommendation);
    }
  }
}

TEST(MultiConstraintLynceus, DeterministicGivenSeed) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  MultiConstraintLynceus opt({energy_constraint(28.0)});
  eval::TableRunner r1(ds, energy_metrics());
  eval::TableRunner r2(ds, energy_metrics());
  const auto a = opt.optimize(problem, r1, 62);
  const auto b = opt.optimize(problem, r2, 62);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id);
  }
}

// ---------------------------------------------------------------------------
// Golden trajectory: naive copy-based reference vs the production optimizer
// ---------------------------------------------------------------------------

std::vector<ConfigId> history_ids(const OptimizerResult& r) {
  std::vector<ConfigId> out;
  for (const auto& s : r.history) out.push_back(s.id);
  return out;
}

/// Second synthetic metric ("network"), decreasing in dimension a, so the
/// two-constraint joint speculation is exercised with a genuinely binding
/// pair of caps.
eval::TableRunner::MetricsFn two_metrics() {
  const auto sp = testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{energy_of(*sp, id),
                               20.0 - 3.0 * sp->value(id, 0)};
  };
}

std::vector<ConstraintDef> two_constraints() {
  ConstraintDef net;
  net.name = "network";
  net.metric_index = 1;
  net.threshold = [](ConfigId) { return 18.0; };
  return {energy_constraint(27.0), net};
}

class McGoldenTrajectory : public ::testing::TestWithParam<unsigned> {};

TEST_P(McGoldenTrajectory, EngineMatchesNaiveReferenceOneConstraint) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    MultiConstraintOptions opts;
    opts.lookahead = GetParam();
    opts.gh_points = 3;
    // Golden-trajectory guard: the flag-off path must stay bit-identical
    // to the committed reference regardless of the
    // LYNCEUS_INCREMENTAL_REFIT environment default (CI runs the suite
    // once with it set).
    opts.incremental_refit = false;

    eval::TableRunner naive_runner(ds, energy_metrics());
    const auto naive =
        reference::NaiveMultiConstraintLynceus({energy_constraint(26.0)}, opts)
            .optimize(problem, naive_runner, seed);
    eval::TableRunner engine_runner(ds, energy_metrics());
    const auto engine = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                            .optimize(problem, engine_runner, seed);

    EXPECT_EQ(history_ids(naive), history_ids(engine))
        << "lookahead " << GetParam() << " seed " << seed;
    EXPECT_EQ(naive.recommendation, engine.recommendation);
    EXPECT_EQ(naive.recommendation_feasible, engine.recommendation_feasible);
    EXPECT_EQ(naive.decisions, engine.decisions);
  }
}

TEST_P(McGoldenTrajectory, EngineMatchesNaiveReferenceTwoConstraints) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  MultiConstraintOptions opts;
  opts.lookahead = GetParam();
  opts.gh_points = 3;
  opts.incremental_refit = false;  // golden-trajectory guard (see above)

  eval::TableRunner naive_runner(ds, two_metrics());
  const auto naive =
      reference::NaiveMultiConstraintLynceus(two_constraints(), opts)
          .optimize(problem, naive_runner, 17);
  eval::TableRunner engine_runner(ds, two_metrics());
  const auto engine = MultiConstraintLynceus(two_constraints(), opts)
                          .optimize(problem, engine_runner, 17);

  EXPECT_EQ(history_ids(naive), history_ids(engine))
      << "lookahead " << GetParam();
  EXPECT_EQ(naive.recommendation, engine.recommendation);
}

INSTANTIATE_TEST_SUITE_P(Lookaheads, McGoldenTrajectory,
                         ::testing::Values(0U, 1U, 2U));

// ---------------------------------------------------------------------------
// MultiConstraintEngine: allocation behavior, determinism, root cache
// ---------------------------------------------------------------------------

/// Bootstraps a run with recorded metrics and hands the root state to a
/// MultiConstraintEngine, mirroring MultiConstraintLynceus::optimize.
struct McEngineFixture {
  explicit McEngineFixture(unsigned lookahead, std::uint64_t seed = 4)
      : ds(testing::tiny_dataset()),
        problem(testing::tiny_problem()),
        constraints(two_constraints()),
        runner(ds, two_metrics()),
        recorder(runner, constraints.size()),
        st(problem, runner, seed) {
    st.runner = &recorder;
    st.bootstrap();

    MultiConstraintEngine::Options opts;
    opts.lookahead = lookahead;
    for (const auto& c : constraints) opts.thresholds.push_back(c.threshold);
    engine = std::make_unique<MultiConstraintEngine>(
        problem, std::move(opts),
        default_tree_model_factory(*problem.space), 1);

    for (std::size_t i = 0; i < st.samples.size(); ++i) {
      rows.push_back(st.samples[i].id);
      y_cost.push_back(st.samples[i].cost);
    }
    y_metric.resize(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (std::size_t i = 0; i < st.samples.size(); ++i) {
        y_metric[c].push_back(
            recorder.metrics()[i][constraints[c].metric_index]);
      }
    }
    for (std::size_t i = 0; i < st.samples.size(); ++i) {
      bool feas = st.samples[i].feasible;
      for (const auto& c : constraints) {
        if (recorder.metrics()[i][c.metric_index] >
            c.threshold(st.samples[i].id)) {
          feas = false;
        }
      }
      feasible.push_back(feas ? 1 : 0);
    }
  }

  void begin(std::uint64_t fit_seed) {
    engine->begin_decision(rows, y_cost, y_metric, feasible,
                           st.budget.remaining(), fit_seed);
  }

  cloud::Dataset ds;
  OptimizationProblem problem;
  std::vector<ConstraintDef> constraints;
  eval::TableRunner runner;
  MetricRecordingRunner recorder;
  LoopState st;
  std::unique_ptr<MultiConstraintEngine> engine;
  std::vector<std::uint32_t> rows;
  std::vector<double> y_cost;
  std::vector<std::vector<double>> y_metric;
  std::vector<char> feasible;
};

TEST(MultiConstraintEngine, SimulateIsAllocationFreeAfterWarmup) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  McEngineFixture fx(/*lookahead=*/2);
  fx.begin(util::derive_seed(4, 1));
  const auto roots = fx.engine->viable();
  ASSERT_FALSE(roots.empty());

  // Warm-up pass sizes every buffer (per-depth candidate lists, combo
  // buffers, model scratch).
  for (ConfigId r : roots) {
    (void)fx.engine->simulate(r, util::derive_seed(4, 1000003ULL + r));
  }

  util::AllocCountGuard guard;
  PathValue total{};
  for (ConfigId r : roots) {
    const PathValue v =
        fx.engine->simulate(r, util::derive_seed(4, 1000003ULL + r));
    total.reward += v.reward;
    total.cost += v.cost;
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "multi-constraint simulate() touched the heap after warm-up";
  EXPECT_GT(total.cost, 0.0);
}

TEST(MultiConstraintEngine, SimulateIsDeterministic) {
  McEngineFixture fx(/*lookahead=*/1);
  fx.begin(util::derive_seed(4, 1));
  ASSERT_FALSE(fx.engine->viable().empty());
  const ConfigId root = fx.engine->viable().front();
  const PathValue a = fx.engine->simulate(root, 123);
  const PathValue b = fx.engine->simulate(root, 123);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.cost, b.cost);
}

// A repeated multi-constraint decision is served from the cache — the hit
// returns before the engine's begin_decision — and the observer sees the
// identical event.
TEST(MultiConstraintLynceus, DecisionCacheHitSkipsLookaheadBitIdentically) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  RootCache cache(RootCache::Options{64});
  MultiConstraintOptions opts;
  opts.lookahead = 1;
  opts.root_cache = &cache;

  const auto first_decision = [&](DecisionEvent& event) {
    TraceRecorder trace;
    MultiConstraintOptions traced = opts;
    traced.observer = &trace;
    auto stepper = MultiConstraintLynceus({energy_constraint(26.0)}, traced)
                       .make_stepper(problem, 55);
    eval::TableRunner runner(ds, energy_metrics());
    const std::vector<ConfigId> batch = stepper->ask().configs;
    for (ConfigId id : batch) stepper->tell(id, runner.run(id));
    const StepAction& next = stepper->ask();
    ASSERT_EQ(next.kind, StepAction::Kind::Profile);
    ASSERT_EQ(trace.decisions().size(), 1U);
    event = trace.decisions().front();
  };
  DecisionEvent cold;
  first_decision(cold);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().entries, 1U);

  DecisionEvent warm;
  first_decision(warm);
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(warm.chosen, cold.chosen);
  EXPECT_EQ(warm.viable_count, cold.viable_count);
  EXPECT_EQ(warm.simulated_roots, cold.simulated_roots);
  EXPECT_EQ(warm.predicted_cost, cold.predicted_cost);
  EXPECT_EQ(warm.incumbent, cold.incumbent);
  EXPECT_EQ(warm.best_ratio, cold.best_ratio);
  EXPECT_EQ(warm.remaining_budget, cold.remaining_budget);
}

TEST(MultiConstraintLynceus, SharedRootCacheKeepsTrajectoryIdentical) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  MultiConstraintOptions opts;
  opts.lookahead = 1;

  eval::TableRunner r0(ds, energy_metrics());
  const auto baseline = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                            .optimize(problem, r0, 42);

  RootCache::Options copts;
  copts.capacity = 64;
  RootCache cache(copts);
  opts.root_cache = &cache;
  eval::TableRunner r1(ds, energy_metrics());
  const auto first = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                         .optimize(problem, r1, 42);
  const std::uint64_t misses = cache.stats().misses;
  eval::TableRunner r2(ds, energy_metrics());
  const auto second = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                          .optimize(problem, r2, 42);

  // Every profiling decision of the re-run hits; a final stop outcome
  // (counted in `decisions` by this optimizer) is never stored, so it
  // misses on both runs.
  const std::size_t profiled = second.history.size() - problem.bootstrap_samples;
  EXPECT_EQ(cache.stats().hits, profiled);
  EXPECT_GT(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().misses - misses, misses - profiled);
  EXPECT_EQ(history_ids(baseline), history_ids(first));
  EXPECT_EQ(history_ids(baseline), history_ids(second));
  EXPECT_EQ(baseline.recommendation, second.recommendation);
}

TEST(MultiConstraintLynceus, TwoConstraintsJointly) {
  const auto ds = testing::tiny_dataset();
  const auto sp = testing::tiny_space();
  const auto problem = testing::tiny_problem();
  // Second metric: "network" decreasing in a.
  auto metrics = [sp](space::ConfigId id) {
    return std::vector<double>{energy_of(*sp, id),
                               20.0 - 3.0 * sp->value(id, 0)};
  };
  ConstraintDef net;
  net.name = "network";
  net.metric_index = 1;
  net.threshold = [](ConfigId) { return 18.0; };  // rules out a = 0
  MultiConstraintLynceus opt({energy_constraint(30.0), net});
  eval::TableRunner runner(ds, metrics);
  const auto result = opt.optimize(problem, runner, 91);
  ASSERT_TRUE(result.recommendation.has_value());
  if (result.recommendation_feasible) {
    EXPECT_LE(energy_of(*sp, *result.recommendation), 30.0);
    EXPECT_LE(20.0 - 3.0 * sp->value(*result.recommendation, 0), 18.0);
  }
}

}  // namespace
}  // namespace lynceus::core
