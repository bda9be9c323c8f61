#include "core/lookahead.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/acquisition.hpp"
#include "core/bo.hpp"
#include "lookahead_reference.hpp"
#include "core/lynceus.hpp"
#include "core/sequential.hpp"
#include "eval/runner.hpp"
#include "math/gauss_hermite.hpp"
#include "model/bagging.hpp"
#include "model/gp.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"

namespace lynceus::core {
namespace {

// ---------------------------------------------------------------------------
// predict_subset / predict_batch equivalence
// ---------------------------------------------------------------------------

void expect_subset_matches_all(model::Regressor& model,
                               const model::FeatureMatrix& fm) {
  std::vector<model::Prediction> all;
  model.predict_all(fm, all);
  ASSERT_EQ(all.size(), fm.rows());

  std::vector<std::vector<std::uint32_t>> subsets;
  // Full ascending (dense mask path), sparse, descending, duplicates.
  std::vector<std::uint32_t> full(fm.rows());
  for (std::uint32_t i = 0; i < fm.rows(); ++i) full[i] = i;
  subsets.push_back(full);
  subsets.push_back({0, 5, 11, 17, 23});
  subsets.push_back({23, 12, 3, 0});
  subsets.push_back({7, 7, 7, 2});
  std::vector<std::uint32_t> most;
  for (std::uint32_t i = 0; i < fm.rows(); ++i) {
    if (i % 5 != 0) most.push_back(i);
  }
  subsets.push_back(most);

  std::vector<model::Prediction> out;
  for (const auto& ids : subsets) {
    model.predict_subset(fm, ids, out);
    ASSERT_EQ(out.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      // The batched-prediction contract requires bitwise identity, not
      // mere closeness.
      EXPECT_EQ(out[i].mean, all[ids[i]].mean) << "id " << ids[i];
      EXPECT_EQ(out[i].stddev, all[ids[i]].stddev) << "id " << ids[i];
    }
  }
}

class PredictSubset : public ::testing::Test {
 protected:
  PredictSubset()
      : space(testing::tiny_space()),
        fm(*space),
        ds(testing::tiny_dataset()) {
    util::Rng rng(3);
    for (int i = 0; i < 10; ++i) {
      const auto id = static_cast<space::ConfigId>(rng.below(space->size()));
      rows.push_back(id);
      y.push_back(ds.cost(id));
    }
  }
  std::shared_ptr<const space::ConfigSpace> space;
  model::FeatureMatrix fm;
  cloud::Dataset ds;
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
};

TEST_F(PredictSubset, BaggingBetweenTrees) {
  model::BaggingEnsemble ens;
  ens.fit(fm, rows, y, 11);
  expect_subset_matches_all(ens, fm);
}

TEST_F(PredictSubset, BaggingTotalVariance) {
  model::BaggingOptions opts;
  opts.variance_mode = model::VarianceMode::TotalVariance;
  model::BaggingEnsemble ens(opts);
  ens.fit(fm, rows, y, 11);
  expect_subset_matches_all(ens, fm);
}

TEST_F(PredictSubset, GaussianProcess) {
  model::GaussianProcess gp;
  gp.fit(fm, rows, y, 11);
  expect_subset_matches_all(gp, fm);
}

TEST_F(PredictSubset, TreeBatchMatchesScalarPredict) {
  model::TreeOptions opts;
  opts.leaf_variance = true;
  model::DecisionTree tree(opts);
  util::Rng rng(5);
  tree.fit(fm, rows, y, rng);

  // Identity batch (dense level-mask walk) ...
  std::vector<float> value(fm.rows());
  std::vector<float> variance(fm.rows());
  tree.predict_batch(fm, nullptr, fm.rows(), value.data(), variance.data());
  // ... and a sparse batch (frontier partition path).
  const std::vector<std::uint32_t> sparse = {1, 9, 16, 2};
  std::vector<float> sparse_value(sparse.size());
  tree.predict_batch(fm, sparse.data(), sparse.size(), sparse_value.data());

  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    const auto stats = tree.predict_stats(fm, r);
    EXPECT_EQ(static_cast<double>(value[r]), tree.predict(fm, r));
    EXPECT_EQ(value[r], static_cast<float>(stats.mean));
    EXPECT_EQ(variance[r], static_cast<float>(stats.variance));
  }
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(static_cast<double>(sparse_value[i]),
              tree.predict(fm, sparse[i]));
  }
}

// ---------------------------------------------------------------------------
// Golden trajectory: naive copy-based reference vs the delta-state engine
// ---------------------------------------------------------------------------

/// The naive copy-based decision loop lives in
/// tests/lookahead_reference.hpp (mirroring constraints_reference.hpp) so
/// the differential incremental-refit suite can drive it too.
using reference::NaiveLynceus;

std::vector<ConfigId> history_ids(const OptimizerResult& r) {
  std::vector<ConfigId> out;
  for (const auto& s : r.history) out.push_back(s.id);
  return out;
}

class GoldenTrajectory : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenTrajectory, EngineMatchesNaiveReference) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    LynceusOptions opts;
    opts.lookahead = GetParam();
    opts.gh_points = 3;
    opts.screen_width = 6;
    // Golden-trajectory guard: the flag-off path must stay bit-identical
    // to the committed reference regardless of the LYNCEUS_INCREMENTAL_REFIT
    // environment default (CI runs the suite once with it set).
    opts.incremental_refit = false;

    eval::TableRunner naive_runner(ds);
    const auto naive = NaiveLynceus(opts).optimize(problem, naive_runner,
                                                   seed);
    eval::TableRunner engine_runner(ds);
    const auto engine =
        LynceusOptimizer(opts).optimize(problem, engine_runner, seed);

    EXPECT_EQ(history_ids(naive), history_ids(engine))
        << "lookahead " << GetParam() << " seed " << seed;
    EXPECT_EQ(naive.recommendation, engine.recommendation);
  }
}

TEST_P(GoldenTrajectory, EngineMatchesNaiveReferenceWithSetupCosts) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  LynceusOptions opts;
  opts.lookahead = GetParam();
  opts.screen_width = 4;
  opts.incremental_refit = false;  // golden-trajectory guard (see above)
  opts.setup_cost = [](std::optional<ConfigId> from, ConfigId to) {
    if (!from) return 0.0;
    return *from == to ? 0.0 : 0.02 * (1.0 + static_cast<double>(to % 5));
  };
  eval::TableRunner naive_runner(ds);
  const auto naive = NaiveLynceus(opts).optimize(problem, naive_runner, 9);
  eval::TableRunner engine_runner(ds);
  const auto engine = LynceusOptimizer(opts).optimize(problem, engine_runner,
                                                      9);
  EXPECT_EQ(history_ids(naive), history_ids(engine));
}

INSTANTIATE_TEST_SUITE_P(Lookaheads, GoldenTrajectory,
                         ::testing::Values(0U, 1U, 2U));

// ---------------------------------------------------------------------------
// Zero allocation inside simulate()
// ---------------------------------------------------------------------------

TEST(LookaheadEngine, SimulateIsAllocationFreeAfterWarmup) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 4);
  st.bootstrap();

  LookaheadEngine::Options opts;
  opts.lookahead = 2;
  LookaheadEngine engine(problem, opts,
                         default_tree_model_factory(*problem.space), 1);
  engine.begin_decision(st.samples, st.budget.remaining(),
                        util::derive_seed(4, 1));
  std::vector<ConfigId> roots;
  engine.screened_roots(0, roots);
  ASSERT_FALSE(roots.empty());

  // Warm-up pass sizes every buffer (per-depth candidate lists, model
  // scratch, thread-local prediction buffers).
  for (ConfigId r : roots) {
    (void)engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
  }

  util::AllocCountGuard guard;
  PathValue total{};
  for (ConfigId r : roots) {
    const PathValue v =
        engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
    total.reward += v.reward;
    total.cost += v.cost;
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "simulate() touched the heap after warm-up";
  EXPECT_GT(total.cost, 0.0);
}

// The incremental-refit path must honor the same zero-allocation
// guarantee: per-branch model copies land in preallocated buffers, appends
// stay within the capture reserve, and re-splits build into reserved node
// storage.
TEST(LookaheadEngine, IncrementalSimulateIsAllocationFreeAfterWarmup) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 4);
  st.bootstrap();

  LookaheadEngine::Options opts;
  opts.lookahead = 2;
  opts.incremental_refit = true;
  LookaheadEngine engine(problem, opts,
                         default_tree_model_factory(*problem.space), 1);
  engine.begin_decision(st.samples, st.budget.remaining(),
                        util::derive_seed(4, 1));
  std::vector<ConfigId> roots;
  engine.screened_roots(0, roots);
  ASSERT_FALSE(roots.empty());

  for (ConfigId r : roots) {
    (void)engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
  }

  util::AllocCountGuard guard;
  PathValue total{};
  for (ConfigId r : roots) {
    const PathValue v =
        engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
    total.reward += v.reward;
    total.cost += v.cost;
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "incremental simulate() touched the heap after warm-up";
  EXPECT_GT(total.cost, 0.0);
}

// Incremental simulate: same seed, same value — across repeated calls and
// across workspaces (each workspace's per-level models are re-derived from
// the shared root model, so which worker runs a path cannot matter).
TEST(LookaheadEngine, IncrementalSimulateIsDeterministic) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 6);
  st.bootstrap();

  LookaheadEngine::Options opts;
  opts.lookahead = 2;
  opts.incremental_refit = true;
  LookaheadEngine engine(problem, opts,
                         default_tree_model_factory(*problem.space), 2);
  engine.begin_decision(st.samples, st.budget.remaining(), 77);
  std::vector<ConfigId> roots;
  engine.screened_roots(3, roots);
  ASSERT_FALSE(roots.empty());
  const PathValue a = engine.simulate(roots.front(), 123);
  const PathValue b = engine.simulate(roots.front(), 123);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.cost, b.cost);
}

// Deterministic simulate: same seed, same value, also across workspaces.
TEST(LookaheadEngine, SimulateIsDeterministic) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 6);
  st.bootstrap();

  LookaheadEngine::Options opts;
  opts.lookahead = 1;
  LookaheadEngine engine(problem, opts,
                         default_tree_model_factory(*problem.space), 2);
  engine.begin_decision(st.samples, st.budget.remaining(), 77);
  std::vector<ConfigId> roots;
  engine.screened_roots(3, roots);
  ASSERT_FALSE(roots.empty());
  const PathValue a = engine.simulate(roots.front(), 123);
  const PathValue b = engine.simulate(roots.front(), 123);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.cost, b.cost);
}

}  // namespace
}  // namespace lynceus::core
