/// \file test_soa_predict.cpp
/// Differential suite for the flat (structure-of-arrays) batch-prediction
/// layout: predict_batch / accumulate_batch — and the ensemble batch entry
/// points built on them — must be *bitwise* equal to the scalar node-walk
/// predict() / predict_stats() across every tree state (freshly fitted,
/// incremental-appended, serialization round-tripped, assign_fitted) and
/// every batch shape (identity, permuted, sparse, duplicated rows), with
/// leaf variance both on and off. Runs under `ctest -L simd`: the same
/// binary is built and re-run in the Release, ASan and LYNCEUS_SIMD=ON CI
/// legs, so the AVX2 kernel is pinned against the scalar sweep by the
/// exact tests that pin the scalar sweep against the node walk.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "model/bagging.hpp"
#include "model/decision_tree.hpp"
#include "util/alloc_count.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace lynceus::model {
namespace {

space::ConfigSpace grid_space(std::size_t a_levels, std::size_t b_levels) {
  std::vector<double> a(a_levels);
  std::vector<double> b(b_levels);
  for (std::size_t i = 0; i < a_levels; ++i) a[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < b_levels; ++i) b[i] = static_cast<double>(i);
  return space::ConfigSpace("grid", {space::numeric_param("a", a),
                                     space::numeric_param("b", b)});
}

/// Distinct noisy targets over every row → a fully grown, non-trivial tree.
void fit_noisy(DecisionTree& tree, const FeatureMatrix& fm,
               std::uint64_t seed) {
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(seed);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(noise.normal());
  }
  util::Rng rng(seed + 1);
  tree.fit(fm, rows, y, rng);
}

/// The batch shapes the engines produce, all over one FeatureMatrix:
/// identity (nullptr rows), the same rows listed explicitly, a permutation,
/// a dup-free dense subset, a sparse subset, repeated ids, one row.
std::vector<std::vector<std::uint32_t>> batch_shapes(const FeatureMatrix& fm) {
  const auto n = static_cast<std::uint32_t>(fm.rows());
  std::vector<std::vector<std::uint32_t>> shapes;
  std::vector<std::uint32_t> ascending;
  for (std::uint32_t r = 0; r < n; ++r) ascending.push_back(r);
  shapes.push_back(ascending);
  std::vector<std::uint32_t> permuted(ascending.rbegin(), ascending.rend());
  shapes.push_back(permuted);
  std::vector<std::uint32_t> dense_subset;
  for (std::uint32_t r = 0; r < n; r += 2) dense_subset.push_back(r);
  shapes.push_back(dense_subset);
  std::vector<std::uint32_t> sparse;
  for (std::uint32_t r = 0; r < n; r += 7) sparse.push_back(r);
  shapes.push_back(sparse);
  shapes.push_back({0, n - 1, 0, n / 2, n - 1, n / 2});  // duplicates
  shapes.push_back({n / 3});
  return shapes;
}

/// Bitwise check of both batch entry points against the scalar node walk,
/// for an explicit row list (or the identity batch when `rows` is null).
void expect_batch_matches_scalar(const DecisionTree& tree,
                                 const FeatureMatrix& fm,
                                 const std::uint32_t* rows, std::size_t n,
                                 PredictScratch* scratch) {
  std::vector<float> value(n, -1.0F);
  std::vector<float> variance(n, -1.0F);
  tree.predict_batch(fm, rows, n, value.data(), variance.data(), scratch);
  // Non-zero starting accumulators: += must hit the same leaves and add in
  // the same (double) precision as the scalar loop would.
  std::vector<double> sum(n);
  std::vector<double> sumsq(n);
  std::vector<double> var_sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = 0.25 * static_cast<double>(i);
    sumsq[i] = 1.0 + static_cast<double>(i);
    var_sum[i] = 0.5;
  }
  tree.accumulate_batch(fm, rows, n, sum.data(), sumsq.data(),
                        var_sum.data(), scratch);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = rows != nullptr ? rows[i] : static_cast<std::uint32_t>(i);
    const DecisionTree::LeafStats st = tree.predict_stats(fm, r);
    const double v = tree.predict(fm, r);
    EXPECT_EQ(value[i], static_cast<float>(v)) << "row " << r;
    EXPECT_EQ(variance[i], static_cast<float>(st.variance)) << "row " << r;
    EXPECT_EQ(sum[i], 0.25 * static_cast<double>(i) + v) << "row " << r;
    EXPECT_EQ(sumsq[i], 1.0 + static_cast<double>(i) + v * v) << "row " << r;
    EXPECT_EQ(var_sum[i], 0.5 + st.variance) << "row " << r;
  }
  // Value-only form (null variance pointer) routes identically.
  std::vector<float> value_only(n, -1.0F);
  tree.predict_batch(fm, rows, n, value_only.data(), nullptr, scratch);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(value_only[i], value[i]);
}

void expect_all_shapes_match(const DecisionTree& tree,
                             const FeatureMatrix& fm,
                             PredictScratch* scratch) {
  expect_batch_matches_scalar(tree, fm, nullptr, fm.rows(), scratch);
  for (const auto& shape : batch_shapes(fm)) {
    expect_batch_matches_scalar(tree, fm, shape.data(), shape.size(),
                                scratch);
  }
}

TEST(SoaPredict, TreeBatchMatchesScalarAcrossShapes) {
  const auto sp = grid_space(9, 7);
  const FeatureMatrix fm(sp);
  for (const bool leaf_variance : {true, false}) {
    TreeOptions opts;
    opts.leaf_variance = leaf_variance;
    DecisionTree tree(opts);
    fit_noisy(tree, fm, 11);
    PredictScratch scratch;
    expect_all_shapes_match(tree, fm, &scratch);
    // And with function-local scratch (the nullptr default).
    expect_all_shapes_match(tree, fm, nullptr);
  }
}

TEST(SoaPredict, IncrementalAppendKeepsBatchScalarAgreement) {
  const auto sp = grid_space(8, 8);
  const FeatureMatrix fm(sp);
  for (const bool leaf_variance : {true, false}) {
    TreeOptions opts;
    opts.leaf_variance = leaf_variance;
    DecisionTree tree(opts);
    tree.set_incremental(true, 8);
    // Fit on a strict subset so appends introduce genuinely new rows.
    std::vector<std::uint32_t> rows;
    std::vector<double> y;
    util::Rng noise(23);
    for (std::uint32_t r = 0; r < fm.rows(); r += 2) {
      rows.push_back(r);
      y.push_back(noise.normal());
    }
    util::Rng rng(24);
    tree.fit(fm, rows, y, rng);
    // The flat layout must be patched after *every* append — check after
    // each one, not just at the end.
    util::Rng append_rng(25);
    for (std::uint32_t r = 1; r < 12; r += 2) {
      tree.append_incremental(fm, r, noise.normal(), append_rng);
      expect_all_shapes_match(tree, fm, nullptr);
    }
  }
}

TEST(SoaPredict, SaveLoadRoundTripKeepsBatchScalarAgreement) {
  const auto sp = grid_space(7, 9);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  fit_noisy(tree, fm, 31);

  util::JsonWriter w;
  tree.save_state(w);
  DecisionTree back;
  back.load_state(util::parse_json(w.str()));

  expect_all_shapes_match(back, fm, nullptr);
  // And the loaded tree's batches equal the original's scalar walk.
  std::vector<float> value(fm.rows());
  back.predict_batch(fm, nullptr, fm.rows(), value.data());
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(value[r], static_cast<float>(tree.predict(fm, r)));
  }
}

TEST(SoaPredict, AssignFittedRebuildsFlatLayout) {
  const auto sp = grid_space(9, 9);
  const FeatureMatrix fm(sp);
  DecisionTree src;
  fit_noisy(src, fm, 41);

  DecisionTree fresh;
  fresh.assign_fitted(src);
  expect_all_shapes_match(fresh, fm, nullptr);

  // A destination holding a *different* fitted tree (same options — the
  // assign_fitted contract — but another shape from another fit seed)
  // must drop its old node arrays, not serve leaves of the old tree.
  DecisionTree reused;
  fit_noisy(reused, fm, 42);
  reused.assign_fitted(src);
  expect_all_shapes_match(reused, fm, nullptr);
}

TEST(SoaPredict, EnsembleBatchRoutesAreBitwiseEqualToScalar) {
  const auto sp = grid_space(8, 9);
  const FeatureMatrix fm(sp);
  for (const VarianceMode mode :
       {VarianceMode::BetweenTrees, VarianceMode::TotalVariance}) {
    BaggingOptions opts;
    opts.variance_mode = mode;
    BaggingEnsemble ens(opts);
    std::vector<std::uint32_t> rows;
    std::vector<double> y;
    util::Rng noise(51);
    for (std::uint32_t r = 0; r < fm.rows(); ++r) {
      rows.push_back(r);
      y.push_back(noise.normal());
    }
    ens.fit(fm, rows, y, 52);

    std::vector<Prediction> all;
    ens.predict_all(fm, all);
    for (std::uint32_t r = 0; r < fm.rows(); ++r) {
      const Prediction p = ens.predict(fm, r);
      EXPECT_EQ(all[r].mean, p.mean) << "row " << r;
      EXPECT_EQ(all[r].stddev, p.stddev) << "row " << r;
    }
    std::vector<Prediction> out;
    for (const auto& shape : batch_shapes(fm)) {
      ens.predict_subset(fm, shape, out);
      ASSERT_EQ(out.size(), shape.size());
      for (std::size_t i = 0; i < shape.size(); ++i) {
        EXPECT_EQ(out[i].mean, all[shape[i]].mean);
        EXPECT_EQ(out[i].stddev, all[shape[i]].stddev);
      }
    }
  }
}

TEST(SoaPredict, TreeBatchIsAllocationFreeWithWarmScratch) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto sp = grid_space(9, 8);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  fit_noisy(tree, fm, 61);
  const auto shapes = batch_shapes(fm);

  PredictScratch scratch;
  std::vector<float> value(fm.rows());
  std::vector<float> variance(fm.rows());
  std::vector<double> sum(fm.rows());
  std::vector<double> sumsq(fm.rows());
  std::vector<double> var_sum(fm.rows());
  // Warm-up: ONE call, deliberately via the *sparse* route — the
  // scratch-warming contract says the first batch sizes every buffer to
  // the space bound, so later dense / identity / bigger batches must not
  // allocate even though warm-up never took their route.
  const auto& sparse = shapes[3];
  tree.predict_batch(fm, sparse.data(), sparse.size(), value.data(),
                     variance.data(), &scratch);

  util::AllocCountGuard guard;
  tree.predict_batch(fm, nullptr, fm.rows(), value.data(), variance.data(),
                     &scratch);
  for (const auto& shape : shapes) {
    tree.predict_batch(fm, shape.data(), shape.size(), value.data(),
                       variance.data(), &scratch);
    tree.accumulate_batch(fm, shape.data(), shape.size(), sum.data(),
                          sumsq.data(), var_sum.data(), &scratch);
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "batch prediction touched the heap after scratch warm-up";
}

TEST(SoaPredict, EnsembleSteadyStateIsAllocationFree) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto sp = grid_space(9, 9);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(71);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(noise.normal());
  }
  ens.fit(fm, rows, y, 72);
  const auto shapes = batch_shapes(fm);

  // Warm-up: one sparse-subset call only (see the tree-level test); the
  // dense predict_subset route and predict_all must then run without a
  // single allocation, route switches included.
  std::vector<Prediction> out;
  out.reserve(fm.rows());
  std::vector<Prediction> all;
  all.reserve(fm.rows());
  ens.predict_subset(fm, shapes[3], out);

  util::AllocCountGuard guard;
  ens.predict_all(fm, all);
  for (const auto& shape : shapes) {
    ens.predict_subset(fm, shape, out);
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "ensemble batch prediction touched the heap after warm-up";
}

}  // namespace
}  // namespace lynceus::model
