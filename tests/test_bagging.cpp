#include "model/bagging.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(BaggingOptions, WekaFeatureRule) {
  EXPECT_EQ(BaggingOptions::weka_features_per_split(1), 1U);
  EXPECT_EQ(BaggingOptions::weka_features_per_split(2), 2U);
  EXPECT_EQ(BaggingOptions::weka_features_per_split(5), 4U);
  EXPECT_EQ(BaggingOptions::weka_features_per_split(8), 4U);
  EXPECT_EQ(BaggingOptions::weka_features_per_split(16), 5U);
}

TEST(BaggingEnsemble, RejectsZeroTrees) {
  BaggingOptions opts;
  opts.trees = 0;
  EXPECT_THROW(BaggingEnsemble{opts}, std::invalid_argument);
}

TEST(BaggingEnsemble, PredictsMeanOfConstantTarget) {
  const auto sp = grid_space(4, 4);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  ens.fit(fm, {0, 5, 10, 15}, {3.0, 3.0, 3.0, 3.0}, 42);
  const auto p = ens.predict(fm, 7);
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
  // Constant target → all trees agree; stddev is the configured floor.
  EXPECT_LE(p.stddev, 1e-3);
}

TEST(BaggingEnsemble, StddevPositiveEvenWhenTreesAgree) {
  const auto sp = grid_space(3, 3);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  ens.fit(fm, {0, 4, 8}, {1.0, 1.0, 1.0}, 1);
  EXPECT_GT(ens.predict(fm, 0).stddev, 0.0);
}

TEST(BaggingEnsemble, DeterministicGivenSeed) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(3);
  for (std::uint32_t r = 0; r < fm.rows(); r += 2) {
    rows.push_back(r);
    y.push_back(noise.normal(10.0, 3.0));
  }
  BaggingEnsemble a;
  BaggingEnsemble b;
  a.fit(fm, rows, y, 77);
  b.fit(fm, rows, y, 77);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_DOUBLE_EQ(a.predict(fm, r).mean, b.predict(fm, r).mean);
    EXPECT_DOUBLE_EQ(a.predict(fm, r).stddev, b.predict(fm, r).stddev);
  }
}

TEST(BaggingEnsemble, SeedChangesBootstrap) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(4);
  for (std::uint32_t r = 0; r < fm.rows(); r += 2) {
    rows.push_back(r);
    y.push_back(noise.normal(10.0, 3.0));
  }
  BaggingEnsemble a;
  BaggingEnsemble b;
  a.fit(fm, rows, y, 1);
  b.fit(fm, rows, y, 2);
  bool any_diff = false;
  for (std::uint32_t r = 0; r < fm.rows() && !any_diff; ++r) {
    any_diff = a.predict(fm, r).mean != b.predict(fm, r).mean;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BaggingEnsemble, PredictAllMatchesPredict) {
  const auto sp = grid_space(5, 4);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows = {0, 3, 9, 13, 19};
  std::vector<double> y = {1.0, 4.0, 2.0, 8.0, 3.0};
  BaggingEnsemble ens;
  ens.fit(fm, rows, y, 5);
  std::vector<Prediction> all;
  ens.predict_all(fm, all);
  ASSERT_EQ(all.size(), fm.rows());
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    const auto p = ens.predict(fm, r);
    EXPECT_DOUBLE_EQ(all[r].mean, p.mean);
    EXPECT_DOUBLE_EQ(all[r].stddev, p.stddev);
  }
}

TEST(BaggingEnsemble, UncertaintyHigherAwayFromData) {
  // Train on the a=0 column only, with targets that vary along b: far
  // corner (a=max) predictions must carry at least as much ensemble spread
  // on average as on-data predictions.
  const auto sp = grid_space(8, 8);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(6);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    if (fm.code(r, 0) <= 1) {
      rows.push_back(r);
      y.push_back(static_cast<double>(fm.code(r, 1)) + noise.normal(0.0, 0.3));
    }
  }
  BaggingEnsemble ens;
  ens.fit(fm, rows, y, 7);
  double on_data = 0.0;
  double off_data = 0.0;
  int n_on = 0;
  int n_off = 0;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    if (fm.code(r, 0) <= 1) {
      on_data += ens.predict(fm, r).stddev;
      ++n_on;
    } else if (fm.code(r, 0) >= 6) {
      off_data += ens.predict(fm, r).stddev;
      ++n_off;
    }
  }
  EXPECT_GE(off_data / n_off, 0.5 * (on_data / n_on));
}

TEST(BaggingEnsemble, LearnsSmoothSurfaceApproximately) {
  const auto sp = grid_space(8, 8);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(2.0 * fm.code(r, 0) + 3.0 * fm.code(r, 1));
  }
  BaggingEnsemble ens;
  ens.fit(fm, rows, y, 8);
  double sse = 0.0;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    const double e = ens.predict(fm, r).mean - y[r];
    sse += e * e;
  }
  EXPECT_LT(std::sqrt(sse / static_cast<double>(fm.rows())), 2.5);
}

TEST(BaggingEnsemble, TotalVarianceExceedsBetweenTrees) {
  // Noisy targets within cells: the SMAC-style total variance adds the
  // within-leaf residual, so its stddev must dominate the between-trees
  // stddev everywhere.
  const auto sp = grid_space(3, 3);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(9);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    for (int rep = 0; rep < 4; ++rep) {  // repeated noisy measurements
      rows.push_back(r);
      y.push_back(static_cast<double>(r) + noise.normal(0.0, 2.0));
    }
  }
  BaggingOptions between_opts;
  BaggingOptions total_opts;
  total_opts.variance_mode = VarianceMode::TotalVariance;
  BaggingEnsemble between(between_opts);
  BaggingEnsemble total(total_opts);
  between.fit(fm, rows, y, 3);
  total.fit(fm, rows, y, 3);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_GE(total.predict(fm, r).stddev,
              between.predict(fm, r).stddev - 1e-12);
    // Means agree regardless of the variance mode.
    EXPECT_DOUBLE_EQ(total.predict(fm, r).mean, between.predict(fm, r).mean);
  }
  // And with sizeable within-leaf noise it is strictly larger somewhere.
  bool strictly = false;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    strictly = strictly || total.predict(fm, r).stddev >
                               between.predict(fm, r).stddev + 0.1;
  }
  EXPECT_TRUE(strictly);
}

TEST(BaggingEnsemble, TotalVariancePredictAllMatchesPredict) {
  const auto sp = grid_space(4, 3);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows = {0, 0, 3, 5, 5, 9, 11};
  std::vector<double> y = {1.0, 2.0, 4.0, 2.0, 6.0, 8.0, 3.0};
  BaggingOptions opts;
  opts.variance_mode = VarianceMode::TotalVariance;
  BaggingEnsemble ens(opts);
  ens.fit(fm, rows, y, 4);
  std::vector<Prediction> all;
  ens.predict_all(fm, all);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_DOUBLE_EQ(all[r].mean, ens.predict(fm, r).mean);
    EXPECT_DOUBLE_EQ(all[r].stddev, ens.predict(fm, r).stddev);
  }
}

TEST(BaggingEnsemble, FreshCreatesUnfittedClone) {
  BaggingOptions opts;
  opts.trees = 7;
  const BaggingEnsemble ens(opts);
  const auto clone = ens.fresh();
  const auto* typed = dynamic_cast<BaggingEnsemble*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->options().trees, 7U);
  EXPECT_FALSE(typed->fitted());
}

TEST(BaggingEnsemble, Validation) {
  const auto sp = grid_space(2, 2);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  EXPECT_THROW(ens.fit(fm, {}, {}, 1), std::invalid_argument);
  EXPECT_THROW((void)ens.predict(fm, 0), std::logic_error);
  std::vector<Prediction> out;
  EXPECT_THROW(ens.predict_all(fm, out), std::logic_error);
}

// ---------------------------------------------------------------------------
// Fit-state serialization (Regressor::save_fit / load_fit)
// ---------------------------------------------------------------------------

/// Fits a deterministic noisy surface on half the grid.
void fit_noisy(BaggingEnsemble& ens, const FeatureMatrix& fm,
               std::uint64_t seed) {
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(3);
  for (std::uint32_t r = 0; r < fm.rows(); r += 2) {
    rows.push_back(r);
    y.push_back(noise.normal(10.0, 3.0));
  }
  ens.fit(fm, rows, y, seed);
}

TEST(BaggingSerialization, SaveLoadRoundTripIsBitwise) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  fit_noisy(ens, fm, 77);

  util::JsonWriter w;
  ASSERT_TRUE(ens.save_fit(w));
  const util::JsonValue state = util::parse_json(w.str());

  BaggingEnsemble back;
  ASSERT_TRUE(back.load_fit(state));
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(ens.predict(fm, r).mean, back.predict(fm, r).mean);
    EXPECT_EQ(ens.predict(fm, r).stddev, back.predict(fm, r).stddev);
  }
  std::vector<Prediction> a;
  std::vector<Prediction> b;
  ens.predict_all(fm, a);
  back.predict_all(fm, b);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(a[r].mean, b[r].mean);
    EXPECT_EQ(a[r].stddev, b[r].stddev);
  }
}

TEST(BaggingSerialization, RoundTripPreservesIncrementalMembership) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  ASSERT_TRUE(ens.enable_incremental(4));
  fit_noisy(ens, fm, 19);
  ASSERT_TRUE(ens.incremental_ready());

  util::JsonWriter w;
  ASSERT_TRUE(ens.save_fit(w));
  BaggingEnsemble back;
  ASSERT_TRUE(back.load_fit(util::parse_json(w.str())));
  ASSERT_TRUE(back.incremental_ready());

  // The same append on the original and the deserialized copy must land
  // on bitwise-identical models (same captured membership, same derived
  // per-tree streams).
  ASSERT_TRUE(ens.append_and_update(fm, 7, 25.0, 1234));
  ASSERT_TRUE(back.append_and_update(fm, 7, 25.0, 1234));
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(ens.predict(fm, r).mean, back.predict(fm, r).mean);
    EXPECT_EQ(ens.predict(fm, r).stddev, back.predict(fm, r).stddev);
  }
}

TEST(BaggingSerialization, UnfittedSavesNothing) {
  BaggingEnsemble ens;
  util::JsonWriter w;
  EXPECT_FALSE(ens.save_fit(w));
  // The writer is untouched and still usable.
  w.value(1.0);
  EXPECT_EQ(w.str(), "1");
}

TEST(BaggingSerialization, LoadValidatesSignature) {
  const auto sp = grid_space(4, 4);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  fit_noisy(ens, fm, 5);
  util::JsonWriter w;
  ASSERT_TRUE(ens.save_fit(w));
  const util::JsonValue state = util::parse_json(w.str());

  BaggingOptions fewer;
  fewer.trees = 5;
  BaggingEnsemble mismatched(fewer);
  EXPECT_THROW((void)mismatched.load_fit(state), std::runtime_error);

  BaggingOptions total;
  total.variance_mode = VarianceMode::TotalVariance;
  BaggingEnsemble other_mode(total);
  EXPECT_THROW((void)other_mode.load_fit(state), std::runtime_error);
}

TEST(BaggingSerialization, LoadRejectsAMalformedTree) {
  // The restore path of a remote session: a tree whose stored depth
  // exceeds max_depth must be refused, not routed through.
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  BaggingEnsemble ens;
  fit_noisy(ens, fm, 5);
  util::JsonWriter w;
  ASSERT_TRUE(ens.save_fit(w));
  std::string state = w.str();
  const std::size_t at = state.find("\"depth\":");
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits = at + std::string("\"depth\":").size();
  const std::size_t stop = state.find_first_not_of("0123456789", digits);
  state.replace(digits, stop - digits, "99");
  BaggingEnsemble back;
  EXPECT_THROW((void)back.load_fit(util::parse_json(state)),
               std::runtime_error);
}

TEST(BaggingSerialization, TotalVarianceModeRoundTrips) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  BaggingOptions opts;
  opts.variance_mode = VarianceMode::TotalVariance;
  BaggingEnsemble ens(opts);
  fit_noisy(ens, fm, 11);
  util::JsonWriter w;
  ASSERT_TRUE(ens.save_fit(w));
  BaggingEnsemble back(opts);
  ASSERT_TRUE(back.load_fit(util::parse_json(w.str())));
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(ens.predict(fm, r).mean, back.predict(fm, r).mean);
    EXPECT_EQ(ens.predict(fm, r).stddev, back.predict(fm, r).stddev);
  }
}

}  // namespace
}  // namespace lynceus::model
