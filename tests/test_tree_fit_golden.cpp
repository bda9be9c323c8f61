/// Golden digests of DecisionTree fits. The split scan has exact fast
/// paths (see model/decision_tree.hpp); these pin their output bit for
/// bit — node arrays, leaf statistics, incremental membership and the RNG
/// stream a fit leaves behind — against digests recorded before the fast
/// paths existed, beyond what the trajectory goldens reach. The first
/// digest covers bootstrap fits on the bundled workloads. The second
/// covers shapes those rarely reach: a feature with more than 64 levels,
/// histories of two or three configurations, histories confined to a
/// sub-box (constant features), and one-feature subsets (fallback scans).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/workloads.hpp"
#include "model/bagging.hpp"
#include "model/decision_tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace lynceus::model {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Fits `fits` trees on one dataset the way the Lynceus ensemble does: a
/// history of distinct configurations (the size of a bootstrap up to a
/// deep session's), resampled with replacement, so nodes holding copies
/// of one configuration are common. Every third fit captures membership
/// and appends fantasy samples (incremental re-splits run the same scan).
/// Folds each tree's save_state and the final RNG draw into `h`.
std::uint64_t digest_fits(const cloud::Dataset& ds, std::size_t fits,
                          std::uint64_t seed, std::uint64_t h) {
  const space::ConfigSpace& sp = ds.space();
  const FeatureMatrix fm(sp);
  util::Rng rng(seed);
  const std::size_t max_history = std::min<std::size_t>(40, fm.rows() - 3);
  for (std::size_t f = 0; f < fits; ++f) {
    TreeOptions opts;
    opts.features_per_split =
        f % 5 == 4 ? 0U : BaggingOptions::weka_features_per_split(fm.cols());
    opts.leaf_variance = f % 2 == 0;
    DecisionTree tree(opts);
    const bool incremental = f % 3 == 2;
    if (incremental) tree.set_incremental(true, 3);

    const std::size_t history =
        2 + static_cast<std::size_t>(rng.below(max_history - 1));
    std::vector<std::size_t> order = rng.permutation(fm.rows());
    std::vector<std::uint32_t> rows(history);
    std::vector<double> y(history);
    for (std::size_t i = 0; i < history; ++i) {
      const auto j = static_cast<std::size_t>(rng.below(history));
      rows[i] = static_cast<std::uint32_t>(order[j]);
      y[i] = ds.cost(rows[i]);
    }
    tree.fit(fm, rows, y, rng);
    if (incremental) {
      for (std::size_t a = 0; a < 3; ++a) {
        const auto row = static_cast<std::uint32_t>(order[history + a]);
        tree.append_incremental(fm, row, ds.cost(row), rng);
      }
    }
    util::JsonWriter w;
    tree.save_state(w);
    h = fnv1a(h, w.str());
  }
  return fnv1a(h, std::to_string(rng()));
}

TEST(TreeFitGolden, SeededBootstrapFitsMatchTheRecordedDigest) {
  const std::vector<std::vector<cloud::Dataset>> suites = {
      cloud::make_tensorflow_datasets(), cloud::make_scout_datasets(),
      cloud::make_cherrypick_datasets()};
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::uint64_t seed = 1;
  std::size_t fitted = 0;
  for (const std::vector<cloud::Dataset>& suite : suites) {
    for (std::size_t j = 0; j < 2 && j < suite.size(); ++j) {
      h = digest_fits(suite[j], 60, seed++, h);
      fitted += 60;
    }
  }
  EXPECT_EQ(fitted, 360U);
  // Recorded before the split-scan fast paths; any change to a fitted
  // tree, its incremental membership or the RNG stream moves it.
  EXPECT_EQ(h, 0xCB7D53F6BF99F03CULL) << std::hex << "digest 0x" << h;
}

/// A space whose first feature has 130 levels, so its occupancy spans
/// three 64-bit words; the other features are small. Targets are a fixed
/// non-separable function of the levels with many ties.
space::ConfigSpace wide_space() {
  std::vector<double> wide(130);
  for (std::size_t l = 0; l < wide.size(); ++l) {
    wide[l] = static_cast<double>(l);
  }
  return space::ConfigSpace(
      "wide", {space::numeric_param("wide", wide),
               space::numeric_param("b", {1, 2, 3, 4}),
               space::numeric_param("c", {1, 2, 3}),
               space::numeric_param("d", {1, 2})});
}

double wide_cost(const FeatureMatrix& fm, std::uint32_t row) {
  const double w = fm.code(row, 0);
  const double b = fm.code(row, 1);
  const double c = fm.code(row, 2);
  const double d = fm.code(row, 3);
  return 1.0 + static_cast<double>(fm.code(row, 0) % 17) * 0.25 +
         (w > 70.0 ? 3.0 : 0.0) + b * c * 0.5 + d * (w < 20.0 ? 2.0 : 0.1);
}

/// Which histories a shaped fit draws its configurations from.
enum class Shape {
  kWide,     ///< up to 40 distinct configurations of the whole space
  kFew,      ///< exactly 2 or 3 distinct configurations
  kSubBox,   ///< configurations sharing the levels of a random anchor on
             ///< a random half of the features
};

/// Fits `fits` trees on shaped histories and folds each save_state plus the
/// final RNG draw into `h`, like digest_fits. Feature subsets cycle through
/// the Weka default, 1 (which sends most nodes to the fallback scan) and
/// all features; every fourth fit captures membership and appends three
/// fantasy samples from the same pool.
std::uint64_t digest_shaped_fits(
    const FeatureMatrix& fm, const std::function<double(std::uint32_t)>& target,
    Shape shape, std::size_t fits, std::uint64_t seed, std::uint64_t h) {
  util::Rng rng(seed);
  const unsigned subsets[] = {
      BaggingOptions::weka_features_per_split(fm.cols()), 1U, 0U};
  for (std::size_t f = 0; f < fits; ++f) {
    TreeOptions opts;
    opts.features_per_split = subsets[f % 3];
    opts.leaf_variance = f % 2 == 0;
    DecisionTree tree(opts);
    const bool incremental = f % 4 == 3;
    if (incremental) tree.set_incremental(true, 3);

    std::vector<std::uint32_t> pool;
    if (shape == Shape::kSubBox) {
      const auto anchor = static_cast<std::uint32_t>(rng.below(fm.rows()));
      std::vector<bool> pinned(fm.cols());
      for (std::size_t d = 0; d < fm.cols(); ++d) pinned[d] = rng.below(2) == 0;
      for (std::uint32_t r = 0; r < fm.rows(); ++r) {
        bool inside = true;
        for (std::size_t d = 0; d < fm.cols() && inside; ++d) {
          inside = !pinned[d] || fm.code(r, d) == fm.code(anchor, d);
        }
        if (inside) pool.push_back(r);
      }
    } else {
      for (std::size_t r : rng.permutation(fm.rows())) {
        pool.push_back(static_cast<std::uint32_t>(r));
      }
    }
    rng.shuffle(pool);
    std::size_t distinct =
        shape == Shape::kFew
            ? 2 + static_cast<std::size_t>(rng.below(2))
            : 2 + static_cast<std::size_t>(rng.below(39));
    distinct = std::min(distinct, pool.size());

    const std::size_t history =
        2 + static_cast<std::size_t>(rng.below(shape == Shape::kFew ? 40 : 45));
    std::vector<std::uint32_t> rows(history);
    std::vector<double> y(history);
    for (std::size_t i = 0; i < history; ++i) {
      rows[i] = pool[static_cast<std::size_t>(rng.below(distinct))];
      y[i] = target(rows[i]);
    }
    tree.fit(fm, rows, y, rng);
    if (incremental) {
      for (std::size_t a = 0; a < 3; ++a) {
        const std::uint32_t row =
            pool[static_cast<std::size_t>(rng.below(pool.size()))];
        tree.append_incremental(fm, row, target(row), rng);
      }
    }
    util::JsonWriter w;
    tree.save_state(w);
    h = fnv1a(h, w.str());
  }
  return fnv1a(h, std::to_string(rng()));
}

TEST(TreeFitGolden, ShapedFitsMatchTheRecordedDigest) {
  const space::ConfigSpace wide = wide_space();
  const FeatureMatrix wide_fm(wide);
  ASSERT_GT(wide_fm.max_level_count(), 64U);
  const cloud::Dataset tf = cloud::make_tensorflow_datasets().front();
  const FeatureMatrix tf_fm(tf.space());
  const cloud::Dataset scout = cloud::make_scout_datasets().front();
  const FeatureMatrix scout_fm(scout.space());

  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::uint64_t seed = 100;
  const auto wide_target = [&](std::uint32_t r) {
    return wide_cost(wide_fm, r);
  };
  const auto tf_target = [&](std::uint32_t r) { return tf.cost(r); };
  const auto scout_target = [&](std::uint32_t r) { return scout.cost(r); };
  for (const Shape shape : {Shape::kWide, Shape::kFew, Shape::kSubBox}) {
    h = digest_shaped_fits(wide_fm, wide_target, shape, 60, seed++, h);
    h = digest_shaped_fits(tf_fm, tf_target, shape, 60, seed++, h);
    h = digest_shaped_fits(scout_fm, scout_target, shape, 60, seed++, h);
  }
  // Recorded before the split-scan kernel rewrite (occupancy masks,
  // inherited constants, the two-configuration closed form).
  EXPECT_EQ(h, 0x933B566538314C3FULL) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace lynceus::model
