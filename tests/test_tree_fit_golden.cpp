/// Golden digest of DecisionTree fits on the bundled workloads. The split
/// scan has exact fast paths (duplicate-only nodes, occupied-level sweeps);
/// this pins their output bit for bit — node arrays, leaf statistics,
/// incremental membership and the RNG stream a fit leaves behind — against
/// a digest recorded before the fast paths existed, beyond what the
/// trajectory goldens reach.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

}  // namespace
}  // namespace lynceus::model
