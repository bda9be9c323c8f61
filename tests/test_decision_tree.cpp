#include "model/decision_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

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

TEST(DecisionTree, FitsConstantTarget) {
  const auto sp = grid_space(4, 4);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  util::Rng rng(1);
  std::vector<std::uint32_t> rows = {0, 3, 7, 12};
  std::vector<double> y = {5.0, 5.0, 5.0, 5.0};
  tree.fit(fm, rows, y, rng);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_DOUBLE_EQ(tree.predict(fm, r), 5.0);
  }
  EXPECT_EQ(tree.node_count(), 1U);  // no split gains anything
}

TEST(DecisionTree, LearnsAxisAlignedStep) {
  // y = 10 if a >= 2 else 0: one split on feature a suffices.
  const auto sp = grid_space(4, 4);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(fm.code(r, 0) >= 2 ? 10.0 : 0.0);
  }
  DecisionTree tree;
  util::Rng rng(2);
  tree.fit(fm, rows, y, rng);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_DOUBLE_EQ(tree.predict(fm, r), fm.code(r, 0) >= 2 ? 10.0 : 0.0);
  }
}

TEST(DecisionTree, InterpolatesTrainingDataExactlyWhenFullyGrown) {
  const auto sp = grid_space(5, 5);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(3);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(noise.normal());  // distinct random targets
  }
  DecisionTree tree;
  util::Rng rng(4);
  tree.fit(fm, rows, y, rng);
  // All 25 cells distinct → a fully grown tree reproduces each target.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NEAR(tree.predict(fm, rows[i]), y[i], 1e-6);
  }
}

TEST(DecisionTree, MaxDepthLimitsGrowth) {
  const auto sp = grid_space(8, 8);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  util::Rng noise(5);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(noise.normal());
  }
  TreeOptions opts;
  opts.max_depth = 2;
  DecisionTree tree(opts);
  util::Rng rng(6);
  tree.fit(fm, rows, y, rng);
  EXPECT_LE(tree.depth(), 2U);
  EXPECT_LE(tree.node_count(), 7U);  // at most 2^3 - 1 nodes at depth 2
}

TEST(DecisionTree, MinSamplesSplitStopsEarly) {
  const auto sp = grid_space(4, 4);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows = {0, 5, 10, 15};
  std::vector<double> y = {0.0, 1.0, 2.0, 3.0};
  TreeOptions opts;
  opts.min_samples_split = 100;  // never split
  DecisionTree tree(opts);
  util::Rng rng(7);
  tree.fit(fm, rows, y, rng);
  EXPECT_EQ(tree.node_count(), 1U);
  EXPECT_DOUBLE_EQ(tree.predict(fm, 0), 1.5);
}

TEST(DecisionTree, FeatureSubsetStillLearns) {
  const auto sp = grid_space(6, 6);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    rows.push_back(r);
    y.push_back(static_cast<double>(fm.code(r, 0)) * 2.0 +
                static_cast<double>(fm.code(r, 1)));
  }
  TreeOptions opts;
  opts.features_per_split = 1;
  DecisionTree tree(opts);
  util::Rng rng(8);
  tree.fit(fm, rows, y, rng);
  // Random single-feature splits can still fit additive targets well.
  double sse = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double e = tree.predict(fm, rows[i]) - y[i];
    sse += e * e;
  }
  EXPECT_LT(std::sqrt(sse / static_cast<double>(rows.size())), 1.5);
}

TEST(DecisionTree, RepeatedRowsSupported) {
  const auto sp = grid_space(3, 3);
  const FeatureMatrix fm(sp);
  // Bootstrap-style repeated rows with consistent targets.
  std::vector<std::uint32_t> rows = {0, 0, 0, 8, 8, 8};
  std::vector<double> y = {1.0, 1.0, 1.0, 9.0, 9.0, 9.0};
  DecisionTree tree;
  util::Rng rng(9);
  tree.fit(fm, rows, y, rng);
  EXPECT_DOUBLE_EQ(tree.predict(fm, 0), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(fm, 8), 9.0);
}

TEST(DecisionTree, Validation) {
  const auto sp = grid_space(2, 2);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  util::Rng rng(10);
  EXPECT_THROW(tree.fit(fm, {}, {}, rng), std::invalid_argument);
  EXPECT_THROW(tree.fit(fm, {0}, {1.0, 2.0}, rng), std::invalid_argument);
  EXPECT_THROW((void)tree.predict(fm, 0), std::logic_error);
}

TEST(DecisionTree, LeafStatsExposeWithinLeafVariance) {
  const auto sp = grid_space(2, 2);
  const FeatureMatrix fm(sp);
  // Force a single leaf holding targets {1, 3} (no split possible: both
  // samples share the same cell).
  std::vector<std::uint32_t> rows = {0, 0};
  std::vector<double> y = {1.0, 3.0};
  DecisionTree tree;
  util::Rng rng(12);
  tree.fit(fm, rows, y, rng);
  const auto stats = tree.predict_stats(fm, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.variance, 1.0);  // biased variance of {1, 3}
}

TEST(DecisionTree, PureLeavesHaveZeroVariance) {
  const auto sp = grid_space(3, 3);
  const FeatureMatrix fm(sp);
  std::vector<std::uint32_t> rows = {0, 4, 8};
  std::vector<double> y = {1.0, 2.0, 3.0};
  DecisionTree tree;
  util::Rng rng(13);
  tree.fit(fm, rows, y, rng);
  for (std::uint32_t r : rows) {
    EXPECT_DOUBLE_EQ(tree.predict_stats(fm, r).variance, 0.0);
  }
}

TEST(DecisionTree, SingleSampleGivesConstantLeaf) {
  const auto sp = grid_space(2, 2);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  util::Rng rng(11);
  tree.fit(fm, {2}, {7.5}, rng);
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_DOUBLE_EQ(tree.predict(fm, r), 7.5);
  }
}

// ---------------------------------------------------------------------------
// load_state validation: a restored state may come from a remote client.
// ---------------------------------------------------------------------------

/// A hand-written save_state object. The default is a valid three-node
/// tree: root split on feature 0 at code 1, two leaves.
struct RawState {
  std::uint64_t depth = 1;
  std::vector<std::int64_t> left = {1, -1, -1};
  std::vector<std::int64_t> right = {2, -1, -1};
  std::vector<std::int64_t> feature = {0, -1, -1};
  std::vector<std::uint64_t> split = {1, 0, 0};
  std::vector<double> value = {0.0, 1.5, 4.5};
  std::vector<std::int64_t> leaf_of;  // membership: rows 0 and 3

  [[nodiscard]] util::JsonValue json() const {
    util::JsonWriter w;
    const auto ints = [&](const char* key,
                          const std::vector<std::int64_t>& v) {
      w.key(key).begin_array();
      for (const std::int64_t x : v) w.value(x);
      w.end_array();
    };
    w.begin_object();
    w.key("depth").value(depth);
    ints("left", left);
    ints("right", right);
    ints("feature", feature);
    w.key("split").begin_array();
    for (const std::uint64_t x : split) w.value(x);
    w.end_array();
    w.key("value").begin_array();
    for (const double x : value) w.value_exact(x);
    w.end_array();
    w.key("variance").begin_array();
    for (std::size_t i = 0; i < value.size(); ++i) w.value_exact(0.0);
    w.end_array();
    w.key("inc").begin_object();
    w.key("enabled").value(!leaf_of.empty());
    w.key("reserve").value(std::uint64_t{2});
    w.key("base").value(static_cast<std::uint64_t>(leaf_of.size()));
    w.key("rows").begin_array();
    for (std::size_t i = 0; i < leaf_of.size(); ++i) {
      w.value(static_cast<std::uint64_t>(3 * i));
    }
    w.end_array();
    w.key("y").begin_array();
    for (std::size_t i = 0; i < leaf_of.size(); ++i) w.value_exact(1.0);
    w.end_array();
    ints("leaf_of", leaf_of);
    w.key("node_depth").begin_array();
    if (!leaf_of.empty()) {
      for (const std::uint64_t d : {0, 1, 1}) w.value(d);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    return util::parse_json(w.str());
  }
};

TEST(DecisionTreeState, HandWrittenStateLoads) {
  const auto sp = grid_space(3, 2);
  const FeatureMatrix fm(sp);
  RawState raw;
  raw.leaf_of = {1, 2};
  DecisionTree tree;
  tree.load_state(raw.json());
  EXPECT_EQ(tree.node_count(), 3U);
  EXPECT_TRUE(tree.has_membership());
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(tree.predict(fm, r), fm.code(r, 0) <= 1 ? 1.5 : 4.5);
  }
}

TEST(DecisionTreeState, RejectsChildAtItsParent) {
  RawState raw;
  raw.left[0] = 0;  // a self-loop would hang the scalar descent
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsChildBelowItsParent) {
  // Node 1 is an inner node whose right child points back at the root.
  RawState raw;
  raw.depth = 2;
  raw.left = {1, 3, -1, -1};
  raw.right = {2, 0, -1, -1};
  raw.feature = {0, 1, -1, -1};
  raw.split = {1, 0, 0, 0};
  raw.value = {0.0, 0.0, 4.5, 1.5};
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsChildOutOfRange) {
  RawState raw;
  raw.right[0] = 3;
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsDepthBelowTheTrees) {
  RawState raw;
  raw.depth = 0;  // batch routing would stop at the root
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsDepthAboveMaxDepth) {
  // A depth the dense walk's mask arena (sized by max_depth) cannot hold.
  TreeOptions opts;
  opts.max_depth = 3;
  RawState raw;
  raw.depth = 4;
  DecisionTree tree(opts);
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
  raw.depth = 3;
  EXPECT_NO_THROW(tree.load_state(raw.json()));
}

TEST(DecisionTreeState, RejectsLeafOfOutOfRange) {
  RawState raw;
  raw.leaf_of = {1, 3};
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
  raw.leaf_of = {-1, 2};
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsLeafOfNamingAnInnerNode) {
  RawState raw;
  raw.leaf_of = {0, 2};
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, RejectsLeafWithChildren) {
  // Leaves carry no children or threshold; save_state never writes one.
  RawState raw;
  raw.left[1] = 2;
  DecisionTree tree;
  EXPECT_THROW(tree.load_state(raw.json()), std::runtime_error);
}

TEST(DecisionTreeState, IncrementalRoundTripIsBitwise) {
  const auto sp = grid_space(5, 4);
  const FeatureMatrix fm(sp);
  DecisionTree tree;
  tree.set_incremental(true, 4);
  util::Rng rng(21);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::uint32_t r = 0; r < fm.rows(); r += 2) {
    rows.push_back(r);
    y.push_back(static_cast<double>((r * 7) % 5) + 0.25 * fm.code(r, 1));
  }
  tree.fit(fm, rows, y, rng);
  tree.append_incremental(fm, 3, 9.0, rng);

  util::JsonWriter saved;
  tree.save_state(saved);
  DecisionTree back;
  back.load_state(util::parse_json(saved.str()));
  ASSERT_TRUE(back.has_membership());
  util::JsonWriter resaved;
  back.save_state(resaved);
  EXPECT_EQ(resaved.str(), saved.str());

  // The same appends on both land on identical trees.
  util::Rng a(5);
  util::Rng b(5);
  for (const std::uint32_t row : {1U, 7U, 11U, 1U}) {
    tree.append_incremental(fm, row, 2.0 + row, a);
    back.append_incremental(fm, row, 2.0 + row, b);
  }
  util::JsonWriter left;
  util::JsonWriter right;
  tree.save_state(left);
  back.save_state(right);
  EXPECT_EQ(left.str(), right.str());
  for (std::uint32_t r = 0; r < fm.rows(); ++r) {
    EXPECT_EQ(tree.predict(fm, r), back.predict(fm, r));
  }
}

}  // namespace
}  // namespace lynceus::model
