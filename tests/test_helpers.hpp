#pragma once

/// Shared fixtures for the optimizer and harness tests: a small synthetic
/// dataset with a known cost surface, cheap enough that full Lynceus runs
/// (including lookahead) complete in milliseconds.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "cloud/dataset.hpp"
#include "core/types.hpp"
#include "eval/experiment.hpp"

namespace lynceus::testing {

/// 4 x 6 grid (24 configs). Runtime surface: a bowl with its minimum at
/// (a=2, b=1); unit prices grow with b. Roughly half the configurations
/// violate the derived (median) deadline.
inline std::shared_ptr<const space::ConfigSpace> tiny_space() {
  return std::make_shared<space::ConfigSpace>(
      "tinybowl", std::vector<space::ParamDomain>{
                      space::numeric_param("a", {0, 1, 2, 3}),
                      space::numeric_param("b", {0, 1, 2, 3, 4, 5})});
}

inline cloud::Dataset tiny_dataset() {
  auto sp = tiny_space();
  std::vector<cloud::Observation> obs(sp->size());
  for (std::size_t i = 0; i < sp->size(); ++i) {
    const auto id = static_cast<space::ConfigId>(i);
    const double a = sp->value(id, 0);
    const double b = sp->value(id, 1);
    cloud::Observation o;
    o.runtime_seconds =
        60.0 + 40.0 * ((a - 2.0) * (a - 2.0) + 0.5 * (b - 1.0) * (b - 1.0));
    o.unit_price_per_hour = 10.0 + 6.0 * b;
    obs[i] = o;
  }
  return cloud::Dataset("tinybowl", std::move(sp), std::move(obs));
}

/// Problem with the paper's defaults (N from the 3%-or-dims rule,
/// B = N·m̃·b).
inline core::OptimizationProblem tiny_problem(double b = 3.0) {
  static const cloud::Dataset ds = tiny_dataset();
  return eval::make_problem(ds, b);
}

/// Asserts two results are the same run: history, failure ledger, budget
/// split, recommendation and decision count, all bit-for-bit.
inline void expect_identical_with_failures(const core::OptimizerResult& a,
                                           const core::OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost) << "step " << i;
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible) << "step " << i;
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].id, b.failures[i].id) << "failure " << i;
    EXPECT_EQ(a.failures[i].cost, b.failures[i].cost) << "failure " << i;
    EXPECT_EQ(a.failures[i].after_samples, b.failures[i].after_samples)
        << "failure " << i;
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.budget_spent_on_failures, b.budget_spent_on_failures);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

/// `json` with the array value of its first `"key":[...]` emptied (nested
/// arrays included) — e.g. a snapshot with its samples blanked.
inline std::string with_empty_array(std::string json, const std::string& key) {
  const std::string head = "\"" + key + "\":[";
  const std::size_t open = json.find(head);
  EXPECT_NE(open, std::string::npos) << key;
  if (open == std::string::npos) return json;
  std::size_t close = open + head.size();
  for (int depth = 1; depth > 0; ++close) {
    if (json[close] == '[') ++depth;
    if (json[close] == ']') --depth;
  }
  return json.replace(open + head.size(), close - 1 - (open + head.size()),
                      "");
}

}  // namespace lynceus::testing
