/// Property sweep: invariants that must hold for EVERY optimizer on EVERY
/// workload, checked across a grid of (Scout job, optimizer) pairs via
/// parameterized tests. These are the contracts downstream users rely on:
///   * accounting: budget_spent equals the sum of sampled costs;
///   * no configuration is ever profiled twice;
///   * the recommendation is the cheapest feasible sample in the history
///     (or the cheapest overall when nothing was feasible);
///   * NEX equals the history length;
///   * full determinism given the seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>

#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "eval/runner.hpp"

namespace lynceus {
namespace {

struct SweepCase {
  std::size_t job_index;
  /// As wide as job_index: gtest names each case by its raw bytes, so the
  /// struct must carry no padding, whose bytes vary from build to build.
  enum class Kind : std::uint64_t { Rnd, Bo, Lynceus0, Lynceus1 } kind;

  [[nodiscard]] eval::OptimizerSpec spec() const {
    switch (kind) {
      case Kind::Rnd: return eval::rnd_spec();
      case Kind::Bo: return eval::bo_spec();
      case Kind::Lynceus0: return eval::lynceus_spec(0);
      case Kind::Lynceus1: return eval::lynceus_spec(1, 16);
    }
    throw std::logic_error("unreachable");
  }

  [[nodiscard]] std::string label() const {
    return "job" + std::to_string(job_index) + "_" + spec().label;
  }
};

static_assert(std::has_unique_object_representations_v<SweepCase>,
              "every byte of a SweepCase is part of its ctest name");

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = info.param.label();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class OptimizerPropertySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static const cloud::Dataset& dataset(std::size_t job_index) {
    static const std::vector<cloud::Dataset> all = [] {
      std::vector<cloud::Dataset> v;
      const auto specs = cloud::scout_job_specs();
      for (std::size_t i : {1U, 7U, 12U}) {
        v.push_back(cloud::make_scout_dataset(specs[i]));
      }
      return v;
    }();
    return all[job_index];
  }
};

TEST_P(OptimizerPropertySweep, InvariantsHold) {
  const auto& ds = dataset(GetParam().job_index);
  const auto problem = eval::make_problem(ds, 3.0);
  const auto spec = GetParam().spec();

  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    eval::TableRunner runner(ds);
    auto optimizer = spec.make();
    const auto result = optimizer->optimize(problem, runner, seed);

    // Accounting: spent == sum of sample costs (no setup model here).
    double total = 0.0;
    for (const auto& s : result.history) total += s.cost;
    EXPECT_NEAR(result.budget_spent, total, 1e-9) << spec.label;

    // NEX == history length, and the runner served exactly that many runs.
    EXPECT_EQ(result.explorations(), result.history.size());

    // No repeats.
    std::set<core::ConfigId> seen;
    for (const auto& s : result.history) {
      EXPECT_TRUE(seen.insert(s.id).second) << spec.label;
    }

    // Sample values match the dataset (the runner is a pure replay).
    for (const auto& s : result.history) {
      EXPECT_DOUBLE_EQ(s.cost, ds.cost(s.id));
      EXPECT_EQ(s.feasible, ds.feasible(s.id));
    }

    // Recommendation optimality among sampled configurations.
    ASSERT_TRUE(result.recommendation.has_value());
    bool any_feasible = false;
    double best_feasible = 1e300;
    double best_any = 1e300;
    core::ConfigId best_feasible_id = 0;
    core::ConfigId best_any_id = 0;
    for (const auto& s : result.history) {
      if (s.cost < best_any) {
        best_any = s.cost;
        best_any_id = s.id;
      }
      if (s.feasible && s.cost < best_feasible) {
        best_feasible = s.cost;
        best_feasible_id = s.id;
        any_feasible = true;
      }
    }
    EXPECT_EQ(*result.recommendation,
              any_feasible ? best_feasible_id : best_any_id)
        << spec.label;
    EXPECT_EQ(result.recommendation_feasible, any_feasible);
  }
}

TEST_P(OptimizerPropertySweep, DeterministicGivenSeed) {
  const auto& ds = dataset(GetParam().job_index);
  const auto problem = eval::make_problem(ds, 2.0);
  const auto spec = GetParam().spec();

  eval::TableRunner r1(ds);
  eval::TableRunner r2(ds);
  const auto a = spec.make()->optimize(problem, r1, 77);
  const auto b = spec.make()->optimize(problem, r2, 77);
  ASSERT_EQ(a.history.size(), b.history.size()) << spec.label;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << spec.label;
  }
  EXPECT_EQ(a.recommendation, b.recommendation);
}

INSTANTIATE_TEST_SUITE_P(
    JobsByOptimizer, OptimizerPropertySweep,
    ::testing::Values(
        SweepCase{0, SweepCase::Kind::Rnd},
        SweepCase{0, SweepCase::Kind::Bo},
        SweepCase{0, SweepCase::Kind::Lynceus0},
        SweepCase{0, SweepCase::Kind::Lynceus1},
        SweepCase{1, SweepCase::Kind::Rnd},
        SweepCase{1, SweepCase::Kind::Bo},
        SweepCase{1, SweepCase::Kind::Lynceus0},
        SweepCase{1, SweepCase::Kind::Lynceus1},
        SweepCase{2, SweepCase::Kind::Rnd},
        SweepCase{2, SweepCase::Kind::Bo},
        SweepCase{2, SweepCase::Kind::Lynceus0},
        SweepCase{2, SweepCase::Kind::Lynceus1}),
    case_name);

}  // namespace
}  // namespace lynceus
