#include "eval/results_cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "eval/report.hpp"
#include "test_helpers.hpp"

namespace lynceus::eval {
namespace {

class ResultsCacheTest : public ::testing::Test {
 protected:
  // One directory per process and test: ctest runs every test as its own
  // process (and the env-toggled suite replays them alongside), so a
  // shared path would let one test delete another's files mid-run.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/lynceus_cache_test_" +
           std::to_string(::getpid()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ResultsCacheTest, StoreLoadRoundTrip) {
  ExperimentResult r;
  r.dataset = "tinybowl";
  r.optimizer = "RND";
  r.budget_multiplier = 3.0;
  RunSummary s;
  s.seed = 42;
  s.cno = 1.25;
  s.nex = 17;
  s.budget_spent = 0.5;
  s.decision_seconds = 0.001;
  s.decisions = 15;
  s.cno_trace = {3.0, 2.0, 1.25};
  r.runs.push_back(s);

  ensure_directory(dir_);
  const std::string path = dir_ + "/entry.csv";
  ResultsCache::store(path, r);
  const auto loaded = ResultsCache::load(path);
  EXPECT_EQ(loaded.dataset, "tinybowl");
  EXPECT_EQ(loaded.optimizer, "RND");
  EXPECT_DOUBLE_EQ(loaded.budget_multiplier, 3.0);
  ASSERT_EQ(loaded.runs.size(), 1U);
  EXPECT_EQ(loaded.runs[0].seed, 42U);
  EXPECT_NEAR(loaded.runs[0].cno, 1.25, 1e-9);
  EXPECT_EQ(loaded.runs[0].nex, 17U);
  ASSERT_EQ(loaded.runs[0].cno_trace.size(), 3U);
  EXPECT_NEAR(loaded.runs[0].cno_trace[1], 2.0, 1e-9);
}

TEST_F(ResultsCacheTest, GetOrRunComputesThenReuses) {
  const auto ds = testing::tiny_dataset();
  ResultsCache cache(dir_);
  ExperimentConfig cfg;
  cfg.runs = 3;
  const auto first = cache.get_or_run(ds, rnd_spec(), cfg);
  EXPECT_EQ(first.runs.size(), 3U);
  EXPECT_TRUE(std::filesystem::exists(cache.entry_path(ds, rnd_spec(), cfg)));

  // Second fetch loads from disk and must agree exactly.
  const auto second = cache.get_or_run(ds, rnd_spec(), cfg);
  ASSERT_EQ(second.runs.size(), first.runs.size());
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.runs[i].cno, first.runs[i].cno);
    EXPECT_EQ(second.runs[i].nex, first.runs[i].nex);
  }
}

TEST_F(ResultsCacheTest, DistinctConfigsGetDistinctEntries) {
  const auto ds = testing::tiny_dataset();
  ResultsCache cache(dir_);
  ExperimentConfig a;
  a.runs = 2;
  a.budget_multiplier = 1.0;
  ExperimentConfig b = a;
  b.budget_multiplier = 5.0;
  EXPECT_NE(cache.entry_path(ds, rnd_spec(), a),
            cache.entry_path(ds, rnd_spec(), b));
  EXPECT_NE(cache.entry_path(ds, rnd_spec(), a),
            cache.entry_path(ds, bo_spec(), a));
}

TEST_F(ResultsCacheTest, RunCountMismatchTriggersRecompute) {
  const auto ds = testing::tiny_dataset();
  ResultsCache cache(dir_);
  ExperimentConfig small;
  small.runs = 2;
  (void)cache.get_or_run(ds, rnd_spec(), small);
  ExperimentConfig big = small;
  big.runs = 4;
  const auto result = cache.get_or_run(ds, rnd_spec(), big);
  EXPECT_EQ(result.runs.size(), 4U);
}

TEST_F(ResultsCacheTest, LoadMissingFileThrows) {
  EXPECT_THROW((void)ResultsCache::load(dir_ + "/missing.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace lynceus::eval
