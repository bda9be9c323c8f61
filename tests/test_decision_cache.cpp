/// Decision-cache tests (core::RootCache): the cache itself (exact keys,
/// LRU eviction, contexts compared by content), one miss per key
/// component — every part of a decision's state and every option that can
/// change a trajectory — the setup-cost and model-factory bypasses, and
/// whole runs replayed from cache hits with byte-identical trajectories
/// and observer events.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/stepper.hpp"
#include "eval/runner.hpp"
#include "test_helpers.hpp"

namespace lynceus::core {
namespace {

std::vector<ConfigId> history_ids(const OptimizerResult& r) {
  std::vector<ConfigId> ids;
  for (const auto& s : r.history) ids.push_back(s.id);
  return ids;
}

// ---------------------------------------------------------------------------
// The cache and its keys
// ---------------------------------------------------------------------------

/// Everything a key is built from, so a test can change one part.
struct KeyParts {
  std::string kind = "lynceus";
  OptimizationProblem problem = testing::tiny_problem();
  std::uint64_t seed = 7;
  std::uint64_t iteration = 3;
  double remaining_budget = 5.0;
  std::vector<Sample> samples = {{1, 60.0, 1.5, true},
                                 {4, 80.0, 2.5, false},
                                 {9, 70.0, 3.5, true}};
  std::vector<FailureRecord> failures = {{12, 0.25, 2}};
  std::vector<double> metrics;  ///< multi-constraint metric values

  [[nodiscard]] RootCache::Key key() const {
    std::string context = kind;
    RootCache::Key::append_problem(context, problem);
    RootCache::Key k;
    k.set_context(std::move(context));
    k.begin_state(seed, iteration, remaining_budget, samples, failures);
    for (double m : metrics) k.put(m);
    return k;
  }
};

DecisionEvent decision(ConfigId chosen) {
  DecisionEvent d;
  d.chosen = chosen;
  d.viable_count = 10 + chosen;
  d.simulated_roots = 5;
  d.predicted_cost = 1.25 * chosen;
  d.incumbent = 2.5;
  d.best_ratio = 0.75;
  return d;
}

TEST(RootCacheTest, ExactMatchHitsPrefixMisses) {
  RootCache cache(RootCache::Options{8});
  const KeyParts parts;
  DecisionEvent out;
  EXPECT_FALSE(cache.lookup(parts.key(), out));
  cache.store(parts.key(), decision(3));

  ASSERT_TRUE(cache.lookup(parts.key(), out));
  EXPECT_EQ(out.chosen, 3U);
  EXPECT_EQ(out.viable_count, 13U);
  EXPECT_EQ(out.simulated_roots, 5U);
  EXPECT_EQ(out.predicted_cost, 3.75);
  EXPECT_EQ(out.incumbent, 2.5);
  EXPECT_EQ(out.best_ratio, 0.75);

  // A state that extends the cached one by a sample is a different
  // decision: a miss, and the cached entry survives for an exact probe.
  KeyParts grown = parts;
  grown.samples.push_back({17, 65.0, 4.5, true});
  EXPECT_FALSE(cache.lookup(grown.key(), out));
  EXPECT_TRUE(cache.lookup(parts.key(), out));
  const RootCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2U);
  EXPECT_EQ(stats.misses, 2U);
  EXPECT_EQ(stats.entries, 1U);
}

TEST(RootCacheTest, DivergedStateIsAPlainMiss) {
  // Same sample ids, a different measured cost: a miss that leaves the
  // cached entry in place — an exact key needs no invalidation.
  RootCache cache(RootCache::Options{8});
  const KeyParts parts;
  cache.store(parts.key(), decision(3));
  KeyParts diverged = parts;
  diverged.samples[1].cost = 2.75;
  DecisionEvent out;
  EXPECT_FALSE(cache.lookup(diverged.key(), out));
  EXPECT_EQ(cache.stats().entries, 1U);
  EXPECT_TRUE(cache.lookup(parts.key(), out));
}

TEST(RootCacheTest, EvictsLeastRecentlyUsed) {
  RootCache cache(RootCache::Options{2});
  std::vector<KeyParts> parts(3);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].iteration = i;
  }
  DecisionEvent out;
  cache.store(parts[0].key(), decision(0));
  cache.store(parts[1].key(), decision(1));
  ASSERT_TRUE(cache.lookup(parts[0].key(), out));  // 1 is now the LRU
  cache.store(parts[2].key(), decision(2));
  EXPECT_EQ(cache.stats().entries, 2U);
  EXPECT_FALSE(cache.lookup(parts[1].key(), out));  // evicted
  EXPECT_TRUE(cache.lookup(parts[0].key(), out));
  EXPECT_EQ(out.chosen, 0U);
  EXPECT_TRUE(cache.lookup(parts[2].key(), out));
  EXPECT_EQ(out.chosen, 2U);
}

TEST(RootCacheTest, CrossShapeEntriesCoexist) {
  // A Lynceus and a multi-constraint stepper, or two problems, may share
  // one cache: the same state under another context is another entry.
  RootCache cache(RootCache::Options{8});
  KeyParts lynceus;
  KeyParts mc;
  mc.kind = "multi_constraint";
  KeyParts other_problem;
  other_problem.problem = testing::tiny_problem(4.0);
  cache.store(lynceus.key(), decision(1));
  cache.store(mc.key(), decision(2));
  cache.store(other_problem.key(), decision(3));
  EXPECT_EQ(cache.stats().entries, 3U);
  DecisionEvent out;
  ASSERT_TRUE(cache.lookup(lynceus.key(), out));
  EXPECT_EQ(out.chosen, 1U);
  ASSERT_TRUE(cache.lookup(mc.key(), out));
  EXPECT_EQ(out.chosen, 2U);
  ASSERT_TRUE(cache.lookup(other_problem.key(), out));
  EXPECT_EQ(out.chosen, 3U);
}

TEST(RootCacheTest, CapacityZeroDisables) {
  RootCache cache(RootCache::Options{0});
  const KeyParts parts;
  cache.store(parts.key(), decision(3));
  DecisionEvent out;
  EXPECT_FALSE(cache.lookup(parts.key(), out));
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().misses, 0U);
}

TEST(RootCacheTest, ContextsCompareByContentNotByPointer) {
  // Every stepper builds its own context; equal contents must match.
  RootCache cache(RootCache::Options{8});
  const KeyParts parts;
  const RootCache::Key first = parts.key();
  const RootCache::Key second = parts.key();
  cache.store(first, decision(3));
  DecisionEvent out;
  EXPECT_TRUE(cache.lookup(second, out));
  cache.store(second, decision(4));  // already cached: a no-op
  EXPECT_EQ(cache.stats().entries, 1U);
  EXPECT_TRUE(cache.lookup(first, out));
  EXPECT_EQ(out.chosen, 3U);
}

// One miss per component of a decision's state and of the problem: change
// only that part of the key.
struct StatePart {
  std::string name;
  std::function<void(KeyParts&)> change;
  friend void PrintTo(const StatePart& p, std::ostream* os) { *os << p.name; }
};

class DecisionKeyState : public ::testing::TestWithParam<StatePart> {};

TEST_P(DecisionKeyState, ChangingOnlyThisPartMisses) {
  RootCache cache(RootCache::Options{8});
  const KeyParts base;
  cache.store(base.key(), decision(3));
  KeyParts changed = base;
  GetParam().change(changed);
  DecisionEvent out;
  EXPECT_FALSE(cache.lookup(changed.key(), out));
  EXPECT_TRUE(cache.lookup(base.key(), out));
}

OptimizationProblem with_space(const OptimizationProblem& problem,
                               std::vector<double> a_levels) {
  OptimizationProblem out = problem;
  out.space = std::make_shared<space::ConfigSpace>(
      "tinybowl", std::vector<space::ParamDomain>{
                      space::numeric_param("a", std::move(a_levels)),
                      space::numeric_param("b", {0, 1, 2, 3, 4, 5})});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Parts, DecisionKeyState,
    ::testing::Values(
        StatePart{"seed", [](KeyParts& p) { p.seed += 1; }},
        StatePart{"iteration", [](KeyParts& p) { p.iteration += 1; }},
        StatePart{"remaining_budget",
                  [](KeyParts& p) { p.remaining_budget += 0.5; }},
        StatePart{"sample_id", [](KeyParts& p) { p.samples[2].id = 10; }},
        StatePart{"sample_cost",
                  [](KeyParts& p) { p.samples[0].cost = 1.625; }},
        StatePart{"sample_feasible",
                  [](KeyParts& p) { p.samples[1].feasible = true; }},
        StatePart{"failure_id", [](KeyParts& p) { p.failures[0].id = 13; }},
        StatePart{"constraint_metric",
                  [](KeyParts& p) { p.metrics = {1.0, 2.0, 3.0}; }},
        StatePart{"space_features",
                  [](KeyParts& p) {
                    p.problem = with_space(p.problem, {0, 1, 2, 4});
                  }},
        StatePart{"unit_price",
                  [](KeyParts& p) {
                    p.problem.unit_price_per_hour[5] += 1.0;
                  }},
        StatePart{"tmax", [](KeyParts& p) { p.problem.tmax_seconds += 1.0; }},
        StatePart{"budget", [](KeyParts& p) { p.problem.budget += 1.0; }}),
    [](const ::testing::TestParamInfo<StatePart>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Options in the key: a stepper whose options differ in one
// trajectory-changing knob never hits another's decision
// ---------------------------------------------------------------------------

/// Budget multiplier of the stepper-level tests: B = 6 · N · median run
/// cost affords 3–17 decisions per run on the tiny problem (at the
/// default 3, most seeds stop at their first decision, and stop outcomes
/// are never cached).
constexpr double kBudget = 6.0;

LynceusOptions base_lynceus(RootCache* cache) {
  LynceusOptions o;
  o.lookahead = 1;
  o.screen_width = 6;
  o.incremental_refit = false;
  o.branch_parallel = false;
  o.root_cache = cache;
  return o;
}

/// Runs the bootstrap of `stepper` and asks for its first decision.
void first_decision(OptimizerStepper& stepper, JobRunner& runner) {
  const std::vector<ConfigId> batch = stepper.ask().configs;
  for (ConfigId id : batch) stepper.tell(id, runner.run(id));
  (void)stepper.ask();
}

/// True when the first decision of a Lynceus run with `opts` (seed 11)
/// hit `cache`.
bool lynceus_first_decision_hits(const LynceusOptions& opts,
                                 RootCache& cache) {
  static const cloud::Dataset ds = testing::tiny_dataset();
  const OptimizationProblem problem = testing::tiny_problem(kBudget);
  const std::uint64_t hits = cache.stats().hits;
  eval::TableRunner runner(ds);
  first_decision(*LynceusOptimizer(opts).make_stepper(problem, 11), runner);
  return cache.stats().hits > hits;
}

struct LynceusKnob {
  std::string name;
  std::function<void(LynceusOptions&)> change;
  friend void PrintTo(const LynceusKnob& k, std::ostream* os) {
    *os << k.name;
  }
};

class DecisionKeyLynceusOption
    : public ::testing::TestWithParam<LynceusKnob> {};

TEST_P(DecisionKeyLynceusOption, ChangingOnlyThisOptionMisses) {
  RootCache cache(RootCache::Options{64});
  const LynceusOptions base = base_lynceus(&cache);
  ASSERT_FALSE(lynceus_first_decision_hits(base, cache));
  ASSERT_TRUE(lynceus_first_decision_hits(base, cache));
  LynceusOptions changed = base;
  GetParam().change(changed);
  EXPECT_FALSE(lynceus_first_decision_hits(changed, cache));
}

INSTANTIATE_TEST_SUITE_P(
    Options, DecisionKeyLynceusOption,
    ::testing::Values(
        LynceusKnob{"lookahead", [](LynceusOptions& o) { o.lookahead = 2; }},
        LynceusKnob{"gh_points", [](LynceusOptions& o) { o.gh_points = 4; }},
        LynceusKnob{"gamma", [](LynceusOptions& o) { o.gamma = 0.8; }},
        LynceusKnob{"feasibility_quantile",
                    [](LynceusOptions& o) { o.feasibility_quantile = 0.95; }},
        LynceusKnob{"screen_width",
                    [](LynceusOptions& o) { o.screen_width = 5; }},
        LynceusKnob{"ei_stop_fraction",
                    [](LynceusOptions& o) { o.ei_stop_fraction = 1e-9; }},
        LynceusKnob{"incremental_refit",
                    [](LynceusOptions& o) { o.incremental_refit = true; }},
        LynceusKnob{"blacklist_failed",
                    [](LynceusOptions& o) { o.blacklist_failed = false; }}),
    [](const ::testing::TestParamInfo<LynceusKnob>& info) {
      return info.param.name;
    });

/// Two identical metric columns, so moving a constraint from column 0 to
/// column 1 changes only its metric index, never a measured value.
eval::TableRunner::MetricsFn twin_metrics() {
  const auto sp = testing::tiny_space();
  return [sp](ConfigId id) {
    const double e = 10.0 + 4.0 * sp->value(id, 0) + 3.0 * sp->value(id, 1);
    return std::vector<double>{e, e};
  };
}

struct McKnob {
  std::string name;
  std::function<void(ConstraintDef&, MultiConstraintOptions&)> change;
  friend void PrintTo(const McKnob& k, std::ostream* os) { *os << k.name; }
};

class DecisionKeyMultiConstraintOption
    : public ::testing::TestWithParam<McKnob> {};

TEST_P(DecisionKeyMultiConstraintOption, ChangingOnlyThisOptionMisses) {
  static const cloud::Dataset ds = testing::tiny_dataset();
  const OptimizationProblem problem = testing::tiny_problem(kBudget);
  RootCache cache(RootCache::Options{64});
  const auto hits = [&](const ConstraintDef& c,
                        const MultiConstraintOptions& o) {
    const std::uint64_t before = cache.stats().hits;
    eval::TableRunner runner(ds, twin_metrics());
    first_decision(*MultiConstraintLynceus({c}, o).make_stepper(problem, 6),
                   runner);
    return cache.stats().hits > before;
  };
  ConstraintDef base_c;
  base_c.name = "energy";
  base_c.metric_index = 0;
  base_c.threshold = [](ConfigId) { return 26.0; };
  MultiConstraintOptions base_o;
  base_o.lookahead = 1;
  base_o.incremental_refit = false;
  base_o.branch_parallel = false;
  base_o.root_cache = &cache;
  ASSERT_FALSE(hits(base_c, base_o));
  ASSERT_TRUE(hits(base_c, base_o));
  ConstraintDef c = base_c;
  MultiConstraintOptions o = base_o;
  GetParam().change(c, o);
  EXPECT_FALSE(hits(c, o));
}

INSTANTIATE_TEST_SUITE_P(
    Options, DecisionKeyMultiConstraintOption,
    ::testing::Values(
        McKnob{"threshold",
               [](ConstraintDef& c, MultiConstraintOptions&) {
                 // Differs on one configuration only.
                 c.threshold = [](ConfigId id) {
                   return id == 23 ? 26.5 : 26.0;
                 };
               }},
        McKnob{"metric_index",
               [](ConstraintDef& c, MultiConstraintOptions&) {
                 c.metric_index = 1;
               }},
        McKnob{"prune_weight",
               [](ConstraintDef&, MultiConstraintOptions& o) {
                 o.prune_weight = 2e-3;
               }},
        McKnob{"lookahead",
               [](ConstraintDef&, MultiConstraintOptions& o) {
                 o.lookahead = 2;
               }}),
    [](const ::testing::TestParamInfo<McKnob>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Bypasses: a function cannot be keyed
// ---------------------------------------------------------------------------

TEST(DecisionCache, SetupCostBypassesTheCache) {
  static const cloud::Dataset ds = testing::tiny_dataset();
  const OptimizationProblem problem = testing::tiny_problem(kBudget);
  RootCache cache(RootCache::Options{64});
  LynceusOptions opts = base_lynceus(&cache);
  opts.setup_cost = [](std::optional<ConfigId>, ConfigId) { return 0.01; };
  for (int run = 0; run < 2; ++run) {
    eval::TableRunner runner(ds);
    (void)LynceusOptimizer(opts).optimize(problem, runner, 11);
  }
  const RootCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.misses, 0U);
  EXPECT_EQ(stats.entries, 0U);
}

TEST(DecisionCache, CustomModelFactoryBypassesTheCache) {
  static const cloud::Dataset ds = testing::tiny_dataset();
  const OptimizationProblem problem = testing::tiny_problem(kBudget);
  RootCache cache(RootCache::Options{64});
  LynceusOptions opts = base_lynceus(&cache);
  // Even a factory equal to the default: its content cannot be compared.
  opts.model_factory = default_tree_model_factory(*problem.space);
  for (int run = 0; run < 2; ++run) {
    eval::TableRunner runner(ds);
    (void)LynceusOptimizer(opts).optimize(problem, runner, 11);
  }
  const RootCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.misses, 0U);
  EXPECT_EQ(stats.entries, 0U);
}

// ---------------------------------------------------------------------------
// Whole runs replayed from hits
// ---------------------------------------------------------------------------

// A shared cache across two identical runs: every decision of the re-run
// hits, and the trajectory stays bit-identical to cache-off runs.
TEST(RootCache, WarmStartRunReusesRootsWithIdenticalTrajectory) {
  const auto problem = testing::tiny_problem(kBudget);
  static const cloud::Dataset ds = testing::tiny_dataset();
  LynceusOptions opts = base_lynceus(nullptr);

  eval::TableRunner r0(ds);
  const auto baseline = LynceusOptimizer(opts).optimize(problem, r0, 21);

  RootCache cache(RootCache::Options{64});
  opts.root_cache = &cache;
  eval::TableRunner r1(ds);
  const auto first = LynceusOptimizer(opts).optimize(problem, r1, 21);
  EXPECT_EQ(cache.stats().hits, 0U);  // fresh states: all misses
  const RootCache::Stats after_first = cache.stats();

  eval::TableRunner r2(ds);
  const auto second = LynceusOptimizer(opts).optimize(problem, r2, 21);
  // Every profiling decision of the re-run hits; only the final stop
  // outcome, which is never stored, misses again.
  const RootCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.hits, baseline.decisions);
  EXPECT_GT(after_second.hits, 0U);
  EXPECT_EQ(after_second.misses - after_first.misses,
            after_first.misses - baseline.decisions);
  EXPECT_EQ(after_second.entries, after_first.entries);

  EXPECT_EQ(history_ids(baseline), history_ids(first));
  EXPECT_EQ(history_ids(baseline), history_ids(second));
  EXPECT_EQ(baseline.recommendation, second.recommendation);
  EXPECT_EQ(baseline.budget_spent, second.budget_spent);
  EXPECT_EQ(baseline.decisions, second.decisions);
}

// A hit tells the observer exactly what the skipped decision would have.
TEST(DecisionCache, HitReportsTheComputedDecisionEvent) {
  const auto problem = testing::tiny_problem(kBudget);
  static const cloud::Dataset ds = testing::tiny_dataset();
  RootCache cache(RootCache::Options{64});
  TraceRecorder cold;
  TraceRecorder warm;
  LynceusOptions opts = base_lynceus(&cache);
  opts.observer = &cold;
  eval::TableRunner r1(ds);
  (void)LynceusOptimizer(opts).optimize(problem, r1, 8);
  opts.observer = &warm;
  eval::TableRunner r2(ds);
  (void)LynceusOptimizer(opts).optimize(problem, r2, 8);
  ASSERT_GT(cache.stats().hits, 0U);

  ASSERT_EQ(cold.decisions().size(), warm.decisions().size());
  for (std::size_t i = 0; i < cold.decisions().size(); ++i) {
    const DecisionEvent& a = cold.decisions()[i];
    const DecisionEvent& b = warm.decisions()[i];
    EXPECT_EQ(a.iteration, b.iteration) << i;
    EXPECT_EQ(a.viable_count, b.viable_count) << i;
    EXPECT_EQ(a.simulated_roots, b.simulated_roots) << i;
    EXPECT_EQ(a.chosen, b.chosen) << i;
    EXPECT_EQ(a.predicted_cost, b.predicted_cost) << i;
    EXPECT_EQ(a.incumbent, b.incumbent) << i;
    EXPECT_EQ(a.remaining_budget, b.remaining_budget) << i;
    EXPECT_EQ(a.best_ratio, b.best_ratio) << i;
  }
  EXPECT_EQ(cold.stop_reason(), warm.stop_reason());
}

}  // namespace
}  // namespace lynceus::core
