#include "core/stepper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lynceus.hpp"
#include "core/random_search.hpp"
#include "eval/runner.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace lynceus::core {
namespace {

/// Bitwise trajectory equality: ids, exact runtimes/costs, feasibility,
/// budget arithmetic, recommendation and decision count. Wall-clock
/// decision_seconds is deliberately excluded.
void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].runtime_seconds, b.history[i].runtime_seconds);
    EXPECT_EQ(a.history[i].cost, b.history[i].cost);
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible);
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

double tiny_energy(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{tiny_energy(*sp, id)};
  };
}

ConstraintDef tiny_constraint(double cap) {
  ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

/// One named stepper-producing configuration of the identity suite.
struct Case {
  std::string label;
  std::function<std::unique_ptr<OptimizerStepper>(
      const OptimizationProblem&, std::uint64_t)>
      make;
  bool needs_metrics = false;
};

std::vector<Case> identity_cases() {
  std::vector<Case> cases;
  for (unsigned la = 0; la <= 2; ++la) {
    for (const bool incremental : {false, true}) {
      Case c;
      c.label = "lynceus_la" + std::to_string(la) +
                (incremental ? "_inc" : "");
      c.make = [la, incremental](const OptimizationProblem& p,
                                 std::uint64_t seed) {
        LynceusOptions opts;
        opts.lookahead = la;
        opts.incremental_refit = incremental;
        return LynceusOptimizer(opts).make_stepper(p, seed);
      };
      cases.push_back(std::move(c));
    }
  }
  for (unsigned la = 0; la <= 1; ++la) {
    Case c;
    c.label = "mc_la" + std::to_string(la);
    c.make = [la](const OptimizationProblem& p, std::uint64_t seed) {
      MultiConstraintOptions opts;
      opts.lookahead = la;
      opts.incremental_refit = false;
      return MultiConstraintLynceus({tiny_constraint(26.0)}, opts)
          .make_stepper(p, seed);
    };
    c.needs_metrics = true;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.label = "bo";
    c.make = [](const OptimizationProblem& p, std::uint64_t seed) {
      return BayesianOptimizer().make_stepper(p, seed);
    };
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.label = "rnd";
    c.make = [](const OptimizationProblem& p, std::uint64_t seed) {
      return RandomSearch().make_stepper(p, seed);
    };
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The classic closed-loop result of a case (its optimize() entrypoint is
/// itself a drive loop now, so this doubles as the golden reference).
OptimizerResult solo_run(const Case& c, const OptimizationProblem& problem,
                         std::uint64_t seed) {
  const auto ds = testing::tiny_dataset();
  eval::TableRunner runner(ds,
                           c.needs_metrics ? tiny_metrics() : nullptr);
  auto stepper = c.make(problem, seed);
  return drive(*stepper, runner);
}

// ---------------------------------------------------------------------------
// ask/tell ↔ optimize() trajectory identity
// ---------------------------------------------------------------------------

TEST(StepperIdentity, ManualAskTellMatchesOptimizeAllOptimizers) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  for (const Case& c : identity_cases()) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 21ULL}) {
      SCOPED_TRACE(c.label + " seed " + std::to_string(seed));
      const OptimizerResult golden = solo_run(c, problem, seed);

      // Manual ask/tell loop, telling each batch in REVERSE order: the
      // canonical-order application must make arrival order invisible.
      eval::TableRunner runner(ds,
                               c.needs_metrics ? tiny_metrics() : nullptr);
      auto stepper = c.make(problem, seed);
      while (true) {
        const StepAction& action = stepper->ask();
        if (action.kind == StepAction::Kind::Finished) break;
        std::vector<std::pair<ConfigId, RunResult>> batch;
        for (ConfigId id : action.configs) {
          batch.emplace_back(id, runner.run(id));
        }
        std::reverse(batch.begin(), batch.end());
        for (const auto& [id, r] : batch) stepper->tell(id, r);
      }
      ASSERT_TRUE(stepper->finished());
      expect_identical(stepper->result(), golden);
      EXPECT_FALSE(stepper->stop_reason().empty());
    }
  }
}

TEST(StepperIdentity, BootstrapBatchIsAskedUpfront) {
  const auto problem = testing::tiny_problem();
  auto stepper = RandomSearch().make_stepper(problem, 3);
  const StepAction& action = stepper->ask();
  ASSERT_EQ(action.kind, StepAction::Kind::Profile);
  EXPECT_EQ(action.configs.size(), problem.bootstrap_samples);
  EXPECT_EQ(stepper->outstanding(), problem.bootstrap_samples);
  // ask() is idempotent while runs are outstanding.
  const StepAction& again = stepper->ask();
  EXPECT_EQ(again.configs, action.configs);
}

TEST(StepperIdentity, WarmStartPriorsSkipStraightToDecisions) {
  const auto ds = testing::tiny_dataset();
  auto problem = testing::tiny_problem();
  for (ConfigId id = 0; id < 5; ++id) {
    Sample s;
    s.id = id;
    s.runtime_seconds = ds.runtime(id);
    s.cost = ds.cost(id);
    s.feasible = true;
    problem.prior_samples.push_back(s);
  }
  LynceusOptions opts;
  opts.lookahead = 1;
  // Identity against the closed loop.
  eval::TableRunner r1(ds);
  const auto golden = LynceusOptimizer(opts).optimize(problem, r1, 11);
  auto stepper = LynceusOptimizer(opts).make_stepper(problem, 11);
  const StepAction& action = stepper->ask();
  // First ask is already a decision (single config), not the LHS batch.
  if (action.kind == StepAction::Kind::Profile) {
    EXPECT_EQ(action.configs.size(), 1U);
  }
  eval::TableRunner r2(ds);
  while (!stepper->finished()) {
    const StepAction& a = stepper->ask();
    if (a.kind == StepAction::Kind::Finished) break;
    for (ConfigId id : a.configs) stepper->tell(id, r2.run(id));
  }
  expect_identical(stepper->result(), golden);
}

TEST(StepperIdentity, SetupCostAndEarlyStopVariantsMatch) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  for (const bool with_setup : {false, true}) {
    for (const double ei_stop : {0.0, 0.05}) {
      LynceusOptions opts;
      opts.lookahead = 1;
      opts.ei_stop_fraction = ei_stop;
      if (with_setup) {
        opts.setup_cost = [](std::optional<ConfigId> from, ConfigId to) {
          return from.has_value() && *from != to ? 0.01 : 0.0;
        };
      }
      SCOPED_TRACE((with_setup ? "setup" : "no-setup") +
                   std::string(" ei=") + std::to_string(ei_stop));
      eval::TableRunner r1(ds);
      eval::TableRunner r2(ds);
      LynceusOptimizer lyn(opts);
      const auto golden = lyn.optimize(problem, r1, 9);
      auto stepper = lyn.make_stepper(problem, 9);
      expect_identical(drive(*stepper, r2), golden);
    }
  }
}

TEST(StepperIdentity, CacheAndBranchParallelVariantsMatch) {
  // The remaining flag axes of the determinism contract: RootCache on/off
  // and branch parallelism on/off (incremental on/off is covered by the
  // case list above). The cache is shared between the golden run and the
  // stepped run, so the stepped run replays warm-started decisions —
  // which must still be byte-identical.
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  util::ThreadPool pool(2);
  for (const bool use_cache : {false, true}) {
    for (const bool branch_parallel : {false, true}) {
      SCOPED_TRACE(std::string(use_cache ? "cache" : "no-cache") +
                   (branch_parallel ? "+branch" : ""));
      RootCache cache(RootCache::Options{64});
      LynceusOptions opts;
      opts.lookahead = 1;
      opts.incremental_refit = false;
      opts.root_cache = use_cache ? &cache : nullptr;
      opts.pool = &pool;
      opts.branch_parallel = branch_parallel;
      LynceusOptimizer lyn(opts);
      eval::TableRunner r1(ds);
      const auto golden = lyn.optimize(problem, r1, 31);

      eval::TableRunner r2(ds);
      auto stepper = lyn.make_stepper(problem, 31);
      expect_identical(drive(*stepper, r2), golden);
      if (use_cache) {
        EXPECT_GT(cache.stats().hits, 0U);
      }
    }
  }
}

TEST(StepperIdentity, MultiConstraintCacheAndBranchParallelVariantsMatch) {
  const auto ds = testing::tiny_dataset();
  // A budget that affords profiling decisions (stop outcomes are never
  // cached, and at the default budget seed 6 stops at its first).
  const auto problem = testing::tiny_problem(6.0);
  util::ThreadPool pool(2);
  RootCache cache(RootCache::Options{64});
  MultiConstraintOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;
  opts.root_cache = &cache;
  opts.pool = &pool;
  opts.branch_parallel = true;
  MultiConstraintLynceus opt({tiny_constraint(26.0)}, opts);
  eval::TableRunner r1(ds, tiny_metrics());
  const auto golden = opt.optimize(problem, r1, 6);
  eval::TableRunner r2(ds, tiny_metrics());
  auto stepper = opt.make_stepper(problem, 6);
  expect_identical(drive(*stepper, r2), golden);
  EXPECT_GT(cache.stats().hits, 0U);
}

TEST(StepperIdentity, ObserverSeesSameEventStreamAsClosedLoop) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  TraceRecorder via_steps;
  LynceusOptions opts;
  opts.lookahead = 1;
  opts.observer = &via_steps;
  LynceusOptimizer lyn(opts);
  eval::TableRunner runner(ds);
  const auto result = lyn.optimize(problem, runner, 5);
  EXPECT_EQ(via_steps.bootstrap_samples().size(), problem.bootstrap_samples);
  EXPECT_EQ(via_steps.decisions().size(),
            result.history.size() - problem.bootstrap_samples);
  EXPECT_EQ(via_steps.runs().size(),
            result.history.size() - problem.bootstrap_samples);
  EXPECT_FALSE(via_steps.stop_reason().empty());
}

TEST(StepperIdentity, MultiConstraintObserverFiresAndTrajectoryUnchanged) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  MultiConstraintOptions plain;
  plain.lookahead = 1;
  eval::TableRunner r1(ds, tiny_metrics());
  const auto golden = MultiConstraintLynceus({tiny_constraint(26.0)}, plain)
                          .optimize(problem, r1, 4);

  TraceRecorder trace;
  MultiConstraintOptions observed = plain;
  observed.observer = &trace;
  eval::TableRunner r2(ds, tiny_metrics());
  const auto traced =
      MultiConstraintLynceus({tiny_constraint(26.0)}, observed)
          .optimize(problem, r2, 4);
  expect_identical(traced, golden);
  EXPECT_EQ(trace.bootstrap_samples().size(), problem.bootstrap_samples);
  EXPECT_EQ(trace.runs().size(),
            golden.history.size() - problem.bootstrap_samples);
}

// ---------------------------------------------------------------------------
// Snapshot → restore byte identity
// ---------------------------------------------------------------------------

/// Drives `stepper`, snapshotting after `cut` tells and finishing on a
/// freshly restored stepper. Returns the restored stepper's final result.
OptimizerResult drive_with_snapshot(const Case& c,
                                    const OptimizationProblem& problem,
                                    std::uint64_t seed, std::size_t cut,
                                    std::string* snapshot_out = nullptr) {
  const auto ds = testing::tiny_dataset();
  eval::TableRunner runner(ds, c.needs_metrics ? tiny_metrics() : nullptr);
  auto stepper = c.make(problem, seed);
  std::size_t tells = 0;
  while (!stepper->finished() && tells < cut) {
    const StepAction& action = stepper->ask();
    if (action.kind == StepAction::Kind::Finished) break;
    for (ConfigId id : action.configs) {
      if (tells >= cut) break;
      stepper->tell(id, runner.run(id));
      ++tells;
    }
  }
  const std::string snap = stepper->snapshot();
  if (snapshot_out != nullptr) *snapshot_out = snap;
  stepper.reset();  // the saved session is gone; only the snapshot remains

  auto restored = c.make(problem, seed);
  restored->restore(snap);
  // Finish via outstanding_configs first (a mid-batch snapshot must not
  // re-run already-told results), then the plain drive loop.
  while (!restored->finished()) {
    const StepAction& action = restored->ask();
    if (action.kind == StepAction::Kind::Finished) break;
    for (ConfigId id : restored->outstanding_configs()) {
      restored->tell(id, runner.run(id));
    }
  }
  return restored->result();
}

TEST(StepperSnapshot, RestoreFinishesByteIdenticallyAtEveryPhase) {
  const auto problem = testing::tiny_problem();
  // Cut points: before anything ran, mid-bootstrap, at the bootstrap
  // boundary, mid-decisions, and deep into the run.
  const std::size_t cuts[] = {0, 3, problem.bootstrap_samples,
                              problem.bootstrap_samples + 2, 1000};
  for (const Case& c : identity_cases()) {
    const OptimizerResult golden = solo_run(c, problem, 13);
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(c.label + " cut " + std::to_string(cut));
      expect_identical(drive_with_snapshot(c, problem, 13, cut), golden);
    }
  }
}

TEST(StepperSnapshot, SnapshotOfFinishedSessionRestoresFinished) {
  const auto problem = testing::tiny_problem();
  const Case c = identity_cases().front();
  std::string snap;
  const auto result = drive_with_snapshot(c, problem, 3, 1000000, &snap);
  (void)result;
  auto stepper = c.make(problem, 3);
  // Snapshot taken mid-run; drive to the end and snapshot the terminal
  // state instead.
  const auto ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  (void)drive(*stepper, runner);
  const std::string finished_snap = stepper->snapshot();
  auto restored = c.make(problem, 3);
  restored->restore(finished_snap);
  EXPECT_TRUE(restored->finished());
  EXPECT_EQ(restored->stop_reason(), stepper->stop_reason());
  expect_identical(restored->result(), stepper->result());
}

TEST(StepperSnapshot, RestoreValidatesOptimizerAndSpace) {
  const auto problem = testing::tiny_problem();
  auto lyn = LynceusOptimizer().make_stepper(problem, 1);
  const std::string snap = lyn->snapshot();

  auto bo = BayesianOptimizer().make_stepper(problem, 1);
  EXPECT_THROW(bo->restore(snap), std::runtime_error);

  auto started = LynceusOptimizer().make_stepper(problem, 1);
  (void)started->ask();
  EXPECT_THROW(started->restore(snap), std::logic_error);

  auto fresh = LynceusOptimizer().make_stepper(problem, 1);
  EXPECT_THROW(fresh->restore("{not json"), std::runtime_error);
}

/// A snapshot whose three id-carrying sections are all non-empty: one
/// sample and one failure record from the bootstrap batch, and the next
/// asked batch pending.
std::string snapshot_with_every_id_section(const OptimizationProblem& problem) {
  const auto ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  auto stepper = LynceusOptimizer().make_stepper(problem, 1);
  const std::vector<ConfigId> batch = stepper->ask().configs;
  RunResult failed;
  failed.outcome = RunOutcome::kFailed;
  failed.cost = 0.02;
  stepper->tell(batch[0], failed);
  stepper->tell(batch[1], runner.run(batch[1]));
  (void)stepper->ask();
  return stepper->snapshot();
}

/// Offset of the first config id of `section` ("samples", "failures" or
/// "pending") in `snap`.
std::size_t first_id_at(const std::string& snap, const std::string& section) {
  std::size_t at = snap.find("\"" + section + "\":[");
  if (section != "pending") at = snap.find("\"id\":", at);
  return snap.find_first_of("0123456789", at);
}

/// `snap` with the first config id of `section` replaced by `id`.
std::string with_config_id(std::string snap, const std::string& section,
                           std::uint64_t id) {
  const std::size_t at = first_id_at(snap, section);
  const std::size_t end = snap.find_first_not_of("0123456789", at);
  return snap.replace(at, end - at, std::to_string(id));
}

/// Restores `snap` into a fresh Lynceus stepper.
void restore_fresh(const OptimizationProblem& problem, const std::string& snap) {
  LynceusOptimizer().make_stepper(problem, 1)->restore(snap);
}

TEST(StepperSnapshot, RestoreRejectsOutOfRangeSampleIds) {
  const auto problem = testing::tiny_problem();
  const std::string snap = snapshot_with_every_id_section(problem);
  ASSERT_NO_THROW(restore_fresh(problem, snap));
  EXPECT_THROW(restore_fresh(problem, with_config_id(snap, "samples",
                                                     problem.space->size())),
               std::runtime_error);
}

TEST(StepperSnapshot, RestoreRejectsOutOfRangeFailureIds) {
  const auto problem = testing::tiny_problem();
  const std::string snap = snapshot_with_every_id_section(problem);
  ASSERT_NE(snap.find("\"failures\":["), std::string::npos);
  EXPECT_THROW(restore_fresh(problem, with_config_id(snap, "failures",
                                                     problem.space->size())),
               std::runtime_error);
}

TEST(StepperSnapshot, RestoreRejectsOutOfRangePendingIds) {
  const auto problem = testing::tiny_problem();
  const std::string snap = snapshot_with_every_id_section(problem);
  ASSERT_EQ(snap.find("\"pending\":[]"), std::string::npos);
  EXPECT_THROW(restore_fresh(problem, with_config_id(snap, "pending",
                                                     problem.space->size())),
               std::runtime_error);
}

/// An id of 2^32 + k narrows to the valid config k; it must be rejected,
/// not silently read as k.
TEST(StepperSnapshot, RestoreRejectsIdsThatAliasAfterNarrowing) {
  const auto problem = testing::tiny_problem();
  const std::string snap = snapshot_with_every_id_section(problem);
  for (const std::string section : {"samples", "failures", "pending"}) {
    SCOPED_TRACE(section);
    const std::uint64_t k = std::stoull(snap.substr(first_id_at(snap, section)));
    EXPECT_THROW(restore_fresh(problem, with_config_id(
                                            snap, section, (1ULL << 32) + k)),
                 std::runtime_error);
  }
}

/// A decide-phase snapshot with its samples (and, multi-constraint, their
/// metrics) blanked: a state the live loop never builds — an all-failed
/// bootstrap finishes with "no_successful_runs" — and one the next ask()
/// could not decide from. restore() must refuse it, for every optimizer
/// that refits from its samples.
TEST(StepperSnapshot, RestoreRejectsADecidePhaseWithoutSamples) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  const std::vector<Case> cases = {
      {"lynceus",
       [](const OptimizationProblem& p, std::uint64_t seed) {
         return LynceusOptimizer().make_stepper(p, seed);
       }},
      {"multi_constraint",
       [](const OptimizationProblem& p, std::uint64_t seed) {
         return MultiConstraintLynceus({tiny_constraint(26.0)})
             .make_stepper(p, seed);
       },
       true},
      {"bo",
       [](const OptimizationProblem& p, std::uint64_t seed) {
         return BayesianOptimizer().make_stepper(p, seed);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    eval::TableRunner runner(ds, c.needs_metrics ? tiny_metrics() : nullptr);
    auto stepper = c.make(problem, 5);
    for (ConfigId id : stepper->ask().configs) {
      stepper->tell(id, runner.run(id));
    }
    const std::string snap = stepper->snapshot();
    ASSERT_NE(snap.find("\"phase\":\"decide\""), std::string::npos);
    ASSERT_NO_THROW(c.make(problem, 5)->restore(snap));

    std::string blanked = testing::with_empty_array(snap, "samples");
    if (c.needs_metrics) {
      blanked = testing::with_empty_array(blanked, "metrics");
    }
    EXPECT_THROW(c.make(problem, 5)->restore(blanked), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Protocol misuse
// ---------------------------------------------------------------------------

TEST(StepperProtocol, TellValidatesOutstandingSet) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  auto stepper = RandomSearch().make_stepper(problem, 2);
  RunResult r;
  EXPECT_THROW(stepper->tell(0, r), std::logic_error);  // nothing asked

  const StepAction& action = stepper->ask();
  ASSERT_EQ(action.kind, StepAction::Kind::Profile);
  // A config outside the batch is rejected.
  ConfigId outside = 0;
  while (std::find(action.configs.begin(), action.configs.end(), outside) !=
         action.configs.end()) {
    ++outside;
  }
  EXPECT_THROW(stepper->tell(outside, r), std::invalid_argument);

  // Telling the same config twice is rejected.
  eval::TableRunner runner(ds);
  stepper->tell(action.configs[0], runner.run(action.configs[0]));
  EXPECT_THROW(stepper->tell(action.configs[0], r), std::invalid_argument);
}

TEST(StepperProtocol, FinishedActionIsTerminalAndIdempotent) {
  const auto ds = testing::tiny_dataset();
  auto problem = testing::tiny_problem();
  problem.budget = 1e-6;  // bootstrap overshoots, then nothing is viable
  auto stepper = RandomSearch().make_stepper(problem, 2);
  eval::TableRunner runner(ds);
  (void)drive(*stepper, runner);
  ASSERT_TRUE(stepper->finished());
  const std::string reason = stepper->stop_reason();
  EXPECT_EQ(stepper->ask().kind, StepAction::Kind::Finished);
  EXPECT_EQ(stepper->ask().stop_reason, reason);
  RunResult r;
  EXPECT_THROW(stepper->tell(0, r), std::logic_error);
}

TEST(StepperProtocol, MultiConstraintRejectsPriorSamples) {
  const auto ds = testing::tiny_dataset();
  auto problem = testing::tiny_problem();
  Sample s;
  s.id = 0;
  s.runtime_seconds = ds.runtime(0);
  s.cost = ds.cost(0);
  s.feasible = true;
  problem.prior_samples.push_back(s);
  MultiConstraintLynceus opt({tiny_constraint(26.0)});
  EXPECT_THROW((void)opt.make_stepper(problem, 1), std::invalid_argument);
}

TEST(StepperProtocol, PartialResultTracksAppliedRunsOnly) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  auto stepper = BayesianOptimizer().make_stepper(problem, 5);
  eval::TableRunner runner(ds);
  const StepAction& action = stepper->ask();
  ASSERT_EQ(action.kind, StepAction::Kind::Profile);
  // Tell all but one bootstrap result: nothing is applied yet.
  for (std::size_t i = 0; i + 1 < action.configs.size(); ++i) {
    stepper->tell(action.configs[i], runner.run(action.configs[i]));
  }
  EXPECT_EQ(stepper->result().history.size(), 0U);
  EXPECT_EQ(stepper->outstanding(), 1U);
  stepper->tell(action.configs.back(), runner.run(action.configs.back()));
  EXPECT_EQ(stepper->result().history.size(), action.configs.size());
}

TEST(StepperSnapshot, FaultFreeSnapshotsCarryNoFailureKeys) {
  // The failure-aware keys are emitted conditionally, so fault-free
  // snapshots stay byte-identical to the pre-failure-aware format (old
  // snapshots restore into new builds and vice versa).
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  auto stepper = LynceusOptimizer().make_stepper(problem, 13);
  eval::TableRunner runner(ds);
  const StepAction& action = stepper->ask();
  for (std::size_t i = 0; i + 1 < action.configs.size(); ++i) {
    stepper->tell(action.configs[i], runner.run(action.configs[i]));
  }
  const std::string snap = stepper->snapshot();  // mid-batch, told_ buffered
  EXPECT_EQ(snap.find("\"failures\""), std::string::npos);
  EXPECT_EQ(snap.find("\"budget_failed\""), std::string::npos);
  EXPECT_EQ(snap.find("\"outcome\""), std::string::npos);
}

}  // namespace
}  // namespace lynceus::core
