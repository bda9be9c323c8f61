#include "service/tuning_service.hpp"

#include "service/session_spec.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "eval/runner.hpp"
#include "test_helpers.hpp"

namespace lynceus::service {
namespace {

using core::ConfigId;
using core::OptimizerResult;

double tiny_energy(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = lynceus::testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{tiny_energy(*sp, id)};
  };
}

core::ConstraintDef tiny_constraint(double cap) {
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost);
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible);
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

/// Drains a service against the simulated-completion async runner until
/// every session finishes: launch whatever next_runs() asks for, pop the
/// earliest-finishing completion, tell it back. Completions interleave
/// across sessions and arrive out of submission order by construction.
void pump(TuningService& service, eval::AsyncTableRunner& async) {
  while (true) {
    for (const PendingRun& run : service.next_runs()) {
      async.submit(run.session, run.config);
    }
    const auto completion = async.next_completion();
    if (!completion.has_value()) {
      ASSERT_TRUE(service.idle());
      return;
    }
    service.tell(completion->tag, completion->config, completion->result);
  }
}

TEST(TuningService, EightMixedSessionsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  TuningService service;
  eval::AsyncTableRunner async(ds, tiny_metrics());

  // 8 sessions across all four optimizer kinds and distinct seeds.
  std::vector<SessionId> ids;
  std::vector<std::function<OptimizerResult()>> solos;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    core::LynceusOptions lopts;
    lopts.lookahead = 1;
    lopts.incremental_refit = false;
    ids.push_back(service.open_session(SessionSpec::lynceus(problem, lopts, seed)));
    solos.push_back([&, lopts, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper =
          core::LynceusOptimizer(lopts).make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    core::MultiConstraintOptions mopts;
    mopts.lookahead = 1;
    mopts.incremental_refit = false;
    ids.push_back(service.open_session(SessionSpec::multi_constraint(
        problem, {tiny_constraint(26.0)}, mopts, seed)));
    solos.push_back([&, mopts, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper =
          core::MultiConstraintLynceus({tiny_constraint(26.0)}, mopts)
              .make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    ids.push_back(service.open_session(SessionSpec::bo(problem, core::BoOptions{}, seed)));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::BayesianOptimizer().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    ids.push_back(service.open_session(SessionSpec::random(problem, seed)));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::RandomSearch().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });
  }
  ASSERT_EQ(service.session_count(), 8U);

  pump(service, async);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(ids[i]));
    ASSERT_TRUE(service.finished(ids[i]));
    EXPECT_FALSE(service.stop_reason(ids[i]).empty());
    expect_identical(service.result(ids[i]), solos[i]());
  }
}

TEST(TuningService, SixtyFourInterleavedSessionsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  // Shared pool + shared root cache: neither may perturb any trajectory.
  util::ThreadPool pool(2);
  TuningService::Options sopts;
  sopts.pool = &pool;
  sopts.root_cache_capacity = 16;
  TuningService service(sopts);
  eval::AsyncTableRunner async(ds);

  std::vector<SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    core::LynceusOptions opts;
    opts.lookahead = seed % 2 == 0 ? 1U : 0U;
    opts.incremental_refit = false;
    ids.push_back(service.open_session(SessionSpec::lynceus(problem, opts, seed)));
  }
  ASSERT_EQ(service.session_count(), 64U);

  pump(service, async);

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::LynceusOptions opts;
    opts.lookahead = seed % 2 == 0 ? 1U : 0U;
    opts.incremental_refit = false;
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(opts).make_stepper(problem, seed);
    const OptimizerResult golden = core::drive(*stepper, solo);
    ASSERT_TRUE(service.finished(ids[seed - 1]));
    expect_identical(service.result(ids[seed - 1]), golden);
  }
}

TEST(TuningService, SharedCacheHitsAcrossIdenticalSessionsKeepTrajectories) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  TuningService::Options sopts;
  sopts.root_cache_capacity = 32;
  TuningService service(sopts);
  eval::AsyncTableRunner async(ds);

  // Identical sessions (same seed): the recurrent-job scenario. Every
  // session after the first meets the same decision states, so the
  // shared cache serves their decisions.
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(service.open_session(SessionSpec::lynceus(problem, opts, 17)));
  }
  pump(service, async);

  eval::TableRunner solo(ds);
  auto stepper = core::LynceusOptimizer(opts).make_stepper(problem, 17);
  const OptimizerResult golden = core::drive(*stepper, solo);
  for (const SessionId id : ids) {
    expect_identical(service.result(id), golden);
  }
  ASSERT_NE(service.shared_cache(), nullptr);
  EXPECT_GT(service.shared_cache()->stats().hits, 0U);
}

TEST(TuningService, OwnedAndBorrowedCachesAreExclusive) {
  core::RootCache cache(core::RootCache::Options{8});
  TuningService::Options sopts;
  sopts.cache = &cache;
  {
    TuningService borrowing(sopts);
    EXPECT_EQ(borrowing.shared_cache(), &cache);
  }
  sopts.root_cache_capacity = 8;
  EXPECT_THROW(TuningService{sopts}, std::invalid_argument);
  sopts.cache = nullptr;
  TuningService owning(sopts);
  ASSERT_NE(owning.shared_cache(), nullptr);
  EXPECT_NE(owning.shared_cache(), &cache);
  EXPECT_EQ(owning.shared_cache()->options().capacity, 8U);
}

TEST(TuningService, RoundRobinSchedulingIsDeterministic) {
  const auto problem = lynceus::testing::tiny_problem();
  auto order_of = [&] {
    TuningService service;
    std::vector<SessionId> opened;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      opened.push_back(service.open_session(SessionSpec::random(problem, seed)));
    }
    std::vector<SessionId> order;
    for (const PendingRun& run : service.next_runs()) {
      order.push_back(run.session);
    }
    return order;
  };
  const auto a = order_of();
  const auto b = order_of();
  ASSERT_EQ(a, b);
  // FIFO: the first asked batch belongs to the first opened session.
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front(), 0U);
  // All five sessions' bootstrap batches are in the sweep, grouped and in
  // open order.
  EXPECT_EQ(a.back(), 4U);
}

TEST(TuningService, MaxRunsCapsTheSweepAndKeepsSessionsQueued) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningService service;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    (void)service.open_session(SessionSpec::random(problem, seed));
  }
  // One session's bootstrap batch at a time.
  const auto first = service.next_runs(1);
  ASSERT_EQ(first.size(), problem.bootstrap_samples);
  EXPECT_FALSE(service.idle());
  const auto second = service.next_runs(1);
  ASSERT_EQ(second.size(), problem.bootstrap_samples);
  EXPECT_NE(first.front().session, second.front().session);

  eval::AsyncTableRunner async(ds);
  for (const auto& run : first) async.submit(run.session, run.config);
  for (const auto& run : second) async.submit(run.session, run.config);
  while (auto c = async.next_completion()) {
    service.tell(c->tag, c->config, c->result);
  }
  // The third session is still queued and asks on the next sweep.
  const auto third = service.next_runs();
  bool saw_third_session = false;
  for (const auto& run : third) {
    saw_third_session = saw_third_session || run.session == 2;
  }
  EXPECT_TRUE(saw_third_session);
}

TEST(TuningService, SnapshotRestoreMidFlightFinishesByteIdentically) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;

  eval::TableRunner solo(ds);
  auto ref = core::LynceusOptimizer(opts).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  TuningService service;
  eval::AsyncTableRunner async(ds);
  const SessionId id = service.open_session(SessionSpec::lynceus(problem, opts, 23));
  // Launch the bootstrap, resolve half of it, snapshot mid-flight.
  for (const auto& run : service.next_runs()) {
    async.submit(run.session, run.config);
  }
  for (std::size_t i = 0; i < problem.bootstrap_samples / 2; ++i) {
    const auto c = async.next_completion();
    ASSERT_TRUE(c.has_value());
    service.tell(c->tag, c->config, c->result);
  }
  const std::string snap = service.snapshot(id);
  service.close(id);

  // Restore into a second service instance (fresh process in spirit); the
  // still-in-flight runs are re-asked for, already-told ones are not.
  TuningService revived;
  eval::AsyncTableRunner async2(ds);
  const SessionId rid = revived.restore_session(SessionSpec::lynceus(problem, opts, 23), snap);
  pump(revived, async2);
  ASSERT_TRUE(revived.finished(rid));
  expect_identical(revived.result(rid), golden);
}

// A restore of a hostile snapshot — "decide" phase, no samples — is
// refused, registers no session, and leaves a co-resident session's sweep
// intact: it still gets every run and finishes as it would alone.
TEST(TuningService, RejectedRestoreLeavesCoResidentSessionRunning) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;
  const SessionSpec spec = SessionSpec::lynceus(problem, opts, 23);

  eval::TableRunner solo(ds);
  auto ref = core::LynceusOptimizer(opts).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  // A snapshot taken after the bootstrap batch (phase "decide"), blanked.
  auto donor = core::LynceusOptimizer(opts).make_stepper(problem, 23);
  eval::TableRunner runner(ds);
  for (ConfigId id : donor->ask().configs) donor->tell(id, runner.run(id));
  const std::string hostile =
      lynceus::testing::with_empty_array(donor->snapshot(), "samples");

  TuningService service;
  eval::AsyncTableRunner async(ds);
  const SessionId healthy = service.open_session(spec);
  EXPECT_THROW(service.restore_session(spec, hostile), std::runtime_error);
  EXPECT_EQ(service.session_count(), 1U);

  const std::vector<PendingRun> bootstrap = service.next_runs();
  EXPECT_EQ(bootstrap.size(), problem.bootstrap_samples);
  for (const PendingRun& run : bootstrap) {
    EXPECT_EQ(run.session, healthy);
    async.submit(run.session, run.config);
  }
  pump(service, async);
  ASSERT_TRUE(service.finished(healthy));
  expect_identical(service.result(healthy), golden);
}

TEST(TuningService, TellErrorPathsLeaveStateIntact) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;

  eval::TableRunner solo(ds);
  auto ref = core::LynceusOptimizer(opts).make_stepper(problem, 29);
  const OptimizerResult golden = core::drive(*ref, solo);

  TuningService service;
  eval::AsyncTableRunner async(ds);
  const SessionId id = service.open_session(SessionSpec::lynceus(problem, opts, 29));
  const auto batch = service.next_runs();
  ASSERT_GE(batch.size(), 2U);

  core::RunResult ok;
  ok.runtime_seconds = ds.observation(batch[0].config).runtime_seconds;
  ok.cost = ds.observation(batch[0].config).cost();
  service.tell(id, batch[0].config, ok);

  // Unknown session, a config already told, and a config the session
  // never asked for: each rejected with the strong exception guarantee.
  EXPECT_THROW(service.tell(id + 7, batch[1].config, ok),
               std::invalid_argument);
  EXPECT_THROW(service.tell(id, batch[0].config, ok),
               std::invalid_argument);
  ConfigId stranger = 0;
  for (ConfigId c = 0; c < 24; ++c) {
    bool in_batch = false;
    for (const auto& run : batch) in_batch = in_batch || run.config == c;
    if (!in_batch) {
      stranger = c;
      break;
    }
  }
  EXPECT_THROW(service.tell(id, stranger, ok), std::invalid_argument);

  // State intact: the session still finishes byte-identical to its solo
  // run (the strong-guarantee proof — a corrupted counter or half-applied
  // tell would diverge here).
  for (std::size_t i = 1; i < batch.size(); ++i) {
    core::RunResult r;
    r.runtime_seconds = ds.observation(batch[i].config).runtime_seconds;
    r.cost = ds.observation(batch[i].config).cost();
    service.tell(id, batch[i].config, r);
  }
  pump(service, async);
  ASSERT_TRUE(service.finished(id));
  expect_identical(service.result(id), golden);
}

TEST(TuningService, DrainUnderInjectedFailuresReachesIdle) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 2;
  sopts.run_policy.run_timeout_seconds = 500.0;
  sopts.run_policy.quarantine_after = 3;
  TuningService service(sopts);
  eval::AsyncTableRunner async(ds);
  eval::FaultPlan plan;
  plan.seed = 77;
  plan.fail_rate = 0.5;
  plan.hang_rate = 0.1;
  async.set_fault_plan(plan);

  std::vector<SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ids.push_back(service.open_session(SessionSpec::random(problem, seed)));
  }
  drain(service, async);

  EXPECT_TRUE(service.idle());
  for (const SessionId id : ids) {
    SCOPED_TRACE("session " + std::to_string(id));
    EXPECT_TRUE(service.finished(id));
    EXPECT_FALSE(service.stop_reason(id).empty());
  }
  // Quarantined sessions (if the streak hit) are reported, not wedged.
  for (const SessionId id : service.quarantined_sessions()) {
    EXPECT_EQ(service.stop_reason(id), "runner_failed");
  }
}

TEST(TuningService, ValidatesSessionIdsAndTells) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningService service;
  core::RunResult r;
  EXPECT_THROW(service.tell(0, 0, r), std::invalid_argument);
  const SessionId id = service.open_session(SessionSpec::random(problem, 1));
  EXPECT_THROW(service.tell(id, 0, r), std::invalid_argument);  // not asked
  EXPECT_THROW((void)service.result(id + 1), std::invalid_argument);
  service.close(id);
  EXPECT_THROW((void)service.result(id), std::invalid_argument);
  EXPECT_EQ(service.session_count(), 0U);
}

}  // namespace
}  // namespace lynceus::service
