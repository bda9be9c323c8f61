/// Seeded fault-replay golden suite: non-ok tells at the stepper layer,
/// byte-deterministic replay of whole fault scenarios through the tuning
/// service, retry/backoff/quarantine policy behavior, and the
/// crash-recovery drill (kill a service mid-flight, restore every session
/// from its journal, finish byte-identically).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/lynceus.hpp"
#include "core/random_search.hpp"
#include "core/stepper.hpp"
#include "eval/runner.hpp"
#include "service/tuning_service.hpp"
#include "test_helpers.hpp"

namespace lynceus {
namespace {

using core::ConfigId;
using core::OptimizerResult;
using core::RunOutcome;
using core::RunResult;
using service::PendingRun;
using service::RunPolicy;
using service::SessionSpec;
using service::SessionId;
using service::TuningService;

core::LynceusOptions fast_lynceus() {
  core::LynceusOptions opts;
  opts.lookahead = 0;
  opts.incremental_refit = false;
  return opts;
}

using lynceus::testing::expect_identical_with_failures;

// ---------------------------------------------------------------------------
// Stepper layer: non-ok tells.

TEST(FaultStepper, FailedTellRecordsFailureAndBlacklists) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  auto stepper = core::LynceusOptimizer(fast_lynceus()).make_stepper(
      problem, 5);

  const core::StepAction& action = stepper->ask();
  ASSERT_EQ(action.kind, core::StepAction::Kind::Profile);
  ASSERT_GE(action.configs.size(), 2U);
  const std::vector<ConfigId> batch = action.configs;
  const ConfigId doomed = batch[1];

  for (const ConfigId id : batch) {
    RunResult r;
    if (id == doomed) {
      r.outcome = RunOutcome::kFailed;
      r.runtime_seconds = 12.5;  // partial progress before the crash
      r.cost = 0.05;
    } else {
      r.runtime_seconds = ds.observation(id).runtime_seconds;
      r.cost = ds.observation(id).cost();
    }
    stepper->tell(id, r);
  }

  eval::TableRunner rest(ds);
  (void)core::drive(*stepper, rest);
  ASSERT_TRUE(stepper->finished());
  const OptimizerResult res = stepper->result();

  ASSERT_EQ(res.failures.size(), 1U);
  EXPECT_EQ(res.failures[0].id, doomed);
  EXPECT_EQ(res.failures[0].cost, 0.05);
  // Canonical apply order: the batch is applied in ask order, so the
  // failure landed after exactly the sample preceding it in the batch.
  EXPECT_EQ(res.failures[0].after_samples, 1U);
  EXPECT_EQ(res.budget_spent_on_failures, 0.05);
  // The failed config is blacklisted: it never re-enters the history.
  for (const auto& s : res.history) EXPECT_NE(s.id, doomed);
  // Its partial cost is billed to the shared budget.
  double sampled = 0.0;
  for (const auto& s : res.history) sampled += s.cost;
  EXPECT_NEAR(res.budget_spent, sampled + 0.05, 1e-9);
}

TEST(FaultStepper, TimedOutTellIsACensoredSample) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  auto stepper = core::LynceusOptimizer(fast_lynceus()).make_stepper(
      problem, 5);

  const std::vector<ConfigId> batch = stepper->ask().configs;
  const double cap = 30.0;
  for (const ConfigId id : batch) {
    RunResult r;
    r.runtime_seconds = ds.observation(id).runtime_seconds;
    r.cost = ds.observation(id).cost();
    if (id == batch[0]) {
      r.outcome = RunOutcome::kTimedOut;
      r.timed_out = true;
      r.runtime_seconds = cap;  // censored at the kill cap
      r.cost = ds.observation(id).cost() * 0.25;
    }
    stepper->tell(id, r);
  }
  eval::TableRunner runner(ds);
  const OptimizerResult res = core::drive(*stepper, runner);

  // The timed-out run is a real (infeasible) sample, not a failure.
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.budget_spent_on_failures, 0.0);
  bool saw = false;
  for (const auto& s : res.history) {
    if (s.id == batch[0]) {
      saw = true;
      EXPECT_FALSE(s.feasible);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(FaultStepper, AllBootstrapFailuresStopWithNoSuccessfulRuns) {
  const auto problem = lynceus::testing::tiny_problem();
  auto stepper = core::LynceusOptimizer(fast_lynceus()).make_stepper(
      problem, 9);
  const std::vector<ConfigId> batch = stepper->ask().configs;
  for (const ConfigId id : batch) {
    RunResult r;
    r.outcome = RunOutcome::kFailed;
    r.cost = 0.01;
    stepper->tell(id, r);
  }
  ASSERT_TRUE(stepper->finished());
  EXPECT_EQ(stepper->stop_reason(), "no_successful_runs");
  const OptimizerResult res = stepper->result();
  EXPECT_TRUE(res.history.empty());
  EXPECT_EQ(res.failures.size(), batch.size());
  EXPECT_FALSE(res.recommendation.has_value());
  EXPECT_NEAR(res.budget_spent, 0.01 * static_cast<double>(batch.size()),
              1e-9);
  EXPECT_EQ(res.budget_spent, res.budget_spent_on_failures);
}

TEST(FaultStepper, AbortFinishesMidFlightAndIsIdempotent) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  auto stepper = core::LynceusOptimizer(fast_lynceus()).make_stepper(
      problem, 5);
  const std::vector<ConfigId> batch = stepper->ask().configs;
  RunResult r;
  r.runtime_seconds = ds.observation(batch[0]).runtime_seconds;
  r.cost = ds.observation(batch[0]).cost();
  stepper->tell(batch[0], r);

  // Aborting mid-batch discards the buffered (not yet applied) tells:
  // applied samples are the resumable truth, partial batches are not.
  stepper->abort("runner_failed");
  ASSERT_TRUE(stepper->finished());
  EXPECT_EQ(stepper->stop_reason(), "runner_failed");
  EXPECT_TRUE(stepper->outstanding_configs().empty());
  EXPECT_TRUE(stepper->result().history.empty());
  stepper->abort("something_else");  // idempotent: first reason wins
  EXPECT_EQ(stepper->stop_reason(), "runner_failed");
  EXPECT_EQ(stepper->ask().kind, core::StepAction::Kind::Finished);

  // Applied batches survive an abort: finish the bootstrap on a second
  // stepper, then abort during the decision phase.
  auto second = core::LynceusOptimizer(fast_lynceus()).make_stepper(
      problem, 5);
  const std::vector<ConfigId> boot = second->ask().configs;
  for (const ConfigId id : boot) {
    RunResult ok;
    ok.runtime_seconds = ds.observation(id).runtime_seconds;
    ok.cost = ds.observation(id).cost();
    second->tell(id, ok);
  }
  ASSERT_EQ(second->ask().kind, core::StepAction::Kind::Profile);
  second->abort("runner_failed");
  ASSERT_TRUE(second->finished());
  EXPECT_EQ(second->result().history.size(), boot.size());
}

TEST(FaultStepper, SnapshotWithFailuresRestoresByteIdentically) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  const core::LynceusOptions opts = fast_lynceus();

  // One bootstrap failure and one decision-phase failure, so the snapshot
  // carries failure records interleaved with samples.
  auto run_partial = [&](core::OptimizerStepper& stepper) {
    const std::vector<ConfigId> batch = stepper.ask().configs;
    for (const ConfigId id : batch) {
      RunResult r;
      r.runtime_seconds = ds.observation(id).runtime_seconds;
      r.cost = ds.observation(id).cost();
      if (id == batch[1]) {
        r = RunResult{};
        r.outcome = RunOutcome::kFailed;
        r.cost = 0.02;
      }
      stepper.tell(id, r);
    }
    const core::StepAction& decision = stepper.ask();
    ASSERT_EQ(decision.kind, core::StepAction::Kind::Profile);
    RunResult crash;
    crash.outcome = RunOutcome::kFailed;
    crash.cost = 0.02;
    stepper.tell(decision.configs.front(), crash);
  };

  auto original = core::LynceusOptimizer(opts).make_stepper(problem, 31);
  run_partial(*original);
  const std::string snap = original->snapshot();

  auto revived = core::LynceusOptimizer(opts).make_stepper(problem, 31);
  revived->restore(snap);
  // The failure ledger round-trips: re-snapshotting emits the same bytes.
  EXPECT_EQ(revived->snapshot(), snap);

  // Both finish identically, failures and blacklist included.
  eval::TableRunner r1(ds);
  eval::TableRunner r2(ds);
  const OptimizerResult a = core::drive(*original, r1);
  const OptimizerResult b = core::drive(*revived, r2);
  expect_identical_with_failures(a, b);
  ASSERT_EQ(a.failures.size(), 2U);
}

// ---------------------------------------------------------------------------
// Service layer: retry / backoff / timeout / quarantine policy.

TEST(RunPolicyTest, ValidatesItsKnobs) {
  RunPolicy p;
  p.validate();  // defaults are fine
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RunPolicy{};
  p.backoff_base_seconds = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RunPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RunPolicy{};
  p.run_timeout_seconds = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = RunPolicy{};
  p.timeout_tmax_factor = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  TuningService::Options bad;
  bad.run_policy.max_attempts = 0;
  EXPECT_THROW(TuningService{bad}, std::invalid_argument);
}

TEST(RunPolicyTest, RetriesUseExponentialBackoffThenExhaust) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 3;
  sopts.run_policy.backoff_base_seconds = 7.0;
  sopts.run_policy.backoff_multiplier = 3.0;
  sopts.run_policy.run_timeout_seconds = 123.0;
  TuningService service(sopts);
  const SessionId id = service.open_session(SessionSpec::random(problem, 4));

  const std::vector<PendingRun> batch = service.next_runs();
  ASSERT_FALSE(batch.empty());
  for (const PendingRun& run : batch) {
    EXPECT_EQ(run.attempt, 0U);
    EXPECT_EQ(run.timeout_seconds, 123.0);
    EXPECT_EQ(run.start_delay, 0.0);
  }
  const ConfigId flaky = batch.front().config;

  RunResult failed;
  failed.outcome = RunOutcome::kFailed;
  failed.cost = 0.01;

  // First failure: retried with delay 7, attempt 1; the stepper is not
  // told, so the run is still outstanding.
  service.tell(id, flaky, failed);
  EXPECT_TRUE(service.result(id).failures.empty());
  std::vector<PendingRun> retries = service.next_runs();
  ASSERT_EQ(retries.size(), 1U);
  EXPECT_EQ(retries[0].config, flaky);
  EXPECT_EQ(retries[0].attempt, 1U);
  EXPECT_EQ(retries[0].start_delay, 7.0);
  EXPECT_EQ(retries[0].timeout_seconds, 123.0);

  // Second failure: the backoff delay grows geometrically.
  service.tell(id, flaky, failed);
  retries = service.next_runs();
  ASSERT_EQ(retries.size(), 1U);
  EXPECT_EQ(retries[0].attempt, 2U);
  EXPECT_EQ(retries[0].start_delay, 21.0);  // 7 × 3^1

  // Third failure exhausts max_attempts: the failure goes to the stepper.
  service.tell(id, flaky, failed);
  EXPECT_TRUE(service.next_runs().empty());  // no retry; batch in flight
  EXPECT_FALSE(service.quarantined(id));
  // Finish the rest of the batch; the applied batch carries the failure.
  for (std::size_t i = 1; i < batch.size(); ++i) {
    RunResult ok;
    ok.runtime_seconds = ds.observation(batch[i].config).runtime_seconds;
    ok.cost = ds.observation(batch[i].config).cost();
    service.tell(id, batch[i].config, ok);
  }
  ASSERT_EQ(service.result(id).failures.size(), 1U);
  EXPECT_EQ(service.result(id).failures[0].id, flaky);
}

TEST(RunPolicyTest, TellForRetryPendingConfigThrowsWithoutStateChange) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 2;
  TuningService service(sopts);
  const SessionId id = service.open_session(SessionSpec::random(problem, 4));
  const auto batch = service.next_runs();
  ASSERT_FALSE(batch.empty());
  RunResult failed;
  failed.outcome = RunOutcome::kFailed;
  service.tell(id, batch.front().config, failed);
  // The retry is queued; a second result for the config is not due.
  EXPECT_THROW(service.tell(id, batch.front().config, failed),
               std::invalid_argument);
  // State is intact: the retry still comes out exactly once.
  const auto retries = service.next_runs();
  ASSERT_EQ(retries.size(), 1U);
  EXPECT_EQ(retries[0].config, batch.front().config);
  EXPECT_EQ(retries[0].attempt, 1U);
}

TEST(RunPolicyTest, TmaxFactorCapsTheEffectiveTimeout) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.run_timeout_seconds = 1e9;
  sopts.run_policy.timeout_tmax_factor = 2.0;
  TuningService service(sopts);
  (void)service.open_session(SessionSpec::random(problem, 4));
  const auto batch = service.next_runs();
  ASSERT_FALSE(batch.empty());
  for (const PendingRun& run : batch) {
    EXPECT_EQ(run.timeout_seconds, 2.0 * problem.tmax_seconds);
  }
}

TEST(RunPolicyTest, QuarantineAfterConsecutiveFailures) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.quarantine_after = 2;
  TuningService service(sopts);
  eval::AsyncTableRunner async(ds);
  eval::FaultPlan plan;
  plan.seed = 1;
  plan.fail_rate = 1.0;  // a broken runner: every attempt crashes
  async.set_fault_plan(plan);

  const SessionId sick =
      service.open_session(SessionSpec::random(problem, 4));
  const SessionId healthy = service.open_session(
      SessionSpec::lynceus(problem, fast_lynceus(), 6));
  service::drain(service, async);

  EXPECT_TRUE(service.idle());
  EXPECT_TRUE(service.quarantined(sick));
  EXPECT_TRUE(service.quarantined(healthy));
  EXPECT_TRUE(service.finished(sick));
  EXPECT_EQ(service.stop_reason(sick), "runner_failed");
  EXPECT_EQ(service.quarantined_sessions(),
            (std::vector<SessionId>{sick, healthy}));
  // The quarantining failure itself never reaches the stepper (tell
  // aborts first), so the ledger holds fewer than the streak.
  EXPECT_LT(service.result(sick).failures.size(),
            sopts.run_policy.quarantine_after);
  // Late completions for a quarantined session are dropped, not errors.
  RunResult late;
  late.outcome = RunOutcome::kFailed;
  EXPECT_NO_THROW(service.tell(sick, 0, late));
}

TEST(RunPolicyTest, ActivePolicyWithInertPlanKeepsTrajectoriesBitIdentical) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  const core::LynceusOptions opts = fast_lynceus();

  eval::TableRunner solo(ds);
  auto ref = core::LynceusOptimizer(opts).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 4;
  sopts.run_policy.backoff_base_seconds = 10.0;
  sopts.run_policy.run_timeout_seconds = 1e12;
  sopts.run_policy.quarantine_after = 2;
  TuningService service(sopts);
  eval::AsyncTableRunner async(ds);  // no fault plan
  const SessionId id =
      service.open_session(SessionSpec::lynceus(problem, opts, 23));
  service::drain(service, async);
  ASSERT_TRUE(service.finished(id));
  EXPECT_FALSE(service.quarantined(id));
  expect_identical_with_failures(service.result(id), golden);
}

// ---------------------------------------------------------------------------
// Whole-scenario byte determinism and the crash-recovery drill.

struct ScenarioOutcome {
  std::vector<OptimizerResult> results;
  std::vector<std::string> stop_reasons;
  std::vector<bool> quarantined;
  std::size_t runs_served = 0;
};

eval::FaultPlan stormy_plan() {
  eval::FaultPlan plan;
  plan.seed = 99;
  plan.fail_rate = 0.4;
  plan.hang_rate = 0.05;
  plan.straggler_rate = 0.25;
  plan.straggler_factor = 3.0;
  return plan;
}

TuningService::Options stormy_options() {
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 2;
  sopts.run_policy.backoff_base_seconds = 5.0;
  sopts.run_policy.run_timeout_seconds = 600.0;  // resolves hangs
  sopts.run_policy.quarantine_after = 4;
  return sopts;
}

/// Opens the scenario's fixed session mix; returns the session ids.
std::vector<SessionId> open_stormy_sessions(
    TuningService& service, const core::OptimizationProblem& problem) {
  std::vector<SessionId> ids;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    ids.push_back(service.open_session(
        SessionSpec::lynceus(problem, fast_lynceus(), seed)));
  }
  ids.push_back(service.open_session(SessionSpec::random(problem, 11)));
  return ids;
}

ScenarioOutcome run_stormy_scenario() {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningService service(stormy_options());
  eval::AsyncTableRunner async(ds);
  async.set_fault_plan(stormy_plan());
  const std::vector<SessionId> ids = open_stormy_sessions(service, problem);
  service::drain(service, async);
  ScenarioOutcome out;
  for (const SessionId id : ids) {
    EXPECT_TRUE(service.finished(id));
    out.results.push_back(service.result(id));
    out.stop_reasons.push_back(service.stop_reason(id));
    out.quarantined.push_back(service.quarantined(id));
  }
  out.runs_served = async.runs_served();
  return out;
}

TEST(FaultReplay, StormyScenarioIsByteDeterministic) {
  const ScenarioOutcome a = run_stormy_scenario();
  const ScenarioOutcome b = run_stormy_scenario();
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.runs_served, b.runs_served);
  EXPECT_EQ(a.stop_reasons, b.stop_reasons);
  EXPECT_EQ(a.quarantined, b.quarantined);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    expect_identical_with_failures(a.results[i], b.results[i]);
  }
  // The storm actually did something: at least one fault was injected
  // (retries make runs_served exceed the told results) and at least one
  // session carries failures or censored samples.
  std::size_t failures = 0;
  for (const auto& r : a.results) failures += r.failures.size();
  EXPECT_GT(failures, 0U);
}

TEST(FaultReplay, RecordedFailuresAreDeterministicCrashers) {
  // Retry correctness, checked against the fault contract directly: a
  // failure only reaches a stepper once every allowed attempt's draw
  // failed — any config with a succeeding draw inside the retry budget
  // must never appear in a failure ledger.
  const auto ds = lynceus::testing::tiny_dataset();
  const ScenarioOutcome out = run_stormy_scenario();
  const eval::FaultPlan plan = stormy_plan();
  const TuningService::Options sopts = stormy_options();
  std::size_t checked = 0;
  for (const OptimizerResult& r : out.results) {
    for (const core::FailureRecord& f : r.failures) {
      for (std::uint64_t attempt = 0;
           attempt < sopts.run_policy.max_attempts; ++attempt) {
        core::RunResult base;
        base.runtime_seconds = ds.observation(f.id).runtime_seconds;
        base.cost = ds.observation(f.id).cost();
        const eval::InjectedRun injected =
            eval::inject_faults(plan, f.id, attempt, base);
        EXPECT_TRUE(injected.result.failed())
            << "config " << f.id << " attempt " << attempt
            << " would have succeeded — the retry layer gave up early";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0U);
}

TEST(FaultReplay, CrashRecoveryDrillFinishesByteIdentically) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  // Golden: the same stormy scenario, never interrupted.
  const ScenarioOutcome golden = run_stormy_scenario();

  // Crash run: journal every session, process a prefix of the schedule,
  // then drop the service on the floor mid-flight.
  std::map<SessionId, std::string> journal;
  TuningService::Options sopts = stormy_options();
  sopts.journal = [&journal](SessionId id, const std::string& snap) {
    journal[id] = snap;
  };
  auto crashed = std::make_unique<TuningService>(sopts);
  eval::AsyncTableRunner async(ds);
  async.set_fault_plan(stormy_plan());
  const std::vector<SessionId> ids =
      open_stormy_sessions(*crashed, problem);
  std::size_t processed = 0;
  while (processed < 11) {
    for (const PendingRun& run : crashed->next_runs()) {
      eval::AsyncTableRunner::SubmitOptions opts;
      opts.timeout_seconds = run.timeout_seconds;
      opts.attempt = run.attempt;
      opts.start_delay = run.start_delay;
      async.submit(run.session, run.config, opts);
    }
    const auto c = async.next_completion();
    ASSERT_TRUE(c.has_value()) << "scenario too small for the drill";
    crashed->tell(c->tag, c->config, c->result);
    ++processed;
  }
  ASSERT_FALSE(crashed->idle());
  ASSERT_EQ(journal.size(), ids.size());
  crashed.reset();  // the "kill -9"

  // Recovery: a fresh service (fresh process in spirit) restores every
  // session from its last journal entry and finishes against a fresh
  // runner with the same fault plan. In-flight runs lost in the crash are
  // re-launched with their original attempt numbers, so every fault draw
  // replays and each session ends byte-identical to the uninterrupted run.
  TuningService revived(stormy_options());
  eval::AsyncTableRunner async2(ds);
  async2.set_fault_plan(stormy_plan());
  std::vector<SessionId> revived_ids;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    revived_ids.push_back(revived.restore_session(
        SessionSpec::lynceus(problem, fast_lynceus(), seed),
        journal.at(seed - 11)));
  }
  revived_ids.push_back(revived.restore(
      core::RandomSearch().make_stepper(problem, 11), journal.at(3)));
  service::drain(revived, async2);

  for (std::size_t i = 0; i < revived_ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    ASSERT_TRUE(revived.finished(revived_ids[i]));
    EXPECT_EQ(revived.stop_reason(revived_ids[i]), golden.stop_reasons[i]);
    EXPECT_EQ(revived.quarantined(revived_ids[i]), golden.quarantined[i]);
    expect_identical_with_failures(revived.result(revived_ids[i]),
                                   golden.results[i]);
  }
}

TEST(FaultReplay, SessionEnvelopeRoundTripsRetriesAndQuarantine) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 3;
  sopts.run_policy.backoff_base_seconds = 2.0;
  TuningService service(sopts);
  const SessionId id = service.open_session(SessionSpec::random(problem, 8));
  const auto batch = service.next_runs();
  ASSERT_GE(batch.size(), 2U);
  RunResult failed;
  failed.outcome = RunOutcome::kFailed;
  failed.cost = 0.01;
  service.tell(id, batch[0].config, failed);  // queues a retry

  const std::string envelope = service.snapshot_session(id);
  EXPECT_NE(envelope.find("lynceus-service-session"), std::string::npos);

  // Restore into a second service: the envelope round-trips byte-for-byte
  // and the queued retry is re-emitted exactly once, with its attempt
  // number and backoff delay.
  TuningService revived(sopts);
  const SessionId rid = revived.restore(
      core::RandomSearch().make_stepper(problem, 8), envelope);
  EXPECT_EQ(revived.snapshot_session(rid), envelope);
  const auto runs = revived.next_runs();
  std::size_t retry_count = 0;
  for (const PendingRun& run : runs) {
    if (run.config == batch[0].config) {
      ++retry_count;
      EXPECT_EQ(run.attempt, 1U);
      EXPECT_EQ(run.start_delay, 2.0);
    } else {
      EXPECT_EQ(run.attempt, 0U);
    }
  }
  EXPECT_EQ(retry_count, 1U);

  // Quarantined sessions restore quarantined and emit nothing.
  TuningService::Options qopts;
  qopts.run_policy.quarantine_after = 1;
  TuningService qservice(qopts);
  const SessionId qid =
      qservice.open_session(SessionSpec::random(problem, 8));
  (void)qservice.next_runs();
  qservice.tell(qid, batch[0].config, failed);
  ASSERT_TRUE(qservice.quarantined(qid));
  const std::string qenvelope = qservice.snapshot_session(qid);
  TuningService qrevived(qopts);
  const SessionId qrid = qrevived.restore(
      core::RandomSearch().make_stepper(problem, 8), qenvelope);
  EXPECT_TRUE(qrevived.quarantined(qrid));
  EXPECT_TRUE(qrevived.finished(qrid));
  EXPECT_EQ(qrevived.stop_reason(qrid), "runner_failed");
  EXPECT_TRUE(qrevived.next_runs().empty());
}

// ---------------------------------------------------------------------------
// Service-session envelopes are a trust boundary (they arrive over the
// wire in `restore` frames): a malformed one throws and registers nothing.

/// An envelope with one attempt counter and one queued retry, both for
/// `config`.
std::string envelope_with_retry(ConfigId& config) {
  TuningService::Options sopts;
  sopts.run_policy.max_attempts = 3;
  TuningService service(sopts);
  const auto problem = lynceus::testing::tiny_problem();
  const SessionId id = service.open_session(SessionSpec::random(problem, 8));
  config = service.next_runs().at(0).config;
  RunResult failed;
  failed.outcome = RunOutcome::kFailed;
  failed.cost = 0.01;
  service.tell(id, config, failed);  // attempts[config] = 1, retry queued
  return service.snapshot_session(id);
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no '" << from << "' in envelope";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Restores `envelope` into a fresh service: it must throw and leave the
/// service without a session.
void expect_rejected(const std::string& envelope) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningService service;
  EXPECT_ANY_THROW(service.restore(
      core::RandomSearch().make_stepper(problem, 8), envelope));
  EXPECT_EQ(service.session_count(), 0U);
  EXPECT_TRUE(service.next_runs().empty());
}

TEST(FaultReplay, EnvelopeAttemptIdOutsideTheSpaceIsRejected) {
  ConfigId config = 0;
  const std::string envelope = envelope_with_retry(config);
  const std::string rows =
      std::to_string(lynceus::testing::tiny_space()->size());
  expect_rejected(replaced(
      envelope, "\"attempts\":[{\"config\":" + std::to_string(config),
      "\"attempts\":[{\"config\":" + rows));
}

TEST(FaultReplay, EnvelopeRetryIdOutsideTheSpaceIsRejected) {
  ConfigId config = 0;
  const std::string envelope = envelope_with_retry(config);
  const std::string rows =
      std::to_string(lynceus::testing::tiny_space()->size());
  expect_rejected(replaced(
      envelope, "\"retries\":[{\"config\":" + std::to_string(config),
      "\"retries\":[{\"config\":" + rows));
}

/// 2^32 + k narrowed to a 32-bit ConfigId would silently become config k.
TEST(FaultReplay, EnvelopeIdPastTwoToTheThirtyTwoDoesNotAliasAConfig) {
  ConfigId config = 0;
  const std::string envelope = envelope_with_retry(config);
  const std::string aliased =
      std::to_string((std::uint64_t{1} << 32) + config);
  expect_rejected(replaced(
      envelope, "\"retries\":[{\"config\":" + std::to_string(config),
      "\"retries\":[{\"config\":" + aliased));
  expect_rejected(replaced(
      envelope, "\"attempts\":[{\"config\":" + std::to_string(config),
      "\"attempts\":[{\"config\":" + aliased));
}

TEST(FaultReplay, EnvelopeMissingPolicyKeyRegistersNoSession) {
  ConfigId config = 0;
  const std::string envelope = envelope_with_retry(config);
  expect_rejected(replaced(envelope, "\"quarantined\":false,", ""));
}

}  // namespace
}  // namespace lynceus
