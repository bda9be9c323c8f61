/// Sharded-drain tests (service::drain_sharded): K FIFO services drained
/// on K threads must leave every session exactly where the FIFO drain
/// leaves it — solo-identical trajectories for every optimizer kind and
/// shard count, FIFO-identical retries, quarantine and journal streams
/// under fault injection — and must return, and propagate errors, only
/// once every shard thread has joined. Part of the `concurrency` ctest
/// label (run under -fsanitize=thread in the debug-tsan CI leg).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/random_search.hpp"
#include "core/stepper.hpp"
#include "eval/runner.hpp"
#include "service/tuning_service.hpp"
#include "test_helpers.hpp"

namespace lynceus::service {
namespace {

using core::OptimizerResult;

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = lynceus::testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{10.0 + 4.0 * sp->value(id, 0) +
                               3.0 * sp->value(id, 1)};
  };
}

core::ConstraintDef energy_cap(double cap) {
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](core::ConfigId) { return cap; };
  return c;
}

using lynceus::testing::expect_identical_with_failures;

/// One service per entry of `options`, each with its own copy of
/// `runner`.
struct Shards {
  Shards(const std::vector<TuningService::Options>& options,
         const eval::AsyncTableRunner& runner)
      : runners(options.size(), runner) {
    services.reserve(options.size());
    for (const auto& o : options) services.emplace_back(o);
  }
  std::vector<TuningService> services;
  std::vector<eval::AsyncTableRunner> runners;
};

/// Session i of the 64-session mix: the four optimizer kinds in turn.
std::unique_ptr<core::OptimizerStepper> mixed_stepper(
    const core::OptimizationProblem& problem, std::uint64_t i) {
  const std::uint64_t seed = 1 + i / 4;
  switch (i % 4) {
    case 0: {
      core::LynceusOptions opts;
      opts.lookahead = (i / 4) % 2 == 0 ? 0U : 1U;
      opts.incremental_refit = false;
      return core::LynceusOptimizer(opts).make_stepper(problem, seed);
    }
    case 1: {
      core::MultiConstraintOptions opts;
      opts.lookahead = 1;
      opts.incremental_refit = false;
      return core::MultiConstraintLynceus({energy_cap(26.0)}, opts)
          .make_stepper(problem, seed);
    }
    case 2:
      return core::BayesianOptimizer().make_stepper(problem, seed);
    default:
      return core::RandomSearch().make_stepper(problem, seed);
  }
}

TEST(ShardedDrain, SixtyFourMixedSessionsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  constexpr std::size_t kSessions = 64;

  std::vector<OptimizerResult> solo;
  for (std::uint64_t i = 0; i < kSessions; ++i) {
    eval::TableRunner runner(ds, tiny_metrics());
    solo.push_back(core::drive(*mixed_stepper(problem, i), runner));
  }

  for (const std::size_t k : {1U, 2U, 4U}) {
    SCOPED_TRACE("shards " + std::to_string(k));
    Shards shards(std::vector<TuningService::Options>(k),
                  eval::AsyncTableRunner(ds, tiny_metrics()));
    std::vector<SessionId> ids;
    for (std::uint64_t i = 0; i < kSessions; ++i) {
      ids.push_back(
          shards.services[i % k].open(mixed_stepper(problem, i)));
    }
    drain_sharded(shards.services, shards.runners);
    for (std::size_t i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      const TuningService& svc = shards.services[i % k];
      ASSERT_TRUE(svc.finished(ids[i]));
      expect_identical_with_failures(svc.result(ids[i]), solo[i]);
    }
    for (const TuningService& svc : shards.services) {
      EXPECT_TRUE(svc.idle());
    }
  }
}

/// Two shards borrowing one decision cache decide the same keys at once:
/// each shard runs the same Lynceus and multi-constraint sessions, so both
/// shard threads look up and store identical decisions concurrently (run
/// under TSan through the `concurrency` label). Every session still
/// matches its solo run, and the shards reuse each other's decisions.
TEST(ShardedDrain, SharedDecisionCacheAcrossShardsKeepsTrajectories) {
  const auto ds = lynceus::testing::tiny_dataset();
  // A budget that affords many profiling decisions per session.
  const auto problem = lynceus::testing::tiny_problem(6.0);
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kSpecs = 4;

  const auto spec_for = [&](std::uint64_t i) {
    if (i % 2 == 0) {
      core::LynceusOptions opts;
      opts.lookahead = 1;
      opts.incremental_refit = false;
      return SessionSpec::lynceus(problem, opts, 1 + i);
    }
    core::MultiConstraintOptions opts;
    opts.lookahead = 1;
    opts.incremental_refit = false;
    return SessionSpec::multi_constraint(problem, {energy_cap(26.0)}, opts,
                                         1 + i);
  };
  std::vector<OptimizerResult> solo;
  for (std::uint64_t i = 0; i < kSpecs; ++i) {
    eval::TableRunner runner(ds, tiny_metrics());
    solo.push_back(
        core::drive(*spec_for(i).make_stepper(nullptr, nullptr), runner));
  }

  core::RootCache cache(core::RootCache::Options{256});
  std::vector<TuningService::Options> options(kShards);
  for (auto& o : options) o.cache = &cache;
  Shards shards(options, eval::AsyncTableRunner(ds, tiny_metrics()));
  std::vector<std::vector<SessionId>> ids(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(shards.services[s].shared_cache(), &cache);
    for (std::uint64_t i = 0; i < kSpecs; ++i) {
      ids[s].push_back(shards.services[s].open_session(spec_for(i)));
    }
  }
  drain_sharded(shards.services, shards.runners);

  std::size_t profiled = 0;
  for (std::uint64_t i = 0; i < kSpecs; ++i) {
    profiled += solo[i].history.size() - problem.bootstrap_samples;
    for (std::size_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE("spec " + std::to_string(i) + " shard " +
                   std::to_string(s));
      ASSERT_TRUE(shards.services[s].finished(ids[s][i]));
      expect_identical_with_failures(shards.services[s].result(ids[s][i]),
                                     solo[i]);
    }
  }
  // Each profiling decision is made twice, once per shard: at most one
  // copy misses. A race can make both miss (then both store one entry),
  // so only the totals are pinned.
  const core::RootCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0U);
  EXPECT_LE(stats.entries, profiled);
  EXPECT_GE(stats.hits + stats.misses, 2 * profiled);
}

/// A journal envelope minus the stepper's wall-clock `decision_seconds`
/// field, the one value that legitimately differs between two runs.
std::string without_wall_clock(std::string envelope) {
  const std::size_t at = envelope.find("decision_seconds");
  if (at != std::string::npos) {
    envelope.erase(at, envelope.find(',', at) - at);
  }
  return envelope;
}

/// Everything FIFO-observable about one session after a drain.
struct Observed {
  OptimizerResult result;
  std::string stop_reason;
  bool quarantined = false;
  std::string last_envelope;  ///< final journal entry, minus wall-clock
  std::size_t journal_entries = 0;
};

/// The fault-injected mix — Lynceus and random sessions under a storm of
/// failures, hangs and stragglers, with retries, a timeout and quarantine
/// active — on `k` shards whose journal callbacks all write one
/// mutex-guarded map, from every shard thread. k == 0 is the reference:
/// one FIFO service drained by drain() on this thread.
std::vector<Observed> run_faulty_mix(std::size_t k) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  constexpr std::size_t kSessions = 12;

  eval::FaultPlan plan;
  plan.seed = 99;
  plan.fail_rate = 0.45;
  plan.hang_rate = 0.1;
  plan.straggler_rate = 0.2;
  plan.straggler_factor = 3.0;
  eval::AsyncTableRunner runner(ds);
  runner.set_fault_plan(plan);

  std::mutex journal_mutex;
  std::map<std::pair<std::size_t, SessionId>, std::pair<std::string, int>>
      journal;  // (shard, id) -> (last envelope, entries)
  const std::size_t n = k == 0 ? 1 : k;
  std::vector<TuningService::Options> options(n);
  for (std::size_t s = 0; s < n; ++s) {
    options[s].run_policy.max_attempts = 2;
    options[s].run_policy.backoff_base_seconds = 5.0;
    options[s].run_policy.run_timeout_seconds = 600.0;
    options[s].run_policy.quarantine_after = 3;
    options[s].journal = [&, s](SessionId id, const std::string& snap) {
      std::lock_guard<std::mutex> lk(journal_mutex);
      auto& entry = journal[{s, id}];
      entry.first = snap;
      ++entry.second;
    };
  }
  Shards shards(options, runner);
  std::vector<TuningService>& services = shards.services;

  std::vector<SessionId> ids;
  for (std::uint64_t i = 0; i < kSessions; ++i) {
    core::LynceusOptions opts;
    opts.lookahead = i % 3 == 0 ? 1U : 0U;
    opts.incremental_refit = false;
    ids.push_back(services[i % n].open(
        i % 4 == 3 ? core::RandomSearch().make_stepper(problem, 20 + i)
                   : core::LynceusOptimizer(opts).make_stepper(problem,
                                                               20 + i)));
  }
  if (k == 0) {
    drain(services[0], shards.runners[0]);
  } else {
    drain_sharded(services, shards.runners);
  }

  std::vector<Observed> out;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const TuningService& svc = services[i % n];
    Observed o;
    o.result = svc.result(ids[i]);
    o.stop_reason = svc.stop_reason(ids[i]);
    o.quarantined = svc.quarantined(ids[i]);
    const auto& entry = journal.at({i % n, ids[i]});
    o.last_envelope = without_wall_clock(entry.first);
    o.journal_entries = static_cast<std::size_t>(entry.second);
    out.push_back(std::move(o));
  }
  return out;
}

TEST(ShardedDrain, FaultInjectedMixMatchesTheFifoDrainByteForByte) {
  const std::vector<Observed> fifo = run_faulty_mix(0);
  // The scenario must exercise both ends of the run policy.
  std::size_t quarantined = 0;
  std::size_t with_failures = 0;
  for (const Observed& o : fifo) {
    quarantined += o.quarantined ? 1 : 0;
    with_failures += o.result.failures.empty() ? 0 : 1;
  }
  ASSERT_GT(quarantined, 0U);
  ASSERT_LT(quarantined, fifo.size());
  ASSERT_GT(with_failures, 0U);

  for (const std::size_t k : {2U, 3U, 4U}) {
    SCOPED_TRACE("shards " + std::to_string(k));
    const std::vector<Observed> sharded = run_faulty_mix(k);
    ASSERT_EQ(sharded.size(), fifo.size());
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      expect_identical_with_failures(sharded[i].result, fifo[i].result);
      EXPECT_EQ(sharded[i].stop_reason, fifo[i].stop_reason);
      EXPECT_EQ(sharded[i].quarantined, fifo[i].quarantined);
      // Journal-per-tell: the same number of entries, the same last one.
      EXPECT_EQ(sharded[i].journal_entries, fifo[i].journal_entries);
      EXPECT_EQ(sharded[i].last_envelope, fifo[i].last_envelope);
    }
  }
}

/// Un-capped hangs leave runs outstanding forever. Every shard's drain()
/// must still return — hung sessions left unfinished and in flight,
/// exactly like the FIFO drain — and so must a shard with no sessions.
TEST(ShardedDrain, UncappedHangsStillLetEveryShardReturn) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  eval::FaultPlan plan;
  plan.seed = 3;
  plan.hang_rate = 1.0;  // every run hangs; no run policy timeout
  eval::AsyncTableRunner runner(ds);
  runner.set_fault_plan(plan);

  Shards shards(std::vector<TuningService::Options>(4), runner);
  std::vector<SessionId> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    // Shard i % 3: shard 3 stays empty.
    ids.push_back(shards.services[i % 3].open(
        core::RandomSearch().make_stepper(problem, 1 + i)));
  }
  drain_sharded(shards.services, shards.runners);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const TuningService& svc = shards.services[i % 3];
    EXPECT_FALSE(svc.finished(ids[i]));
    EXPECT_FALSE(svc.quarantined(ids[i]));
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(shards.services[s].idle());
    EXPECT_GT(shards.runners[s].outstanding(), 0U);
  }
  EXPECT_TRUE(shards.services[3].idle());
}

/// A shard that throws does not cut the drain short: the other shards
/// run to completion, every thread is joined, and only then is the
/// lowest-numbered failing shard's exception rethrown.
TEST(ShardedDrain, ShardExceptionPropagatesOnlyAfterEveryThreadJoined) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  constexpr std::size_t kShards = 4;

  {
    std::vector<TuningService> services(2);
    std::vector<eval::AsyncTableRunner> runners(1,
                                                eval::AsyncTableRunner(ds));
    EXPECT_THROW(drain_sharded(services, runners), std::invalid_argument);
  }

  // Shards 1 and 3 throw from their journal on the first tell; the armed
  // flag keeps the open()-time journal call quiet.
  bool armed = false;
  std::vector<TuningService::Options> options(kShards);
  for (const std::size_t s : {1U, 3U}) {
    options[s].journal = [&armed, s](SessionId, const std::string&) {
      if (armed) throw std::runtime_error("shard " + std::to_string(s));
    };
  }
  Shards shards(options, eval::AsyncTableRunner(ds));
  std::vector<TuningService>& services = shards.services;
  std::vector<SessionId> ids;
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.incremental_refit = false;
  for (std::uint64_t i = 0; i < 4 * kShards; ++i) {
    ids.push_back(services[i % kShards].open(
        core::LynceusOptimizer(opts).make_stepper(problem, 1 + i)));
  }
  armed = true;

  std::string message;
  try {
    drain_sharded(services, shards.runners);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "shard 1");
  // The healthy shards were joined after finishing, not abandoned.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % kShards == 1 || i % kShards == 3) continue;
    SCOPED_TRACE("session " + std::to_string(i));
    EXPECT_TRUE(services[i % kShards].finished(ids[i]));
  }
  EXPECT_TRUE(services[0].idle());
  EXPECT_TRUE(services[2].idle());
}

}  // namespace
}  // namespace lynceus::service
