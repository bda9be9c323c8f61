/// Branch-parallel lookahead (the pooled-determinism contract in
/// core/lookahead.hpp): distributing the depth-0 fantasy-branch /
/// joint-speculation fan-out of a root simulation across a thread pool
/// must leave every trajectory byte-identical to the serial run — for
/// both engines, every lookahead depth, with incremental refit on or off,
/// and across RootCache warm starts — while staying allocation-free after
/// warm-up (asserted process-wide, since branch work runs on pool worker
/// threads the per-thread counter cannot see).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/sequential.hpp"
#include "eval/runner.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::core {
namespace {

std::vector<ConfigId> history_ids(const OptimizerResult& r) {
  std::vector<ConfigId> out;
  for (const auto& s : r.history) out.push_back(s.id);
  return out;
}

// Synthetic metrics over the tiny space (mirrors test_constraints.cpp).
double energy_of(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn energy_metrics() {
  const auto sp = testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{energy_of(*sp, id)};
  };
}

ConstraintDef energy_constraint(double cap) {
  ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

// ---------------------------------------------------------------------------
// Optimizer-level trajectory identity, serial vs branch-parallel
// ---------------------------------------------------------------------------

class BranchParallelTrajectory : public ::testing::TestWithParam<unsigned> {};

TEST_P(BranchParallelTrajectory, LynceusMatchesSerial) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  util::ThreadPool pool(3);
  for (const bool incremental : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      LynceusOptions opts;
      opts.lookahead = GetParam();
      opts.screen_width = 6;
      opts.incremental_refit = incremental;
      opts.branch_parallel = false;
      opts.pool = nullptr;

      eval::TableRunner serial_runner(ds);
      const auto serial =
          LynceusOptimizer(opts).optimize(problem, serial_runner, seed);

      opts.pool = &pool;
      opts.branch_parallel = true;
      eval::TableRunner pooled_runner(ds);
      const auto pooled =
          LynceusOptimizer(opts).optimize(problem, pooled_runner, seed);

      EXPECT_EQ(history_ids(serial), history_ids(pooled))
          << "lookahead " << GetParam() << " incremental " << incremental
          << " seed " << seed;
      EXPECT_EQ(serial.recommendation, pooled.recommendation);
      EXPECT_EQ(serial.budget_spent, pooled.budget_spent);
    }
  }
}

TEST_P(BranchParallelTrajectory, MultiConstraintMatchesSerial) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  util::ThreadPool pool(3);
  for (const bool incremental : {false, true}) {
    MultiConstraintOptions opts;
    opts.lookahead = GetParam();
    opts.incremental_refit = incremental;
    opts.branch_parallel = false;
    opts.pool = nullptr;

    eval::TableRunner serial_runner(ds, energy_metrics());
    const auto serial = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                            .optimize(problem, serial_runner, 17);

    opts.pool = &pool;
    opts.branch_parallel = true;
    eval::TableRunner pooled_runner(ds, energy_metrics());
    const auto pooled = MultiConstraintLynceus({energy_constraint(26.0)}, opts)
                            .optimize(problem, pooled_runner, 17);

    EXPECT_EQ(history_ids(serial), history_ids(pooled))
        << "lookahead " << GetParam() << " incremental " << incremental;
    EXPECT_EQ(serial.recommendation, pooled.recommendation);
    EXPECT_EQ(serial.recommendation_feasible, pooled.recommendation_feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Lookaheads, BranchParallelTrajectory,
                         ::testing::Values(0U, 1U, 2U));

// A zero-worker pool with the flag on must behave exactly like no pool
// (the engine degenerates to the serial path; no replicas are built).
TEST(BranchParallel, ZeroWorkerPoolIsSerial) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  LynceusOptions opts;
  opts.lookahead = 2;
  opts.screen_width = 6;
  opts.incremental_refit = false;

  eval::TableRunner serial_runner(ds);
  const auto serial =
      LynceusOptimizer(opts).optimize(problem, serial_runner, 5);

  util::ThreadPool inline_pool(0);
  opts.pool = &inline_pool;
  opts.branch_parallel = true;
  eval::TableRunner pooled_runner(ds);
  const auto pooled =
      LynceusOptimizer(opts).optimize(problem, pooled_runner, 5);

  EXPECT_EQ(history_ids(serial), history_ids(pooled));
  EXPECT_EQ(serial.recommendation, pooled.recommendation);
}

// ---------------------------------------------------------------------------
// Engine-level bitwise identity of simulate() values, serial vs pooled
// ---------------------------------------------------------------------------

TEST(BranchParallel, LookaheadEngineSimulateValuesAreBitIdentical) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 4);
  st.bootstrap();
  util::ThreadPool pool(3);

  for (const bool incremental : {false, true}) {
    LookaheadEngine::Options sopts;
    sopts.lookahead = 2;
    sopts.incremental_refit = incremental;
    LookaheadEngine serial(problem, sopts,
                           default_tree_model_factory(*problem.space), 1);

    LookaheadEngine::Options popts = sopts;
    popts.branch_pool = &pool;
    LookaheadEngine pooled(problem, popts,
                           default_tree_model_factory(*problem.space), 1);

    serial.begin_decision(st.samples, st.budget.remaining(), 77);
    pooled.begin_decision(st.samples, st.budget.remaining(), 77);
    std::vector<ConfigId> roots;
    serial.screened_roots(0, roots);
    ASSERT_FALSE(roots.empty());
    for (ConfigId r : roots) {
      const std::uint64_t seed = util::derive_seed(4, 1000003ULL + r);
      const PathValue a = serial.simulate(r, seed);
      const PathValue b = pooled.simulate(r, seed);
      EXPECT_EQ(a.reward, b.reward) << "root " << r << " inc " << incremental;
      EXPECT_EQ(a.cost, b.cost) << "root " << r << " inc " << incremental;
    }
  }
}

/// Bootstrapped multi-constraint root state over the tiny space.
struct McState {
  std::vector<std::uint32_t> rows;
  std::vector<double> y_cost;
  std::vector<std::vector<double>> y_metric;
  std::vector<char> feasible;
  double budget = 0.0;
};

McState mc_state(const OptimizationProblem& problem, const cloud::Dataset& ds,
                 double cap) {
  eval::TableRunner runner(ds, energy_metrics());
  MetricRecordingRunner recorder(runner, 1);
  LoopState st(problem, runner, 4);
  st.runner = &recorder;
  st.bootstrap();
  McState out;
  out.y_metric.resize(1);
  for (std::size_t i = 0; i < st.samples.size(); ++i) {
    out.rows.push_back(st.samples[i].id);
    out.y_cost.push_back(st.samples[i].cost);
    out.y_metric[0].push_back(recorder.metrics()[i][0]);
    const bool ok =
        st.samples[i].feasible && recorder.metrics()[i][0] <= cap;
    out.feasible.push_back(ok ? 1 : 0);
  }
  out.budget = st.budget.remaining();
  return out;
}

TEST(BranchParallel, MultiConstraintEngineSimulateValuesAreBitIdentical) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  const double cap = 26.0;
  const McState root = mc_state(problem, ds, cap);
  util::ThreadPool pool(3);

  for (const bool incremental : {false, true}) {
    MultiConstraintEngine::Options sopts;
    sopts.lookahead = 2;
    sopts.incremental_refit = incremental;
    sopts.thresholds = {[cap](ConfigId) { return cap; }};
    MultiConstraintEngine serial(problem, sopts,
                                 default_tree_model_factory(*problem.space),
                                 1);
    MultiConstraintEngine::Options popts = sopts;
    popts.branch_pool = &pool;
    MultiConstraintEngine pooled(problem, popts,
                                 default_tree_model_factory(*problem.space),
                                 1);

    serial.begin_decision(root.rows, root.y_cost, root.y_metric,
                          root.feasible, root.budget, 77);
    pooled.begin_decision(root.rows, root.y_cost, root.y_metric,
                          root.feasible, root.budget, 77);
    ASSERT_FALSE(serial.viable().empty());
    for (ConfigId r : serial.viable()) {
      const std::uint64_t seed = util::derive_seed(4, 1000003ULL + r);
      const PathValue a = serial.simulate(r, seed);
      const PathValue b = pooled.simulate(r, seed);
      EXPECT_EQ(a.reward, b.reward) << "root " << r << " inc " << incremental;
      EXPECT_EQ(a.cost, b.cost) << "root " << r << " inc " << incremental;
    }
  }
}

// ---------------------------------------------------------------------------
// RootCache warm starts stay bit-identical with branch parallelism on
// ---------------------------------------------------------------------------

TEST(BranchParallel, CacheWarmStartReplaysIdenticallyPooled) {
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  util::ThreadPool pool(3);
  for (const bool incremental : {false, true}) {
    LynceusOptions opts;
    opts.lookahead = 1;
    opts.screen_width = 6;
    opts.incremental_refit = incremental;

    // Serial baseline without any cache.
    eval::TableRunner r0(ds);
    const auto baseline = LynceusOptimizer(opts).optimize(problem, r0, 21);

    // A serial run fills the shared cache; the branch-parallel re-run
    // must replay every decision from cache hits, bit-identically.
    RootCache cache(RootCache::Options{64});
    opts.root_cache = &cache;
    eval::TableRunner r1(ds);
    const auto first = LynceusOptimizer(opts).optimize(problem, r1, 21);
    const std::uint64_t misses_after_first = cache.stats().misses;

    opts.pool = &pool;
    opts.branch_parallel = true;
    eval::TableRunner r2(ds);
    const auto second = LynceusOptimizer(opts).optimize(problem, r2, 21);

    // Every profiling decision of the pooled re-run hits; a final stop
    // outcome is never stored, so it misses again.
    EXPECT_EQ(cache.stats().hits, baseline.decisions) << incremental;
    EXPECT_LE(cache.stats().misses - misses_after_first,
              misses_after_first - baseline.decisions)
        << incremental;
    EXPECT_GT(cache.stats().hits, 0U);
    EXPECT_EQ(history_ids(baseline), history_ids(first)) << incremental;
    EXPECT_EQ(history_ids(baseline), history_ids(second)) << incremental;
    EXPECT_EQ(baseline.recommendation, second.recommendation);
  }
}

// ---------------------------------------------------------------------------
// Zero allocation after warm-up, branch parallelism enabled
// ---------------------------------------------------------------------------

/// Runs `body` on one thread while every other thread of the pool is
/// parked inside the same parallel_for, so every branch part `body`'s
/// simulate() calls fan out runs inline on that thread, one at a time —
/// and the engine's FIFO replica ring (see
/// detail::PathSimulator::acquire_branch_workspace) hands replicas out in
/// strict rotation.
template <typename Body>
void run_with_workers_parked(util::ThreadPool& pool, const Body& body) {
  const std::size_t threads = pool.worker_count() + 1;
  std::atomic<bool> claimed{false};
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> done{false};
  // One index per thread: a thread stays inside its body until `done`, so
  // it can never claim a second index.
  pool.parallel_for(threads, [&](std::size_t) {
    if (!claimed.exchange(true, std::memory_order_acq_rel)) {
      while (parked.load(std::memory_order_acquire) < threads - 1) {
        std::this_thread::yield();
      }
      body();
      done.store(true, std::memory_order_release);
      return;
    }
    parked.fetch_add(1, std::memory_order_acq_rel);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  });
}

/// Branch replicas the engines keep with a 3-worker pool and 4
/// workspaces: min(3 + 4, 4 · parts).
constexpr std::size_t kReplicas = 7;

/// Warm-up that sizes every branch replica: each root is simulated
/// kReplicas times in a row with the workers parked. One root's simulate
/// always runs the same number of branch parts, between 1 and 4 (one per
/// pool thread at most), and any such count is coprime with 7, so the
/// rotation runs each part of each root on every replica. Buffer
/// sizes depend only on the depth a branch reaches, never on which
/// branch, so afterwards no replica meets a shape it has not sized for,
/// whichever thread claims which part.
template <typename Engine>
void warm_every_replica(util::ThreadPool& pool, Engine& engine,
                        const std::vector<ConfigId>& roots) {
  run_with_workers_parked(pool, [&] {
    for (ConfigId r : roots) {
      for (std::size_t rep = 0; rep < kReplicas; ++rep) {
        (void)engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
      }
    }
  });
}

TEST(BranchParallel, SimulateIsAllocationFreeAfterWarmup) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  eval::TableRunner runner(ds);
  LoopState st(problem, runner, 4);
  st.bootstrap();
  util::ThreadPool pool(3);
  const std::size_t threads = pool.worker_count() + 1;

  for (const bool incremental : {false, true}) {
    LookaheadEngine::Options opts;
    opts.lookahead = 2;
    opts.incremental_refit = incremental;
    opts.branch_pool = &pool;
    LookaheadEngine engine(problem, opts,
                           default_tree_model_factory(*problem.space),
                           threads);
    engine.begin_decision(st.samples, st.budget.remaining(),
                          util::derive_seed(4, 1));
    std::vector<ConfigId> roots;
    engine.screened_roots(0, roots);
    ASSERT_FALSE(roots.empty());

    // Warm-up: every replica (see warm_every_replica), then one pass as
    // measured below to warm the calling thread's primary workspace.
    warm_every_replica(pool, engine, roots);
    for (ConfigId r : roots) {
      (void)engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
    }

    util::AllocCountAllThreadsGuard guard;
    PathValue total{};
    for (ConfigId r : roots) {
      const PathValue v =
          engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
      total.reward += v.reward;
      total.cost += v.cost;
    }
    EXPECT_EQ(guard.delta(), 0U)
        << "branch-parallel simulate() touched the heap after warm-up "
           "(incremental "
        << incremental << ")";
    EXPECT_GT(total.cost, 0.0);
  }
}

TEST(BranchParallel, McSimulateIsAllocationFreeAfterWarmup) {
  if (!util::alloc_count_available()) {
    GTEST_SKIP() << "allocation-counting hooks not linked";
  }
  const auto problem = testing::tiny_problem();
  static const cloud::Dataset ds = testing::tiny_dataset();
  const double cap = 26.0;
  const McState root = mc_state(problem, ds, cap);
  util::ThreadPool pool(3);
  const std::size_t threads = pool.worker_count() + 1;

  MultiConstraintEngine::Options opts;
  opts.lookahead = 2;
  opts.thresholds = {[cap](ConfigId) { return cap; }};
  opts.branch_pool = &pool;
  MultiConstraintEngine engine(problem, opts,
                               default_tree_model_factory(*problem.space),
                               threads);
  engine.begin_decision(root.rows, root.y_cost, root.y_metric, root.feasible,
                        root.budget, util::derive_seed(4, 1));
  const std::vector<ConfigId> roots = engine.viable();
  ASSERT_FALSE(roots.empty());

  warm_every_replica(pool, engine, roots);
  for (ConfigId r : roots) {
    (void)engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
  }

  util::AllocCountAllThreadsGuard guard;
  PathValue total{};
  for (ConfigId r : roots) {
    const PathValue v =
        engine.simulate(r, util::derive_seed(4, 1000003ULL + r));
    total.reward += v.reward;
    total.cost += v.cost;
  }
  EXPECT_EQ(guard.delta(), 0U)
      << "branch-parallel MC simulate() touched the heap after warm-up";
  EXPECT_GT(total.cost, 0.0);
}

}  // namespace
}  // namespace lynceus::core
