/// Micro-benchmarks (google-benchmark) of the optimizer's hot paths: the
/// components whose speed bounds Lynceus' decision time — tree/ensemble
/// fitting and batch prediction, Gauss-Hermite construction, LHS sampling,
/// acquisition evaluation, and full decision steps through the lookahead
/// simulation engine.
///
/// The binary provides its own main: after the google-benchmark run it
/// re-measures the engine's single-decision latency per (space, lookahead)
/// and writes percentiles plus allocations-per-decision to a
/// machine-readable JSON summary (default BENCH_micro.json, override with
/// --json_out=PATH; skip with --json_out=) so the perf trajectory can be
/// tracked across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "cloud/workloads.hpp"
#include "core/acquisition.hpp"
#include "core/constraints.hpp"
#include "constraints_reference.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/bo.hpp"
#include "core/sequential.hpp"
#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "math/gauss_hermite.hpp"
#include "math/lhs.hpp"
#include "model/bagging.hpp"
#include "model/gp.hpp"
#include "net/tuning_client.hpp"
#include "net/tuning_server.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"
#include "space/config_space.hpp"
#include "space/parameter.hpp"
#include "util/alloc_count.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lynceus;

/// Training set of `n` samples over the TensorFlow space, deterministic.
struct TrainingFixture {
  std::shared_ptr<const space::ConfigSpace> space;
  model::FeatureMatrix fm;
  std::vector<std::uint32_t> rows;
  std::vector<double> y;

  explicit TrainingFixture(std::size_t n)
      : space(cloud::tensorflow_space()), fm(*space) {
    const auto ds = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
    util::Rng rng(9);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id =
          static_cast<space::ConfigId>(rng.below(space->size()));
      rows.push_back(id);
      y.push_back(ds.cost(id));
    }
  }
};

void BM_TreeFit(benchmark::State& state) {
  TrainingFixture fx(static_cast<std::size_t>(state.range(0)));
  model::TreeOptions opts;
  opts.features_per_split = 4;
  model::DecisionTree tree(opts);
  util::Rng rng(1);
  for (auto _ : state) {
    tree.fit(fx.fm, fx.rows, fx.y, rng);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFit)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_EnsembleFit(benchmark::State& state) {
  TrainingFixture fx(static_cast<std::size_t>(state.range(0)));
  model::BaggingOptions opts;
  opts.tree.features_per_split = 4;
  model::BaggingEnsemble ens(opts);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ens.fit(fx.fm, fx.rows, fx.y, ++seed);
  }
}
BENCHMARK(BM_EnsembleFit)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_EnsemblePredictAll(benchmark::State& state) {
  TrainingFixture fx(100);
  model::BaggingEnsemble ens;
  ens.fit(fx.fm, fx.rows, fx.y, 7);
  std::vector<model::Prediction> preds;
  for (auto _ : state) {
    ens.predict_all(fx.fm, preds);
    benchmark::DoNotOptimize(preds.data());
  }
}
BENCHMARK(BM_EnsemblePredictAll);

void BM_GpFit(benchmark::State& state) {
  TrainingFixture fx(static_cast<std::size_t>(state.range(0)));
  model::GaussianProcess gp;
  for (auto _ : state) {
    gp.fit(fx.fm, fx.rows, fx.y, 0);
    benchmark::DoNotOptimize(gp.lengthscale());
  }
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100);

void BM_GaussHermite(benchmark::State& state) {
  for (auto _ : state) {
    const math::GaussHermite gh(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(gh.nodes().data());
  }
}
BENCHMARK(BM_GaussHermite)->Arg(3)->Arg(8)->Arg(32);

void BM_LhsSample(benchmark::State& state) {
  const auto space = cloud::tensorflow_space();
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space->lhs_sample(12, rng));
  }
}
BENCHMARK(BM_LhsSample);

void BM_ConstrainedEiSweep(benchmark::State& state) {
  TrainingFixture fx(100);
  model::BaggingEnsemble ens;
  ens.fit(fx.fm, fx.rows, fx.y, 7);
  std::vector<model::Prediction> preds;
  ens.predict_all(fx.fm, preds);
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t id = 0; id < preds.size(); ++id) {
      best = std::max(best, core::constrained_ei(1.0, preds[id], 0.5));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_ConstrainedEiSweep);

/// One full Lynceus decision (fit + Γ filter + path simulation for every
/// screened root) on the 384-point space — the unit Table 3 reports.
void BM_LynceusDecision(benchmark::State& state) {
  const auto ds = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  const auto problem = eval::make_problem(ds, 3.0);
  core::LynceusOptions opts;
  opts.lookahead = static_cast<unsigned>(state.range(0));
  opts.screen_width = 24;
  for (auto _ : state) {
    state.PauseTiming();
    core::LynceusOptimizer lyn(opts);
    // Budget trimmed so the run performs the bootstrap plus ~2 decisions.
    auto small = problem;
    small.budget = ds.mean_cost() * (problem.bootstrap_samples + 2.0);
    eval::TableRunner runner(ds);
    state.ResumeTiming();
    const auto result = lyn.optimize(small, runner, 5);
    benchmark::DoNotOptimize(result.decisions);
  }
}
BENCHMARK(BM_LynceusDecision)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The two decision-benchmark spaces: the paper's TensorFlow grid (largest
/// evaluation space, 384 points) and a Scout job (69 points).
cloud::Dataset decision_dataset(int space_idx) {
  if (space_idx == 0) {
    return cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  }
  return cloud::make_scout_dataset(cloud::scout_job_specs().front());
}

const char* decision_space_name(int space_idx) {
  return space_idx == 0 ? "tensorflow_cnn" : "scout_0";
}

/// One full decision through the lookahead engine — root fit, full-space
/// prediction, fused acquisition pass, screening, and one simulated path
/// per screened root. Reports allocations per decision (0 after warm-up
/// when the allocation-counting hooks are linked, which they are in this
/// binary). arg2 selects the branch-refit mode: 0 = from-scratch
/// (bit-pinned default), 1 = incremental (Options::incremental_refit;
/// registered for la >= 1 only — at la 0 no branch model exists to refit).
void BM_ExplorePathsDecision(benchmark::State& state) {
  const auto ds = decision_dataset(static_cast<int>(state.range(0)));
  const auto problem = eval::make_problem(ds, 3.0);
  eval::TableRunner runner(ds);
  core::LoopState st(problem, runner, 5);
  st.bootstrap();

  core::LookaheadEngine::Options opts;
  opts.lookahead = static_cast<unsigned>(state.range(1));
  opts.incremental_refit = state.range(2) != 0;
  core::LookaheadEngine engine(problem, opts,
                               core::default_tree_model_factory(*problem.space),
                               1);
  std::vector<core::ConfigId> roots;
  std::uint64_t iter = 0;
  std::uint64_t allocs = 0;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    ++iter;
    const util::AllocCountGuard guard;
    engine.begin_decision(st.samples, st.budget.remaining(),
                          util::derive_seed(5, iter));
    engine.screened_roots(24, roots);
    double acc = 0.0;
    for (core::ConfigId r : roots) {
      acc += engine
                 .simulate(r, util::derive_seed(5, iter * 1000003ULL + r))
                 .cost;
    }
    benchmark::DoNotOptimize(acc);
    if (iter > 1) {  // first iteration warms the buffers
      allocs += guard.delta();
      ++decisions;
    }
  }
  state.counters["allocs_per_decision"] =
      decisions > 0 ? static_cast<double>(allocs) /
                          static_cast<double>(decisions)
                    : 0.0;
  state.counters["roots"] = static_cast<double>(roots.size());
}
BENCHMARK(BM_ExplorePathsDecision)
    ->ArgsProduct({{0, 1}, {0, 1, 2}, {0}})
    ->ArgsProduct({{0, 1}, {1, 2}, {1}})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Multi-constraint decisions: naive reference vs MultiConstraintEngine
// ---------------------------------------------------------------------------

/// Bootstrapped root state of a multi-constraint run with one synthetic
/// "energy" constraint whose cap binds without emptying the feasible set;
/// optionally a second synthetic "memory" constraint with the same
/// property (for the MC incremental-refit bench cases).
struct McDecisionFixture {
  cloud::Dataset ds;
  core::OptimizationProblem problem;
  std::vector<core::ConstraintDef> constraints;
  eval::TableRunner runner;
  core::MetricRecordingRunner recorder;
  core::LoopState st;
  std::vector<std::uint32_t> rows;
  std::vector<double> y_cost;
  std::vector<std::vector<double>> y_metric;
  std::vector<char> feasible;

  static double energy_of(const cloud::Dataset& d, space::ConfigId id) {
    return 0.05 * d.runtime(id) * (1.0 + 0.1 * static_cast<double>(id % 7));
  }

  static double memory_of(const cloud::Dataset& d, space::ConfigId id) {
    return 0.02 * d.runtime(id) * (1.0 + 0.05 * static_cast<double>(id % 5));
  }

  static std::vector<core::ConstraintDef> make_constraints(
      const cloud::Dataset& d, std::size_t n_constraints) {
    double min_energy = 1e300;
    double min_memory = 1e300;
    for (space::ConfigId id = 0; id < d.size(); ++id) {
      if (d.feasible(id)) {
        min_energy = std::min(min_energy, energy_of(d, id));
        min_memory = std::min(min_memory, memory_of(d, id));
      }
    }
    core::ConstraintDef c;
    c.name = "energy";
    c.metric_index = 0;
    const double cap = 1.5 * min_energy;
    c.threshold = [cap](core::ConfigId) { return cap; };
    std::vector<core::ConstraintDef> out = {c};
    if (n_constraints >= 2) {
      core::ConstraintDef m;
      m.name = "memory";
      m.metric_index = 1;
      const double mcap = 1.6 * min_memory;
      m.threshold = [mcap](core::ConfigId) { return mcap; };
      out.push_back(m);
    }
    return out;
  }

  explicit McDecisionFixture(int space_idx, std::size_t n_constraints = 1)
      : ds(decision_dataset(space_idx)),
        problem(eval::make_problem(ds, 3.0)),
        constraints(make_constraints(ds, n_constraints)),
        runner(ds,
               [this](space::ConfigId id) {
                 return std::vector<double>{energy_of(ds, id),
                                            memory_of(ds, id)};
               }),
        recorder(runner, constraints.size()),
        st(problem, runner, 5) {
    st.runner = &recorder;
    st.bootstrap();
    for (std::size_t i = 0; i < st.samples.size(); ++i) {
      rows.push_back(st.samples[i].id);
      y_cost.push_back(st.samples[i].cost);
    }
    y_metric.resize(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (std::size_t i = 0; i < st.samples.size(); ++i) {
        y_metric[c].push_back(
            recorder.metrics()[i][constraints[c].metric_index]);
      }
    }
    for (std::size_t i = 0; i < st.samples.size(); ++i) {
      bool ok = st.samples[i].feasible;
      for (const auto& c : constraints) {
        if (recorder.metrics()[i][c.metric_index] >
            c.threshold(st.samples[i].id)) {
          ok = false;
        }
      }
      feasible.push_back(ok ? 1 : 0);
    }
  }

  [[nodiscard]] core::MultiConstraintEngine::Options engine_options(
      unsigned la, bool incremental = false) const {
    core::MultiConstraintEngine::Options opts;
    opts.lookahead = la;
    opts.incremental_refit = incremental;
    for (const auto& c : constraints) opts.thresholds.push_back(c.threshold);
    return opts;
  }

  [[nodiscard]] core::MultiConstraintOptions naive_options(unsigned la) const {
    core::MultiConstraintOptions opts;
    opts.lookahead = la;
    return opts;
  }
};

/// One full decision on the engine: root fits, Γ filter,
/// one simulated joint-speculation path per viable root.
double mc_engine_decision(McDecisionFixture& fx,
                          core::MultiConstraintEngine& engine,
                          std::uint64_t iter) {
  engine.begin_decision(fx.rows, fx.y_cost, fx.y_metric, fx.feasible,
                        fx.st.budget.remaining(), util::derive_seed(5, iter));
  double acc = 0.0;
  for (core::ConfigId r : engine.viable()) {
    acc += engine.simulate(r, util::derive_seed(5, iter * 1000003ULL + r))
               .cost;
  }
  return acc;
}

/// The same decision through the naive copy-based reference.
double mc_naive_decision(McDecisionFixture& fx,
                         core::reference::McSimulator& sim,
                         const core::MultiConstraintOptions& opts,
                         std::uint64_t iter) {
  core::reference::McState root;
  root.rows = fx.rows;
  root.y_cost = fx.y_cost;
  root.y_metric = fx.y_metric;
  root.sample_feasible = fx.feasible;
  root.tested.assign(fx.problem.space->size(), 0);
  for (std::uint32_t id : fx.rows) root.tested[id] = 1;
  root.beta = fx.st.budget.remaining();

  core::reference::McCtx ctx;
  sim.build_ctx(root, ctx, util::derive_seed(5, iter));
  double acc = 0.0;
  for (std::size_t id = 0; id < fx.problem.space->size(); ++id) {
    if (root.tested[id] != 0) continue;
    if (core::prob_within(root.beta, ctx.cost_preds[id]) <
        opts.feasibility_quantile) {
      continue;
    }
    acc += sim.explore(root, ctx, static_cast<core::ConfigId>(id),
                       opts.lookahead,
                       util::derive_seed(5, iter * 1000003ULL + id))
               .cost;
  }
  return acc;
}

void BM_MultiConstraintDecision(benchmark::State& state) {
  McDecisionFixture fx(static_cast<int>(state.range(0)));
  const auto la = static_cast<unsigned>(state.range(1));
  core::MultiConstraintEngine engine(
      fx.problem, fx.engine_options(la),
      core::default_tree_model_factory(*fx.problem.space), 1);
  std::uint64_t iter = 0;
  std::uint64_t allocs = 0;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    ++iter;
    const util::AllocCountGuard guard;
    benchmark::DoNotOptimize(mc_engine_decision(fx, engine, iter));
    if (iter > 1) {  // first iteration warms the buffers
      allocs += guard.delta();
      ++decisions;
    }
  }
  state.counters["allocs_per_decision"] =
      decisions > 0
          ? static_cast<double>(allocs) / static_cast<double>(decisions)
          : 0.0;
}
// §4.4 simulates every viable root (no screening), so a TensorFlow-space
// LA=2 decision runs minutes under the naive path — both twins stop at
// LA=1 there and cover LA=2 on the smaller Scout space.
BENCHMARK(BM_MultiConstraintDecision)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Unit(benchmark::kMillisecond);

void BM_MultiConstraintDecisionNaive(benchmark::State& state) {
  McDecisionFixture fx(static_cast<int>(state.range(0)));
  const auto la = static_cast<unsigned>(state.range(1));
  const core::MultiConstraintOptions opts = fx.naive_options(la);
  core::reference::McSimulator sim(
      fx.problem, fx.constraints, opts,
      core::default_tree_model_factory(*fx.problem.space));
  std::uint64_t iter = 0;
  for (auto _ : state) {
    ++iter;
    benchmark::DoNotOptimize(mc_naive_decision(fx, sim, opts, iter));
  }
}
BENCHMARK(BM_MultiConstraintDecisionNaive)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Unit(benchmark::kMillisecond);

/// Decision-time percentiles per (space, lookahead), written as JSON for
/// BENCH_micro.json.
struct DecisionStats {
  int space_idx;
  unsigned lookahead;
  std::size_t decisions;
  double mean_ms, p50_ms, p90_ms, p99_ms;
  double allocs_per_decision;
};

DecisionStats measure_decision(int space_idx, unsigned lookahead,
                               std::size_t reps, bool incremental = false) {
  const auto ds = decision_dataset(space_idx);
  const auto problem = eval::make_problem(ds, 3.0);
  eval::TableRunner runner(ds);
  core::LoopState st(problem, runner, 5);
  st.bootstrap();
  core::LookaheadEngine::Options opts;
  opts.lookahead = lookahead;
  opts.incremental_refit = incremental;
  core::LookaheadEngine engine(problem, opts,
                               core::default_tree_model_factory(*problem.space),
                               1);
  std::vector<core::ConfigId> roots;
  std::vector<double> ms;
  ms.reserve(reps);
  std::uint64_t allocs = 0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    const util::AllocCountGuard guard;
    const auto t0 = std::chrono::steady_clock::now();
    engine.begin_decision(st.samples, st.budget.remaining(),
                          util::derive_seed(5, rep + 1));
    engine.screened_roots(24, roots);
    double acc = 0.0;
    for (core::ConfigId r : roots) {
      acc += engine
                 .simulate(r, util::derive_seed(5, (rep + 1) * 1000003ULL + r))
                 .cost;
    }
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t delta = guard.delta();
    if (rep == 0) continue;
    allocs += delta;
    ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  const auto pct = [&](double p) {
    const auto i = static_cast<std::size_t>(p * (ms.size() - 1) + 0.5);
    return ms[std::min(i, ms.size() - 1)];
  };
  double mean = 0.0;
  for (double v : ms) mean += v;
  mean /= static_cast<double>(ms.size());
  return {space_idx, lookahead, ms.size(), mean,
          pct(0.50), pct(0.90), pct(0.99),
          static_cast<double>(allocs) / static_cast<double>(ms.size())};
}

/// Percentile over a sorted sample (nearest-rank with rounding).
double percentile(const std::vector<double>& sorted, double p) {
  const auto i = static_cast<std::size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Multi-constraint decision percentiles for one implementation.
struct McStats {
  double p50_ms = 0.0;
  double mean_ms = 0.0;
  double allocs_per_decision = 0.0;
};

McStats measure_mc_decision(int space_idx, unsigned la, std::size_t reps,
                            bool naive, bool incremental = false,
                            std::size_t n_constraints = 1) {
  McDecisionFixture fx(space_idx, n_constraints);
  core::MultiConstraintEngine engine(
      fx.problem, fx.engine_options(la, incremental),
      core::default_tree_model_factory(*fx.problem.space), 1);
  const core::MultiConstraintOptions opts = fx.naive_options(la);
  core::reference::McSimulator sim(
      fx.problem, fx.constraints, opts,
      core::default_tree_model_factory(*fx.problem.space));
  std::vector<double> ms;
  ms.reserve(reps);
  std::uint64_t allocs = 0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    const util::AllocCountGuard guard;
    const auto t0 = std::chrono::steady_clock::now();
    const double acc = naive ? mc_naive_decision(fx, sim, opts, rep + 1)
                             : mc_engine_decision(fx, engine, rep + 1);
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t delta = guard.delta();
    if (rep == 0) continue;
    allocs += delta;
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  McStats s;
  s.p50_ms = percentile(ms, 0.50);
  for (double v : ms) s.mean_ms += v;
  s.mean_ms /= static_cast<double>(ms.size());
  s.allocs_per_decision =
      static_cast<double>(allocs) / static_cast<double>(ms.size());
  return s;
}

/// Decision-cache reuse: the p50 of re-running the *same* decision
/// (a fresh stepper reaching an identical state), which hits the cache
/// and skips the root fit, the predictions and every path simulation.
/// Also reports the observed hit count.
struct CachedStats {
  double p50_ms = 0.0;
  std::uint64_t cache_hits = 0;
};

CachedStats measure_cached_decision(int space_idx, unsigned la,
                                    std::size_t reps) {
  const auto ds = decision_dataset(space_idx);
  const auto problem = eval::make_problem(ds, 3.0);
  core::RootCache cache(core::RootCache::Options{64});
  core::LynceusOptions opts;
  opts.lookahead = la;
  opts.screen_width = 24;
  opts.root_cache = &cache;
  const core::LynceusOptimizer lyn(opts);
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 warms the cache
    auto stepper = lyn.make_stepper(problem, 5);
    eval::TableRunner runner(ds);
    const std::vector<core::ConfigId> batch = stepper->ask().configs;
    for (core::ConfigId id : batch) stepper->tell(id, runner.run(id));
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(stepper->ask().configs.front());
    const auto t1 = std::chrono::steady_clock::now();
    if (rep == 0) continue;
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return {percentile(ms, 0.50), cache.stats().hits};
}

/// Pooled decision: identical work to measure_decision but with the root
/// simulations fanned out across a default-sized thread pool (ROADMAP
/// "Thread-pool fan-out by default"). Trajectory-neutral; on a 1-core host
/// the pool runs inline and this tracks the pool overhead instead.
struct PooledStats {
  double p50_ms = 0.0;
  std::size_t workers = 0;
};

PooledStats measure_pooled_decision(int space_idx, unsigned la,
                                    std::size_t reps) {
  const auto ds = decision_dataset(space_idx);
  const auto problem = eval::make_problem(ds, 3.0);
  eval::TableRunner runner(ds);
  core::LoopState st(problem, runner, 5);
  st.bootstrap();
  util::ThreadPool pool(util::default_worker_count());
  core::LookaheadEngine::Options opts;
  opts.lookahead = la;
  core::LookaheadEngine engine(problem, opts,
                               core::default_tree_model_factory(*problem.space),
                               pool.worker_count() + 1);
  std::vector<core::ConfigId> roots;
  std::vector<double> costs;
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    engine.begin_decision(st.samples, st.budget.remaining(),
                          util::derive_seed(5, rep + 1));
    engine.screened_roots(24, roots);
    costs.assign(roots.size(), 0.0);
    util::maybe_parallel_for(&pool, roots.size(), [&](std::size_t i) {
      costs[i] =
          engine
              .simulate(roots[i],
                        util::derive_seed(5, (rep + 1) * 1000003ULL + roots[i]))
              .cost;
    });
    double acc = 0.0;
    for (double c : costs) acc += c;
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    if (rep == 0) continue;
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return {percentile(ms, 0.50), pool.worker_count()};
}

/// Decision-scaling measurement (ROADMAP "Multi-core decision scaling
/// numbers"): one full decision with the root simulations optionally
/// fanned out across a `workers`-thread pool and/or the intra-root
/// depth-0 branch fan-out parallelized over the same pool
/// (LookaheadEngine::Options::branch_pool). Every mode is
/// trajectory-neutral (pooled-determinism contract in core/lookahead.hpp),
/// so the timings are directly comparable.
double measure_scaling_decision(int space_idx, unsigned la, std::size_t reps,
                                std::size_t workers, bool roots_parallel,
                                bool branch_parallel) {
  const auto ds = decision_dataset(space_idx);
  const auto problem = eval::make_problem(ds, 3.0);
  eval::TableRunner runner(ds);
  core::LoopState st(problem, runner, 5);
  st.bootstrap();
  util::ThreadPool pool(workers);
  core::LookaheadEngine::Options opts;
  opts.lookahead = la;
  opts.branch_pool = branch_parallel ? &pool : nullptr;
  core::LookaheadEngine engine(problem, opts,
                               core::default_tree_model_factory(*problem.space),
                               pool.worker_count() + 1);
  util::ThreadPool* root_pool = roots_parallel ? &pool : nullptr;
  std::vector<core::ConfigId> roots;
  std::vector<double> costs;
  std::vector<double> ms;
  ms.reserve(reps);
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    const auto t0 = std::chrono::steady_clock::now();
    engine.begin_decision(st.samples, st.budget.remaining(),
                          util::derive_seed(5, rep + 1));
    engine.screened_roots(24, roots);
    costs.assign(roots.size(), 0.0);
    util::maybe_parallel_for(root_pool, roots.size(), [&](std::size_t i) {
      costs[i] =
          engine
              .simulate(roots[i],
                        util::derive_seed(5, (rep + 1) * 1000003ULL + roots[i]))
              .cost;
    });
    double acc = 0.0;
    for (double c : costs) acc += c;
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    if (rep == 0) continue;
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return percentile(ms, 0.50);
}

/// TuningService throughput: N concurrent Lynceus sessions of one
/// recurrent job (same seed — the scenario the shared decision cache
/// exists for) drained end-to-end against the simulated-async replay
/// runner. Reports decision throughput: total decisions across all
/// sessions over the wall-clock of the whole drain, with the decision
/// cache shared across sessions or per-session. Per-session trajectories are
/// bit-identical in every mode (ask/tell + cache determinism contracts),
/// so the numbers compare directly.
struct SessionThroughputStats {
  std::size_t decisions = 0;   ///< per drain, summed over sessions
  double ms_per_decision = 0.0;  ///< median over reps
  double decisions_per_sec = 0.0;
};

/// The median over the timed reps' ms/decision, and its rate.
SessionThroughputStats session_stats(std::vector<double> ms_per_decision,
                                     std::size_t decisions) {
  std::sort(ms_per_decision.begin(), ms_per_decision.end());
  SessionThroughputStats out;
  out.decisions = decisions;
  out.ms_per_decision = percentile(ms_per_decision, 0.50);
  out.decisions_per_sec =
      out.ms_per_decision > 0.0 ? 1000.0 / out.ms_per_decision : 0.0;
  return out;
}

SessionThroughputStats measure_session_throughput(std::size_t sessions,
                                                  bool shared_cache,
                                                  std::size_t reps) {
  const auto ds = decision_dataset(1);  // Scout: realistic small job
  const auto problem = eval::make_problem(ds, 3.0);
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.screen_width = 24;
  opts.incremental_refit = false;

  std::vector<double> ms_per_decision;
  std::size_t decisions = 0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    service::TuningService::Options sopts;
    sopts.root_cache_capacity = shared_cache ? 16 : 0;
    // Per-session caches in the unshared mode: every session still gets
    // the cache machinery, just no cross-session reuse. Declared before
    // the service so the caches outlive the steppers pointing at them
    // (the make_stepper lifetime contract).
    std::vector<std::unique_ptr<core::RootCache>> own_caches;
    service::TuningService svc(sopts);
    std::vector<service::SessionId> ids;
    for (std::size_t s = 0; s < sessions; ++s) {
      core::LynceusOptions per = opts;
      if (!shared_cache) {
        core::RootCache::Options copts;
        copts.capacity = 16;
        own_caches.push_back(std::make_unique<core::RootCache>(copts));
        per.root_cache = own_caches.back().get();
        ids.push_back(
            svc.open(core::LynceusOptimizer(per).make_stepper(problem, 5)));
      } else {
        ids.push_back(
            svc.open_session(service::SessionSpec::lynceus(problem, per, 5)));
      }
    }
    eval::AsyncTableRunner async(ds);
    const auto t0 = std::chrono::steady_clock::now();
    service::drain(svc, async);
    const auto t1 = std::chrono::steady_clock::now();
    decisions = 0;
    for (const auto id : ids) decisions += svc.result(id).decisions;
    if (rep == 0) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ms_per_decision.push_back(ms / static_cast<double>(decisions));
  }
  return session_stats(std::move(ms_per_decision), decisions);
}

/// Inter-session scaling: N concurrent Lynceus sessions with *distinct*
/// seeds — independent jobs, the fleet scenario — drained either by the
/// single-threaded FIFO loop (workers == 0, the baseline) or by the
/// sharded drain on `workers` threads (workers >= 1; session s on shard
/// s % workers, each shard a FIFO service with its own runner). No root
/// cache and no decision pool in either mode, so the comparison is pure
/// scheduling; per-session trajectories are byte-identical across all
/// modes, so decisions/s compares the same work.
SessionThroughputStats measure_session_scaling(std::size_t sessions,
                                               std::size_t workers,
                                               std::size_t reps) {
  const auto ds = decision_dataset(1);  // Scout: realistic small job
  const auto problem = eval::make_problem(ds, 3.0);
  core::LynceusOptions opts;
  opts.lookahead = 1;
  opts.screen_width = 24;
  opts.incremental_refit = false;

  std::vector<double> ms_per_decision;
  std::size_t decisions = 0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    const std::size_t shards = std::max<std::size_t>(workers, 1);
    std::vector<service::TuningService> svcs(shards);
    std::vector<eval::AsyncTableRunner> runners(shards,
                                                eval::AsyncTableRunner(ds));
    std::vector<service::SessionId> ids;
    for (std::size_t s = 0; s < sessions; ++s) {
      ids.push_back(svcs[s % shards].open_session(
          service::SessionSpec::lynceus(problem, opts, s + 1)));
    }
    const auto t0 = std::chrono::steady_clock::now();
    // One shard is exactly the FIFO drain() on this thread.
    service::drain_sharded(svcs, runners);
    const auto t1 = std::chrono::steady_clock::now();
    decisions = 0;
    for (std::size_t s = 0; s < sessions; ++s) {
      decisions += svcs[s % shards].result(ids[s]).decisions;
    }
    if (rep == 0) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ms_per_decision.push_back(ms / static_cast<double>(decisions));
  }
  return session_stats(std::move(ms_per_decision), decisions);
}

/// Network front-end throughput (src/net/): N concurrent remote Lynceus
/// sessions — distinct seeds, the fleet scenario — spread over
/// `clients` loopback TCP connections against a `shards`-shard
/// TuningServer, each client draining its sessions against the
/// simulated-async replay runner. Reports the decision throughput of the
/// whole distributed drain (total decisions over wall-clock, comparable
/// to session_scaling's in-process numbers — the gap is the wire tax)
/// and the client-observed tell round-trip latency (send tell → told
/// reply, the ask/tell hot path of a remote driver).
struct NetThroughputStats {
  std::size_t decisions = 0;     ///< per drain, summed over sessions
  double ms_per_decision = 0.0;  ///< median over reps
  double decisions_per_sec = 0.0;
  double tell_p50_ms = 0.0;  ///< round-trip latency over all tells, all reps
  double tell_p99_ms = 0.0;
};

NetThroughputStats measure_net_throughput(std::size_t sessions,
                                          std::size_t clients,
                                          std::size_t shards,
                                          std::size_t reps,
                                          net::TuningClient::WireMode wire) {
  const auto ds = decision_dataset(1);  // Scout: realistic small job
  const auto problem = eval::make_problem(ds, 3.0);
  const std::size_t per_client = sessions / clients;

  std::vector<double> ms_per_decision;
  std::vector<double> tell_ms;
  std::size_t decisions = 0;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    net::TuningServer::Options sopts;
    sopts.shards = shards;
    sopts.root_cache_capacity = 16;
    net::TuningServer server(sopts);
    server.register_problem("bench", "recurrent", problem);

    std::vector<std::size_t> client_decisions(clients, 0);
    std::vector<std::vector<double>> client_tell_ms(clients);
    std::vector<std::thread> drivers;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      drivers.emplace_back([&, c] {
        net::TuningClient client("127.0.0.1", server.port(),
                                 net::kDefaultMaxFrameBytes, wire);
        eval::AsyncTableRunner runner(ds);
        const auto submit = [&](const service::PendingRun& run) {
          eval::AsyncTableRunner::SubmitOptions o;
          o.timeout_seconds = run.timeout_seconds;
          o.attempt = run.attempt;
          o.start_delay = run.start_delay;
          runner.submit(run.session, run.config, o);
        };
        std::vector<std::uint64_t> ids;
        for (std::size_t k = 0; k < per_client; ++k) {
          service::SessionSpec spec;
          spec.optimizer = "lynceus";
          spec.seed = 1 + c * per_client + k;
          spec.lookahead = 1;
          spec.screen_width = 24;
          spec.incremental_refit = false;
          spec.branch_parallel = false;
          spec.problem_ref = service::ProblemRef{"bench", "recurrent", 3.0};
          ids.push_back(client.open(spec));
        }
        // TuningClient::drain(), inlined so each tell round trip is timed.
        std::size_t outstanding = 0;
        while (!client.active_sessions().empty()) {
          while (auto run = client.take_run(/*wait=*/false)) {
            submit(*run);
            ++outstanding;
          }
          if (outstanding == 0) {
            // Nothing local: block until the server pushes the next run.
            const auto run = client.take_run(/*wait=*/true);
            if (!run.has_value()) break;
            submit(*run);
            ++outstanding;
            continue;
          }
          const auto done = runner.next_completion();
          if (!done.has_value()) break;
          --outstanding;
          if (client.active_sessions().count(done->tag) == 0) continue;
          const auto s0 = std::chrono::steady_clock::now();
          (void)client.tell(done->tag, done->config, done->result);
          const auto s1 = std::chrono::steady_clock::now();
          client_tell_ms[c].push_back(
              std::chrono::duration<double, std::milli>(s1 - s0).count());
        }
        for (const std::uint64_t id : ids) {
          client_decisions[c] += client.result(id).result.decisions;
          client.close_session(id);
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    decisions = 0;
    for (const std::size_t d : client_decisions) decisions += d;
    if (rep == 0) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    ms_per_decision.push_back(ms / static_cast<double>(decisions));
    for (const auto& v : client_tell_ms) {
      tell_ms.insert(tell_ms.end(), v.begin(), v.end());
    }
  }
  std::sort(ms_per_decision.begin(), ms_per_decision.end());
  std::sort(tell_ms.begin(), tell_ms.end());
  NetThroughputStats out;
  out.decisions = decisions;
  out.ms_per_decision = percentile(ms_per_decision, 0.50);
  out.decisions_per_sec =
      out.ms_per_decision > 0.0 ? 1000.0 / out.ms_per_decision : 0.0;
  out.tell_p50_ms = percentile(tell_ms, 0.50);
  out.tell_p99_ms = percentile(tell_ms, 0.99);
  return out;
}

/// Flat-layout (SoA) ensemble prediction vs the scalar node walk: p50 of
/// predicting every row of the space through predict_all (the flat batch
/// routes) against a per-row predict() loop over the same fitted ensemble.
/// The two are bitwise-identical by contract (`ctest -L simd`), so this is
/// purely the throughput ratio of the layouts. Also re-measures the LA=2
/// decision p50 (the lookahead engine is the main consumer of the batch
/// routes), so compare_bench.py can gate the end-to-end effect.
struct SoaPredictStats {
  double node_walk_p50_ms = 0.0;
  double soa_p50_ms = 0.0;
};

SoaPredictStats time_soa_predict(const model::FeatureMatrix& fm,
                                 model::BaggingEnsemble& ens,
                                 std::size_t reps) {
  std::vector<model::Prediction> preds(fm.rows());
  std::vector<double> walk_ms;
  std::vector<double> soa_ms;
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // rep 0 = warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < fm.rows(); ++r) {
      preds[r] = ens.predict(fm, r);
    }
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(preds.data());
    const double walk =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    t0 = std::chrono::steady_clock::now();
    ens.predict_all(fm, preds);
    t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(preds.data());
    const double soa =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0) continue;
    walk_ms.push_back(walk);
    soa_ms.push_back(soa);
  }
  std::sort(walk_ms.begin(), walk_ms.end());
  std::sort(soa_ms.begin(), soa_ms.end());
  SoaPredictStats s;
  s.node_walk_p50_ms = percentile(walk_ms, 0.50);
  s.soa_p50_ms = percentile(soa_ms, 0.50);
  return s;
}

SoaPredictStats measure_soa_predict(int space_idx, std::size_t reps) {
  const auto ds = decision_dataset(space_idx);
  const model::FeatureMatrix fm(ds.space());
  util::Rng rng(13);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(fm.rows()));
    rows.push_back(id);
    y.push_back(ds.cost(id));
  }
  model::BaggingEnsemble ens;
  ens.fit(fm, rows, y, 7);
  return time_soa_predict(fm, ens, reps);
}

/// Same measurement over a synthetic a×b grid: the real decision spaces
/// top out at 384 rows (tensorflow_cnn) and 69 rows (scout — small enough
/// that the whole ensemble walk is L1-resident and the batch layout can
/// only win ~1.5×), so this entry pins the speedup in the regime the
/// paper's lookahead actually stresses: spaces big enough that per-row
/// pointer walks thrash while the flat routes stream.
SoaPredictStats measure_soa_predict_grid(std::size_t a_levels,
                                         std::size_t b_levels,
                                         std::size_t reps) {
  std::vector<double> a(a_levels);
  std::vector<double> b(b_levels);
  for (std::size_t i = 0; i < a_levels; ++i) a[i] = static_cast<double>(i);
  for (std::size_t i = 0; i < b_levels; ++i) b[i] = static_cast<double>(i);
  const space::ConfigSpace grid("grid", {space::numeric_param("a", a),
                                         space::numeric_param("b", b)});
  const model::FeatureMatrix fm(grid);
  util::Rng noise(13);
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::size_t i = 0; i < 400; ++i) {
    rows.push_back(static_cast<std::uint32_t>(noise.below(fm.rows())));
    y.push_back(noise.normal());
  }
  model::BaggingEnsemble ens;
  ens.fit(fm, rows, y, 7);
  return time_soa_predict(fm, ens, reps);
}

/// Writes the decision-time summary. `sections` selects which measurement
/// sections to run and emit (empty = all): the CI scaling leg passes
/// `decision_scaling` alone so it does not pay for minutes of unrelated
/// measurements it immediately discards. Consumers tolerate missing
/// sections (tools/compare_bench.py skips them with a note).
bool write_json_summary(const std::string& path,
                        const std::set<std::string>& sections) {
  const auto want = [&](const char* name) {
    return sections.empty() || sections.count(name) > 0;
  };
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_decision");
  w.key("unit").value("ms");
  w.key("alloc_counting").value(util::alloc_count_available());
  if (want("spaces")) {
  w.key("spaces").begin_array();
  for (int space_idx = 0; space_idx < 2; ++space_idx) {
    const auto ds = decision_dataset(space_idx);
    w.begin_object();
    w.key("space").value(decision_space_name(space_idx));
    w.key("size").value(static_cast<std::uint64_t>(ds.space().size()));
    w.key("lookahead").begin_array();
    for (unsigned la = 0; la <= 2; ++la) {
      const std::size_t reps = la >= 2 ? 15 : 40;
      const auto s = measure_decision(space_idx, la, reps);
      w.begin_object();
      w.key("la").value(static_cast<std::uint64_t>(la));
      w.key("decisions").value(static_cast<std::uint64_t>(s.decisions));
      w.key("mean_ms").value(s.mean_ms);
      w.key("p50_ms").value(s.p50_ms);
      w.key("p90_ms").value(s.p90_ms);
      w.key("p99_ms").value(s.p99_ms);
      w.key("allocs_per_decision").value(s.allocs_per_decision);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  }

  // Multi-constraint decisions: the naive copy-based reference vs the
  // delta-state engine, identical decision replayed by both.
  if (want("multi_constraint")) {
  w.key("multi_constraint").begin_array();
  struct McCase {
    int space_idx;
    unsigned la;
    std::size_t reps;
  };
  const McCase mc_cases[] = {
      {0, 0, 20}, {0, 1, 6}, {1, 0, 30}, {1, 1, 20}, {1, 2, 8}};
  for (const auto& mc : mc_cases) {
    const auto naive = measure_mc_decision(mc.space_idx, mc.la, mc.reps, true);
    const auto engine =
        measure_mc_decision(mc.space_idx, mc.la, mc.reps, false);
    w.begin_object();
    w.key("space").value(decision_space_name(mc.space_idx));
    w.key("la").value(static_cast<std::uint64_t>(mc.la));
    w.key("decisions").value(static_cast<std::uint64_t>(mc.reps));
    w.key("naive_p50_ms").value(naive.p50_ms);
    w.key("engine_p50_ms").value(engine.p50_ms);
    w.key("speedup_p50").value(
        engine.p50_ms > 0.0 ? naive.p50_ms / engine.p50_ms : 0.0);
    w.key("engine_allocs_per_decision").value(engine.allocs_per_decision);
    w.end_object();
  }
  w.end_array();
  }

  // Incremental ensemble refit vs the bitwise-pinned from-scratch engine,
  // identical decision replayed by both (ROADMAP "Incremental ensemble
  // refit"). Only la >= 1: a la-0 decision refits no branch model at all.
  if (want("incremental_refit")) {
  w.key("incremental_refit").begin_array();
  struct IncCase {
    int space_idx;
    unsigned la;
    std::size_t reps;
  };
  const IncCase inc_cases[] = {{0, 1, 40}, {0, 2, 15}, {1, 1, 40}, {1, 2, 15}};
  for (const auto& c : inc_cases) {
    const auto scratch = measure_decision(c.space_idx, c.la, c.reps, false);
    const auto inc = measure_decision(c.space_idx, c.la, c.reps, true);
    w.begin_object();
    w.key("space").value(decision_space_name(c.space_idx));
    w.key("la").value(static_cast<std::uint64_t>(c.la));
    w.key("decisions").value(static_cast<std::uint64_t>(c.reps));
    w.key("scratch_p50_ms").value(scratch.p50_ms);
    w.key("p50_ms").value(inc.p50_ms);
    w.key("speedup_p50").value(inc.p50_ms > 0.0 ? scratch.p50_ms / inc.p50_ms
                                                : 0.0);
    w.key("allocs_per_decision").value(inc.allocs_per_decision);
    w.end_object();
  }
  // Multi-constraint incremental refit (ROADMAP "Incremental refit for
  // the multi-constraint TF-scale bench"): Scout, 1 and 2 constraints,
  // LA 1/2 — the identical decision replayed with from-scratch vs
  // incremental per-branch refits of all I+1 ensembles. Entries carry a
  // "constraints" key, which is how consumers (tools/compare_bench.py)
  // tell them apart from the single-constraint cases above.
  struct McIncCase {
    int space_idx;
    std::size_t constraints;
    unsigned la;
    std::size_t reps;
  };
  const McIncCase mc_inc_cases[] = {
      {1, 1, 1, 20}, {1, 1, 2, 8}, {1, 2, 1, 12}, {1, 2, 2, 5}};
  for (const auto& c : mc_inc_cases) {
    const auto scratch = measure_mc_decision(c.space_idx, c.la, c.reps,
                                             false, false, c.constraints);
    const auto inc = measure_mc_decision(c.space_idx, c.la, c.reps, false,
                                         true, c.constraints);
    w.begin_object();
    w.key("space").value(decision_space_name(c.space_idx));
    w.key("constraints").value(static_cast<std::uint64_t>(c.constraints));
    w.key("la").value(static_cast<std::uint64_t>(c.la));
    w.key("decisions").value(static_cast<std::uint64_t>(c.reps));
    w.key("scratch_p50_ms").value(scratch.p50_ms);
    w.key("p50_ms").value(inc.p50_ms);
    w.key("speedup_p50").value(inc.p50_ms > 0.0 ? scratch.p50_ms / inc.p50_ms
                                                : 0.0);
    w.key("allocs_per_decision").value(inc.allocs_per_decision);
    w.end_object();
  }
  w.end_array();
  }

  // Flat-layout (SoA) batch prediction vs the scalar node walk, plus the
  // LA=2 decision p50 it feeds (see measure_soa_predict).
  if (want("soa_predict")) {
  w.key("soa_predict").begin_array();
  for (int space_idx = 0; space_idx < 2; ++space_idx) {
    const auto s = measure_soa_predict(space_idx, 30);
    const auto d = measure_decision(space_idx, 2, 10);
    w.begin_object();
    w.key("space").value(decision_space_name(space_idx));
    w.key("node_walk_p50_ms").value(s.node_walk_p50_ms);
    w.key("soa_p50_ms").value(s.soa_p50_ms);
    w.key("speedup_p50").value(
        s.soa_p50_ms > 0.0 ? s.node_walk_p50_ms / s.soa_p50_ms : 0.0);
    w.key("decision_la2_p50_ms").value(d.p50_ms);
    w.end_object();
  }
  {
    // Synthetic 64×64 grid (4096 rows): the regime the flat layout is
    // for — no decision dataset exists over it, so no decision_la2 key
    // (compare_bench.py treats that key as optional).
    const auto s = measure_soa_predict_grid(64, 64, 30);
    w.begin_object();
    w.key("space").value("grid_64x64");
    w.key("node_walk_p50_ms").value(s.node_walk_p50_ms);
    w.key("soa_p50_ms").value(s.soa_p50_ms);
    w.key("speedup_p50").value(
        s.soa_p50_ms > 0.0 ? s.node_walk_p50_ms / s.soa_p50_ms : 0.0);
    w.end_object();
  }
  w.end_array();
  }

  // Decision-cache reuse of a repeated decision, plus the hit counters.
  if (want("cached_decision")) {
  w.key("cached_decision").begin_array();
  for (unsigned la = 0; la <= 1; ++la) {
    const auto c = measure_cached_decision(0, la, 20);
    w.begin_object();
    w.key("space").value(decision_space_name(0));
    w.key("la").value(static_cast<std::uint64_t>(la));
    w.key("p50_ms").value(c.p50_ms);
    w.key("cache_hits").value(c.cache_hits);
    w.end_object();
  }
  w.end_array();
  }

  // Thread-pool fan-out across root simulations.
  if (want("pooled_decision")) {
  w.key("pooled_decision").begin_array();
  {
    const auto p = measure_pooled_decision(0, 2, 15);
    w.begin_object();
    w.key("space").value(decision_space_name(0));
    w.key("la").value(std::uint64_t{2});
    w.key("workers").value(static_cast<std::uint64_t>(p.workers));
    w.key("p50_ms").value(p.p50_ms);
    w.end_object();
  }
  w.end_array();
  }

  // TuningService decision throughput at 1/8/64 concurrent sessions of a
  // recurrent job, shared vs per-session root cache (see
  // measure_session_throughput).
  if (want("session_throughput")) {
  w.key("session_throughput").begin_array();
  for (const std::size_t sessions : {std::size_t{1}, std::size_t{8},
                                     std::size_t{64}}) {
    for (const bool shared : {true, false}) {
      const std::size_t reps = sessions >= 64 ? 2 : 4;
      const auto s = measure_session_throughput(sessions, shared, reps);
      w.begin_object();
      w.key("space").value(decision_space_name(1));
      w.key("optimizer").value("lynceus_la1");
      w.key("sessions").value(static_cast<std::uint64_t>(sessions));
      w.key("cache").value(shared ? "shared" : "per-session");
      w.key("decisions").value(static_cast<std::uint64_t>(s.decisions));
      w.key("ms_per_decision").value(s.ms_per_decision);
      w.key("decisions_per_sec").value(s.decisions_per_sec);
      w.end_object();
    }
  }
  w.end_array();
  }

  // Inter-session scaling: decisions/s at 8/64 concurrent sessions,
  // FIFO loop (workers == 0) vs the sharded drain on workers in
  // {1, nproc} threads (deduplicated; see measure_session_scaling).
  // speedup_vs_w0 compares the same session count's FIFO entry.
  // tools/scaling_gate.py hard-gates the 64-session curve on multi-core
  // CI; tools/compare_bench.py skips the workers == 0 entries.
  if (want("session_scaling")) {
  w.key("session_scaling").begin_array();
  {
    // nproc = the pool default plus the calling thread.
    std::vector<std::size_t> worker_counts = {
        0, 1, util::default_worker_count() + 1};
    worker_counts.erase(
        std::unique(worker_counts.begin(), worker_counts.end()),
        worker_counts.end());
    for (const std::size_t sessions : {std::size_t{8}, std::size_t{64}}) {
      double w0_dps = 0.0;
      for (const std::size_t workers : worker_counts) {
        const std::size_t reps = sessions >= 64 ? 2 : 3;
        const auto s = measure_session_scaling(sessions, workers, reps);
        if (workers == 0) w0_dps = s.decisions_per_sec;
        w.begin_object();
        w.key("space").value(decision_space_name(1));
        w.key("optimizer").value("lynceus_la1");
        w.key("sessions").value(static_cast<std::uint64_t>(sessions));
        w.key("workers").value(static_cast<std::uint64_t>(workers));
        w.key("decisions").value(static_cast<std::uint64_t>(s.decisions));
        w.key("ms_per_decision").value(s.ms_per_decision);
        w.key("decisions_per_sec").value(s.decisions_per_sec);
        w.key("speedup_vs_w0").value(
            workers > 0 && w0_dps > 0.0 && s.decisions_per_sec > 0.0
                ? s.decisions_per_sec / w0_dps
                : 0.0);
        w.end_object();
      }
    }
  }
  w.end_array();
  }

  // Network front-end throughput: remote sessions over loopback TCP
  // against the 2-shard server, each workload measured under BOTH frame
  // encodings (the wire tax the binary body removes) — decisions/s of
  // the whole distributed drain plus the client-observed tell round-trip
  // latency (see measure_net_throughput). The final case fans 64
  // sessions across 64 connections (one each) to exercise the epoll
  // transport's many-socket path rather than pipelined framing.
  if (want("net_throughput")) {
  w.key("net_throughput").begin_array();
  struct NetCase {
    std::size_t sessions;
    std::size_t clients;
    std::size_t reps;
  };
  // Reps sized for the run-to-run noise of a shared/1-core box: the
  // 64-session cases are the wire-tax acceptance numbers and get a
  // 5-rep median; the 8-session case is latency-dominated and stabler.
  const NetCase cases[] = {{8, 1, 3}, {64, 8, 5}, {64, 64, 3}};
  for (const NetCase& nc : cases) {
    for (const bool binary : {false, true}) {
      const auto s = measure_net_throughput(
          nc.sessions, nc.clients, 2, nc.reps,
          binary ? net::TuningClient::WireMode::kBinary
                 : net::TuningClient::WireMode::kJson);
      w.begin_object();
      w.key("space").value(decision_space_name(1));
      w.key("optimizer").value("lynceus_la1");
      w.key("wire").value(binary ? "binary" : "json");
      w.key("sessions").value(static_cast<std::uint64_t>(nc.sessions));
      w.key("clients").value(static_cast<std::uint64_t>(nc.clients));
      w.key("shards").value(std::uint64_t{2});
      w.key("decisions").value(static_cast<std::uint64_t>(s.decisions));
      w.key("ms_per_decision").value(s.ms_per_decision);
      w.key("decisions_per_sec").value(s.decisions_per_sec);
      w.key("tell_p50_ms").value(s.tell_p50_ms);
      w.key("tell_p99_ms").value(s.tell_p99_ms);
      w.end_object();
    }
  }
  w.end_array();
  }

  // Multi-core decision scaling (ROADMAP "Multi-core decision scaling
  // numbers"): the same LA=2 decision at workers in {0, 1, nproc-1}
  // (deduplicated), fanned out across roots only, inside each root only
  // (branch parallelism), and both. workers == 0 means an inline pool —
  // it is the serial reference, not a scaling point, and
  // tools/compare_bench.py skips such entries. speedup_vs_w1 compares the
  // same mode's workers == 1 entry (0 when that entry is the w1 entry
  // itself or missing).
  if (want("decision_scaling")) {
  w.key("decision_scaling").begin_array();
  {
    std::vector<std::size_t> worker_counts = {0, 1,
                                              util::default_worker_count()};
    std::sort(worker_counts.begin(), worker_counts.end());
    worker_counts.erase(
        std::unique(worker_counts.begin(), worker_counts.end()),
        worker_counts.end());
    struct Mode {
      const char* name;
      bool roots;
      bool branch;
    };
    const Mode modes[] = {{"roots", true, false},
                          {"branch", false, true},
                          {"roots+branch", true, true}};
    struct ScalingCase {
      int space_idx;
      unsigned la;
      std::size_t reps;
    };
    const ScalingCase cases[] = {{0, 2, 12}, {1, 2, 20}};
    for (const auto& c : cases) {
      for (const auto& mode : modes) {
        double w1_p50 = 0.0;
        for (const std::size_t workers : worker_counts) {
          const double p50 = measure_scaling_decision(
              c.space_idx, c.la, c.reps, workers, mode.roots, mode.branch);
          if (workers == 1) w1_p50 = p50;
          w.begin_object();
          w.key("space").value(decision_space_name(c.space_idx));
          w.key("la").value(static_cast<std::uint64_t>(c.la));
          w.key("mode").value(mode.name);
          w.key("workers").value(static_cast<std::uint64_t>(workers));
          w.key("decisions").value(static_cast<std::uint64_t>(c.reps));
          w.key("p50_ms").value(p50);
          w.key("speedup_vs_w1").value(
              workers > 1 && w1_p50 > 0.0 && p50 > 0.0 ? w1_p50 / p50 : 0.0);
          w.end_object();
        }
      }
    }
  }
  w.end_array();
  }
  w.end_object();

  std::ofstream out(path);
  out << w.str() << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_micro: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote decision-time summary to %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_micro.json";
  // --sections=a,b,c restricts the JSON summary to the named sections
  // (spaces, multi_constraint, incremental_refit, soa_predict,
  // cached_decision, pooled_decision, session_throughput, session_scaling,
  // net_throughput, decision_scaling); empty / absent = all.
  std::set<std::string> sections;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--sections=", 11) == 0) {
      std::stringstream ss(argv[i] + 11);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) sections.insert(name);
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty() && !write_json_summary(json_path, sections)) {
    return 1;
  }
  return 0;
}
