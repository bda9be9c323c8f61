/// trajectory_dump — prints the exploration trajectories of a fixed set of
/// optimizer runs plus an FNV-1a hash per case and one combined hash.
///
/// The output is fully deterministic (fixed workloads, fixed seeds, no
/// timing or environment dependence), so two builds of the same sources
/// must print byte-identical text. CI runs this binary from the Release
/// and the Debug/ASan build and diffs the outputs — a divergence means a
/// build-mode-dependent trajectory (uninitialized read, FP contraction,
/// UB) and fails the pipeline.
///
///   trajectory_dump [--out=PATH] [--incremental] [--branch-parallel]
///                   [--via-steps] [--shards=N] [--faults]
///
/// `--incremental` (or the LYNCEUS_INCREMENTAL_REFIT=1 environment toggle)
/// runs every case with Options::incremental_refit on. Those trajectories
/// are *also* fully deterministic (same binary, same output every run) but
/// are expected to differ from the flag-off golden ones — CI runs both
/// variants and uploads their diff as the incremental-vs-scratch artifact,
/// while the cross-build determinism check diffs like against like.
///
/// `--branch-parallel` (or LYNCEUS_BRANCH_PARALLEL=1) runs every case with
/// a thread pool, root fan-out *and* intra-root branch parallelism
/// enabled. Unlike `--incremental` this must NOT change the output: the
/// pooled-determinism contract (core/lookahead.hpp) pins pooled
/// trajectories byte-identical to serial ones, and CI diffs the
/// branch-parallel dump against the serial dump of the same build as a
/// hard check. The header line deliberately omits the flag so the files
/// compare equal.
///
/// `--via-steps` runs every case through the ask/tell stepper protocol
/// (core/stepper.hpp) instead of the optimize() entrypoint, telling each
/// batch's results back in REVERSE order. Like `--branch-parallel` this
/// must NOT change the output — the ask/tell determinism contract pins
/// stepped trajectories byte-identical to the closed loop regardless of
/// completion order — and CI diffs the via-steps dump against the classic
/// dump per build and across toolchains. The header omits this flag too.
///
/// `--shards=N` (N >= 1) runs every case as a concurrent TuningService
/// session, session i on shard i % N, drained by N threads through
/// service::drain_sharded against the asynchronous replay runner, instead
/// of the classic closed loop. Every shard is a FIFO service, so each
/// session's trajectory is byte-identical to its solo run and this dump —
/// including its `--faults` variant — must NOT change the output: CI
/// diffs the sharded dump against the classic dump per build and across
/// toolchains. The header omits this flag too. Exclusive with
/// --branch-parallel and --via-steps (mixing modes would test nothing).
///
/// `--faults` appends a fault-injection scenario: concurrent TuningService
/// sessions (on one FIFO service, or on N shards with --shards=N) fed by
/// the asynchronous replay runner under a seeded FaultPlan, with retries,
/// timeouts and quarantine active (the fault-determinism contract in
/// eval/runner.hpp). Every session's id
/// sequence, failure ledger and stop reason are printed and hashed, so CI
/// can diff the faulted dump across build modes exactly like the plain
/// one — a divergence means the failure paths, not just the happy path,
/// depend on the build.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/workloads.hpp"
#include "core/constraints.hpp"
#include "core/lynceus.hpp"
#include "core/stepper.hpp"
#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "service/tuning_service.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lynceus;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFULL;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t hash_result(const core::OptimizerResult& r) {
  std::uint64_t h = kFnvOffset;
  for (const auto& s : r.history) h = fnv1a(h, s.id);
  h = fnv1a(h, r.recommendation ? *r.recommendation + 1 : 0);
  h = fnv1a(h, r.recommendation_feasible ? 1 : 0);
  return h;
}

void print_case(std::ostringstream& out, const std::string& name,
                const core::OptimizerResult& r, std::uint64_t& combined) {
  out << name << ": ids=";
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    if (i > 0) out << ",";
    out << r.history[i].id;
  }
  const std::uint64_t h = hash_result(r);
  combined = fnv1a(combined, h);
  out << " rec=" << (r.recommendation ? static_cast<long>(*r.recommendation)
                                      : -1L)
      << " hash=" << h << "\n";
}

/// The TF-CNN cases: the LA=1 golden case and the shape of the end-to-end
/// benchmark's `deep` sessions (LA=2, screen 12), where nearly all of the
/// decision time is ensemble refits and dense subset predictions.
struct TfCase {
  const char* name;
  unsigned lookahead;
  unsigned screen_width;
  std::uint64_t seed;
};
constexpr TfCase kTfCases[] = {{"tf_cnn_la1", 1, 24, 3},
                               {"tf_cnn_la2_s12", 2, 12, 5}};

/// The multi-constraint case's synthetic energy metric (same
/// construction as bench_micro's fixture).
double scout_energy(const cloud::Dataset& scout, space::ConfigId id) {
  return 0.05 * scout.runtime(id) * (1.0 + 0.1 * static_cast<double>(id % 7));
}

eval::TableRunner::MetricsFn scout_energy_metrics(
    const cloud::Dataset& scout) {
  return [&scout](space::ConfigId id) {
    return std::vector<double>{scout_energy(scout, id)};
  };
}

/// Energy capped at 1.5x the cheapest feasible configuration's.
core::ConstraintDef scout_energy_cap(const cloud::Dataset& scout) {
  double min_energy = 1e300;
  for (space::ConfigId id = 0; id < scout.size(); ++id) {
    if (scout.feasible(id)) {
      min_energy = std::min(min_energy, scout_energy(scout, id));
    }
  }
  const double cap = 1.5 * min_energy;
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](core::ConfigId) { return cap; };
  return c;
}

/// One session's outcome after a sharded drain.
struct SessionOutcome {
  core::OptimizerResult result;
  std::string stop_reason;
  bool quarantined = false;
};

/// Opens steppers[i] on shard i % `shards` (each shard a FIFO service
/// with `sopts` and its own copy of `runner`), drains them with
/// service::drain_sharded, and returns the outcomes in input order. One
/// shard is exactly the FIFO drain() on the calling thread.
std::vector<SessionOutcome> drain_on_shards(
    std::vector<std::unique_ptr<core::OptimizerStepper>> steppers,
    std::size_t shards, const service::TuningService::Options& sopts,
    const eval::AsyncTableRunner& runner) {
  std::vector<service::TuningService> services;
  services.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) services.emplace_back(sopts);
  std::vector<eval::AsyncTableRunner> runners(shards, runner);
  std::vector<service::SessionId> ids;
  for (std::size_t i = 0; i < steppers.size(); ++i) {
    ids.push_back(services[i % shards].open(std::move(steppers[i])));
  }
  service::drain_sharded(services, runners);
  std::vector<SessionOutcome> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const service::TuningService& svc = services[i % shards];
    out.push_back({svc.result(ids[i]), svc.stop_reason(ids[i]),
                   svc.quarantined(ids[i])});
  }
  return out;
}

/// The --faults scenario: three Lynceus sessions on the scout workload,
/// drained through the TuningService against the asynchronous replay
/// runner under a seeded storm (failures, hangs, stragglers) with the full
/// RunPolicy active. Prints one line per session — id sequence, failure
/// ledger as id@after_samples, recommendation, stop reason — plus a hash
/// over ids, failures and the quarantine bit. The scenario draws no
/// randomness outside the fixed seeds, so it is byte-identical across
/// runs, build modes and shard counts.
void print_fault_cases(std::ostringstream& out, bool incremental,
                       std::size_t shards, std::uint64_t& combined) {
  const auto scout = cloud::make_scout_datasets().front();
  const auto problem = eval::make_problem(scout, 3.0);

  eval::FaultPlan plan;
  plan.seed = 99;
  plan.fail_rate = 0.45;
  plan.hang_rate = 0.1;
  plan.straggler_rate = 0.2;
  plan.straggler_factor = 3.0;

  service::TuningService::Options sopts;
  sopts.run_policy.max_attempts = 2;
  sopts.run_policy.backoff_base_seconds = 5.0;
  sopts.run_policy.run_timeout_seconds = 600.0;
  sopts.run_policy.quarantine_after = 4;

  std::vector<std::unique_ptr<core::OptimizerStepper>> steppers;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    core::LynceusOptions opts;
    opts.lookahead = 1;
    opts.screen_width = 24;
    opts.incremental_refit = incremental;
    steppers.push_back(
        core::LynceusOptimizer(opts).make_stepper(problem, seed));
  }

  eval::AsyncTableRunner async(scout);
  async.set_fault_plan(plan);
  const auto outcomes =
      drain_on_shards(std::move(steppers), shards, sopts, async);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& r = outcomes[i].result;
    const bool quarantined = outcomes[i].quarantined;
    out << "faults_s" << (21 + i) << ": ids=";
    for (std::size_t k = 0; k < r.history.size(); ++k) {
      if (k > 0) out << ",";
      out << r.history[k].id;
    }
    out << " failures=";
    for (std::size_t k = 0; k < r.failures.size(); ++k) {
      if (k > 0) out << ",";
      out << r.failures[k].id << "@" << r.failures[k].after_samples;
    }
    std::uint64_t h = hash_result(r);
    for (const auto& f : r.failures) {
      h = fnv1a(h, f.id);
      h = fnv1a(h, f.after_samples);
    }
    h = fnv1a(h, quarantined ? 1 : 0);
    combined = fnv1a(combined, h);
    out << " rec="
        << (r.recommendation ? static_cast<long>(*r.recommendation) : -1L)
        << " stop=\"" << outcomes[i].stop_reason << "\""
        << (quarantined ? " quarantined" : "") << " hash=" << h << "\n";
  }
}

/// The --shards path: the same golden cases, opened as concurrent
/// TuningService sessions and drained through the sharded drain. Sessions
/// are grouped per dataset (one replay runner per shard each); the scout
/// group carries the three single-constraint lookaheads *and* the
/// multi-constraint case — the runner exposes the energy metrics to every
/// session, and the single-constraint steppers ignore them. Results are
/// printed in the classic fixed order so the dump byte-compares against
/// the serial one.
void print_sharded_cases(std::ostringstream& out, bool incremental,
                         std::size_t shards, std::uint64_t& combined) {
  const auto scout = cloud::make_scout_datasets().front();
  const auto tf = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  const service::TuningService::Options sopts;

  std::vector<std::unique_ptr<core::OptimizerStepper>> scout_steppers;
  const auto scout_problem = eval::make_problem(scout, 3.0);
  for (unsigned la = 0; la <= 2; ++la) {
    core::LynceusOptions opts;
    opts.lookahead = la;
    opts.screen_width = 24;
    opts.incremental_refit = incremental;
    scout_steppers.push_back(
        core::LynceusOptimizer(opts).make_stepper(scout_problem, 1));
  }
  {
    core::MultiConstraintOptions opts;
    opts.lookahead = 1;
    opts.incremental_refit = incremental;
    scout_steppers.push_back(
        core::MultiConstraintLynceus({scout_energy_cap(scout)}, opts)
            .make_stepper(scout_problem, 7));
  }
  const eval::AsyncTableRunner scout_async(scout,
                                           scout_energy_metrics(scout));
  const auto scout_out =
      drain_on_shards(std::move(scout_steppers), shards, sopts, scout_async);

  const auto tf_problem = eval::make_problem(tf, 2.0);
  std::vector<std::unique_ptr<core::OptimizerStepper>> tf_steppers;
  for (const TfCase& c : kTfCases) {
    core::LynceusOptions opts;
    opts.lookahead = c.lookahead;
    opts.screen_width = c.screen_width;
    opts.incremental_refit = incremental;
    tf_steppers.push_back(
        core::LynceusOptimizer(opts).make_stepper(tf_problem, c.seed));
  }
  const auto tf_out = drain_on_shards(std::move(tf_steppers), shards, sopts,
                                      eval::AsyncTableRunner(tf));

  for (unsigned la = 0; la <= 2; ++la) {
    print_case(out, "scout_la" + std::to_string(la), scout_out[la].result,
               combined);
  }
  for (std::size_t i = 0; i < std::size(kTfCases); ++i) {
    print_case(out, kTfCases[i].name, tf_out[i].result, combined);
  }
  print_case(out, "scout_mc_la1", scout_out[3].result, combined);
}

/// Drives a stepper by explicit ask/tell, resolving every batch in
/// reverse order — the adversarial completion order the determinism
/// contract must absorb.
core::OptimizerResult drive_via_steps(core::OptimizerStepper& stepper,
                                      core::JobRunner& runner) {
  while (true) {
    const core::StepAction& action = stepper.ask();
    if (action.kind == core::StepAction::Kind::Finished) break;
    std::vector<std::pair<core::ConfigId, core::RunResult>> batch;
    for (core::ConfigId id : action.configs) {
      batch.emplace_back(id, runner.run(id));
    }
    std::reverse(batch.begin(), batch.end());
    for (const auto& [id, r] : batch) stepper.tell(id, r);
  }
  return stepper.result();
}

/// The classic closed-loop cases (also the --branch-parallel and
/// --via-steps variants, which must not change the output).
void print_classic_cases(std::ostringstream& out, bool incremental,
                         bool branch_parallel, bool via_steps,
                         util::ThreadPool* pool, std::uint64_t& combined) {
  // Single-constraint Lynceus across lookaheads and spaces. Budgets are
  // the standard b=3 multiple; seeds fixed.
  const auto scout = cloud::make_scout_datasets().front();
  const auto tf = cloud::make_tensorflow_dataset(cloud::TfModel::CNN);
  for (unsigned la = 0; la <= 2; ++la) {
    core::LynceusOptions opts;
    opts.lookahead = la;
    opts.screen_width = 24;
    opts.incremental_refit = incremental;
    opts.pool = pool;
    opts.branch_parallel = branch_parallel;
    core::LynceusOptimizer lyn(opts);
    eval::TableRunner runner(scout);
    const auto problem = eval::make_problem(scout, 3.0);
    const auto r = via_steps
                       ? drive_via_steps(*lyn.make_stepper(problem, 1), runner)
                       : lyn.optimize(problem, runner, 1);
    print_case(out, "scout_la" + std::to_string(la), r, combined);
  }
  for (const TfCase& c : kTfCases) {
    core::LynceusOptions opts;
    opts.lookahead = c.lookahead;
    opts.screen_width = c.screen_width;
    opts.incremental_refit = incremental;
    opts.pool = pool;
    opts.branch_parallel = branch_parallel;
    core::LynceusOptimizer lyn(opts);
    eval::TableRunner runner(tf);
    const auto problem = eval::make_problem(tf, 2.0);
    const auto r =
        via_steps ? drive_via_steps(*lyn.make_stepper(problem, c.seed), runner)
                  : lyn.optimize(problem, runner, c.seed);
    print_case(out, c.name, r, combined);
  }

  // Multi-constraint run with a synthetic energy cap.
  {
    core::MultiConstraintOptions opts;
    opts.lookahead = 1;
    opts.incremental_refit = incremental;
    opts.pool = pool;
    opts.branch_parallel = branch_parallel;
    core::MultiConstraintLynceus lyn({scout_energy_cap(scout)}, opts);
    eval::TableRunner runner(scout, scout_energy_metrics(scout));
    const auto problem = eval::make_problem(scout, 3.0);
    const auto r = via_steps
                       ? drive_via_steps(*lyn.make_stepper(problem, 7), runner)
                       : lyn.optimize(problem, runner, 7);
    print_case(out, "scout_mc_la1", r, combined);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool incremental = lynceus::util::env_flag("LYNCEUS_INCREMENTAL_REFIT");
  bool branch_parallel = lynceus::util::env_flag("LYNCEUS_BRANCH_PARALLEL");
  bool via_steps = false;
  bool faults = false;
  std::size_t shards = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--branch-parallel") {
      branch_parallel = true;
    } else if (arg == "--via-steps") {
      via_steps = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      // Checked parse: the whole value must be a decimal integer. A bare
      // std::stoul here used to throw uncaught on `=` / `=abc` (terminate
      // instead of a usage error) and silently accept trailing junk.
      const std::string value = arg.substr(9);
      std::size_t consumed = 0;
      bool ok = !value.empty();
      if (ok) {
        try {
          shards = static_cast<std::size_t>(std::stoul(value, &consumed));
        } catch (const std::exception&) {
          ok = false;
        }
      }
      if (!ok || consumed != value.size()) {
        std::fprintf(stderr,
                     "trajectory_dump: invalid --shards value '%s' "
                     "(expected a non-negative integer)\n",
                     value.c_str());
        return 2;
      }
    } else {
      // Unknown flags used to be silently ignored, so a typo (e.g.
      // --incrmental) produced a scalar dump that *looked* like the
      // requested variant. Fail loudly instead.
      std::fprintf(stderr, "trajectory_dump: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (shards > 0 && (branch_parallel || via_steps)) {
    std::fprintf(stderr,
                 "trajectory_dump: --shards is exclusive with "
                 "--branch-parallel/--via-steps\n");
    return 1;
  }

  // Branch-parallel mode exercises root fan-out *and* intra-root branch
  // parallelism on a real pool (at least 2 workers even on 1-core hosts,
  // where default_worker_count() is 0 — oversubscription is fine for a
  // determinism dump; what matters is that the pooled code path runs).
  std::optional<util::ThreadPool> pool;
  if (branch_parallel) {
    pool.emplace(std::max<std::size_t>(util::default_worker_count(), 2));
  }

  std::ostringstream out;
  std::uint64_t combined = kFnvOffset;
  out << "incremental_refit=" << (incremental ? 1 : 0) << "\n";

  if (shards > 0) {
    print_sharded_cases(out, incremental, shards, combined);
  } else {
    print_classic_cases(out, incremental, branch_parallel, via_steps,
                        pool ? &*pool : nullptr, combined);
  }

  if (faults) {
    print_fault_cases(out, incremental, std::max<std::size_t>(shards, 1),
                      combined);
  }

  out << "combined_hash=" << combined << "\n";
  std::fputs(out.str().c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    f << out.str();
    if (!f) {
      std::fprintf(stderr, "trajectory_dump: failed to write %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  return 0;
}
