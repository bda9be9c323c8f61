/// Running a tuning service: multiplex many concurrent tuning sessions
/// over one process with ask/tell steppers (core/stepper.hpp) behind the
/// TuningService (src/service/tuning_service.hpp).
///
/// Three things are demonstrated, mirroring the "Running a tuning
/// service" section of README.md:
///   1. N concurrent sessions — each described by one declarative
///      service::SessionSpec and opened via open_session() — over a
///      shared thread pool + decision cache, fed by asynchronously
///      completing runs (simulated here by AsyncTableRunner; a real
///      deployment would launch cloud jobs and tell() results as they
///      land);
///   2. out-of-order completions — cheap runs overtake expensive ones —
///      without perturbing any session's trajectory;
///   3. snapshot/restore: a session is frozen mid-run to JSON, revived in
///      a fresh service (read: after a process restart), and finishes
///      byte-identically.
///
/// Build & run:  ./build/example_tuning_service

#include <cstdio>

#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace lynceus;

  // The jobs: every Scout workload, tuned concurrently — one session per
  // job, all sharing one pool and one decision cache.
  const auto datasets = cloud::make_scout_datasets();
  std::vector<core::OptimizationProblem> problems;
  problems.reserve(datasets.size());
  for (const auto& ds : datasets) problems.push_back(eval::make_problem(ds, 3.0));

  util::ThreadPool pool(util::default_worker_count());
  service::TuningService::Options options;
  options.pool = &pool;  // borrowed: outlives the service below
  options.root_cache_capacity = 8;
  service::TuningService service(options);

  // One async replay runner per dataset (a real service would talk to the
  // cloud provider instead); completions pop in simulated-time order, so
  // sessions' results interleave out of submission order.
  std::vector<eval::AsyncTableRunner> runners;
  runners.reserve(datasets.size());
  std::vector<service::SessionId> sessions;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    runners.emplace_back(datasets[i]);
    // One declarative spec per session — the same document could arrive
    // as a CLI flag set or a TCP frame (src/net/) instead of C++ code.
    service::SessionSpec spec;
    spec.optimizer = "lynceus";
    spec.lookahead = 1;
    spec.seed = 7;
    spec.problem = &problems[i];
    sessions.push_back(service.open_session(spec));
    std::printf("session %llu: %s (%zu configs)\n",
                static_cast<unsigned long long>(sessions[i]),
                datasets[i].job_name().c_str(), datasets[i].size());
  }

  // The event loop: launch whatever each session asks for, route the
  // earliest-finishing completion back, repeat until every session stops.
  auto drain = [&](service::TuningService& svc) {
    while (true) {
      for (const service::PendingRun& run : svc.next_runs()) {
        runners[run.session].submit(run.session, run.config);
      }
      // Pop the earliest completion across all jobs.
      std::size_t which = runners.size();
      double best = 0.0;
      for (std::size_t i = 0; i < runners.size(); ++i) {
        const auto t = runners[i].next_finish_time();
        if (!t.has_value()) continue;
        if (which == runners.size() || *t < best) {
          which = i;
          best = *t;
        }
      }
      if (which == runners.size()) return;  // all idle
      const auto c = runners[which].next_completion();
      svc.tell(c->tag, c->config, c->result);
    }
  };
  drain(service);

  std::printf("\nall sessions finished:\n");
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto result = service.result(sessions[i]);
    std::printf("  %-28s %2zu runs, $%.4f spent — %s\n",
                datasets[i].job_name().c_str(), result.explorations(),
                result.budget_spent,
                service.stop_reason(sessions[i]).c_str());
  }

  // Snapshot/restore: freeze one session mid-run, revive it elsewhere.
  service::TuningService first;
  const service::SessionSpec frozen_spec =
      service::SessionSpec::lynceus(problems[0], core::LynceusOptions{},
                                    /*seed=*/11);
  const service::SessionId sid = first.open_session(frozen_spec);
  eval::AsyncTableRunner feed(datasets[0]);
  for (const auto& run : first.next_runs()) feed.submit(run.session, run.config);
  // Resolve half the bootstrap, then freeze: in-flight runs stay in
  // flight — told results ride inside the snapshot, the rest are
  // re-asked for after the restore.
  for (std::size_t i = 0; i < problems[0].bootstrap_samples / 2; ++i) {
    const auto c = feed.next_completion();
    first.tell(c->tag, c->config, c->result);
  }
  const std::string frozen = first.snapshot(sid);
  std::printf("\nsnapshot: %zu bytes of JSON mid-bootstrap\n", frozen.size());

  service::TuningService second;  // a fresh process, in spirit
  const service::SessionId revived = second.restore_session(frozen_spec, frozen);
  eval::AsyncTableRunner feed2(datasets[0]);
  service::drain(second, feed2);
  const auto result = second.result(revived);
  std::printf("revived session finished: %zu runs, $%.4f spent — %s\n",
              result.explorations(), result.budget_spent,
              second.stop_reason(revived).c_str());
  return 0;
}
