// Workload definitions, the seeded session stream, the replay runner and
// the solo-replay output check.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// Why these three workloads (see also BENCHMARK.json):
//  * fleet — many cheap Scout sessions (~1 ms decisions): framing, codec,
//    lanes and the shard sweep's head-of-line wait are a large share of a
//    tell. Wire and scheduler changes show here. Not in BENCHMARK.json: its
//    saturated closed loop makes every timing track the shared host's
//    speed, which swung it by 20-30% between runs of the same code. It
//    runs by hand; churn carries the gated net/service layer metrics.
//  * deep — one expensive TF LA=2 session per shard: lookahead and
//    ensemble prediction dominate, the wire is noise. core/model changes
//    show here; net changes should not.
//  * churn — fixed-rate arrivals of a Scout/CherryPick/TF mix with recurrent
//    repeats (RootCache hits), injected faults (retry and timeout tells)
//    and a snapshot/close/restore of every session across connections.
Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fleet") {
    w.loop = Loop::kClosed;
    w.active_per_shard = 64;
    w.root_cache_capacity = 64;
    w.slo_ms = 250.0;
    w.quality_sessions = 512;
  } else if (name == "deep") {
    w.loop = Loop::kClosed;
    w.active_per_shard = 1;
    w.root_cache_capacity = 64;
    w.slo_ms = 100.0;
    w.quality_sessions = 24;
  } else if (name == "churn") {
    w.loop = Loop::kOpen;
    w.arrival_rate = 10.0;
    w.run_delay_ms = 20.0;
    w.root_cache_capacity = 256;
    w.slo_ms = 50.0;
    w.quality_sessions = 300;
    w.snapshot_restore = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fleet | deep | churn)");
  }
  return w;
}

Datasets::Datasets()
    : scout(cloud::make_scout_datasets()),
      tf(cloud::make_tensorflow_datasets()),
      cherrypick(cloud::make_cherrypick_datasets()) {}

const cloud::Dataset& Datasets::find(const std::string& suite,
                                     const std::string& job) const {
  const std::vector<cloud::Dataset>& all =
      suite == "scout" ? scout : suite == "tf" ? tf : cherrypick;
  for (const cloud::Dataset& d : all) {
    if (d.job_name() == job) return d;
  }
  throw std::invalid_argument("no dataset " + suite + "/" + job);
}

namespace {

std::vector<std::string> job_names(const std::vector<cloud::Dataset>& ds) {
  std::vector<std::string> out;
  for (const cloud::Dataset& d : ds) out.push_back(d.job_name());
  return out;
}

}  // namespace

SessionStream::SessionStream(const Workload& workload, std::uint64_t seed,
                             const Datasets& datasets)
    : workload_(workload), seed_(seed), datasets_(&datasets) {
  // The seed rotates each suite's job order; sessions cycle through it.
  util::Rng rng(util::derive_seed(seed, 0x10b5));
  auto rotated = [&](const std::vector<cloud::Dataset>& ds) {
    std::vector<std::string> names = job_names(ds);
    std::rotate(names.begin(), names.begin() + rng.below(names.size()),
                names.end());
    return names;
  };
  if (workload.name == "fleet") {
    for (const std::string& j : rotated(datasets.scout)) {
      jobs_.push_back({"scout", j, 1, 24});
    }
  } else if (workload.name == "deep") {
    for (const std::string& j : rotated(datasets.tf)) {
      jobs_.push_back({"tf", j, 2, 12});
    }
  } else {
    // A 10-original cycle: 5 Scout and 4 CherryPick (LA=2), 1 TF (LA=1),
    // each suite walking its own rotated job order, all at the medium
    // budget. Tells without a decision (bootstrap, failed and timed-out
    // runs) answer in well under a millisecond, tells with one in a few;
    // a TF session's ~60 decisions keep about two thirds of tells in the
    // second group, so tell_p50_ms sits inside it rather than in the gap
    // between the two, where a one-point shift in the mix moves it twofold.
    const std::vector<std::string> s = rotated(datasets.scout);
    const std::vector<std::string> c = rotated(datasets.cherrypick);
    const std::vector<std::string> t = rotated(datasets.tf);
    std::size_t si = 0, ci = 0, ti = 0;
    for (std::size_t k = 0; k < 90; ++k) {
      if (k % 10 == 5) {
        jobs_.push_back({"tf", t[ti++ % t.size()], 1, 12, 3.0});
      } else if (k % 5 == 1 || k % 5 == 3) {
        jobs_.push_back({"cherrypick", c[ci++ % c.size()], 2, 24});
      } else {
        jobs_.push_back({"scout", s[si++ % s.size()], 2, 24});
      }
    }
  }
}

const PlannedSession& SessionStream::at(std::size_t i) {
  while (cache_.size() <= i) cache_.push_back(make(cache_.size()));
  return cache_[i];
}

PlannedSession SessionStream::make(std::size_t i) {
  // Open loop: session 2k+1 is a recurrent repeat of 2k (same job, same
  // seed) arriving shortly after it, so its root fits can hit the RootCache.
  const bool repeats = workload_.loop == Loop::kOpen;
  const std::size_t original = repeats ? i / 2 : i;
  const Job& job = jobs_[original % jobs_.size()];

  PlannedSession p;
  p.dataset = &datasets_->find(job.suite, job.job);
  const std::string key = job.suite + "/" + job.job;
  auto it = problems_.find(key);
  if (it == problems_.end()) {
    it = problems_.emplace(key, eval::make_problem(*p.dataset, job.budget))
             .first;
  }
  p.problem = &it->second;
  double runtime_sum = 0.0;
  for (std::size_t c = 0; c < p.dataset->size(); ++c) {
    runtime_sum += p.dataset->runtime(c);
  }
  p.mean_runtime_s = runtime_sum / static_cast<double>(p.dataset->size());

  p.spec = spec_for(job, util::derive_seed(seed_, 0x5e55'0000ULL + original));
  service::SessionSpec& s = p.spec;
  if (repeats) {
    service::RunPolicy policy;
    policy.max_attempts = 3;
    policy.backoff_base_seconds = 60.0;
    policy.backoff_multiplier = 2.0;
    policy.run_timeout_seconds = std::numeric_limits<double>::infinity();
    policy.timeout_tmax_factor = 1.5;
    policy.quarantine_after = 0;
    s.run_policy = policy;
    p.faults.seed = util::derive_seed(s.seed, 0xfa17);
    p.faults.fail_rate = 0.12;
    p.faults.hang_rate = 0.04;
    p.faults.straggler_rate = 0.08;
    p.faults.straggler_factor = 3.0;
  }

  if (repeats) {
    if (i % 2 == 0) {
      // Originals arrive at a fixed rate (half the session rate), each
      // jittered by up to ±40% of the interval.
      util::Rng rng(util::derive_seed(seed_, 0xa771'0000ULL + original));
      const double interval = 2.0 / workload_.arrival_rate;
      p.arrival_s = interval * (static_cast<double>(original) + 0.5 +
                                rng.uniform(-0.4, 0.4));
    } else {
      util::Rng rng(util::derive_seed(seed_, 0x4e9e'0000ULL + original));
      p.arrival_s = cache_[i - 1].arrival_s + rng.uniform(0.2, 0.6);
    }
  }
  if (workload_.snapshot_restore) {
    p.snapshot_after = p.problem->bootstrap_samples + 2;
  }
  return p;
}

service::SessionSpec SessionStream::spec_for(const Job& job,
                                             std::uint64_t seed) {
  // Every knob explicit: SessionSpec defaults read LYNCEUS_* environment
  // variables, and the benchmark's trajectories must not depend on them.
  service::SessionSpec s;
  s.optimizer = "lynceus";
  s.seed = seed;
  s.problem_ref = {job.suite, job.job, job.budget};
  s.lookahead = job.lookahead;
  s.gh_points = 3;
  s.gamma = 0.9;
  s.feasibility_quantile = 0.99;
  s.screen_width = job.screen_width;
  s.ei_stop_fraction = 0.0;
  s.prune_weight = 1e-3;
  s.incremental_refit = false;
  s.branch_parallel = false;
  s.blacklist_failed = true;
  s.constraints.clear();
  s.run_policy = service::RunPolicy{};  // inert: no retries, no timeout
  return s;
}

std::vector<service::SessionSpec> SessionStream::distinct_job_specs() const {
  std::vector<service::SessionSpec> out;
  std::vector<std::string> seen;
  for (std::size_t k = 0; k < jobs_.size(); ++k) {
    const std::string key = jobs_[k].suite + "/" + jobs_[k].job;
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    out.push_back(spec_for(jobs_[k], util::derive_seed(seed_, 0x5e7u + k)));
  }
  return out;
}

ExecutedRun execute_run(const PlannedSession& session,
                        const service::PendingRun& run) {
  const cloud::Observation& obs = session.dataset->observation(run.config);
  core::RunResult base;
  base.runtime_seconds = obs.runtime_seconds;
  base.cost = obs.cost();
  base.timed_out = obs.timed_out;
  const eval::InjectedRun injected =
      eval::inject_faults(session.faults, run.config, run.attempt, base);
  ExecutedRun out;
  out.result = eval::cap_injected_run(injected, base, run.timeout_seconds);
  out.simulated_seconds =
      run.start_delay + std::min(injected.duration, run.timeout_seconds);
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace

std::uint64_t digest(const core::OptimizerResult& r) {
  Fnv f;
  f.u64(r.history.size());
  for (const core::Sample& s : r.history) {
    f.u64(s.id);
    f.f64(s.runtime_seconds);
    f.f64(s.cost);
    f.u64(s.feasible ? 1 : 0);
  }
  f.u64(r.failures.size());
  for (const core::FailureRecord& x : r.failures) {
    f.u64(x.id);
    f.f64(x.cost);
    f.u64(x.after_samples);
  }
  f.f64(r.budget_spent);
  f.f64(r.budget_spent_on_failures);
  f.u64(r.recommendation.has_value() ? 1 + *r.recommendation : 0);
  f.u64(r.recommendation_feasible ? 1 : 0);
  f.u64(r.decisions);
  return f.h;
}

SoloReplay replay_solo(const PlannedSession& session,
                       const std::vector<core::ConfigId>& told) {
  service::TuningService svc;
  service::SessionSpec spec = session.spec;
  spec.problem = session.problem;
  const service::SessionId id = svc.open_session(spec);
  std::deque<service::PendingRun> pending;
  auto sweep = [&] {
    for (const service::PendingRun& r : svc.next_runs()) pending.push_back(r);
  };
  sweep();
  for (const core::ConfigId config : told) {
    const auto it =
        std::find_if(pending.begin(), pending.end(),
                     [&](const service::PendingRun& r) {
                       return r.config == config;
                     });
    if (it == pending.end()) {
      throw std::runtime_error("solo replay: config " +
                               std::to_string(config) + " was never asked");
    }
    const service::PendingRun run = *it;
    pending.erase(it);
    svc.tell(id, run.config, execute_run(session, run).result);
    sweep();
  }
  SoloReplay out;
  out.result = svc.result(id);
  out.finished = svc.finished(id) || svc.quarantined(id);
  return out;
}

SoloReplay replay_to_completion(const PlannedSession& session) {
  service::TuningService svc;
  service::SessionSpec spec = session.spec;
  spec.problem = session.problem;
  const service::SessionId id = svc.open_session(spec);
  for (std::vector<service::PendingRun> runs = svc.next_runs(); !runs.empty();
       runs = svc.next_runs()) {
    for (const service::PendingRun& run : runs) {
      svc.tell(id, run.config, execute_run(session, run).result);
    }
  }
  SoloReplay out;
  out.result = svc.result(id);
  out.finished = true;
  return out;
}

}  // namespace perfbench
