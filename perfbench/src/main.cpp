// End-to-end benchmark of the Lynceus tuning server.
//
//   perfbench --workload fleet|deep|churn --seed N --seconds S --trace 0|1
//
// Sets the server up several times (reporting the median set-up time),
// drives the workload over loopback for a warm-up plus S measured seconds
// (figures are medians over one-second slices or chunks of tells),
// checks every session's trajectory digest against the same spec replayed
// solo in process, and prints every metric by name with its unit. The last line of standard
// output is one JSON object: end-to-end metrics with --trace 0, per-layer
// metrics of the traced run with --trace 1. Exits 1 on any failed
// operation or digest mismatch, 2 on a usage error.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "eval/metrics.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Checks every session of `run` against its solo in-process replay, on
/// up to 4 threads. Returns the number of mismatches.
std::size_t check_against_solo(const RemoteRun& run, SessionStream& stream,
                               std::vector<std::string>& errors) {
  for (const SessionOutcome& o : run.sessions) (void)stream.at(o.index);
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<std::string>> found(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < found.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = next++; i < run.sessions.size(); i = next++) {
        const SessionOutcome& o = run.sessions[i];
        std::string why;
        try {
          if (!o.has_result) {
            why = "no result fetched";
          } else {
            const SoloReplay solo = replay_solo(stream.at(o.index), o.told);
            if (digest(solo.result) != o.digest) why = "digest differs";
            if (solo.finished != o.finished) why = "finished flag differs";
          }
        } catch (const std::exception& e) {
          why = e.what();
        }
        if (!why.empty()) {
          found[t].push_back("session " + std::to_string(o.index) + ": " + why);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::size_t mismatches = 0;
  for (const auto& f : found) {
    mismatches += f.size();
    errors.insert(errors.end(), f.begin(), f.end());
  }
  return mismatches;
}

/// cno_p90 and explore_cost_usd over the workload's fixed quality set:
/// the first `quality_sessions` distinct sessions of the stream (open-loop
/// repeats are exact copies and are skipped). A session the window cut
/// short, or that arrived after it, is finished in process: its
/// trajectory is the same by contract, which the digest check verifies
/// for every session the server ran.
void quality_metrics(const RemoteRun& run, SessionStream& stream,
                     const Workload& w, double& cno_p90, double& cost) {
  std::unordered_map<std::size_t, const SessionOutcome*> by_index;
  for (const SessionOutcome& o : run.sessions) by_index[o.index] = &o;
  const std::size_t stride = w.loop == Loop::kOpen ? 2 : 1;
  const std::size_t n = w.quality_sessions;
  std::vector<double> cnos(n), costs(n);
  for (std::size_t q = 0; q < n; ++q) (void)stream.at(q * stride);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t q = next++; q < n; q = next++) {
        const std::size_t i = q * stride;
        const PlannedSession& p = stream.at(i);
        const auto it = by_index.find(i);
        core::OptimizerResult r;
        if (it != by_index.end() && it->second->finished &&
            it->second->has_result) {
          r = it->second->result;
        } else {
          r = replay_to_completion(p).result;
        }
        cnos[q] = eval::cno(*p.dataset, r);
        costs[q] = r.budget_spent;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  cno_p90 = quantile(cnos, 0.9);
  cost = mean(costs);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Tell latency quantile `q` of a run: the median, over consecutive
/// chunks of tells in completion order, of each chunk's quantile. Chunks
/// hold at least 200 tells (two beyond a p99) and there are at most 40,
/// so a stretch of the run on a faster or slower shared host moves a few
/// chunks' figures instead of the whole run's.
double chunked_quantile(const std::vector<double>& ms, double q) {
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min<std::size_t>(40, ms.size() / 200));
  const std::size_t size = ms.size() / chunks;
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = ms.begin() + static_cast<std::ptrdiff_t>(c * size);
    const auto last = c + 1 == chunks ? ms.end() : first + size;
    per_chunk.push_back(quantile(std::vector<double>(first, last), q));
  }
  return quantile(per_chunk, 0.5);
}

/// Decisions per second: the median slice's rate of deciding tells times
/// the run's decisions per deciding tell (which interleaving does not
/// change).
double decisions_per_s(const RemoteRun& run) {
  std::vector<double> rates;
  for (const Slice& s : run.slices) {
    rates.push_back(static_cast<double>(s.deciding_tells) / s.seconds);
  }
  return quantile(rates, 0.5) * run.decisions_per_deciding_tell;
}

/// Process CPU per decision: the median slice's CPU per deciding tell
/// over the run's decisions per deciding tell.
double cpu_ms_per_decision(const RemoteRun& run) {
  std::vector<double> per_tell;
  for (const Slice& s : run.slices) {
    if (s.deciding_tells > 0) {
      per_tell.push_back(s.cpu_s / static_cast<double>(s.deciding_tells));
    }
  }
  return ratio(quantile(per_tell, 0.5) * 1e3,
               run.decisions_per_deciding_tell);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

int run(const Args& args) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LYNCEUS_", 8) == 0) {
      std::printf("# environment: %s (ignored: every spec knob is explicit)\n",
                  *e);
    }
  }
  const Workload w = workload_by_name(args.workload);
  std::printf("# workload %s seed %llu seconds %.3f shards %zu connections %zu "
              "(loopback, one client thread)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, kShards, kConnections);
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && kShards + kConnections > cores) {
    std::printf("# warning: %zu shards + %zu connections exceed %u cores\n",
                kShards, kConnections, cores);
  }

  const Datasets datasets;
  SessionStream stream(w, args.seed, datasets);

  std::vector<double> setup_times;
  SetupPtr setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double s = 0.0;
    setup.reset();
    setup = set_up(w, stream, s);
    setup_times.push_back(s);
  }

  RemoteRun run = run_remote(*setup, w, stream, args.seconds, false);
  setup.reset();
  std::vector<std::string> errors = run.errors;
  std::size_t attempted = run.attempted + run.sessions.size();
  std::size_t failed = run.failed;
  failed += check_against_solo(run, stream, errors);

  double cno_p90 = 0.0, explore_cost = 0.0;
  quality_metrics(run, stream, w, cno_p90, explore_cost);

  std::size_t tells = run.tell_ms.size();
  std::size_t misses = 0;
  for (const double ms : run.tell_ms) misses += ms > w.slo_ms ? 1 : 0;
  const double dps = decisions_per_s(run);
  std::vector<Metric> e2e = {
      {"decisions_per_s", dps, "1/s"},
      {"tell_p50_ms", chunked_quantile(run.tell_ms, 0.5), "ms"},
      {"tell_p99_ms", chunked_quantile(run.tell_ms, 0.99), "ms"},
      {"cpu_ms_per_decision", cpu_ms_per_decision(run), "ms"},
      {"setup_s", quantile(setup_times, 0.5), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"cno_p90", cno_p90, "ratio"},
      {"explore_cost_usd", explore_cost, "USD"},
  };
  // Printed on every run but kept out of the gated set: each can be 0 by
  // construction (closed loops have no generator lag; a healthy run has
  // no failures; a generous limit sees no misses).
  std::vector<Metric> e2e_extra = {
      {"tell_slo_miss_ratio",
       ratio(static_cast<double>(misses + run.failed),
             static_cast<double>(tells + run.failed)),
       "ratio"},
      {"gen_lag_p99_ms", quantile(run.gen_lag_ms, 0.99), "ms"},
      {"failed_ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
  std::printf("# tells %zu (latency samples; quantiles are medians over "
              "chunks of >= 200), decisions %zu (%.3f per deciding tell), "
              "sessions %zu, warm-up %.1f s, window %.3f s in %zu slices, "
              "slo %.0f ms, quality set %zu sessions\n",
              tells, run.decisions, run.decisions_per_deciding_tell,
              run.sessions.size(), kWarmupSeconds, run.window_s,
              run.slices.size(), w.slo_ms, w.quality_sessions);
  std::printf("# deciding tells/s by slice:");
  for (const Slice& s : run.slices) {
    std::printf(" %.0f", static_cast<double>(s.deciding_tells) / s.seconds);
  }
  std::printf("\n");
  print_table("end-to-end", e2e);
  print_table("end-to-end (not gated)", e2e_extra);

  std::vector<Metric> layers;
  if (args.trace) {
    double s = 0.0;
    SetupPtr traced_setup = set_up(w, stream, s);
    RemoteRun traced = run_remote(*traced_setup, w, stream, args.seconds, true);
    traced_setup.reset();
    attempted += traced.attempted;
    failed += traced.failed;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    // Sessions finished in both runs must have identical digests.
    std::unordered_map<std::size_t, std::uint64_t> untraced;
    for (const SessionOutcome& o : run.sessions) {
      if (o.finished && o.has_result) untraced[o.index] = o.digest;
    }
    for (const SessionOutcome& o : traced.sessions) {
      const auto it = untraced.find(o.index);
      if (o.finished && o.has_result && it != untraced.end()) {
        ++attempted;
        if (it->second != o.digest) {
          ++failed;
          errors.push_back("traced digest differs for session " +
                           std::to_string(o.index));
        }
      }
    }
    const ReplayTrace replay = replay_traced(traced, stream, w);
    attempted += replay.digest_checks;
    failed += replay.mismatches.size();
    errors.insert(errors.end(), replay.mismatches.begin(),
                  replay.mismatches.end());

    const double traced_dps = decisions_per_s(traced);
    layer_metrics(traced, replay, layers);
    codec_metrics(traced, mean(traced.tell_ms), layers);
    const double ntells = static_cast<double>(traced.tell_ms.size());
    double skew = 0;
    if (!traced.shard_sessions.empty()) {
      double sum = 0, mx = 0;
      for (const std::size_t c : traced.shard_sessions) {
        sum += static_cast<double>(c);
        mx = std::max(mx, static_cast<double>(c));
      }
      skew = ratio(mx * static_cast<double>(traced.shard_sessions.size()), sum);
    }
    layers.insert(
        layers.end(),
        {{"net.bytes_per_tell",
          ratio(static_cast<double>(traced.tell_frame_bytes), ntells), "bytes"},
         {"net.snapshot_bytes",
          ratio(static_cast<double>(traced.snapshot_bytes),
                static_cast<double>(traced.snapshots)),
          "bytes"},
         {"net.lane.high_water", static_cast<double>(traced.lane_high_water),
          "count"},
         {"net.lane.stalls", static_cast<double>(traced.lane_stalls), "count"},
         {"service.shard_skew", skew, "ratio"},
         {"service.retries", static_cast<double>(traced.retries), "count"},
         {"core.decision_ms",
          ratio(traced.decision_seconds * 1e3,
                static_cast<double>(traced.decisions)),
          "ms"},
         {"trace.decisions_per_s", traced_dps, "1/s"},
         {"trace.overhead_ratio", dps > 0 ? 1.0 - traced_dps / dps : 0.0,
          "ratio"},
         {"trace.replay_s", replay.seconds, "s"}});
    layers.insert(layers.end(), e2e_extra.begin(), e2e_extra.end());
    print_table("per-layer (traced run)", layers);
    write_spans(".bench_build/traces/" + w.name + "-seed" +
                    std::to_string(args.seed) + ".csv",
                traced, replay);
  }

  for (const std::string& e : errors) std::printf("# error: %s\n", e.c_str());
  const bool correct = failed == 0 && errors.empty();
  std::printf("%s\n", json_line(correct, attempted, failed,
                                args.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
    perfbench::workload_by_name(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
