// The traced run's in-process half and its summaries: a timing decorator
// around the model, a decision observer, the per-shard replay of the
// remote operation log, codec re-timing and the per-layer summarizer.
//
// Spans are recorded only from this file and the driver, around calls
// into each module's public functions and hooks; nothing in the library
// is instrumented.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/bo.hpp"
#include "core/trace.hpp"
#include "net/binary_codec.hpp"

namespace perfbench {

namespace {

/// Per-shard accumulator the model decorators of that shard write to.
struct ModelRecorder {
  ModelMethodStats fit, predict_subset, predict_all, append_and_update,
      predict;
  std::int64_t total_ns = 0;

  void add(ModelMethodStats& m, std::size_t rows, std::int64_t ns) {
    ++m.calls;
    m.rows += rows;
    m.ns += ns;
    total_ns += ns;
  }
};

/// Times every call into the wrapped model and forwards it unchanged, so
/// predictions, fits and trajectories are exactly the wrapped model's.
class TimingRegressor final : public model::Regressor {
 public:
  TimingRegressor(std::unique_ptr<model::Regressor> inner, ModelRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void fit(const model::FeatureMatrix& fm,
           const std::vector<std::uint32_t>& rows,
           const std::vector<double>& y, std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    inner_->fit(fm, rows, y, seed);
    rec_->add(rec_->fit, rows.size(), now_ns() - t0);
  }

  [[nodiscard]] model::Prediction predict(const model::FeatureMatrix& fm,
                                          std::uint32_t row) const override {
    const std::int64_t t0 = now_ns();
    const model::Prediction p = inner_->predict(fm, row);
    rec_->add(rec_->predict, 1, now_ns() - t0);
    return p;
  }

  void predict_all(const model::FeatureMatrix& fm,
                   std::vector<model::Prediction>& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->predict_all(fm, out);
    rec_->add(rec_->predict_all, fm.rows(), now_ns() - t0);
  }

  void predict_subset(const model::FeatureMatrix& fm,
                      const std::vector<std::uint32_t>& ids,
                      std::vector<model::Prediction>& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->predict_subset(fm, ids, out);
    rec_->add(rec_->predict_subset, ids.size(), now_ns() - t0);
  }

  [[nodiscard]] std::unique_ptr<model::Regressor> fresh() const override {
    return std::make_unique<TimingRegressor>(inner_->fresh(), rec_);
  }

  bool enable_incremental(unsigned reserve_appends) override {
    return inner_->enable_incremental(reserve_appends);
  }

  [[nodiscard]] bool incremental_ready() const override {
    return inner_->incremental_ready();
  }

  bool append_and_update(const model::FeatureMatrix& fm, std::uint32_t row,
                         double y, std::uint64_t update_seed) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->append_and_update(fm, row, y, update_seed);
    rec_->add(rec_->append_and_update, 1, now_ns() - t0);
    return ok;
  }

  bool assign_fitted(const model::Regressor& src) override {
    const auto* timed = dynamic_cast<const TimingRegressor*>(&src);
    return inner_->assign_fitted(timed != nullptr ? *timed->inner_ : src);
  }

  [[nodiscard]] std::unique_ptr<model::Regressor> clone() const override {
    std::unique_ptr<model::Regressor> c = inner_->clone();
    if (!c) return nullptr;
    return std::make_unique<TimingRegressor>(std::move(c), rec_);
  }

  bool save_fit(util::JsonWriter& w) const override {
    return inner_->save_fit(w);
  }

  bool load_fit(const util::JsonValue& v) override {
    return inner_->load_fit(v);
  }

 private:
  std::unique_ptr<model::Regressor> inner_;
  ModelRecorder* rec_;
};

class DecisionObserver final : public core::OptimizerObserver {
 public:
  void on_decision(const core::DecisionEvent& e) override {
    viable.push_back(static_cast<double>(e.viable_count));
    roots.push_back(static_cast<double>(e.simulated_roots));
  }
  std::vector<double> viable, roots;
};

double decision_seconds(const service::TuningService& svc,
                        service::SessionId id) {
  return svc.result(id).decision_seconds;
}

/// Replays one shard's slice of the operation log.
void replay_shard(const std::vector<const LoggedOp*>& ops,
                  SessionStream& stream, const Workload& workload,
                  ReplayTrace& out) {
  service::TuningService::Options options;
  options.root_cache_capacity = workload.root_cache_capacity;
  service::TuningService svc(options);
  ModelRecorder rec;
  DecisionObserver observer;
  std::unordered_map<std::uint64_t, service::SessionId> local;

  auto spec_for = [&](std::size_t index) {
    const PlannedSession& p = stream.at(index);
    service::SessionSpec spec = p.spec;
    spec.problem = p.problem;
    spec.observer = &observer;
    spec.model_factory = [&rec, base = core::default_tree_model_factory(
                                    *p.problem->space)] {
      return std::make_unique<TimingRegressor>(base(), &rec);
    };
    return spec;
  };

  const std::int64_t t_begin = now_ns();
  for (const LoggedOp* op : ops) {
    switch (op->kind) {
      case LoggedOp::Kind::kOpen: {
        local[op->wire_id] = svc.open_session(spec_for(op->session));
        (void)svc.next_runs();
        break;
      }
      case LoggedOp::Kind::kRestore: {
        const service::SessionSpec spec = spec_for(op->session);
        const std::int64_t t0 = now_ns();
        local[op->wire_id] = svc.restore_session(spec, op->snapshot);
        out.restore_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        (void)svc.next_runs();
        break;
      }
      case LoggedOp::Kind::kTell: {
        const service::SessionId id = local.at(op->wire_id);
        const double before = decision_seconds(svc, id);
        const std::int64_t model_before = rec.total_ns;
        ServiceTellSpan span;
        span.key = (static_cast<std::uint64_t>(op->session) << 24) |
                   op->tell_index;
        const std::int64_t t0 = now_ns();
        svc.tell(id, op->config, op->result);
        const std::int64_t t1 = now_ns();
        span.sweep_runs = svc.next_runs().size();
        const std::int64_t t2 = now_ns();
        span.tell_ns = t1 - t0;
        span.sweep_ns = t2 - t1;
        span.decision_ns = static_cast<std::int64_t>(
            (decision_seconds(svc, id) - before) * 1e9);
        span.model_ns = rec.total_ns - model_before;
        out.tells.push_back(span);
        break;
      }
      case LoggedOp::Kind::kSnapshot: {
        const std::int64_t t0 = now_ns();
        (void)svc.snapshot_session(local.at(op->wire_id));
        out.snapshot_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        break;
      }
      case LoggedOp::Kind::kClose: {
        const auto it = local.find(op->wire_id);
        if (it == local.end()) break;
        if (op->has_digest) {
          ++out.digest_checks;
          const core::OptimizerResult r = svc.result(it->second);
          out.decisions += r.decisions;
          if (digest(r) != op->digest) {
            out.mismatches.push_back("traced replay digest differs for session " +
                                     std::to_string(op->session));
          }
        }
        svc.close(it->second);
        local.erase(it);
        break;
      }
    }
  }
  out.seconds = static_cast<double>(now_ns() - t_begin) * 1e-9;
  out.fit = rec.fit;
  out.predict_subset = rec.predict_subset;
  out.predict_all = rec.predict_all;
  out.append_and_update = rec.append_and_update;
  out.viable = std::move(observer.viable);
  out.simulated_roots = std::move(observer.roots);
  if (const core::RootCache* cache = svc.shared_cache()) {
    out.cache_hits = cache->stats().hits;
    out.cache_misses = cache->stats().misses;
  }
}

void merge(ModelMethodStats& into, const ModelMethodStats& from) {
  into.calls += from.calls;
  into.rows += from.rows;
  into.ns += from.ns;
}

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

ReplayTrace replay_traced(const RemoteRun& run, SessionStream& stream,
                          const Workload& workload) {
  std::vector<std::vector<const LoggedOp*>> per_shard(kShards);
  for (const LoggedOp& op : run.log) {
    per_shard[op.wire_id % kShards].push_back(&op);
  }
  // Sessions are generated on first use; materialize them before the
  // shard threads read the stream concurrently.
  for (const LoggedOp& op : run.log) (void)stream.at(op.session);

  std::vector<ReplayTrace> parts(kShards);
  std::vector<std::string> errors(kShards);
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kShards; ++s) {
      threads.emplace_back([&, s] {
        try {
          replay_shard(per_shard[s], stream, workload, parts[s]);
        } catch (const std::exception& e) {
          errors[s] = std::string("traced replay: ") + e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ReplayTrace out;
  for (std::size_t s = 0; s < kShards; ++s) {
    const ReplayTrace& p = parts[s];
    if (!errors[s].empty()) out.mismatches.push_back(errors[s]);
    append(out.tells, p.tells);
    append(out.snapshot_us, p.snapshot_us);
    append(out.restore_us, p.restore_us);
    append(out.viable, p.viable);
    append(out.simulated_roots, p.simulated_roots);
    append(out.mismatches, p.mismatches);
    merge(out.fit, p.fit);
    merge(out.predict_subset, p.predict_subset);
    merge(out.predict_all, p.predict_all);
    merge(out.append_and_update, p.append_and_update);
    out.decisions += p.decisions;
    out.cache_hits += p.cache_hits;
    out.cache_misses += p.cache_misses;
    out.digest_checks += p.digest_checks;
    out.seconds = std::max(out.seconds, p.seconds);
  }
  return out;
}

namespace {

/// Keeps the re-timed codec calls' results observable.
volatile std::size_t codec_sink = 0;

/// Median over 7 passes of the mean nanoseconds per call of `fn`
/// applied to every index in [0, n).
template <typename Fn>
double median_us_per_call(std::size_t n, Fn fn) {
  if (n == 0) return 0.0;
  std::vector<double> passes;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    passes.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                     static_cast<double>(n));
  }
  return quantile(passes, 0.5);
}

}  // namespace

void codec_metrics(const RemoteRun& run, double mean_tell_ms,
                   std::vector<Metric>& out) {
  const struct {
    net::WireEncoding enc;
    const char* name;
  } encodings[] = {{net::WireEncoding::kJson, "json"},
                   {net::WireEncoding::kBinary, "binary"}};
  std::size_t sink = 0;
  for (const auto& [enc, name] : encodings) {
    std::vector<std::string> tells, runs, tolds;
    for (const CapturedTell& t : run.captured_tells) {
      tells.push_back(net::encode_tell_wire(enc, t.req, t.session, t.config,
                                            t.result));
    }
    for (const service::PendingRun& r : run.captured_runs) {
      runs.push_back(net::encode_run_wire(enc, r));
    }
    for (const CapturedTold& t : run.captured_tolds) {
      tolds.push_back(net::encode_told_wire(enc, t.req, t.session, t.finished,
                                            t.quarantined, t.stop_reason));
    }
    const double enc_tell = median_us_per_call(tells.size(), [&](std::size_t i) {
      const CapturedTell& t = run.captured_tells[i];
      sink += net::encode_tell_wire(enc, t.req, t.session, t.config, t.result)
                  .size();
    });
    const double enc_run = median_us_per_call(runs.size(), [&](std::size_t i) {
      sink += net::encode_run_wire(enc, run.captured_runs[i]).size();
    });
    const double enc_told = median_us_per_call(tolds.size(), [&](std::size_t i) {
      const CapturedTold& t = run.captured_tolds[i];
      sink += net::encode_told_wire(enc, t.req, t.session, t.finished,
                                    t.quarantined, t.stop_reason)
                  .size();
    });
    const double dec_tell = median_us_per_call(tells.size(), [&](std::size_t i) {
      sink += net::parse_request_wire(enc, tells[i]).session;
    });
    const double dec_run = median_us_per_call(runs.size(), [&](std::size_t i) {
      sink += net::parse_server_message_wire(enc, runs[i]).run.config;
    });
    const double dec_told = median_us_per_call(tolds.size(), [&](std::size_t i) {
      sink += net::parse_server_message_wire(enc, tolds[i]).session;
    });
    const std::string n = name;
    out.push_back({"net.encode_us.tell." + n, enc_tell, "us"});
    out.push_back({"net.encode_us.run." + n, enc_run, "us"});
    out.push_back({"net.encode_us.told." + n, enc_told, "us"});
    out.push_back({"net.decode_us.tell." + n, dec_tell, "us"});
    out.push_back({"net.decode_us.run." + n, dec_run, "us"});
    out.push_back({"net.decode_us.told." + n, dec_told, "us"});
    // One tell costs a tell, a told and (usually) a run frame, each
    // encoded once and decoded once.
    const double codec_us =
        enc_tell + enc_run + enc_told + dec_tell + dec_run + dec_told;
    out.push_back({"net.codec_share." + n,
                   mean_tell_ms > 0 ? codec_us / (mean_tell_ms * 1e3) : 0.0,
                   "ratio"});
  }
  codec_sink = sink;
}

void layer_metrics(const RemoteRun& run, const ReplayTrace& replay,
                   std::vector<Metric>& out) {
  std::unordered_map<std::uint64_t, const ServiceTellSpan*> by_key;
  for (const ServiceTellSpan& s : replay.tells) by_key[s.key] = &s;

  const char* layers[] = {"net", "service", "core", "model", "eval"};
  std::vector<double> self[5];
  double total[5] = {};
  double root_total = 0.0;
  std::vector<double> overhead_ms;
  for (const ClientTellSpan& c : run.spans) {
    double l[5] = {};
    const double root = static_cast<double>(c.end - c.start);
    double rtt = static_cast<double>(c.rtt_ns);
    l[0] = static_cast<double>(c.encode_ns + c.decode_ns);
    l[4] = static_cast<double>(c.eval_ns);
    const auto it = by_key.find(c.key);
    if (it != by_key.end()) {
      const ServiceTellSpan& s = *it->second;
      const double svc_total = static_cast<double>(s.tell_ns + s.sweep_ns);
      overhead_ms.push_back((rtt - svc_total) * 1e-6);
      // The in-process spans come from a replay, not from the server
      // itself; when the replay ran slower than the round trip, scale
      // them to fit inside it.
      const double fit = svc_total > rtt && svc_total > 0 ? rtt / svc_total : 1.0;
      const double decision = std::min(static_cast<double>(s.decision_ns),
                                       static_cast<double>(s.sweep_ns));
      const double model = std::min(static_cast<double>(s.model_ns), decision);
      l[1] = (svc_total - decision) * fit;
      l[2] = (decision - model) * fit;
      l[3] = model * fit;
      rtt -= svc_total * fit;
    }
    l[0] += rtt;
    for (int k = 0; k < 5; ++k) {
      self[k].push_back(l[k] * 1e-6);
      total[k] += l[k];
    }
    root_total += root;
  }
  double covered = 0.0;
  for (int k = 0; k < 5; ++k) {
    const std::string n = layers[k];
    out.push_back({n + ".self_ms.p50", quantile(self[k], 0.5), "ms"});
    out.push_back({n + ".self_ms.p99", quantile(self[k], 0.99), "ms"});
    out.push_back({n + ".share", root_total > 0 ? total[k] / root_total : 0.0,
                   "ratio"});
    covered += total[k];
  }
  out.push_back({"trace.completeness",
                 root_total > 0 ? covered / root_total : 0.0, "ratio"});
  out.push_back({"trace.tells", static_cast<double>(run.spans.size()),
                 "count"});
  out.push_back({"net.wire_overhead_ms.p50", quantile(overhead_ms, 0.5), "ms"});
  out.push_back({"net.wire_overhead_ms.p99", quantile(overhead_ms, 0.99), "ms"});

  std::vector<double> tell_us, sweep_ms, sweep_runs;
  double decision_ns = 0.0, model_ns = 0.0;
  for (const ServiceTellSpan& s : replay.tells) {
    tell_us.push_back(static_cast<double>(s.tell_ns) * 1e-3);
    sweep_ms.push_back(static_cast<double>(s.sweep_ns) * 1e-6);
    if (s.sweep_runs > 0) sweep_runs.push_back(static_cast<double>(s.sweep_runs));
    decision_ns += static_cast<double>(s.decision_ns);
    model_ns += static_cast<double>(s.model_ns);
  }
  out.push_back({"service.tell_us", quantile(tell_us, 0.5), "us"});
  out.push_back({"service.next_runs_ms.p50", quantile(sweep_ms, 0.5), "ms"});
  out.push_back({"service.next_runs_ms.p99", quantile(sweep_ms, 0.99), "ms"});
  out.push_back({"service.runs_per_sweep", mean(sweep_runs), "count"});
  out.push_back({"service.snapshot_us", quantile(replay.snapshot_us, 0.5), "us"});
  out.push_back({"service.restore_us", quantile(replay.restore_us, 0.5), "us"});

  out.push_back({"core.viable_p50", quantile(replay.viable, 0.5), "count"});
  out.push_back({"core.simulated_roots_p50",
                 quantile(replay.simulated_roots, 0.5), "count"});
  const double lookups =
      static_cast<double>(replay.cache_hits + replay.cache_misses);
  out.push_back({"core.root_cache.hit_ratio",
                 lookups > 0 ? static_cast<double>(replay.cache_hits) / lookups
                             : 0.0,
                 "ratio"});
  out.push_back({"core.root_cache.lookups", lookups, "count"});

  const double decisions = static_cast<double>(std::max<std::size_t>(
      1, replay.decisions));
  const struct {
    const char* name;
    const ModelMethodStats* stats;
  } methods[] = {{"fit", &replay.fit},
                 {"predict_subset", &replay.predict_subset},
                 {"predict_all", &replay.predict_all},
                 {"append_and_update", &replay.append_and_update}};
  for (const auto& [name, m] : methods) {
    const std::string n = std::string("model.") + name;
    const double calls = static_cast<double>(m->calls);
    out.push_back({n + ".calls_per_decision", calls / decisions, "count"});
    out.push_back({n + ".rows_per_call",
                   calls > 0 ? static_cast<double>(m->rows) / calls : 0.0,
                   "count"});
    out.push_back({n + ".us_per_call",
                   calls > 0 ? static_cast<double>(m->ns) * 1e-3 / calls : 0.0,
                   "us"});
  }
  out.push_back({"model.share_of_decision",
                 decision_ns > 0 ? model_ns / decision_ns : 0.0, "ratio"});
  out.push_back({"eval.runner_us_per_tell",
                 run.spans.empty()
                     ? 0.0
                     : static_cast<double>(run.runner_ns) * 1e-3 /
                           static_cast<double>(run.spans.size()),
                 "us"});
}

void write_spans(const std::string& path, const RemoteRun& run,
                 const ReplayTrace& replay) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::unordered_map<std::uint64_t, const ServiceTellSpan*> by_key;
  for (const ServiceTellSpan& s : replay.tells) by_key[s.key] = &s;
  std::ofstream f(path);
  f << "session,tell,start_ns,end_ns,eval_ns,encode_ns,rtt_ns,decode_ns,"
       "service_tell_ns,service_next_runs_ns,core_decision_ns,model_ns\n";
  for (const ClientTellSpan& c : run.spans) {
    f << (c.key >> 24) << ',' << (c.key & 0xffffff) << ',' << c.start << ','
      << c.end << ',' << c.eval_ns << ',' << c.encode_ns << ',' << c.rtt_ns
      << ',' << c.decode_ns;
    const auto it = by_key.find(c.key);
    if (it != by_key.end()) {
      const ServiceTellSpan& s = *it->second;
      f << ',' << s.tell_ns << ',' << s.sweep_ns << ',' << s.decision_ns << ','
        << s.model_ns << '\n';
    } else {
      f << ",,,,\n";
    }
  }
}

}  // namespace perfbench
