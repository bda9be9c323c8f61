#include "eval/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace lynceus::eval {

TableRunner::TableRunner(const cloud::Dataset& dataset, MetricsFn metrics)
    : dataset_(&dataset), metrics_(std::move(metrics)) {}

core::RunResult TableRunner::run(space::ConfigId id) {
  const auto& obs = dataset_->observation(id);
  core::RunResult r;
  r.runtime_seconds = obs.runtime_seconds;
  r.cost = obs.cost();
  r.timed_out = obs.timed_out;
  if (metrics_) r.metrics = metrics_(id);
  ++served_;
  return r;
}

void FaultPlan::validate() const {
  const auto rate_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!rate_ok(fail_rate) || !rate_ok(hang_rate) || !rate_ok(straggler_rate)) {
    throw std::invalid_argument("FaultPlan: rates must lie in [0, 1]");
  }
  if (!(straggler_factor >= 1.0) || !std::isfinite(straggler_factor)) {
    throw std::invalid_argument(
        "FaultPlan: straggler factor must be finite and >= 1");
  }
}

InjectedRun inject_faults(const FaultPlan& plan, space::ConfigId config,
                          std::uint64_t attempt,
                          const core::RunResult& base) {
  InjectedRun out;
  out.result = base;
  out.duration = base.runtime_seconds;
  if (!plan.active()) return out;

  // The per-attempt fault stream: a pure function of (seed, config,
  // attempt), consumed in a fixed draw order — see the fault-determinism
  // contract in runner.hpp.
  util::Rng rng(util::derive_seed(util::derive_seed(plan.seed, config),
                                  attempt));
  const bool hang = rng.bernoulli(plan.hang_rate);
  const bool fail = rng.bernoulli(plan.fail_rate);
  const double fail_fraction = fail ? rng.uniform() : 0.0;
  const bool straggle = rng.bernoulli(plan.straggler_rate);

  if (hang) {
    out.duration = std::numeric_limits<double>::infinity();
    return out;  // result is meaningless; only a timeout can resolve this
  }

  const double multiplier = straggle ? plan.straggler_factor : 1.0;
  // Elapsed-time billing: the attempt costs base.cost scaled by how long
  // it actually occupied the cluster relative to the fault-free runtime.
  const auto billed = [&](double duration) {
    return base.runtime_seconds > 0.0
               ? base.cost * (duration / base.runtime_seconds)
               : base.cost;
  };

  if (fail) {
    // Crash partway through the (possibly straggling) run.
    out.duration =
        base.runtime_seconds * multiplier * fail_fraction;
    out.result.outcome = core::RunOutcome::kFailed;
    out.result.runtime_seconds = out.duration;  // informational only
    out.result.cost = billed(out.duration);
    out.result.metrics.clear();  // a crashed run measures nothing
    return out;
  }

  out.duration = base.runtime_seconds * multiplier;
  out.result.runtime_seconds = out.duration;
  out.result.cost = billed(out.duration);
  return out;
}

core::RunResult cap_injected_run(const InjectedRun& run,
                                 const core::RunResult& base,
                                 double timeout_seconds) {
  if (run.duration <= timeout_seconds) return run.result;
  core::RunResult r = base;
  r.outcome = core::RunOutcome::kTimedOut;
  r.timed_out = true;
  r.runtime_seconds = timeout_seconds;  // censored: true runtime >= cap
  r.cost = base.runtime_seconds > 0.0
               ? base.cost * (timeout_seconds / base.runtime_seconds)
               : base.cost;
  return r;
}

FaultInjectingRunner::FaultInjectingRunner(core::JobRunner& inner,
                                           FaultPlan plan,
                                           double timeout_seconds)
    : inner_(&inner), plan_(plan), timeout_seconds_(timeout_seconds) {
  plan_.validate();
  if (std::isnan(timeout_seconds_) || timeout_seconds_ <= 0.0) {
    throw std::invalid_argument(
        "FaultInjectingRunner: timeout must be positive");
  }
}

core::RunResult FaultInjectingRunner::run(space::ConfigId id) {
  const core::RunResult base = inner_->run(id);
  const std::uint64_t attempt = attempts_[id]++;
  const InjectedRun injected = inject_faults(plan_, id, attempt, base);
  if (std::isinf(injected.duration) && std::isinf(timeout_seconds_)) {
    // A hang with no cap never returns in a synchronous runner: surface it
    // as the runner error the optimizers are tested to propagate.
    throw std::runtime_error(
        "FaultInjectingRunner: run hung with no timeout (config " +
        std::to_string(id) + ")");
  }
  return cap_injected_run(injected, base, timeout_seconds_);
}

namespace {
/// Max-heap comparator inverted into a min-heap on (finish_time, ticket):
/// `a` sorts after `b` when it finishes later, ties by higher ticket.
struct FinishesLater {
  bool operator()(const AsyncTableRunner::Completion& a,
                  const AsyncTableRunner::Completion& b) const noexcept {
    if (a.finish_time != b.finish_time) return a.finish_time > b.finish_time;
    return a.ticket > b.ticket;
  }
};
}  // namespace

AsyncTableRunner::AsyncTableRunner(const cloud::Dataset& dataset,
                                   MetricsFn metrics)
    : dataset_(&dataset), metrics_(std::move(metrics)) {}

void AsyncTableRunner::set_fault_plan(const FaultPlan& plan) {
  plan.validate();
  plan_ = plan;
}

std::uint64_t AsyncTableRunner::submit(std::uint64_t tag,
                                       space::ConfigId config) {
  return submit(tag, config, SubmitOptions{});
}

std::uint64_t AsyncTableRunner::submit(std::uint64_t tag,
                                       space::ConfigId config,
                                       const SubmitOptions& options) {
  if (std::isnan(options.timeout_seconds) || options.timeout_seconds <= 0.0) {
    throw std::invalid_argument(
        "AsyncTableRunner::submit: timeout must be positive");
  }
  if (std::isnan(options.start_delay) || options.start_delay < 0.0) {
    throw std::invalid_argument(
        "AsyncTableRunner::submit: start delay must be non-negative");
  }
  const auto& obs = dataset_->observation(config);
  core::RunResult base;
  base.runtime_seconds = obs.runtime_seconds;
  base.cost = obs.cost();
  base.timed_out = obs.timed_out;
  if (metrics_) base.metrics = metrics_(config);

  const InjectedRun injected =
      inject_faults(plan_, config, options.attempt, base);
  const double resolved_after =
      std::min(injected.duration, options.timeout_seconds);

  Completion c;
  c.ticket = next_ticket_++;
  c.tag = tag;
  c.config = config;
  // A hang with no cap never finishes: it stays in the heap at +infinity
  // (outstanding, but next_completion() will not pop it).
  c.finish_time = now_ + options.start_delay + resolved_after;
  c.result = cap_injected_run(injected, base, options.timeout_seconds);
  pending_.push_back(std::move(c));
  std::push_heap(pending_.begin(), pending_.end(), FinishesLater{});
  return next_ticket_ - 1;
}

std::optional<AsyncTableRunner::Completion>
AsyncTableRunner::next_completion() {
  if (pending_.empty()) return std::nullopt;
  if (std::isinf(pending_.front().finish_time)) {
    // Every outstanding run is hung forever; the clock cannot advance.
    return std::nullopt;
  }
  std::pop_heap(pending_.begin(), pending_.end(), FinishesLater{});
  Completion out = std::move(pending_.back());
  pending_.pop_back();
  now_ = out.finish_time;
  ++served_;
  return out;
}

std::optional<double> AsyncTableRunner::next_finish_time() const {
  if (pending_.empty() || std::isinf(pending_.front().finish_time)) {
    return std::nullopt;
  }
  return pending_.front().finish_time;
}

}  // namespace lynceus::eval
