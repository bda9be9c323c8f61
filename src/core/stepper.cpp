#include "core/stepper.hpp"

#include <stdexcept>
#include <string>

namespace lynceus::core {

const std::string OptimizerStepper::empty_;

OptimizerStepper::OptimizerStepper(const OptimizationProblem& problem,
                                   std::uint64_t seed,
                                   OptimizerObserver* observer)
    : st_(problem, seed), observer_(observer) {}

void OptimizerStepper::finish_bootstrap() {
  if (observer_ != nullptr) {
    for (const auto& s : st_.samples) observer_->on_bootstrap(s);
  }
  phase_ = Phase::Decide;
}

void OptimizerStepper::finish(const std::string& stop_reason) {
  phase_ = Phase::Finished;
  action_.kind = StepAction::Kind::Finished;
  action_.configs.clear();
  action_.stop_reason = stop_reason;
  told_.clear();
  told_count_ = 0;
  action_ready_ = true;
  if (observer_ != nullptr && !stop_reason.empty()) {
    observer_->on_stop(stop_reason);
  }
}

void OptimizerStepper::abort(const std::string& reason) {
  started_ = true;
  if (phase_ == Phase::Finished) return;
  finish(reason);
}

void OptimizerStepper::compute_next() {
  std::string stop_reason;
  const std::optional<ConfigId> choice = decide(stop_reason);
  if (!choice.has_value()) {
    finish(stop_reason);
    return;
  }
  action_.kind = StepAction::Kind::Profile;
  action_.configs.assign(1, *choice);
  action_.stop_reason.clear();
  told_.assign(1, std::nullopt);
  told_count_ = 0;
  action_ready_ = true;
}

const StepAction& OptimizerStepper::ask() {
  started_ = true;
  if (action_ready_) return action_;
  if (phase_ == Phase::Bootstrap) {
    std::vector<ConfigId> plan = st_.bootstrap_plan();
    if (!plan.empty()) {
      action_.kind = StepAction::Kind::Profile;
      action_.configs = std::move(plan);
      action_.stop_reason.clear();
      told_.assign(action_.configs.size(), std::nullopt);
      told_count_ = 0;
      action_ready_ = true;
      return action_;
    }
    // Warm-start priors replaced the LHS batch entirely.
    finish_bootstrap();
  }
  compute_next();
  return action_;
}

void OptimizerStepper::tell(ConfigId config, const RunResult& result) {
  started_ = true;
  if (!action_ready_ || action_.kind != StepAction::Kind::Profile) {
    throw std::logic_error(
        "OptimizerStepper::tell: no outstanding profiling request "
        "(call ask() first)");
  }
  std::size_t index = action_.configs.size();
  for (std::size_t i = 0; i < action_.configs.size(); ++i) {
    if (action_.configs[i] == config && !told_[i].has_value()) {
      index = i;
      break;
    }
  }
  if (index == action_.configs.size()) {
    throw std::invalid_argument(
        "OptimizerStepper::tell: configuration " + std::to_string(config) +
        " is not an untold member of the outstanding batch");
  }
  told_[index] = result;
  ++told_count_;
  if (told_count_ < action_.configs.size()) return;

  // Batch complete: apply in canonical ask() order, so the optimizer state
  // is independent of the order the tell()s arrived in. Failed runs are
  // dispatched to apply_failed_run in the same canonical position.
  if (phase_ == Phase::Bootstrap) {
    for (std::size_t i = 0; i < action_.configs.size(); ++i) {
      if (told_[i]->failed()) {
        apply_failed_run(action_.configs[i], *told_[i]);
      } else {
        apply_bootstrap_run(action_.configs[i], *told_[i]);
      }
    }
    if (st_.samples.empty()) {
      // Every bootstrap run failed: there is no training set to decide
      // from. Only reachable under fault injection.
      finish("no_successful_runs");
      return;
    }
    finish_bootstrap();
  } else {
    for (std::size_t i = 0; i < action_.configs.size(); ++i) {
      if (told_[i]->failed()) {
        apply_failed_run(action_.configs[i], *told_[i]);
      } else {
        apply_decision_run(action_.configs[i], *told_[i]);
      }
    }
  }
  action_ready_ = false;
  told_.clear();
  told_count_ = 0;
}

void OptimizerStepper::apply_bootstrap_run(ConfigId config,
                                           const RunResult& r) {
  st_.record(config, r);
}

void OptimizerStepper::apply_decision_run(ConfigId config,
                                          const RunResult& r) {
  const Sample& ran = st_.record(config, r);
  if (observer_ != nullptr) observer_->on_run(ran);
}

void OptimizerStepper::apply_failed_run(ConfigId config, const RunResult& r) {
  const FailureRecord& f = st_.record_failure(config, r);
  if (observer_ != nullptr) observer_->on_failure(f);
}

std::vector<ConfigId> OptimizerStepper::outstanding_configs() const {
  std::vector<ConfigId> out;
  if (action_ready_ && action_.kind == StepAction::Kind::Profile) {
    for (std::size_t i = 0; i < action_.configs.size(); ++i) {
      if (!told_[i].has_value()) out.push_back(action_.configs[i]);
    }
  }
  return out;
}

OptimizerResult OptimizerStepper::result() const {
  OptimizerResult out = st_.finalize();
  timer_.write_to(out);
  return out;
}

void OptimizerStepper::save_extra(util::JsonWriter& w) const { (void)w; }
void OptimizerStepper::load_extra(const util::JsonValue& extra) {
  (void)extra;
}

std::string OptimizerStepper::snapshot() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value("lynceus-session");
  w.key("version").value(1);
  w.key("optimizer").value(name());
  w.key("space_rows")
      .value(static_cast<std::uint64_t>(st_.problem->space->size()));
  const char* phase = phase_ == Phase::Bootstrap
                          ? "bootstrap"
                          : phase_ == Phase::Decide ? "decide" : "finished";
  w.key("phase").value(phase);

  const util::Rng::State rng = st_.rng.state();
  w.key("rng").begin_object();
  w.key("s0").value(rng.s[0]);
  w.key("s1").value(rng.s[1]);
  w.key("s2").value(rng.s[2]);
  w.key("s3").value(rng.s[3]);
  w.key("spare").value_exact(rng.spare_normal);
  w.key("has_spare").value(rng.has_spare);
  w.end_object();

  w.key("budget_spent").value_exact(st_.budget.spent());
  // Failure-aware keys are emitted only when a fault actually occurred, so
  // fault-free snapshots stay byte-identical to the pre-failure format.
  if (st_.budget.failed_spent() != 0.0) {
    w.key("budget_failed").value_exact(st_.budget.failed_spent());
  }

  w.key("samples").begin_array();
  for (const Sample& s : st_.samples) {
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(s.id));
    w.key("runtime").value_exact(s.runtime_seconds);
    w.key("cost").value_exact(s.cost);
    w.key("feasible").value(s.feasible);
    w.end_object();
  }
  w.end_array();

  if (!st_.failures.empty()) {
    w.key("failures").begin_array();
    for (const FailureRecord& f : st_.failures) {
      w.begin_object();
      w.key("id").value(static_cast<std::uint64_t>(f.id));
      w.key("cost").value_exact(f.cost);
      w.key("seq").value(static_cast<std::uint64_t>(f.after_samples));
      w.end_object();
    }
    w.end_array();
  }

  w.key("pending").begin_array();
  if (action_ready_ && action_.kind == StepAction::Kind::Profile) {
    for (ConfigId id : action_.configs) {
      w.value(static_cast<std::uint64_t>(id));
    }
  }
  w.end_array();
  w.key("told").begin_array();
  if (action_ready_ && action_.kind == StepAction::Kind::Profile) {
    for (const auto& t : told_) {
      if (!t.has_value()) {
        w.null();
        continue;
      }
      w.begin_object();
      w.key("runtime").value_exact(t->runtime_seconds);
      w.key("cost").value_exact(t->cost);
      w.key("timed_out").value(t->timed_out);
      if (!t->ok()) {
        w.key("outcome").value(to_string(t->outcome));
      }
      w.key("metrics").begin_array();
      for (double m : t->metrics) w.value_exact(m);
      w.end_array();
      w.end_object();
    }
  }
  w.end_array();

  w.key("stop_reason")
      .value(phase_ == Phase::Finished ? action_.stop_reason : "");
  w.key("decisions").value(static_cast<std::uint64_t>(timer_.count()));
  w.key("decision_seconds").value_exact(timer_.total_seconds());

  w.key("extra").begin_object();
  save_extra(w);
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {
RunOutcome outcome_from_string(const std::string& s) {
  if (s == "ok") return RunOutcome::kOk;
  if (s == "failed") return RunOutcome::kFailed;
  if (s == "timed_out") return RunOutcome::kTimedOut;
  throw std::runtime_error("OptimizerStepper::restore: unknown outcome '" +
                           s + "'");
}

/// A snapshot's config id, range-checked against the space *before* it is
/// narrowed to ConfigId: a client-written id of 2^32 + k would otherwise
/// alias config k.
ConfigId config_id_from(const util::JsonValue& v, std::size_t space_rows,
                        const char* section) {
  const std::uint64_t id = v.as_uint();
  if (id >= space_rows) {
    throw std::runtime_error(std::string("OptimizerStepper::restore: ") +
                             section + " config id " + std::to_string(id) +
                             " is outside the " + std::to_string(space_rows) +
                             "-row configuration space");
  }
  return static_cast<ConfigId>(id);
}
}  // namespace

void OptimizerStepper::restore(const std::string& snapshot_json) {
  if (started_ || !st_.samples.empty() || !st_.failures.empty()) {
    throw std::logic_error(
        "OptimizerStepper::restore: stepper already started — restore into "
        "a freshly constructed stepper");
  }
  const util::JsonValue v = util::parse_json(snapshot_json);
  if (v.at("format").as_string() != "lynceus-session" ||
      v.at("version").as_int() != 1) {
    throw std::runtime_error("OptimizerStepper::restore: not a version-1 "
                             "lynceus-session snapshot");
  }
  if (v.at("optimizer").as_string() != name()) {
    throw std::runtime_error(
        "OptimizerStepper::restore: snapshot was taken by '" +
        v.at("optimizer").as_string() + "', this stepper is '" + name() +
        "'");
  }
  const std::size_t rows = st_.problem->space->size();
  if (v.at("space_rows").as_uint() != rows) {
    throw std::runtime_error(
        "OptimizerStepper::restore: configuration-space size mismatch");
  }

  // Replaying the samples — interleaved with any saved failures in their
  // original event order (`seq` = samples recorded when the failure was
  // applied) — rebuilds `tested` and the exact untested-list permutation;
  // budget and RNG are restored verbatim.
  std::vector<FailureRecord> failures;
  if (const util::JsonValue* fs = v.find("failures")) {
    std::size_t prev_seq = 0;
    for (const util::JsonValue& f : fs->items()) {
      FailureRecord rec;
      rec.id = config_id_from(f.at("id"), rows, "failures");
      rec.cost = f.at("cost").as_double();
      rec.after_samples = static_cast<std::size_t>(f.at("seq").as_uint());
      if (rec.after_samples < prev_seq) {
        throw std::runtime_error(
            "OptimizerStepper::restore: failure records out of event order");
      }
      prev_seq = rec.after_samples;
      failures.push_back(rec);
    }
  }
  std::size_t fi = 0;
  std::size_t si = 0;
  for (const util::JsonValue& s : v.at("samples").items()) {
    while (fi < failures.size() && failures[fi].after_samples <= si) {
      st_.restore_failure(failures[fi]);
      ++fi;
    }
    Sample sample;
    sample.id = config_id_from(s.at("id"), rows, "samples");
    sample.runtime_seconds = s.at("runtime").as_double();
    sample.cost = s.at("cost").as_double();
    sample.feasible = s.at("feasible").as_bool();
    st_.restore_sample(sample);
    ++si;
  }
  while (fi < failures.size()) {
    st_.restore_failure(failures[fi]);
    ++fi;
  }
  double budget_failed = 0.0;
  if (const util::JsonValue* bf = v.find("budget_failed")) {
    budget_failed = bf->as_double();
  }
  st_.budget.set_spent(v.at("budget_spent").as_double(), budget_failed);

  const util::JsonValue& rng = v.at("rng");
  util::Rng::State state;
  state.s[0] = rng.at("s0").as_uint();
  state.s[1] = rng.at("s1").as_uint();
  state.s[2] = rng.at("s2").as_uint();
  state.s[3] = rng.at("s3").as_uint();
  state.spare_normal = rng.at("spare").as_double();
  state.has_spare = rng.at("has_spare").as_bool();
  st_.rng.set_state(state);

  timer_.restore(v.at("decision_seconds").as_double(),
                 static_cast<std::size_t>(v.at("decisions").as_uint()));

  const std::string& phase = v.at("phase").as_string();
  if (phase == "bootstrap") {
    phase_ = Phase::Bootstrap;
  } else if (phase == "decide") {
    phase_ = Phase::Decide;
  } else if (phase == "finished") {
    phase_ = Phase::Finished;
  } else {
    throw std::runtime_error("OptimizerStepper::restore: unknown phase '" +
                             phase + "'");
  }
  // The live loop never decides without a sample (an all-failed bootstrap
  // finishes with "no_successful_runs"); such a state would throw from the
  // model fit on the next ask(), inside a service sweep.
  if (phase_ == Phase::Decide && st_.samples.empty()) {
    throw std::runtime_error(
        "OptimizerStepper::restore: decide-phase snapshot without samples");
  }

  const util::JsonValue& pending = v.at("pending");
  const util::JsonValue& told = v.at("told");
  if (phase_ == Phase::Finished) {
    action_.kind = StepAction::Kind::Finished;
    action_.configs.clear();
    action_.stop_reason = v.at("stop_reason").as_string();
    action_ready_ = true;
  } else if (pending.size() > 0) {
    if (told.size() != pending.size()) {
      throw std::runtime_error(
          "OptimizerStepper::restore: pending/told size mismatch");
    }
    action_.kind = StepAction::Kind::Profile;
    action_.configs.clear();
    action_.stop_reason.clear();
    told_.clear();
    told_count_ = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      action_.configs.push_back(config_id_from(pending.at(i), rows, "pending"));
      const util::JsonValue& t = told.at(i);
      if (t.is_null()) {
        told_.emplace_back(std::nullopt);
        continue;
      }
      RunResult r;
      r.runtime_seconds = t.at("runtime").as_double();
      r.cost = t.at("cost").as_double();
      r.timed_out = t.at("timed_out").as_bool();
      if (const util::JsonValue* oc = t.find("outcome")) {
        r.outcome = outcome_from_string(oc->as_string());
      }
      for (const util::JsonValue& m : t.at("metrics").items()) {
        r.metrics.push_back(m.as_double());
      }
      told_.emplace_back(std::move(r));
      ++told_count_;
    }
    action_ready_ = true;
  } else {
    action_ready_ = false;
  }

  load_extra(v.at("extra"));
  started_ = true;
}

OptimizerResult drive(OptimizerStepper& stepper, JobRunner& runner) {
  for (;;) {
    const StepAction& action = stepper.ask();
    if (action.kind == StepAction::Kind::Finished) break;
    // Profiling in batch order keeps the runner's observable call sequence
    // identical to the classic loop's.
    for (ConfigId id : action.configs) stepper.tell(id, runner.run(id));
  }
  return stepper.result();
}

}  // namespace lynceus::core
