#include "service/session_spec.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/random_search.hpp"

namespace lynceus::service {

void RunPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("RunPolicy: max_attempts must be >= 1");
  }
  if (std::isnan(backoff_base_seconds) || backoff_base_seconds < 0.0 ||
      std::isinf(backoff_base_seconds)) {
    throw std::invalid_argument(
        "RunPolicy: backoff base must be finite and non-negative");
  }
  if (std::isnan(backoff_multiplier) || backoff_multiplier < 1.0 ||
      std::isinf(backoff_multiplier)) {
    throw std::invalid_argument(
        "RunPolicy: backoff multiplier must be finite and >= 1");
  }
  if (std::isnan(run_timeout_seconds) || run_timeout_seconds <= 0.0) {
    throw std::invalid_argument("RunPolicy: run timeout must be positive");
  }
  if (std::isnan(timeout_tmax_factor) || timeout_tmax_factor < 0.0 ||
      std::isinf(timeout_tmax_factor)) {
    throw std::invalid_argument(
        "RunPolicy: Tmax timeout factor must be finite and non-negative");
  }
}

void RunPolicy::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("max_attempts").value(static_cast<std::uint64_t>(max_attempts));
  w.key("backoff_base_seconds").value_exact(backoff_base_seconds);
  w.key("backoff_multiplier").value_exact(backoff_multiplier);
  // +infinity (no timeout) cannot ride in a JSON number; absence is the
  // sentinel, mirroring the struct default.
  if (std::isfinite(run_timeout_seconds)) {
    w.key("run_timeout_seconds").value_exact(run_timeout_seconds);
  }
  w.key("timeout_tmax_factor").value_exact(timeout_tmax_factor);
  w.key("quarantine_after")
      .value(static_cast<std::uint64_t>(quarantine_after));
  w.end_object();
}

RunPolicy RunPolicy::from_json(const util::JsonValue& v) {
  if (v.type() != util::JsonValue::Type::Object) {
    throw std::runtime_error("RunPolicy: expected a JSON object");
  }
  RunPolicy p;
  if (const auto* f = v.find("max_attempts")) {
    p.max_attempts = static_cast<std::size_t>(f->as_uint());
  }
  if (const auto* f = v.find("backoff_base_seconds")) {
    p.backoff_base_seconds = f->as_double();
  }
  if (const auto* f = v.find("backoff_multiplier")) {
    p.backoff_multiplier = f->as_double();
  }
  if (const auto* f = v.find("run_timeout_seconds")) {
    p.run_timeout_seconds = f->as_double();
  }
  if (const auto* f = v.find("timeout_tmax_factor")) {
    p.timeout_tmax_factor = f->as_double();
  }
  if (const auto* f = v.find("quarantine_after")) {
    p.quarantine_after = static_cast<std::size_t>(f->as_uint());
  }
  p.validate();
  return p;
}

core::ConstraintDef ConstraintSpec::def() const {
  core::ConstraintDef d;
  d.name = name;
  d.metric_index = metric_index;
  if (threshold_fn) {
    d.threshold = threshold_fn;
  } else {
    const double t = threshold;
    d.threshold = [t](core::ConfigId) { return t; };
  }
  return d;
}

SessionSpec SessionSpec::lynceus(const core::OptimizationProblem& problem,
                                 const core::LynceusOptions& options,
                                 std::uint64_t seed) {
  SessionSpec spec;
  spec.optimizer = "lynceus";
  spec.seed = seed;
  spec.problem = &problem;
  spec.lookahead = options.lookahead;
  spec.gh_points = options.gh_points;
  spec.gamma = options.gamma;
  spec.feasibility_quantile = options.feasibility_quantile;
  spec.screen_width = options.screen_width;
  spec.ei_stop_fraction = options.ei_stop_fraction;
  spec.incremental_refit = options.incremental_refit;
  spec.branch_parallel = options.branch_parallel;
  spec.blacklist_failed = options.blacklist_failed;
  spec.observer = options.observer;
  spec.model_factory = options.model_factory;
  spec.setup_cost = options.setup_cost;
  return spec;
}

SessionSpec SessionSpec::multi_constraint(
    const core::OptimizationProblem& problem,
    const std::vector<core::ConstraintDef>& constraints,
    const core::MultiConstraintOptions& options, std::uint64_t seed) {
  SessionSpec spec;
  spec.optimizer = "multi_constraint";
  spec.seed = seed;
  spec.problem = &problem;
  spec.lookahead = options.lookahead;
  spec.gh_points = options.gh_points;
  spec.gamma = options.gamma;
  spec.feasibility_quantile = options.feasibility_quantile;
  spec.prune_weight = options.prune_weight;
  spec.incremental_refit = options.incremental_refit;
  spec.branch_parallel = options.branch_parallel;
  spec.blacklist_failed = options.blacklist_failed;
  spec.observer = options.observer;
  spec.model_factory = options.model_factory;
  for (const core::ConstraintDef& d : constraints) {
    ConstraintSpec c;
    c.name = d.name;
    c.metric_index = d.metric_index;
    c.threshold_fn = d.threshold;  // opaque; serializes only if replaced
    spec.constraints.push_back(std::move(c));
  }
  return spec;
}

SessionSpec SessionSpec::bo(const core::OptimizationProblem& problem,
                            const core::BoOptions& options,
                            std::uint64_t seed) {
  SessionSpec spec;
  spec.optimizer = "bo";
  spec.seed = seed;
  spec.problem = &problem;
  spec.ei_stop_fraction = options.ei_stop_fraction;
  spec.observer = options.observer;
  spec.model_factory = options.model_factory;
  return spec;
}

SessionSpec SessionSpec::random(const core::OptimizationProblem& problem,
                                std::uint64_t seed) {
  SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = seed;
  spec.problem = &problem;
  return spec;
}

core::LynceusOptions SessionSpec::lynceus_options() const {
  if (optimizer != "lynceus") {
    throw std::invalid_argument(
        "SessionSpec: lynceus_options() on a '" + optimizer + "' spec");
  }
  core::LynceusOptions o;
  o.lookahead = lookahead;
  o.gh_points = gh_points;
  o.gamma = gamma;
  o.feasibility_quantile = feasibility_quantile;
  o.screen_width = screen_width;
  o.ei_stop_fraction = ei_stop_fraction;
  o.incremental_refit = incremental_refit;
  o.branch_parallel = branch_parallel;
  o.blacklist_failed = blacklist_failed;
  o.observer = observer;
  o.model_factory = model_factory;
  o.setup_cost = setup_cost;
  return o;
}

core::MultiConstraintOptions SessionSpec::multi_constraint_options() const {
  if (optimizer != "multi_constraint") {
    throw std::invalid_argument(
        "SessionSpec: multi_constraint_options() on a '" + optimizer +
        "' spec");
  }
  core::MultiConstraintOptions o;
  o.lookahead = lookahead;
  o.gh_points = gh_points;
  o.gamma = gamma;
  o.feasibility_quantile = feasibility_quantile;
  o.prune_weight = prune_weight;
  o.incremental_refit = incremental_refit;
  o.branch_parallel = branch_parallel;
  o.blacklist_failed = blacklist_failed;
  o.observer = observer;
  o.model_factory = model_factory;
  return o;
}

core::BoOptions SessionSpec::bo_options() const {
  if (optimizer != "bo") {
    throw std::invalid_argument("SessionSpec: bo_options() on a '" +
                                optimizer + "' spec");
  }
  core::BoOptions o;
  o.ei_stop_fraction = ei_stop_fraction;
  o.observer = observer;
  o.model_factory = model_factory;
  return o;
}

std::unique_ptr<core::OptimizerStepper> SessionSpec::make_stepper(
    util::ThreadPool* pool, core::RootCache* cache) const {
  validate();
  if (problem == nullptr) {
    throw std::invalid_argument(
        "SessionSpec: no in-process problem — resolve problem_ref before "
        "opening");
  }
  if (optimizer == "lynceus") {
    core::LynceusOptions o = lynceus_options();
    o.pool = pool;
    o.root_cache = cache;
    return core::LynceusOptimizer(std::move(o)).make_stepper(*problem, seed);
  }
  if (optimizer == "multi_constraint") {
    core::MultiConstraintOptions o = multi_constraint_options();
    o.pool = pool;
    o.root_cache = cache;
    std::vector<core::ConstraintDef> defs;
    defs.reserve(constraints.size());
    for (const ConstraintSpec& c : constraints) defs.push_back(c.def());
    return core::MultiConstraintLynceus(std::move(defs), std::move(o))
        .make_stepper(*problem, seed);
  }
  if (optimizer == "bo") {
    return core::BayesianOptimizer(bo_options()).make_stepper(*problem, seed);
  }
  return core::RandomSearch().make_stepper(*problem, seed);
}

void SessionSpec::validate() const {
  if (optimizer != "lynceus" && optimizer != "multi_constraint" &&
      optimizer != "bo" && optimizer != "random") {
    throw std::invalid_argument("SessionSpec: unknown optimizer kind '" +
                                optimizer + "'");
  }
  if (optimizer == "multi_constraint") {
    if (constraints.empty()) {
      throw std::invalid_argument(
          "SessionSpec: multi_constraint requires at least one constraint");
    }
  } else if (!constraints.empty()) {
    throw std::invalid_argument("SessionSpec: constraints are only valid "
                                "for the multi_constraint optimizer");
  }
  for (const ConstraintSpec& c : constraints) {
    if (!c.threshold_fn && !std::isfinite(c.threshold)) {
      throw std::invalid_argument(
          "SessionSpec: constraint '" + c.name +
          "' needs a finite constant threshold or a threshold function");
    }
  }
  if (run_policy.has_value()) run_policy->validate();
}

void SessionSpec::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("format").value("lynceus-session-spec");
  w.key("version").value(1);
  w.key("optimizer").value(optimizer);
  w.key("seed").value(seed);
  if (!problem_ref.empty()) {
    w.key("problem").begin_object();
    w.key("suite").value(problem_ref.suite);
    w.key("job").value(problem_ref.job);
    w.key("b").value_exact(problem_ref.budget_multiplier);
    w.end_object();
  }
  w.key("options").begin_object();
  w.key("lookahead").value(static_cast<std::uint64_t>(lookahead));
  w.key("gh_points").value(static_cast<std::uint64_t>(gh_points));
  w.key("gamma").value_exact(gamma);
  w.key("feasibility_quantile").value_exact(feasibility_quantile);
  w.key("screen_width").value(static_cast<std::uint64_t>(screen_width));
  w.key("ei_stop_fraction").value_exact(ei_stop_fraction);
  w.key("prune_weight").value_exact(prune_weight);
  w.key("incremental_refit").value(incremental_refit);
  w.key("branch_parallel").value(branch_parallel);
  w.key("blacklist_failed").value(blacklist_failed);
  w.end_object();
  if (!constraints.empty()) {
    w.key("constraints").begin_array();
    for (const ConstraintSpec& c : constraints) {
      if (c.threshold_fn) {
        throw std::invalid_argument(
            "SessionSpec: constraint '" + c.name +
            "' holds a threshold function, which cannot serialize — use a "
            "constant threshold for wire/snapshot specs");
      }
      w.begin_object();
      w.key("name").value(c.name);
      w.key("metric_index").value(static_cast<std::uint64_t>(c.metric_index));
      w.key("threshold").value_exact(c.threshold);
      w.end_object();
    }
    w.end_array();
  }
  if (run_policy.has_value()) {
    w.key("run_policy");
    run_policy->to_json(w);
  }
  w.end_object();
}

std::string SessionSpec::to_json() const {
  util::JsonWriter w;
  to_json(w);
  return w.str();
}

SessionSpec SessionSpec::from_json(const util::JsonValue& v) {
  if (v.type() != util::JsonValue::Type::Object) {
    throw std::runtime_error("SessionSpec: expected a JSON object");
  }
  if (const auto* f = v.find("format")) {
    if (f->as_string() != "lynceus-session-spec") {
      throw std::runtime_error("SessionSpec: unknown format '" +
                               f->as_string() + "'");
    }
    if (v.at("version").as_int() != 1) {
      throw std::runtime_error("SessionSpec: unsupported version");
    }
  }
  SessionSpec spec;
  // An absent key means the documented default, never this host's
  // LYNCEUS_INCREMENTAL_REFIT / LYNCEUS_BRANCH_PARALLEL toggles: a wire
  // spec must mean the same on every server.
  spec.incremental_refit = false;
  spec.branch_parallel = false;
  spec.optimizer = v.at("optimizer").as_string();
  // Per-kind default divergence: MultiConstraintOptions defaults LA to 1.
  if (spec.optimizer == "multi_constraint") spec.lookahead = 1;
  spec.seed = v.at("seed").as_uint();
  if (const auto* p = v.find("problem")) {
    spec.problem_ref.suite = p->at("suite").as_string();
    spec.problem_ref.job = p->at("job").as_string();
    if (const auto* b = p->find("b")) {
      spec.problem_ref.budget_multiplier = b->as_double();
    }
  }
  if (const auto* o = v.find("options")) {
    if (const auto* f = o->find("lookahead")) {
      spec.lookahead = static_cast<unsigned>(f->as_uint());
    }
    if (const auto* f = o->find("gh_points")) {
      spec.gh_points = static_cast<unsigned>(f->as_uint());
    }
    if (const auto* f = o->find("gamma")) spec.gamma = f->as_double();
    if (const auto* f = o->find("feasibility_quantile")) {
      spec.feasibility_quantile = f->as_double();
    }
    if (const auto* f = o->find("screen_width")) {
      spec.screen_width = static_cast<unsigned>(f->as_uint());
    }
    if (const auto* f = o->find("ei_stop_fraction")) {
      spec.ei_stop_fraction = f->as_double();
    }
    if (const auto* f = o->find("prune_weight")) {
      spec.prune_weight = f->as_double();
    }
    if (const auto* f = o->find("incremental_refit")) {
      spec.incremental_refit = f->as_bool();
    }
    if (const auto* f = o->find("branch_parallel")) {
      spec.branch_parallel = f->as_bool();
    }
    if (const auto* f = o->find("blacklist_failed")) {
      spec.blacklist_failed = f->as_bool();
    }
  }
  if (const auto* cs = v.find("constraints")) {
    for (const util::JsonValue& c : cs->items()) {
      ConstraintSpec s;
      s.name = c.at("name").as_string();
      s.metric_index = static_cast<std::size_t>(c.at("metric_index").as_uint());
      s.threshold = c.at("threshold").as_double();
      spec.constraints.push_back(std::move(s));
    }
  }
  if (const auto* p = v.find("run_policy")) {
    spec.run_policy = RunPolicy::from_json(*p);
  }
  spec.validate();
  return spec;
}

SessionSpec SessionSpec::from_json(const std::string& text) {
  return from_json(util::parse_json(text));
}

}  // namespace lynceus::service
