#include "core/lynceus.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bo.hpp"
#include "core/sequential.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace lynceus::core {

void LynceusOptions::validate() const {
  if (gh_points == 0) {
    throw std::invalid_argument("LynceusOptions: gh_points must be >= 1");
  }
  if (gamma < 0.0 || gamma > 1.0) {
    throw std::invalid_argument("LynceusOptions: gamma must lie in [0, 1]");
  }
  if (feasibility_quantile <= 0.0 || feasibility_quantile >= 1.0) {
    throw std::invalid_argument(
        "LynceusOptions: feasibility_quantile must lie in (0, 1)");
  }
}

LynceusOptimizer::LynceusOptimizer(LynceusOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

std::string LynceusOptimizer::name() const {
  return util::format("Lynceus(LA=%u)", options_.lookahead);
}

namespace {

/// The Lynceus loop as a suspend/resume state machine: decide() is the
/// body of the classic while-loop (bootstrap → Γ filter → path simulation
/// → argmax reward/cost), run result application adds the §4.4 setup-cost
/// charge. Trajectories are bit-identical to the pre-ask/tell closed loop
/// (tests/test_stepper.cpp pins this against golden optimize() runs).
class LynceusStepper final : public OptimizerStepper {
 public:
  LynceusStepper(const LynceusOptions& options,
                 const OptimizationProblem& problem, std::uint64_t seed)
      : OptimizerStepper(problem, seed, options.observer),
        options_(options),
        seed_(seed),
        factory_(options_.model_factory
                     ? options_.model_factory
                     : default_tree_model_factory(*problem.space)),
        engine_(problem, engine_options(options_), factory_,
                options_.pool != nullptr ? options_.pool->worker_count() + 1
                                         : 1) {
    st_.blacklist_failed = options_.blacklist_failed;
    // A function cannot be keyed: steppers with one bypass the cache.
    if (options_.root_cache != nullptr && !options_.setup_cost &&
        !options_.model_factory) {
      cache_ = options_.root_cache;
      key_.set_context(key_context(options_, problem));
    }
  }

  [[nodiscard]] std::string name() const override {
    return util::format("Lynceus(LA=%u)", options_.lookahead);
  }

 protected:
  std::optional<ConfigId> decide(std::string& stop_reason) override {
    if (st_.untested.empty()) {
      stop_reason = "search space exhausted";
      return std::nullopt;
    }
    timer_.start();
    ++iteration_;

    if (cache_ != nullptr) {
      key_.begin_state(seed_, iteration_, st_.budget.remaining(), st_.samples,
                       st_.failures);
      DecisionEvent hit;
      if (cache_->lookup(key_, hit)) {
        timer_.stop();
        if (observer_ != nullptr) observer_->on_decision(hit);
        return hit.chosen;
      }
    }

    engine_.begin_decision(st_.samples, st_.budget.remaining(),
                           util::derive_seed(seed_, iteration_));

    if (engine_.viable().empty()) {
      timer_.discard();
      // Γ = ∅: the budget affords nothing else (Alg. 1 line 25).
      stop_reason = "budget: no viable configuration left";
      return std::nullopt;
    }

    // Optional early stop (footnote 2 of the paper).
    if (options_.ei_stop_fraction > 0.0 &&
        engine_.max_viable_eic() <
            options_.ei_stop_fraction * engine_.incumbent()) {
      timer_.discard();
      stop_reason = "expected improvement below threshold";
      return std::nullopt;
    }

    // Root screening (implementation approximation; see header).
    engine_.screened_roots(options_.screen_width, roots_);

    // The engine infers testedness from the samples alone, so configs
    // blacklisted after a failed run (tested, but never sampled) can
    // resurface in its candidate set: drop them here. Fault-free runs have
    // no failures and skip this entirely (bitwise-identical trajectories).
    if (!st_.failures.empty()) {
      const auto blacklisted = [this](ConfigId id) {
        return st_.tested[id] != 0;
      };
      roots_.erase(
          std::remove_if(roots_.begin(), roots_.end(), blacklisted),
          roots_.end());
      if (roots_.empty()) {
        // Every screened root was blacklisted: re-screen at full width
        // before concluding nothing viable is left.
        engine_.screened_roots(
            static_cast<unsigned>(engine_.viable().size()), roots_);
        roots_.erase(
            std::remove_if(roots_.begin(), roots_.end(), blacklisted),
            roots_.end());
      }
      if (roots_.empty()) {
        timer_.discard();
        stop_reason = "budget: no viable configuration left";
        return std::nullopt;
      }
    }

    // Simulate one path per root, in parallel (§4.3).
    const detail::RootChoice best = detail::best_root(
        engine_, options_.pool, roots_, seed_, iteration_, values_);
    timer_.stop();

    DecisionEvent event;
    event.iteration = static_cast<std::size_t>(iteration_);
    event.chosen = best.id;
    event.viable_count = engine_.viable().size();
    event.simulated_roots = roots_.size();
    event.predicted_cost = engine_.root_predictions()[best.id].mean;
    event.incumbent = engine_.incumbent();
    event.best_ratio = best.ratio;
    event.remaining_budget = st_.budget.remaining();
    if (cache_ != nullptr) cache_->store(key_, event);
    if (observer_ != nullptr) observer_->on_decision(event);
    return best.id;
  }

  void apply_decision_run(ConfigId config, const RunResult& r) override {
    // §4.4: switching the deployed configuration costs real money too.
    if (options_.setup_cost) {
      const std::optional<ConfigId> chi =
          st_.samples.empty()
              ? std::nullopt
              : std::optional<ConfigId>(st_.samples.back().id);
      st_.budget.spend(std::max(0.0, options_.setup_cost(chi, config)));
    }
    OptimizerStepper::apply_decision_run(config, r);
  }

  void save_extra(util::JsonWriter& w) const override {
    w.key("iteration").value(iteration_);
  }
  void load_extra(const util::JsonValue& extra) override {
    iteration_ = extra.at("iteration").as_uint();
  }

 private:
  /// The per-stepper part of the decision key (see RootCache): the
  /// problem and every option that can change a trajectory.
  static std::string key_context(const LynceusOptions& o,
                                 const OptimizationProblem& problem) {
    std::string c = "lynceus";
    RootCache::Key::append_problem(c, problem);
    RootCache::Key::append(c, o.lookahead);
    RootCache::Key::append(c, o.gh_points);
    RootCache::Key::append(c, o.gamma);
    RootCache::Key::append(c, o.feasibility_quantile);
    RootCache::Key::append(c, o.screen_width);
    RootCache::Key::append(c, o.ei_stop_fraction);
    RootCache::Key::append(c, o.incremental_refit);
    RootCache::Key::append(c, o.blacklist_failed);
    return c;
  }

  static LookaheadEngine::Options engine_options(
      const LynceusOptions& options) {
    LookaheadEngine::Options eopts;
    eopts.lookahead = options.lookahead;
    eopts.gh_points = options.gh_points;
    eopts.gamma = options.gamma;
    eopts.feasibility_quantile = options.feasibility_quantile;
    eopts.setup_cost = options.setup_cost;
    eopts.incremental_refit = options.incremental_refit;
    eopts.branch_pool = options.branch_parallel ? options.pool : nullptr;
    return eopts;
  }

  const LynceusOptions options_;
  const std::uint64_t seed_;
  const model::ModelFactory factory_;
  LookaheadEngine engine_;
  RootCache* cache_ = nullptr;  ///< null when off or bypassed
  RootCache::Key key_;
  std::uint64_t iteration_ = 0;
  std::vector<ConfigId> roots_;
  std::vector<PathValue> values_;
};

}  // namespace

std::unique_ptr<OptimizerStepper> LynceusOptimizer::make_stepper(
    const OptimizationProblem& problem, std::uint64_t seed) const {
  return std::make_unique<LynceusStepper>(options_, problem, seed);
}

OptimizerResult LynceusOptimizer::optimize(const OptimizationProblem& problem,
                                           JobRunner& runner,
                                           std::uint64_t seed) {
  auto stepper = make_stepper(problem, seed);
  return drive(*stepper, runner);
}

}  // namespace lynceus::core
