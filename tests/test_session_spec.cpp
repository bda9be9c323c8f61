/// Tests for the unified session surface (service/session_spec.hpp):
/// JSON codec round trips with bit-exact doubles, structural validation,
/// host-independent decoding, the non-serializable corners, and codec
/// equivalence — a session opened from a spec that went through the JSON
/// codec must follow the exact same trajectory as the in-process spec.

#include "service/session_spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "eval/runner.hpp"
#include "service/tuning_service.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace lynceus::service {
namespace {

using core::OptimizerResult;

TEST(SessionSpec, JsonRoundTripPreservesEveryDeclarativeField) {
  SessionSpec spec;
  spec.optimizer = "lynceus";
  spec.seed = 123456789ULL;
  spec.problem_ref = ProblemRef{"scout", "spark-pagerank", 2.5};
  spec.lookahead = 3;
  spec.gh_points = 5;
  // Deliberately awkward doubles: the codec must round-trip bits, not
  // decimal renderings.
  spec.gamma = 0.1 + 0.2;
  spec.feasibility_quantile = std::nextafter(0.99, 1.0);
  spec.screen_width = 36;
  spec.ei_stop_fraction = 1e-17;
  spec.incremental_refit = true;
  spec.branch_parallel = true;
  spec.blacklist_failed = false;
  RunPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_seconds = 1.5;
  policy.backoff_multiplier = 2.25;
  policy.run_timeout_seconds = 600.0;
  policy.timeout_tmax_factor = 1.75;
  policy.quarantine_after = 4;
  spec.run_policy = policy;

  const SessionSpec back = SessionSpec::from_json(spec.to_json());
  EXPECT_EQ(back.optimizer, spec.optimizer);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.problem_ref.suite, "scout");
  EXPECT_EQ(back.problem_ref.job, "spark-pagerank");
  EXPECT_EQ(back.problem_ref.budget_multiplier, 2.5);
  EXPECT_EQ(back.lookahead, spec.lookahead);
  EXPECT_EQ(back.gh_points, spec.gh_points);
  EXPECT_EQ(back.gamma, spec.gamma);  // bit-exact
  EXPECT_EQ(back.feasibility_quantile, spec.feasibility_quantile);
  EXPECT_EQ(back.screen_width, spec.screen_width);
  EXPECT_EQ(back.ei_stop_fraction, spec.ei_stop_fraction);
  EXPECT_EQ(back.incremental_refit, spec.incremental_refit);
  EXPECT_EQ(back.branch_parallel, spec.branch_parallel);
  EXPECT_EQ(back.blacklist_failed, spec.blacklist_failed);
  ASSERT_TRUE(back.run_policy.has_value());
  EXPECT_EQ(back.run_policy->max_attempts, 3U);
  EXPECT_EQ(back.run_policy->backoff_base_seconds, 1.5);
  EXPECT_EQ(back.run_policy->backoff_multiplier, 2.25);
  EXPECT_EQ(back.run_policy->run_timeout_seconds, 600.0);
  EXPECT_EQ(back.run_policy->timeout_tmax_factor, 1.75);
  EXPECT_EQ(back.run_policy->quarantine_after, 4U);
  // The round trip is a fixed point: serializing again yields the same
  // bytes, so snapshot/wire equality checks can compare strings.
  EXPECT_EQ(back.to_json(), spec.to_json());
}

TEST(SessionSpec, RunPolicyInfiniteTimeoutEncodedByOmission) {
  SessionSpec spec;
  spec.run_policy = RunPolicy{};  // inert default, +inf timeout
  const std::string json = spec.to_json();
  EXPECT_EQ(json.find("run_timeout_seconds"), std::string::npos);
  const SessionSpec back = SessionSpec::from_json(json);
  ASSERT_TRUE(back.run_policy.has_value());
  EXPECT_TRUE(std::isinf(back.run_policy->run_timeout_seconds));
}

TEST(SessionSpec, MultiConstraintDefaultsLookaheadToOne) {
  // MultiConstraintOptions defaults lookahead to 1 (vs lynceus's 2); a
  // wire spec omitting the knob must land on the kind's default.
  const SessionSpec spec = SessionSpec::from_json(std::string(
      R"({"optimizer":"multi_constraint","seed":7,)"
      R"("constraints":[{"name":"energy","metric_index":1,"threshold":25.0}]})"));
  EXPECT_EQ(spec.lookahead, 1U);
  ASSERT_EQ(spec.constraints.size(), 1U);
  EXPECT_EQ(spec.constraints[0].name, "energy");
  EXPECT_EQ(spec.constraints[0].metric_index, 1U);
  EXPECT_EQ(spec.constraints[0].threshold, 25.0);
}

/// Sets an environment variable for one scope and restores the previous
/// value (or its absence) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(SessionSpec, AbsentToggleKeysDecodeFalseWhateverTheEnvironment) {
  // The in-process defaults follow LYNCEUS_INCREMENTAL_REFIT /
  // LYNCEUS_BRANCH_PARALLEL; a decoded wire spec must not, or the same
  // frame would mean different sessions on differently configured hosts.
  const ScopedEnv incremental("LYNCEUS_INCREMENTAL_REFIT", "1");
  const ScopedEnv branch("LYNCEUS_BRANCH_PARALLEL", "1");
  ASSERT_TRUE(SessionSpec{}.incremental_refit);
  ASSERT_TRUE(SessionSpec{}.branch_parallel);
  for (const char* text :
       {R"({"optimizer":"lynceus","seed":3})",
        R"({"optimizer":"lynceus","seed":3,"options":{"lookahead":1}})"}) {
    SCOPED_TRACE(text);
    const SessionSpec spec = SessionSpec::from_json(std::string(text));
    EXPECT_FALSE(spec.incremental_refit);
    EXPECT_FALSE(spec.branch_parallel);
  }
  // Present keys still decode as sent.
  const SessionSpec on = SessionSpec::from_json(std::string(
      R"({"optimizer":"lynceus","seed":3,)"
      R"("options":{"incremental_refit":true,"branch_parallel":true}})"));
  EXPECT_TRUE(on.incremental_refit);
  EXPECT_TRUE(on.branch_parallel);
}

TEST(SessionSpec, ValidateRejectsStructuralNonsense) {
  SessionSpec spec;
  spec.optimizer = "gradient_descent";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec.optimizer = "multi_constraint";
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no constraints

  spec.optimizer = "lynceus";
  ConstraintSpec c;
  c.name = "energy";
  spec.constraints.push_back(c);
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // wrong kind
  spec.constraints.clear();

  RunPolicy bad;
  bad.max_attempts = 0;
  spec.run_policy = bad;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SessionSpec, FunctionalThresholdRefusesToSerialize) {
  SessionSpec spec;
  spec.optimizer = "multi_constraint";
  ConstraintSpec c;
  c.name = "energy";
  c.threshold_fn = [](core::ConfigId) { return 26.0; };
  spec.constraints.push_back(c);
  EXPECT_THROW((void)spec.to_json(), std::invalid_argument);
}

TEST(SessionSpec, RejectsForeignFormatTag) {
  EXPECT_THROW(
      (void)SessionSpec::from_json(
          std::string(R"({"format":"something-else","version":1,)"
                      R"("optimizer":"random","seed":1})")),
      std::runtime_error);
}

TEST(SessionSpec, WrongKindOptionAccessorsThrow) {
  SessionSpec spec = {};
  spec.optimizer = "bo";
  EXPECT_THROW((void)spec.lynceus_options(), std::invalid_argument);
  EXPECT_THROW((void)spec.multi_constraint_options(), std::invalid_argument);
  EXPECT_NO_THROW((void)spec.bo_options());
}

void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost);
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.decisions, b.decisions);
}

void pump(TuningService& service, eval::AsyncTableRunner& async) {
  while (true) {
    for (const PendingRun& run : service.next_runs()) {
      async.submit(run.session, run.config);
    }
    const auto completion = async.next_completion();
    if (!completion.has_value()) return;
    service.tell(completion->tag, completion->config, completion->result);
  }
}

TEST(SessionSpec, OpenSessionAndWireSpecProduceIdenticalTrajectories) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  core::LynceusOptions lopts;
  lopts.lookahead = 1;
  lopts.incremental_refit = false;

  TuningService service;
  eval::AsyncTableRunner async(ds);
  SessionSpec spec = SessionSpec::lynceus(problem, lopts, 41);
  const SessionId via_spec = service.open_session(spec);
  // A spec that went through the JSON codec (as a wire frame would) must
  // land on the same trajectory as the in-process one.
  SessionSpec wire = SessionSpec::from_json(spec.to_json());
  wire.problem = &problem;
  const SessionId via_wire = service.open_session(wire);
  pump(service, async);

  ASSERT_TRUE(service.finished(via_spec));
  ASSERT_TRUE(service.finished(via_wire));
  expect_identical(service.result(via_wire), service.result(via_spec));
}

TEST(SessionSpec, OpenSessionWithoutProblemThrows) {
  TuningService service;
  SessionSpec spec;
  spec.optimizer = "random";
  EXPECT_THROW((void)service.open_session(spec), std::invalid_argument);
}

}  // namespace
}  // namespace lynceus::service
