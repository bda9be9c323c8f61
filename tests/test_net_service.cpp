/// End-to-end tests for the TCP front-end (src/net/): the network
/// determinism contract (remote sessions byte-identical to solo
/// in-process runs, across shards and concurrent connections), protocol
/// hardening (malformed frames get a typed error and a closed connection,
/// never a crash), snapshot/restore over the wire, and shard
/// partitioning. Runs under the `net` ctest label; the stressy cases are
/// also in the TSan CI leg via the `concurrency` label.

#include "net/tuning_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "eval/runner.hpp"
#include "net/binary_codec.hpp"
#include "net/tuning_client.hpp"
#include "test_helpers.hpp"

namespace lynceus::net {
namespace {

using core::ConfigId;
using core::OptimizerResult;

double tiny_energy(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = lynceus::testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{tiny_energy(*sp, id)};
  };
}

core::ConstraintDef tiny_constraint(double cap) {
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

/// Same fields the in-process service tests pin: trajectory, spend and
/// recommendation. decision_seconds is wall clock and deliberately
/// excluded.
void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost) << "step " << i;
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible) << "step " << i;
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

core::LynceusOptions lynceus_options_for(std::uint64_t seed) {
  core::LynceusOptions o;
  o.lookahead = seed % 2 == 0 ? 1U : 0U;
  o.incremental_refit = false;
  o.branch_parallel = false;
  return o;
}

service::SessionSpec remote_lynceus_spec(std::uint64_t seed) {
  service::SessionSpec spec;
  spec.optimizer = "lynceus";
  spec.seed = seed;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const core::LynceusOptions o = lynceus_options_for(seed);
  spec.lookahead = o.lookahead;
  spec.incremental_refit = false;
  spec.branch_parallel = false;
  return spec;
}

/// The acceptance gate of the redesign: 64 remote sessions, 8 concurrent
/// client connections, 2 shards, one server-wide decision cache — every
/// session's trajectory must be byte-identical to its solo in-process
/// run.
TEST(NetService, SixtyFourConcurrentRemoteSessionsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  TuningServer::Options opts;
  opts.shards = 2;
  opts.root_cache_capacity = 16;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  constexpr std::uint64_t kSessions = 64;
  constexpr std::uint64_t kClients = 8;
  std::vector<OptimizerResult> remote(kSessions);
  std::vector<std::string> errors(kClients);

  std::vector<std::thread> drivers;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      try {
        TuningClient client("127.0.0.1", server.port());
        eval::AsyncTableRunner runner(ds);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> opened;  // seed,id
        for (std::uint64_t k = 0; k < kSessions / kClients; ++k) {
          const std::uint64_t seed = 1 + c * (kSessions / kClients) + k;
          opened.emplace_back(seed, client.open(remote_lynceus_spec(seed)));
        }
        client.drain(runner);
        for (const auto& [seed, id] : opened) {
          const TuningClient::ResultReply reply = client.result(id);
          if (!reply.finished) {
            throw std::runtime_error("session for seed " +
                                     std::to_string(seed) + " not finished");
          }
          remote[seed - 1] = reply.result;
          client.close_session(id);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (std::uint64_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }

  for (std::uint64_t seed = 1; seed <= kSessions; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(seed))
                       .make_stepper(problem, seed);
    expect_identical(remote[seed - 1], core::drive(*stepper, solo));
  }

  // Both shards carried sessions, and together they carried all of them.
  const std::vector<std::size_t> counts = server.shard_session_counts();
  ASSERT_EQ(counts.size(), 2U);
  EXPECT_GT(counts[0], 0U);
  EXPECT_GT(counts[1], 0U);
  EXPECT_EQ(counts[0] + counts[1], kSessions);
}

/// Two shards borrowing the server's one root-simulation pool. Two TF
/// LA=2 sessions — one per shard, deciding at the same time, so both
/// shard threads fan roots out over the shared workers concurrently — and
/// a Scout LA=2 session running intra-root branch parallelism and
/// incremental refit (nested ranges on the same pool) each match their
/// solo, pool-free runs byte for byte.
TEST(NetService, SharedPoolLookaheadSessionsOnBothShardsMatchTheirSoloRuns) {
  TuningServer::Options opts;
  opts.shards = 2;
  opts.root_cache_capacity = 8;
  TuningServer server(opts);
  EXPECT_EQ(server.pool_workers(), util::default_worker_count());

  struct Suite {
    std::string name;
    std::vector<cloud::Dataset> datasets;
  };
  const std::vector<Suite> suites = {
      {"tf", cloud::make_tensorflow_datasets()},
      {"scout", cloud::make_scout_datasets()}};
  std::vector<std::vector<service::SessionSpec>> specs(suites.size());
  std::uint64_t seed = 5;
  for (std::size_t c = 0; c < suites.size(); ++c) {
    const bool branchy = suites[c].name == "scout";
    // Both TF sessions, plus the one branch-parallel Scout session.
    for (std::size_t n = 0; n < (branchy ? 1U : 2U); ++n) {
      service::SessionSpec spec;
      spec.optimizer = "lynceus";
      spec.seed = seed++;
      spec.problem_ref = {suites[c].name,
                          suites[c].datasets.front().job_name(), 3.0};
      spec.lookahead = 2;
      spec.screen_width = 4;
      spec.incremental_refit = branchy;
      spec.branch_parallel = branchy;
      specs[c].push_back(spec);
    }
  }

  // Open everything from this thread first, so the TF sessions take
  // consecutive global ids and therefore land on different shards.
  std::vector<std::unique_ptr<TuningClient>> clients;
  std::vector<std::vector<std::uint64_t>> ids(suites.size());
  for (std::size_t c = 0; c < suites.size(); ++c) {
    clients.push_back(
        std::make_unique<TuningClient>("127.0.0.1", server.port()));
    for (const service::SessionSpec& spec : specs[c]) {
      ids[c].push_back(clients[c]->open(spec));
    }
  }
  ASSERT_EQ(ids[0].size(), 2U);
  EXPECT_NE(ids[0][0] % opts.shards, ids[0][1] % opts.shards);

  std::vector<std::vector<OptimizerResult>> remote(suites.size());
  std::vector<std::string> errors(suites.size());
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < suites.size(); ++c) {
    drivers.emplace_back([&, c] {
      try {
        eval::AsyncTableRunner runner(suites[c].datasets.front());
        clients[c]->drain(runner);
        for (const std::uint64_t id : ids[c]) {
          const TuningClient::ResultReply reply = clients[c]->result(id);
          if (!reply.finished) {
            throw std::runtime_error("session " + std::to_string(id) +
                                     " not finished");
          }
          remote[c].push_back(reply.result);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : drivers) t.join();

  for (std::size_t c = 0; c < suites.size(); ++c) {
    ASSERT_TRUE(errors[c].empty()) << suites[c].name << ": " << errors[c];
    ASSERT_EQ(remote[c].size(), specs[c].size());
    const cloud::Dataset& ds = suites[c].datasets.front();
    const core::OptimizationProblem problem = eval::make_problem(ds, 3.0);
    for (std::size_t i = 0; i < specs[c].size(); ++i) {
      SCOPED_TRACE(suites[c].name + " session " + std::to_string(i));
      service::SessionSpec spec = specs[c][i];
      spec.problem = &problem;
      eval::TableRunner solo(ds);
      auto stepper = spec.make_stepper(nullptr, nullptr);
      const OptimizerResult golden = core::drive(*stepper, solo);
      EXPECT_GT(golden.decisions, 0U);
      expect_identical(remote[c][i], golden);
    }
  }
}

/// The server's bundled-problem registry: two connections at once open a
/// session for every job of every bundled suite at two budget
/// multipliers, spelling TF both "tf" and "tensorflow" (one cached suite
/// serves both). Every session must match its solo in-process run over
/// eval::make_problem of a separately built dataset.
TEST(NetService, EveryBundledJobAtTwoBudgetsMatchesItsSoloRun) {
  struct Suite {
    std::string name;
    std::vector<cloud::Dataset> datasets;
  };
  const std::vector<Suite> suites = {
      {"tf", cloud::make_tensorflow_datasets()},
      {"tensorflow", cloud::make_tensorflow_datasets()},
      {"scout", cloud::make_scout_datasets()},
      {"cherrypick", cloud::make_cherrypick_datasets()}};
  struct Job {
    const cloud::Dataset* ds = nullptr;
    service::SessionSpec spec;
  };
  std::vector<Job> jobs;
  for (const double b : {1.0, 3.0}) {
    for (const Suite& suite : suites) {
      for (const cloud::Dataset& ds : suite.datasets) {
        Job job;
        job.ds = &ds;
        job.spec.optimizer = "lynceus";
        job.spec.seed = 1 + jobs.size();
        job.spec.problem_ref = {suite.name, ds.job_name(), b};
        job.spec.lookahead = 0;
        job.spec.incremental_refit = false;
        job.spec.branch_parallel = false;
        jobs.push_back(std::move(job));
      }
    }
  }
  ASSERT_EQ(jobs.size(), 2U * (3 + 3 + 18 + 5));

  TuningServer::Options opts;
  opts.shards = 2;
  opts.root_cache_capacity = 8;
  TuningServer server(opts);

  constexpr std::size_t kClients = 2;
  std::vector<OptimizerResult> remote(jobs.size());
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> drivers;
  for (std::size_t c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      try {
        TuningClient client("127.0.0.1", server.port());
        // Wire id → (job index, that session's replay runner).
        std::map<std::uint64_t, std::pair<std::size_t, eval::TableRunner>>
            open;
        for (std::size_t j = c; j < jobs.size(); j += kClients) {
          open.emplace(client.open(jobs[j].spec),
                       std::make_pair(j, eval::TableRunner(*jobs[j].ds)));
        }
        // Runs are told in push order, i.e. each batch in batch order —
        // exactly core::drive's order.
        while (!client.active_sessions().empty()) {
          const std::optional<service::PendingRun> run =
              client.take_run(/*wait=*/true);
          eval::TableRunner& runner = open.at(run->session).second;
          client.tell(run->session, run->config, runner.run(run->config));
        }
        for (const auto& [id, entry] : open) {
          const TuningClient::ResultReply reply = client.result(id);
          if (!reply.finished) {
            throw std::runtime_error("session " + std::to_string(id) +
                                     " not finished");
          }
          remote[entry.first] = reply.result;
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const service::ProblemRef& ref = jobs[j].spec.problem_ref;
    SCOPED_TRACE(ref.suite + "/" + ref.job + " b=" +
                 std::to_string(ref.budget_multiplier));
    const core::OptimizationProblem problem =
        eval::make_problem(*jobs[j].ds, ref.budget_multiplier);
    service::SessionSpec spec = jobs[j].spec;
    spec.problem = &problem;
    eval::TableRunner solo(*jobs[j].ds);
    auto stepper = spec.make_stepper(nullptr, nullptr);
    expect_identical(remote[j], core::drive(*stepper, solo));
  }
  const std::vector<std::size_t> counts = server.shard_session_counts();
  EXPECT_EQ(counts[0] + counts[1], jobs.size());
}

/// All four optimizer kinds over the wire on one connection — exercises
/// the metrics array + constraint codecs end to end.
TEST(NetService, MixedOptimizerKindsOverTheWireMatchSolo) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 2;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  TuningClient client("127.0.0.1", server.port());
  eval::AsyncTableRunner runner(ds, tiny_metrics());

  std::vector<std::uint64_t> ids;
  std::vector<std::function<OptimizerResult()>> solos;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    service::SessionSpec ly = remote_lynceus_spec(seed);
    ly.lookahead = 1;
    ids.push_back(client.open(ly));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      core::LynceusOptions o = lynceus_options_for(seed);
      o.lookahead = 1;
      auto stepper = core::LynceusOptimizer(o).make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec mc;
    mc.optimizer = "multi_constraint";
    mc.seed = seed;
    mc.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    mc.lookahead = 1;
    mc.incremental_refit = false;
    mc.branch_parallel = false;
    service::ConstraintSpec cs;
    cs.name = "energy";
    cs.metric_index = 0;
    cs.threshold = 26.0;
    mc.constraints.push_back(cs);
    ids.push_back(client.open(mc));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      core::MultiConstraintOptions o;
      o.lookahead = 1;
      o.incremental_refit = false;
      o.branch_parallel = false;
      auto stepper = core::MultiConstraintLynceus({tiny_constraint(26.0)}, o)
                         .make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec bo;
    bo.optimizer = "bo";
    bo.seed = seed;
    bo.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    ids.push_back(client.open(bo));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::BayesianOptimizer().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec rnd;
    rnd.optimizer = "random";
    rnd.seed = seed;
    rnd.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    ids.push_back(client.open(rnd));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::RandomSearch().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });
  }

  client.drain(runner);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(ids[i]));
    const TuningClient::ResultReply reply = client.result(ids[i]);
    ASSERT_TRUE(reply.finished);
    EXPECT_FALSE(reply.stop_reason.empty());
    expect_identical(reply.result, solos[i]());
  }
}

TEST(NetService, SnapshotRestoreOverTheWireFinishesByteIdentically) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);

  service::SessionSpec spec = remote_lynceus_spec(23);
  spec.lookahead = 1;

  eval::TableRunner solo(ds);
  core::LynceusOptions o = lynceus_options_for(23);
  o.lookahead = 1;
  auto ref = core::LynceusOptimizer(o).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  // Resolve half of the bootstrap batch, snapshot mid-flight, hang up.
  std::string snap;
  {
    TuningClient client("127.0.0.1", server.port());
    const std::uint64_t id = client.open(spec);
    std::vector<service::PendingRun> batch;
    for (std::size_t i = 0; i < problem.bootstrap_samples; ++i) {
      const auto run = client.take_run(/*wait=*/true);
      ASSERT_TRUE(run.has_value());
      batch.push_back(*run);
    }
    for (std::size_t i = 0; i < problem.bootstrap_samples / 2; ++i) {
      core::RunResult r;
      r.runtime_seconds = ds.observation(batch[i].config).runtime_seconds;
      r.cost = ds.observation(batch[i].config).cost();
      const auto status = client.tell(id, batch[i].config, r);
      ASSERT_FALSE(status.finished);
    }
    snap = client.snapshot(id);
    client.close_session(id);
  }

  // Restore on a fresh connection: the still-in-flight half is re-pushed,
  // the told half is not, and the trajectory lands exactly on the solo
  // run's bytes.
  TuningClient revived("127.0.0.1", server.port());
  const std::uint64_t rid = revived.restore(spec, snap);
  eval::AsyncTableRunner runner(ds);
  revived.drain(runner);
  const TuningClient::ResultReply reply = revived.result(rid);
  ASSERT_TRUE(reply.finished);
  expect_identical(reply.result, golden);
}

TEST(NetService, SequentialSessionIdsPartitionEvenlyAcrossShards) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 4;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  TuningClient client("127.0.0.1", server.port());
  eval::AsyncTableRunner runner(ds);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    service::SessionSpec spec;
    spec.optimizer = "random";
    spec.seed = seed;
    spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    ids.push_back(client.open(spec));
  }
  client.drain(runner);
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(client.result(id).finished) << "session " << id;
  }

  // Ids come from one global counter, so 8 opens land 2 per shard.
  const std::vector<std::size_t> counts = server.shard_session_counts();
  ASSERT_EQ(counts.size(), 4U);
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_EQ(counts[s], 2U) << "shard " << s;
  }
}

/// Reads messages until the connection drops, returning the last error
/// frame seen (the server flushes the typed error before closing).
ServerMessage last_error_before_close(TuningClient& client) {
  ServerMessage last;
  last.type = ServerMessage::Type::Closed;  // sentinel: no error seen
  try {
    for (;;) {
      const ServerMessage m = client.read_message();
      if (m.type == ServerMessage::Type::Error) last = m;
    }
  } catch (const SocketError&) {
    // Connection closed — exactly what a fatal error promises.
  }
  return last;
}

void expect_fatal_error(const std::string& raw_bytes,
                        const std::string& expected_code,
                        std::uint16_t port) {
  SCOPED_TRACE("expecting " + expected_code);
  // WireMode::kJson skips the hello handshake, so `raw_bytes` is the
  // connection's FIRST frame — the legacy pre-negotiation path.
  TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                      TuningClient::WireMode::kJson);
  client.send_raw(raw_bytes);
  const ServerMessage err = last_error_before_close(client);
  ASSERT_EQ(err.type, ServerMessage::Type::Error);
  EXPECT_EQ(err.code, expected_code);
  EXPECT_TRUE(err.fatal);
}

TEST(NetService, MalformedInputGetsTypedErrorAndClosedConnection) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);
  const std::uint16_t port = server.port();

  // Framing violations → "bad_frame".
  expect_fatal_error(std::string(4, '\0'), "bad_frame", port);  // zero length
  expect_fatal_error(std::string(4, '\xff'), "bad_frame", port);  // 4 GiB
  {
    // Declared length just past the server's cap.
    std::string header(4, '\0');
    const std::uint32_t len = kDefaultMaxFrameBytes + 1;
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<char>((len >> (24 - 8 * i)) & 0xff);
    }
    expect_fatal_error(header, "bad_frame", port);
  }

  // Well-framed garbage → "bad_message".
  expect_fatal_error(encode_frame("this is not json"), "bad_message", port);
  expect_fatal_error(encode_frame("{\"type\":\"frobnicate\",\"req\":1}"),
                     "bad_message", port);
  expect_fatal_error(encode_frame("{\"req\":1}"), "bad_message", port);
  // 300 nesting levels blows util/json's depth bound, not the stack.
  expect_fatal_error(encode_frame(std::string(300, '[') +
                                  std::string(300, ']')),
                     "bad_message", port);

  // Well-formed requests the service rejects → "bad_request", also fatal.
  {
    TuningClient client("127.0.0.1", port);
    core::RunResult r;
    try {
      client.tell(9999, 0, r);  // tell before any open
      FAIL() << "tell for an unknown session did not error";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_request");
    }
    EXPECT_THROW((void)client.read_message(), SocketError);
  }
  {
    TuningClient client("127.0.0.1", port);
    service::SessionSpec spec;
    spec.optimizer = "lynceus";
    spec.problem_ref = service::ProblemRef{"no-such-suite", "nope", 3.0};
    try {
      (void)client.open(spec);  // unresolvable problem reference
      FAIL() << "open with an unresolvable problem did not error";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_request");
    }
  }

  // A peer that vanishes mid-frame is dropped without ceremony.
  {
    TuningClient client("127.0.0.1", port);
    client.send_raw(std::string("\x00\x00", 2));  // half a header, then gone
  }

  // Through all of that, the server never crashed and still serves: a
  // full session on a fresh connection completes normally.
  TuningClient survivor("127.0.0.1", port);
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 5;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const std::uint64_t id = survivor.open(spec);
  eval::AsyncTableRunner runner(ds);
  survivor.drain(runner);
  EXPECT_TRUE(survivor.result(id).finished);
}

/// The wire-tax contract: the SAME session driven over JSON frames and
/// over negotiated binary frames lands on identical bytes — and both on
/// the solo in-process run. A snapshot taken over one encoding restores
/// over the other.
TEST(NetService, CrossEncodingTrajectoriesAreByteIdentical) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OptimizerResult by_enc[2];
    for (const TuningClient::WireMode mode :
         {TuningClient::WireMode::kJson, TuningClient::WireMode::kBinary}) {
      TuningClient client("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                          mode);
      ASSERT_EQ(client.encoding(), mode == TuningClient::WireMode::kBinary
                                       ? WireEncoding::kBinary
                                       : WireEncoding::kJson);
      const std::uint64_t id = client.open(remote_lynceus_spec(seed));
      eval::AsyncTableRunner runner(ds);
      client.drain(runner);
      const TuningClient::ResultReply reply = client.result(id);
      ASSERT_TRUE(reply.finished);
      by_enc[mode == TuningClient::WireMode::kBinary ? 1 : 0] = reply.result;
      client.close_session(id);
    }
    expect_identical(by_enc[0], by_enc[1]);
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(seed))
                       .make_stepper(problem, seed);
    expect_identical(by_enc[1], core::drive(*stepper, solo));
  }

  // Snapshot over JSON, restore over binary: mid-flight state crosses
  // the encoding boundary intact.
  service::SessionSpec spec = remote_lynceus_spec(23);
  spec.lookahead = 1;
  eval::TableRunner solo(ds);
  core::LynceusOptions o = lynceus_options_for(23);
  o.lookahead = 1;
  auto ref = core::LynceusOptimizer(o).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  std::string snap;
  {
    TuningClient json_side("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                           TuningClient::WireMode::kJson);
    const std::uint64_t id = json_side.open(spec);
    for (std::size_t i = 0; i < problem.bootstrap_samples / 2; ++i) {
      const auto run = json_side.take_run(/*wait=*/true);
      ASSERT_TRUE(run.has_value());
      core::RunResult r;
      r.runtime_seconds = ds.observation(run->config).runtime_seconds;
      r.cost = ds.observation(run->config).cost();
      (void)json_side.tell(id, run->config, r);
    }
    snap = json_side.snapshot(id);
    json_side.close_session(id);
  }
  TuningClient bin_side("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
  const std::uint64_t rid = bin_side.restore(spec, snap);
  eval::AsyncTableRunner runner(ds);
  bin_side.drain(runner);
  const TuningClient::ResultReply reply = bin_side.result(rid);
  ASSERT_TRUE(reply.finished);
  expect_identical(reply.result, golden);
}

TEST(NetService, NegotiationRejectionsAreTypedErrors) {
  const auto problem = lynceus::testing::tiny_problem();

  // A binary-demanding client against a JSON-only server: the typed
  // rejection surfaces from the constructor, not a mystery disconnect.
  {
    TuningServer::Options opts;
    opts.wire = TuningServer::WirePolicy::kJsonOnly;
    TuningServer server(opts);
    try {
      TuningClient client("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                          TuningClient::WireMode::kBinary);
      FAIL() << "binary-only negotiation against a JSON-only server passed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_negotiation");
    }
    // Negotiate mode falls back to JSON and works.
    TuningClient fallback("127.0.0.1", server.port());
    EXPECT_EQ(fallback.encoding(), WireEncoding::kJson);
  }

  // A binary-only server rejects a legacy client that never negotiates.
  {
    TuningServer::Options opts;
    opts.wire = TuningServer::WirePolicy::kBinaryOnly;
    TuningServer server(opts);
    server.register_problem("test", "tinybowl", problem);
    TuningClient legacy("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kJson);
    try {
      (void)legacy.open(remote_lynceus_spec(1));
      FAIL() << "legacy JSON open against a binary-only server passed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_negotiation");
    }
    // And accepts one that does negotiate.
    TuningClient modern("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
    EXPECT_EQ(modern.encoding(), WireEncoding::kBinary);
  }

  TuningServer server;
  const std::uint16_t port = server.port();

  // Unsupported protocol version.
  expect_fatal_error(
      encode_frame(encode_hello_request(1, 99, {"binary", "json"})),
      "bad_negotiation", port);

  // An offer with no encoding the server knows.
  expect_fatal_error(
      encode_frame(encode_hello_request(1, kProtocolVersion, {"pigeon"})),
      "bad_negotiation", port);

  // Negotiation replay: a second hello after the handshake is fatal.
  {
    TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kJson);
    client.send_raw(
        encode_frame(encode_hello_request(1, kProtocolVersion, {"json"})));
    const ServerMessage hello = client.read_message();
    ASSERT_EQ(hello.type, ServerMessage::Type::Hello);
    EXPECT_EQ(hello.encoding, "json");
    client.send_raw(
        encode_frame(encode_hello_request(2, kProtocolVersion, {"json"})));
    const ServerMessage err = last_error_before_close(client);
    ASSERT_EQ(err.type, ServerMessage::Type::Error);
    EXPECT_EQ(err.code, "bad_negotiation");
  }
}

/// Hostile bytes on an already-negotiated binary connection: every entry
/// of the malformed matrix must produce a typed fatal error and a closed
/// connection, and the server must keep serving afterwards.
TEST(NetService, MalformedBinaryFramesGetTypedErrors) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);
  const std::uint16_t port = server.port();

  const auto expect_binary_fatal = [&](const std::string& body,
                                       const std::string& expected_code) {
    SCOPED_TRACE("expecting " + expected_code);
    // The constructor negotiates binary; the hostile frame follows it.
    TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
    client.send_raw(encode_frame(body));
    const ServerMessage err = last_error_before_close(client);
    ASSERT_EQ(err.type, ServerMessage::Type::Error);
    EXPECT_EQ(err.code, expected_code);
    EXPECT_TRUE(err.fatal);
  };

  // Unknown tag.
  expect_binary_fatal(std::string(1, '\x7e'), "bad_message");
  // JSON on a binary connection is just another unknown tag.
  expect_binary_fatal("{\"type\":\"next_runs\",\"req\":1}", "bad_message");
  // Truncated varint (continue bit, then end of frame).
  expect_binary_fatal(std::string("\x04\xff", 2), "bad_message");
  // Over-long varint (10 continuation bytes).
  expect_binary_fatal(std::string(1, '\x04') + std::string(10, '\xff') + '\x01',
                      "bad_message");
  // Wrong length: a close request with trailing bytes.
  expect_binary_fatal(binary_encode_close(1, 2) + '\x00', "bad_message");
  // A frame cut inside a double.
  {
    core::RunResult r;
    std::string tell = binary_encode_tell(1, 2, 3, r);
    tell.resize(tell.size() - 4);
    expect_binary_fatal(tell, "bad_message");
  }

  // Still serving: a full binary session completes after the abuse.
  TuningClient survivor("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 7;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const std::uint64_t id = survivor.open(spec);
  eval::AsyncTableRunner runner(ds);
  survivor.drain(runner);
  EXPECT_TRUE(survivor.result(id).finished);
}

/// Backpressure correctness: with the smallest possible lanes every
/// request parks its connection sooner or later, and trajectories must
/// STILL land byte-identical — parking pauses reads, it never reorders
/// or drops. The saturation must be visible in request_lane_stats().
TEST(NetService, TinyLanesParkReadersWithoutCorruptingTrajectories) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 2;
  opts.lane_capacity = 1;  // every burst overflows
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  constexpr std::uint64_t kSessions = 8;
  TuningClient client("127.0.0.1", server.port());
  eval::AsyncTableRunner runner(ds);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> opened;
  for (std::uint64_t seed = 1; seed <= kSessions; ++seed) {
    opened.emplace_back(seed, client.open(remote_lynceus_spec(seed)));
  }
  client.drain(runner);
  for (const auto& [seed, id] : opened) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TuningClient::ResultReply reply = client.result(id);
    ASSERT_TRUE(reply.finished);
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(seed))
                       .make_stepper(problem, seed);
    expect_identical(reply.result, core::drive(*stepper, solo));
  }

  const std::vector<TuningServer::LaneStats> stats =
      server.request_lane_stats();
  ASSERT_EQ(stats.size(), 4U);  // 2 transports x 2 shards
  std::size_t total_high_water = 0;
  for (const TuningServer::LaneStats& ls : stats) {
    EXPECT_EQ(ls.capacity, 1U);
    EXPECT_LE(ls.high_water, ls.capacity);
    total_high_water += ls.high_water;
  }
  // Traffic flowed through at least one lane of the connection's
  // transport; stall counts are load-dependent and only asserted >= 0
  // implicitly by type.
  EXPECT_GT(total_high_water, 0U);
}

TEST(NetService, StopClosesClientConnections) {
  const auto problem = lynceus::testing::tiny_problem();
  auto server = std::make_unique<TuningServer>();
  server->register_problem("test", "tinybowl", problem);
  TuningClient client("127.0.0.1", server->port());
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 1;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  (void)client.open(spec);
  server->stop();
  // Reads now terminate instead of hanging forever.
  EXPECT_THROW(
      {
        for (;;) (void)client.read_message();
      },
      SocketError);
}

/// stop() on an idle server returns at once: every thread, the acceptor
/// included, sleeps on a doorbell that stop() rings rather than on a poll
/// timeout. The 60 ms idle spell puts a timeout-driven acceptor (50 ms
/// ticks) ~40 ms away from its next look at the stop flag.
TEST(NetService, IdleTwoShardServerStopsWithin25Ms) {
  TuningServer::Options opts;
  opts.shards = 2;
  TuningServer server(opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 25.0);
}

/// One decision cache per server: the same spec opened twice lands on
/// both shards (consecutive global ids), and the second session replays
/// every profiling decision of the first from the cache the shards share.
/// Both sessions byte-match their solo run.
TEST(NetService, RepeatedSpecOnTheOtherShardHitsTheServerCache) {
  const auto ds = lynceus::testing::tiny_dataset();
  // A budget that affords many profiling decisions; stop outcomes are
  // never cached.
  const auto problem = lynceus::testing::tiny_problem(6.0);
  TuningServer::Options opts;
  opts.shards = 2;
  opts.root_cache_capacity = 64;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);
  const service::SessionSpec spec = remote_lynceus_spec(6);  // LA = 1

  TuningClient client("127.0.0.1", server.port());
  std::vector<OptimizerResult> remote;
  std::vector<core::RootCache::Stats> stats;
  for (int n = 0; n < 2; ++n) {
    eval::AsyncTableRunner runner(ds);
    const std::uint64_t id = client.open(spec);
    client.drain(runner);
    const TuningClient::ResultReply reply = client.result(id);
    ASSERT_TRUE(reply.finished);
    remote.push_back(reply.result);
    client.close_session(id);
    stats.push_back(server.cache_stats());
  }
  const std::vector<std::size_t> counts = server.shard_session_counts();
  ASSERT_EQ(counts.size(), 2U);
  EXPECT_EQ(counts[0], 1U);
  EXPECT_EQ(counts[1], 1U);

  service::SessionSpec solo_spec = spec;
  solo_spec.problem = &problem;
  eval::TableRunner solo(ds);
  const OptimizerResult golden =
      core::drive(*solo_spec.make_stepper(nullptr, nullptr), solo);
  expect_identical(remote[0], golden);
  expect_identical(remote[1], golden);

  const std::size_t profiled =
      golden.history.size() - problem.bootstrap_samples;
  ASSERT_GT(profiled, 0U);
  EXPECT_EQ(stats[0].hits, 0U);
  EXPECT_EQ(stats[1].hits, profiled);
  EXPECT_EQ(stats[1].misses - stats[0].misses, stats[0].misses - profiled);
  EXPECT_EQ(stats[1].entries, stats[0].entries);
}

}  // namespace
}  // namespace lynceus::net
