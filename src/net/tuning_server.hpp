#pragma once

/// \file tuning_server.hpp
/// The TCP front-end of the tuning service: `net::TuningServer` turns the
/// single-process `service::TuningService` into a sharded network server
/// speaking the length-prefixed JSON protocol of net/protocol.hpp. The
/// step from "concurrent library" to "server" on the ROADMAP.
///
/// ## Thread-per-role layout
///
/// One server runs 2·K + 1 threads for K shards (plus one root-simulation
/// pool every shard borrows, see pool_workers()), wired exclusively by
/// bounded lock-free SPSC queues (util/spsc_queue.hpp) — each lane has
/// exactly one writer and one reader by construction, so no lock is ever
/// taken on the request path:
///
///   * **1 acceptor** owns the listening socket and assigns each accepted
///     connection to transport `conn_id % K` over an acceptor→transport
///     lane. When a transport's accept lane is full, the acceptor simply
///     stops accepting — the kernel backlog is the natural backpressure.
///   * **K transport threads** do framing and decode ONLY: each runs an
///     epoll readiness loop (net/event_loop.hpp) over its connections
///     plus a wakeup fd, splits byte streams into frames, parses each
///     frame into a typed Request (JSON or negotiated binary —
///     net/protocol.hpp, net/binary_codec.hpp), and pushes it down a
///     transport→shard lane — never touching optimizer state. A lane
///     cell carries an open/restore's SessionSpec by pointer, so the
///     K·K lanes of lane_capacity cells each are built without
///     constructing a single spec, and a tell moves no spec. One
///     transport thread multiplexes hundreds to thousands of
///     connections; read buffers and frame scratch are reused so
///     steady-state framing is allocation-free. Completions (encoded
///     reply frames) come back over shard→transport lanes and are
///     flushed to the owning connection. Malformed input (bad frame,
///     bad JSON/binary, unknown message, broken handshake) is answered
///     with a typed fatal `error` frame and the connection is closed —
///     the service loops never see it.
///   * **K service-loop threads** each own one `service::TuningService`
///     (FIFO event loop): pop requests round-robin across the transport
///     lanes, apply them (an open resolves its problem from the server's
///     registry, where each bundled suite is built once and shared by
///     every shard), sweep `next_runs()`, and push replies +
///     server-initiated `run` frames back to the transports. The server
///     itself executes no profiling runs — remote drivers own their
///     clusters (or replay tables) and tell results back.
///   * **One root-simulation pool** of util::default_worker_count()
///     workers, owned by the server and borrowed by every shard's
///     service (TuningService::Options::pool). A deciding shard fans its
///     roots out over it (§4.3 of the paper: paths rooted at distinct
///     configurations are independent), so when one shard decides while
///     the others idle, every core helps that one decision; concurrent
///     decisions share the workers, each calling shard thread always
///     working on its own decision. The pool is built before the shard
///     threads start and destroyed after stop() joins them.
///   * **One decision cache** (core::RootCache, when
///     Options::root_cache_capacity > 0), owned by the server and borrowed
///     by every shard's service (TuningService::Options::cache) like the
///     pool: a session that reaches a decision state any session on any
///     shard already decided returns the stored choice without running
///     the lookahead. It is the only state shards share besides the pool
///     and the problem registry; one mutex guards it, and a lookup copies
///     a few dozen bytes out. cache_stats() reads its counters.
///
/// ## Backpressure (parked readers, never blocking spins)
///
/// No thread ever spin-blocks on a full SPSC lane. When a transport
/// cannot push a decoded request because its lane into the owning shard
/// is full, it *parks* the connection: the request waits in a
/// per-connection pending queue, the connection's read interest is
/// dropped (so the kernel's TCP window throttles the remote driver),
/// and decoding resumes — in order — once the lane drains. Each park is
/// counted per lane and surfaced with the lane's high-water mark via
/// request_lane_stats(), so saturation is observable instead of silent.
/// In the reverse direction a shard never blocks either: replies that
/// do not fit their lane overflow into a shard-local queue flushed
/// ahead of new work. Threads sleep on wakeup fds / the event loop when
/// idle, and are poked by their producers — no busy ticks.
///
/// ## Sharding
///
/// Session ids are allocated from one global counter at decode time and
/// hash-partitioned across shards by `id % K`, so every request for a
/// session deterministically routes to the shard owning it and ids are
/// unique across the server. A connection's sessions may live on any
/// subset of shards; when a connection dies, every shard closes the
/// sessions it owned for it.
///
/// ## Determinism contract
///
/// A session opened over the wire is byte-identical to the same
/// SessionSpec opened in process: specs, results and snapshots cross the
/// wire through the bit-exact codec (JsonWriter::value_exact), each
/// session lives entirely on one single-threaded shard loop, and the
/// per-session trajectory contract of service/tuning_service.hpp is
/// interleaving-independent — so neither the transport threads, the
/// shard count, the pool width, how the pool's workers split between
/// concurrently deciding shards (core/lookahead.hpp's pooled-determinism
/// contract: root values merge in root order), nor the number of
/// concurrent connections can move a byte of any trajectory.
/// tests/test_net_service.cpp pins 64 remote sessions across shards, and
/// TF/Scout LA=2 sessions deciding on both shards of a pooled server at
/// once, against their solo in-process runs.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/dataset.hpp"
#include "core/lookahead.hpp"
#include "core/types.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/session_spec.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::net {

class TuningServer {
 public:
  /// Which frame-body encodings the server will negotiate (the hello
  /// handshake in net/protocol.hpp). kNegotiate accepts both and takes
  /// the client's first offered preference; kJsonOnly never picks
  /// binary; kBinaryOnly rejects connections that do not negotiate
  /// binary (including legacy clients that skip the hello) with a
  /// typed "bad_negotiation" error.
  enum class WirePolicy { kNegotiate, kJsonOnly, kBinaryOnly };

  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral (query the bound port with port()).
    std::uint16_t port = 0;
    /// Independent service loops (>= 1); sessions are partitioned by
    /// `session_id % shards`. All shards borrow the server's one
    /// root-simulation pool (see pool_workers()), so the shard count
    /// does not divide the cores a single decision can use.
    std::size_t shards = 2;
    /// Capacity of the server's one decision cache, shared by every
    /// shard (0 = off): a repeated decision state skips the lookahead
    /// wherever its session lives. The key is exact, so trajectories are
    /// unaffected.
    std::size_t root_cache_capacity = 0;
    /// Default failure policy for sessions whose spec carries none.
    service::RunPolicy run_policy;
    /// Frames larger than this are a fatal protocol error.
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Capacity of each SPSC lane. Requests/replies queue here while the
    /// peer thread is busy; a full request lane parks the connection's
    /// read interest (see "Backpressure" above) instead of blocking.
    std::size_t lane_capacity = 1024;
    /// Resolve `problem_ref`s naming the bundled evaluation suites
    /// ("tf" or "tensorflow" | "scout" | "cherrypick"). Each suite's
    /// datasets are built once, on the suite's first use, and every
    /// (job, budget) problem is made from them. Off = only problems
    /// injected via register_problem().
    bool bundled_workloads = true;
    /// Encodings the hello handshake may pick (default: both).
    WirePolicy wire = WirePolicy::kNegotiate;
    /// Pin shard s to core s and transport t to core K+t (mod cores) —
    /// opt-in cache/lane locality (util/affinity.hpp). Trajectories are
    /// unaffected either way.
    bool pin_threads = false;
  };

  /// Saturation counters of one transport→shard request lane
  /// (request_lane_stats()).
  struct LaneStats {
    std::size_t transport = 0;
    std::size_t shard = 0;
    std::size_t capacity = 0;
    /// Highest occupancy any push observed (SpscQueue::high_water).
    std::size_t high_water = 0;
    /// Requests that found the lane full and parked their connection.
    std::size_t stalls = 0;
  };

  /// Binds, spawns the acceptor/transport/shard threads, and serves until
  /// stop() or destruction.
  TuningServer();
  explicit TuningServer(Options options);
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Registers `problem` under (suite, job) for ProblemRef resolution —
  /// how embedders (and tests) serve problems the bundled suites do not
  /// cover. A registered problem's budget is its own; the ref's
  /// budget_multiplier is ignored for it. Thread-safe; typically called
  /// before clients connect.
  void register_problem(const std::string& suite, const std::string& job,
                        core::OptimizationProblem problem);

  /// The bound listening port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Workers of the root-simulation pool every shard borrows:
  /// util::default_worker_count(), sized from the host with no option.
  /// 0 (single-core hosts) means decisions run inline on the shard
  /// threads. The width changes only the wall clock, never a trajectory.
  [[nodiscard]] std::size_t pool_workers() const noexcept {
    return pool_.worker_count();
  }

  /// Stops accepting, closes every connection, joins all threads. Open
  /// sessions are discarded (snapshot first for a graceful drain).
  /// Idempotent.
  void stop();

  /// Hits, misses and entries of the server's decision cache (all zero
  /// when root_cache_capacity is 0). Thread-safe.
  [[nodiscard]] core::RootCache::Stats cache_stats() const {
    return cache_.stats();
  }

  /// Sessions ever opened per shard (monitoring/tests; racy snapshot).
  [[nodiscard]] std::vector<std::size_t> shard_session_counts() const;

  /// Per-lane saturation stats for all K·K transport→shard request
  /// lanes (monitoring/tests; racy snapshot). Ordered [t][s] flattened.
  [[nodiscard]] std::vector<LaneStats> request_lane_stats() const;

 private:
  /// A connection handed from the acceptor to its transport thread.
  struct NewConn {
    int fd = -1;
    std::uint64_t id = 0;
  };

  /// One decoded request on a transport→shard lane.
  struct ShardRequest {
    enum class Kind { Request, ConnClosed };
    Kind kind = Kind::Request;
    std::uint64_t conn = 0;
    /// The connection's negotiated frame encoding — the shard encodes
    /// every reply (and every pushed run for sessions this request
    /// opens) with it.
    WireEncoding enc = WireEncoding::kJson;
    /// Pre-allocated global session id (Open/Restore only; the transport
    /// allocates so it can route the request to `id % shards`).
    std::uint64_t global_session = 0;
    Request request;
  };
  /// Every request lane default-constructs lane_capacity of these cells
  /// up front: keep bulky fields (a SessionSpec is 328 bytes) behind
  /// pointers. 192 bytes on LP64 libstdc++.
  static_assert(sizeof(ShardRequest) <= 192,
                "request lane cell grew: keep bulky fields behind pointers");

  /// One encoded reply (or pushed run) on a shard→transport lane.
  struct TransportReply {
    std::uint64_t conn = 0;
    std::string bytes;  ///< already framed
    /// Fatal: flush, then close the connection.
    bool close_conn = false;
  };

  void acceptor_loop();
  void transport_loop(std::size_t t);
  void shard_loop(std::size_t s);

  /// Resolves the spec's problem against the registry / bundled suites.
  /// Returned pointer is stable for the server's lifetime. Throws
  /// std::invalid_argument when unresolvable.
  const core::OptimizationProblem* resolve_problem(
      const service::SessionSpec& spec);

  Options options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> next_session_{0};
  /// Declared before threads_, so it is built before any shard starts;
  /// stop() joins the shards before it is destroyed.
  util::ThreadPool pool_{util::default_worker_count()};
  /// The decision cache every shard borrows (unused at capacity 0); built
  /// before the shards start and destroyed after they are joined, like
  /// pool_.
  core::RootCache cache_;
  /// Rung by stop() so the acceptor's poll returns at once.
  WakeupFd acceptor_wakeup_;

  std::vector<std::unique_ptr<util::SpscQueue<NewConn>>> accept_lanes_;
  /// request_lanes_[t][s]: transport t → shard s.
  std::vector<std::vector<std::unique_ptr<util::SpscQueue<ShardRequest>>>>
      request_lanes_;
  /// reply_lanes_[s][t]: shard s → transport t.
  std::vector<std::vector<std::unique_ptr<util::SpscQueue<TransportReply>>>>
      reply_lanes_;
  /// Doorbells: producers ring these after pushing onto a lane so the
  /// consumer (transport event loop / idle shard) wakes immediately.
  std::vector<std::unique_ptr<WakeupFd>> transport_wakeups_;
  std::vector<std::unique_ptr<WakeupFd>> shard_wakeups_;
  /// Park events per request lane, flattened [t * shards + s].
  std::unique_ptr<std::atomic<std::size_t>[]> lane_stalls_;

  /// Guards problems_ and suites_; shards resolve under it.
  mutable std::mutex problems_mutex_;
  /// Stable-address problem storage, keyed "suite\njob" (registered) or
  /// "suite\njob\nb" (bundled: canonical suite name, made on first use
  /// from the suite's cached datasets).
  std::map<std::string, std::unique_ptr<core::OptimizationProblem>> problems_;
  /// Each bundled suite's datasets, keyed by canonical suite name ("tf"
  /// also serves "tensorflow"), built once on the suite's first use: N
  /// distinct jobs of one suite cost one suite build, not N.
  std::map<std::string, std::vector<cloud::Dataset>> suites_;

  std::unique_ptr<std::atomic<std::size_t>[]> shard_opened_;
  std::vector<std::thread> threads_;
};

}  // namespace lynceus::net
