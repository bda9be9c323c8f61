#include "net/tuning_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "net/binary_codec.hpp"
#include "service/tuning_service.hpp"
#include "util/affinity.hpp"
#include "util/json.hpp"

namespace lynceus::net {

namespace {

/// Keys for the problem registry; '\n' cannot appear in JSON string
/// values that reach us unescaped, so it is a safe separator.
std::string registry_key(const std::string& suite, const std::string& job) {
  return suite + '\n' + job;
}

std::string bundled_key(const std::string& suite, const std::string& job,
                        double b) {
  util::JsonWriter w;  // bit-exact double, reused as a map key
  w.value_exact(b);
  return suite + '\n' + job + '\n' + w.str();
}

/// One bundled evaluation suite: its canonical name (the key of the
/// server's suite cache) and the deterministic builder of its datasets.
struct BundledSuite {
  const char* name;
  std::vector<cloud::Dataset> (*build)(std::uint64_t noise_seed);
};

/// The bundled suite a ProblemRef names, or null. "tensorflow" is an
/// alias of "tf", so both spellings share one cached suite.
const BundledSuite* bundled_suite(const std::string& name) {
  static const BundledSuite kTf{"tf", &cloud::make_tensorflow_datasets};
  static const BundledSuite kScout{"scout", &cloud::make_scout_datasets};
  static const BundledSuite kCherryPick{"cherrypick",
                                        &cloud::make_cherrypick_datasets};
  if (name == "tf" || name == "tensorflow") return &kTf;
  if (name == "scout") return &kScout;
  if (name == "cherrypick") return &kCherryPick;
  return nullptr;
}

}  // namespace

TuningServer::TuningServer() : TuningServer(Options{}) {}

TuningServer::TuningServer(Options options)
    : options_(std::move(options)),
      cache_(core::RootCache::Options{options_.root_cache_capacity}) {
  if (options_.shards == 0) {
    throw std::invalid_argument("TuningServer: shards must be >= 1");
  }
  if (options_.lane_capacity == 0) {
    throw std::invalid_argument("TuningServer: lane_capacity must be >= 1");
  }
  options_.run_policy.validate();
  listener_ = listen_tcp(options_.host, options_.port);
  set_nonblocking(listener_.fd(), true);
  port_ = local_port(listener_.fd());

  const std::size_t k = options_.shards;
  accept_lanes_.reserve(k);
  request_lanes_.resize(k);
  reply_lanes_.resize(k);
  for (std::size_t t = 0; t < k; ++t) {
    accept_lanes_.push_back(
        std::make_unique<util::SpscQueue<NewConn>>(options_.lane_capacity));
    request_lanes_[t].reserve(k);
    reply_lanes_[t].reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      request_lanes_[t].push_back(std::make_unique<util::SpscQueue<ShardRequest>>(
          options_.lane_capacity));
      reply_lanes_[t].push_back(std::make_unique<util::SpscQueue<TransportReply>>(
          options_.lane_capacity));
    }
  }
  transport_wakeups_.reserve(k);
  shard_wakeups_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    transport_wakeups_.push_back(std::make_unique<WakeupFd>());
    shard_wakeups_.push_back(std::make_unique<WakeupFd>());
  }
  lane_stalls_ = std::make_unique<std::atomic<std::size_t>[]>(k * k);
  for (std::size_t i = 0; i < k * k; ++i) lane_stalls_[i].store(0);

  shard_opened_ = std::make_unique<std::atomic<std::size_t>[]>(k);
  for (std::size_t s = 0; s < k; ++s) shard_opened_[s].store(0);

  threads_.reserve(2 * k + 1);
  for (std::size_t s = 0; s < k; ++s) {
    threads_.emplace_back([this, s] { shard_loop(s); });
  }
  for (std::size_t t = 0; t < k; ++t) {
    threads_.emplace_back([this, t] { transport_loop(t); });
  }
  threads_.emplace_back([this] { acceptor_loop(); });
}

TuningServer::~TuningServer() { stop(); }

void TuningServer::stop() {
  if (stop_.exchange(true)) {
    return;
  }
  // Ring every doorbell so event loops and idle shards notice stop_ now
  // instead of at their next timeout tick. Forced: the armed-flag gate
  // would otherwise skip a consumer that is between arm() and block.
  for (const auto& w : transport_wakeups_) w->notify(/*force=*/true);
  for (const auto& w : shard_wakeups_) w->notify(/*force=*/true);
  acceptor_wakeup_.notify(/*force=*/true);
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
  listener_.close();
}

std::vector<std::size_t> TuningServer::shard_session_counts() const {
  std::vector<std::size_t> counts(options_.shards, 0);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    counts[s] = shard_opened_[s].load();
  }
  return counts;
}

std::vector<TuningServer::LaneStats> TuningServer::request_lane_stats() const {
  const std::size_t k = options_.shards;
  std::vector<LaneStats> out;
  out.reserve(k * k);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t s = 0; s < k; ++s) {
      LaneStats ls;
      ls.transport = t;
      ls.shard = s;
      ls.capacity = request_lanes_[t][s]->capacity();
      ls.high_water = request_lanes_[t][s]->high_water();
      ls.stalls = lane_stalls_[t * k + s].load(std::memory_order_relaxed);
      out.push_back(ls);
    }
  }
  return out;
}

void TuningServer::register_problem(const std::string& suite,
                                    const std::string& job,
                                    core::OptimizationProblem problem) {
  problem.validate();
  std::lock_guard<std::mutex> lock(problems_mutex_);
  problems_[registry_key(suite, job)] =
      std::make_unique<core::OptimizationProblem>(std::move(problem));
}

const core::OptimizationProblem* TuningServer::resolve_problem(
    const service::SessionSpec& spec) {
  if (spec.problem != nullptr) {
    return spec.problem;
  }
  const service::ProblemRef& ref = spec.problem_ref;
  if (ref.empty()) {
    throw std::invalid_argument(
        "spec carries neither an in-process problem nor a problem reference");
  }
  std::lock_guard<std::mutex> lock(problems_mutex_);
  auto it = problems_.find(registry_key(ref.suite, ref.job));
  if (it != problems_.end()) {
    return it->second.get();
  }
  if (!options_.bundled_workloads) {
    throw std::invalid_argument("unknown problem '" + ref.suite + "/" +
                                ref.job + "' (bundled workloads disabled)");
  }
  const BundledSuite* suite = bundled_suite(ref.suite);
  if (suite == nullptr) {
    throw std::invalid_argument("unknown workload suite '" + ref.suite + "'");
  }
  const std::string key =
      bundled_key(suite->name, ref.job, ref.budget_multiplier);
  it = problems_.find(key);
  if (it != problems_.end()) {
    return it->second.get();
  }
  // Each suite is built once; every (job, budget) problem is made from
  // the cached datasets.
  auto cached = suites_.find(suite->name);
  if (cached == suites_.end()) {
    cached = suites_.emplace(suite->name, suite->build(0)).first;
  }
  for (const cloud::Dataset& ds : cached->second) {
    if (ds.job_name() == ref.job) {
      auto built = std::make_unique<core::OptimizationProblem>(
          eval::make_problem(ds, ref.budget_multiplier));
      const core::OptimizationProblem* out = built.get();
      problems_[key] = std::move(built);
      return out;
    }
  }
  throw std::invalid_argument("suite '" + ref.suite + "' has no job named '" +
                              ref.job + "'");
}

// --- Acceptor ---------------------------------------------------------------

void TuningServer::acceptor_loop() {
  std::uint64_t next_conn = 0;
  // An accepted connection whose transport's lane was full; retried
  // before accepting more. While it waits, the acceptor simply stops
  // draining the kernel backlog — TCP's own backpressure.
  NewConn held{};
  bool holding = false;
  // The listener, and the doorbell stop() rings.
  pollfd pfds[2]{};
  pfds[0].fd = listener_.fd();
  pfds[0].events = POLLIN;
  pfds[1].fd = acceptor_wakeup_.read_fd();
  pfds[1].events = POLLIN;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (holding) {
      util::SpscQueue<NewConn>& lane =
          *accept_lanes_[held.id % options_.shards];
      if (!lane.try_push(NewConn(held))) {
        struct timespec ts {0, 1'000'000};
        ::nanosleep(&ts, nullptr);
        continue;
      }
      transport_wakeups_[held.id % options_.shards]->notify();
      holding = false;
    }
    pfds[0].revents = pfds[1].revents = 0;
    if (::poll(pfds, 2, -1) <= 0 || pfds[0].revents == 0) continue;
    while (!holding) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN / transient: poll again
      const std::uint64_t id = next_conn++;
      NewConn nc{fd, id};
      util::SpscQueue<NewConn>& lane = *accept_lanes_[id % options_.shards];
      if (lane.try_push(NewConn(nc))) {
        transport_wakeups_[id % options_.shards]->notify();
      } else {
        held = nc;
        holding = true;
      }
    }
  }
  if (holding) ::close(held.fd);
}

// --- Transport --------------------------------------------------------------

void TuningServer::transport_loop(std::size_t t) {
  if (options_.pin_threads) util::pin_current_thread(options_.shards + t);
  const std::size_t k = options_.shards;
  // The wakeup fd's token in the event loop; connection ids are dense
  // from 0, so the max token is free.
  constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

  /// One decoded request that found its shard lane full — it waits here
  /// (in decode order) until the lane drains; the connection's read
  /// interest stays parked while any request waits.
  struct PendingReq {
    std::size_t shard = 0;
    ShardRequest req;
  };

  /// Per-connection transport state: raw socket, incremental frame
  /// assembler, pending output, negotiated encoding, parked requests.
  struct Conn {
    std::uint64_t id = 0;
    Socket sock;
    FrameAssembler frames;
    std::string outbuf;
    std::size_t out_off = 0;
    WireEncoding enc = WireEncoding::kJson;
    /// False until the first frame fixes the encoding (hello or not).
    bool saw_first_frame = false;
    /// A fatal error reply is queued: flush outbuf, then close. No
    /// further input is read or decoded.
    bool closing = false;
    /// recv() hit EOF or a hard error: no further reads.
    bool eof = false;
    /// ConnClosed notifications queued into `pending` (teardown begun).
    bool torn_down = false;
    /// Decoded-but-undeliverable requests (full shard lane).
    std::deque<PendingReq> pending;
    /// Interest currently registered with the event loop.
    bool reg_read = false;
    bool reg_write = false;

    Conn(std::uint64_t id_, int fd, std::size_t max_frame)
        : id(id_), sock(fd), frames(max_frame) {}

    [[nodiscard]] bool wants_write() const noexcept {
      return out_off < outbuf.size();
    }

    void queue(const std::string& frame) {
      if (out_off == outbuf.size()) {
        outbuf.clear();
        out_off = 0;
      }
      outbuf.append(frame);
    }
  };

  EventLoop loop;
  WakeupFd& wake = *transport_wakeups_[t];
  loop.add(wake.read_fd(), kWakeToken, /*want_read=*/true,
           /*want_write=*/false);

  std::unordered_map<std::uint64_t, Conn> conns;
  // Reused scratch: recv buffer and frame payload (framing stays
  // allocation-free in steady state — both keep their capacity).
  std::vector<char> rbuf(1 << 16);
  std::string payload;
  // Connections touched this iteration (deduplicated by flag-free
  // idiom: ids may repeat, the per-conn pass is idempotent).
  std::vector<std::uint64_t> dirty;
  // Connections with parked requests — retried every iteration.
  std::set<std::uint64_t> parked;

  auto try_push_request = [&](std::size_t shard, ShardRequest& req) -> bool {
    if (!request_lanes_[t][shard]->try_push(std::move(req))) return false;
    shard_wakeups_[shard]->notify();
    return true;
  };

  // Routes one decoded request: deliver now, or park it (and the
  // connection's read interest) on a full lane.
  auto route = [&](Conn& c, ShardRequest&& sr, std::size_t shard) {
    if (c.pending.empty() && try_push_request(shard, sr)) return;
    if (c.pending.empty()) {
      // Park transition: this request is the one that hit the wall.
      lane_stalls_[t * k + shard].fetch_add(1, std::memory_order_relaxed);
      parked.insert(c.id);
    }
    c.pending.push_back(PendingReq{shard, std::move(sr)});
  };

  auto queue_error = [&](Conn& c, std::uint64_t req, const char* code,
                         const std::string& message) {
    c.queue(encode_frame(encode_error_wire(c.enc, req, code, message, true)));
    c.closing = true;
  };

  // The hello handshake (first frame only; see net/protocol.hpp).
  auto negotiate = [&](Conn& c, const Request& hello) {
    if (hello.version != kProtocolVersion) {
      queue_error(c, hello.req, "bad_negotiation",
                  "unsupported protocol version " +
                      std::to_string(hello.version));
      return;
    }
    for (const std::string& name : hello.encodings) {
      WireEncoding e;
      if (!wire_encoding_from_name(name, e)) continue;
      if (e == WireEncoding::kBinary &&
          options_.wire == WirePolicy::kJsonOnly) {
        continue;
      }
      if (e == WireEncoding::kJson &&
          options_.wire == WirePolicy::kBinaryOnly) {
        continue;
      }
      // The reply itself is JSON — the switch applies to what follows.
      c.queue(encode_frame(encode_hello_reply(hello.req, kProtocolVersion,
                                              wire_encoding_name(e))));
      c.enc = e;
      return;
    }
    queue_error(c, hello.req, "bad_negotiation",
                "no mutually supported encoding");
  };

  // Decodes one frame payload and routes it; on a malformed message,
  // queues a fatal error reply and marks the connection closing.
  auto handle_payload = [&](Conn& c, const std::string& body) {
    Request request;
    try {
      if (!c.saw_first_frame) {
        c.saw_first_frame = true;
        // The first frame is JSON by definition: either a hello or a
        // plain request that fixes the connection to JSON.
        request = parse_request(body);
        if (request.type == Request::Type::Hello) {
          negotiate(c, request);
          return;
        }
        if (options_.wire == WirePolicy::kBinaryOnly) {
          queue_error(c, request.req, "bad_negotiation",
                      "server requires negotiated binary framing");
          return;
        }
      } else {
        request = parse_request_wire(c.enc, body);
        if (request.type == Request::Type::Hello) {
          queue_error(c, request.req, "bad_negotiation",
                      "negotiation replay: hello after the first frame");
          return;
        }
      }
    } catch (const std::exception& e) {
      queue_error(c, 0, "bad_message", e.what());
      return;
    }
    ShardRequest sr;
    sr.kind = ShardRequest::Kind::Request;
    sr.conn = c.id;
    sr.enc = c.enc;
    switch (request.type) {
      case Request::Type::Hello:
        return;  // handled above; unreachable
      case Request::Type::Open:
      case Request::Type::Restore: {
        // Allocate the global id here so the request can route to its
        // owning shard; the shard maps it to its local service id.
        sr.global_session = next_session_.fetch_add(1);
        const std::size_t shard = sr.global_session % k;
        sr.request = std::move(request);
        route(c, std::move(sr), shard);
        return;
      }
      case Request::Type::Tell:
      case Request::Type::Snapshot:
      case Request::Type::Result:
      case Request::Type::Close: {
        const std::size_t shard = request.session % k;
        sr.request = std::move(request);
        route(c, std::move(sr), shard);
        return;
      }
      case Request::Type::NextRuns: {
        for (std::size_t s = 0; s < k; ++s) {
          ShardRequest copy;
          copy.kind = ShardRequest::Kind::Request;
          copy.conn = c.id;
          copy.enc = c.enc;
          copy.request = request;
          route(c, std::move(copy), s);
        }
        return;
      }
    }
  };

  // Drains complete frames from the assembler until input is exhausted,
  // the connection is closing, or a request parks.
  auto drain_frames = [&](Conn& c) {
    try {
      while (!c.closing && c.pending.empty() && c.frames.next(payload)) {
        handle_payload(c, payload);
      }
    } catch (const FrameError& e) {
      c.queue(encode_frame(
          encode_error_wire(c.enc, 0, "bad_frame", e.what(), true)));
      c.closing = true;
    }
  };

  auto read_conn = [&](Conn& c) {
    while (!c.closing && !c.eof && c.pending.empty()) {
      const ssize_t n = ::recv(c.sock.fd(), rbuf.data(), rbuf.size(), 0);
      if (n > 0) {
        c.frames.feed(rbuf.data(), static_cast<std::size_t>(n));
        drain_frames(c);
        continue;
      }
      if (n == 0) {  // peer closed; decode what already arrived
        c.eof = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      c.eof = true;  // hard socket error
      return;
    }
  };

  auto write_conn = [&](Conn& c) {
    while (c.wants_write()) {
      const ssize_t n = ::send(c.sock.fd(), c.outbuf.data() + c.out_off,
                               c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      c.eof = true;
      return;
    }
  };

  // Per-connection progress pass: flush parked requests, resume
  // decoding, begin/advance teardown, sync event-loop interest.
  // Idempotent — safe to run for a conn any number of times per
  // iteration. Returns false when the conn was erased.
  auto advance = [&](std::uint64_t id) -> bool {
    const auto it = conns.find(id);
    if (it == conns.end()) return false;
    Conn& c = it->second;

    while (!c.pending.empty()) {
      PendingReq& p = c.pending.front();
      if (!try_push_request(p.shard, p.req)) break;
      c.pending.pop_front();
    }
    if (c.pending.empty()) {
      parked.erase(c.id);
      if (!c.torn_down) drain_frames(c);
    }

    if (c.wants_write()) write_conn(c);

    // A closing conn is done once its error reply is flushed; an eof'd
    // conn once its buffered frames are decoded and delivered. Either
    // way the owning shards are told — after every request the conn
    // already decoded, so close-order is preserved.
    const bool finished =
        (c.closing && !c.wants_write()) || (c.eof && !c.closing);
    if (finished && !c.torn_down && c.pending.empty()) {
      c.torn_down = true;
      for (std::size_t s = 0; s < k; ++s) {
        ShardRequest req;
        req.kind = ShardRequest::Kind::ConnClosed;
        req.conn = c.id;
        if (!try_push_request(s, req)) {
          c.pending.push_back(PendingReq{s, std::move(req)});
        }
      }
      if (!c.pending.empty()) parked.insert(c.id);
    }
    if (c.torn_down && c.pending.empty()) {
      parked.erase(c.id);
      loop.remove(c.sock.fd());
      conns.erase(it);
      return false;
    }

    const bool want_read =
        !c.closing && !c.eof && !c.torn_down && c.pending.empty();
    const bool want_write = c.wants_write();
    if (want_read != c.reg_read || want_write != c.reg_write) {
      loop.modify(c.sock.fd(), c.id, want_read, want_write);
      c.reg_read = want_read;
      c.reg_write = want_write;
    }
    return true;
  };

  // Armed-doorbell re-check (see WakeupFd): any lane already holding
  // work means a producer raced the arm() and skipped its ring — poll
  // the sockets without blocking instead of sleeping on a stale bell.
  const auto lanes_ready = [&]() -> bool {
    if (!accept_lanes_[t]->empty()) return true;
    for (std::size_t s = 0; s < k; ++s) {
      if (!reply_lanes_[s][t]->empty()) return true;
    }
    return false;
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    // Parked conns poll their lanes: the wake that frees them is the
    // shard's reply traffic, but a short tick bounds the worst case.
    wake.arm();
    const int tick = parked.empty() ? 50 : 1;
    const std::size_t n = loop.wait(
        stop_.load(std::memory_order_relaxed) || lanes_ready() ? 0 : tick);
    wake.disarm();
    if (stop_.load(std::memory_order_relaxed)) break;

    dirty.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const EventLoop::Event& ev = loop.events()[i];
      if (ev.data == kWakeToken) {
        wake.drain();
        continue;
      }
      const auto it = conns.find(ev.data);
      if (it == conns.end()) continue;
      Conn& c = it->second;
      if (ev.readable && !c.closing && !c.eof) read_conn(c);
      if (ev.writable) write_conn(c);
      if (ev.broken && !ev.readable) c.eof = true;
      dirty.push_back(c.id);
    }

    NewConn nc;
    while (accept_lanes_[t]->try_pop(nc)) {
      try {
        set_nonblocking(nc.fd, true);
      } catch (const SocketError&) {
        ::close(nc.fd);
        continue;
      }
      set_nodelay(nc.fd);
      auto [it, inserted] =
          conns.emplace(nc.id, Conn(nc.id, nc.fd, options_.max_frame_bytes));
      loop.add(nc.fd, nc.id, /*want_read=*/true, /*want_write=*/false);
      it->second.reg_read = true;
      dirty.push_back(nc.id);
    }

    for (std::size_t s = 0; s < k; ++s) {
      TransportReply reply;
      while (reply_lanes_[s][t]->try_pop(reply)) {
        auto it = conns.find(reply.conn);
        if (it == conns.end()) continue;  // conn died before the reply
        it->second.queue(reply.bytes);
        if (reply.close_conn) it->second.closing = true;
        dirty.push_back(reply.conn);
      }
    }

    // Progress every touched conn, then every parked conn (advance()
    // mutates `parked`, so iterate a snapshot).
    for (const std::uint64_t id : dirty) advance(id);
    if (!parked.empty()) {
      const std::vector<std::uint64_t> snapshot(parked.begin(), parked.end());
      for (const std::uint64_t id : snapshot) advance(id);
    }
  }
}

// --- Service loop (one shard) ----------------------------------------------

void TuningServer::shard_loop(std::size_t s) {
  if (options_.pin_threads) util::pin_current_thread(s);
  const std::size_t k = options_.shards;

  service::TuningService::Options sopts;
  sopts.cache = options_.root_cache_capacity > 0 ? &cache_ : nullptr;
  sopts.run_policy = options_.run_policy;
  sopts.pool = &pool_;
  service::TuningService svc(sopts);

  struct SessionInfo {
    service::SessionId local = 0;
    std::uint64_t conn = 0;
    /// The owning connection's negotiated encoding — pushed `run`
    /// frames for this session are encoded with it.
    WireEncoding enc = WireEncoding::kJson;
  };
  std::unordered_map<std::uint64_t, SessionInfo> by_global;
  std::unordered_map<service::SessionId, std::uint64_t> global_of_local;
  std::unordered_map<std::uint64_t, std::set<std::uint64_t>> by_conn;

  // Replies that found their lane full wait here (per transport, FIFO)
  // instead of spin-blocking the whole shard; flushed ahead of new work.
  std::vector<std::deque<TransportReply>> overflow(k);

  // Retries a transport's overflow queue; true when fully drained.
  auto flush_overflow = [&](std::size_t t) -> bool {
    std::deque<TransportReply>& q = overflow[t];
    while (!q.empty()) {
      if (!reply_lanes_[s][t]->try_push(std::move(q.front()))) return false;
      q.pop_front();
      transport_wakeups_[t]->notify();
    }
    return true;
  };

  auto send = [&](std::uint64_t conn, std::string frame, bool close_conn) {
    const std::size_t t = conn % k;
    TransportReply reply{conn, std::move(frame), close_conn};
    // Older overflow must go first to keep per-connection reply order.
    if (flush_overflow(t) && reply_lanes_[s][t]->try_push(std::move(reply))) {
      transport_wakeups_[t]->notify();
      return;
    }
    overflow[t].push_back(std::move(reply));
  };

  // Drains the service's ready queue and pushes the asked runs to their
  // sessions' connections, rewriting local ids to wire ids.
  auto sweep = [&] {
    for (const service::PendingRun& run : svc.next_runs()) {
      const auto git = global_of_local.find(run.session);
      if (git == global_of_local.end()) continue;
      const auto sit = by_global.find(git->second);
      if (sit == by_global.end()) continue;
      service::PendingRun wire = run;
      wire.session = git->second;
      send(sit->second.conn,
           encode_frame(encode_run_wire(sit->second.enc, wire)), false);
    }
  };

  auto drop_session = [&](std::uint64_t global) {
    const auto it = by_global.find(global);
    if (it == by_global.end()) return;
    by_conn[it->second.conn].erase(global);
    global_of_local.erase(it->second.local);
    by_global.erase(it);
  };

  auto handle = [&](ShardRequest& sr) {
    if (sr.kind == ShardRequest::Kind::ConnClosed) {
      const auto it = by_conn.find(sr.conn);
      if (it == by_conn.end()) return;
      // A dead connection abandons its sessions: close them so their
      // steppers (and any in-flight bookkeeping) are reclaimed.
      const std::set<std::uint64_t> owned = std::move(it->second);
      by_conn.erase(it);
      for (const std::uint64_t global : owned) {
        const auto bit = by_global.find(global);
        if (bit == by_global.end()) continue;
        svc.close(bit->second.local);
        global_of_local.erase(bit->second.local);
        by_global.erase(bit);
      }
      return;
    }

    Request& req = sr.request;
    switch (req.type) {
      case Request::Type::Hello:
        return;  // transport-level; never reaches a shard
      case Request::Type::Open:
      case Request::Type::Restore: {
        try {
          service::SessionSpec spec = *req.spec;
          spec.problem = resolve_problem(spec);
          const service::SessionId local =
              req.type == Request::Type::Open
                  ? svc.open_session(spec)
                  : svc.restore_session(spec, req.snapshot);
          by_global[sr.global_session] = SessionInfo{local, sr.conn, sr.enc};
          global_of_local[local] = sr.global_session;
          by_conn[sr.conn].insert(sr.global_session);
          shard_opened_[s].fetch_add(1, std::memory_order_relaxed);
          send(sr.conn,
               encode_frame(
                   encode_opened_wire(sr.enc, req.req, sr.global_session)),
               false);
          sweep();
        } catch (const std::exception& e) {
          send(sr.conn,
               encode_frame(encode_error_wire(sr.enc, req.req, "bad_request",
                                              e.what(), true)),
               true);
        }
        return;
      }
      case Request::Type::Tell: {
        const auto it = by_global.find(req.session);
        if (it == by_global.end() || it->second.conn != sr.conn) {
          send(sr.conn,
               encode_frame(encode_error_wire(
                   sr.enc, req.req, "bad_request",
                   "unknown session " + std::to_string(req.session), true)),
               true);
          return;
        }
        try {
          svc.tell(it->second.local, req.config, req.result);
          // Sweep BEFORE reporting: a stepper only learns it is finished
          // when the post-tell ask happens, so the told reply would
          // otherwise claim finished=false with no further run coming —
          // wedging a driver that waits for pushes. Runs pushed here
          // arrive before the told frame; clients buffer them.
          sweep();
          const bool quarantined = svc.quarantined(it->second.local);
          const bool finished = quarantined || svc.finished(it->second.local);
          send(sr.conn,
               encode_frame(encode_told_wire(
                   sr.enc, req.req, req.session, finished, quarantined,
                   svc.stop_reason(it->second.local))),
               false);
        } catch (const std::exception& e) {
          send(sr.conn,
               encode_frame(encode_error_wire(sr.enc, req.req, "bad_request",
                                              e.what(), true)),
               true);
        }
        return;
      }
      case Request::Type::NextRuns: {
        sweep();
        return;
      }
      case Request::Type::Snapshot:
      case Request::Type::Result:
      case Request::Type::Close: {
        const auto it = by_global.find(req.session);
        if (it == by_global.end() || it->second.conn != sr.conn) {
          send(sr.conn,
               encode_frame(encode_error_wire(
                   sr.enc, req.req, "bad_request",
                   "unknown session " + std::to_string(req.session), true)),
               true);
          return;
        }
        try {
          if (req.type == Request::Type::Snapshot) {
            send(sr.conn,
                 encode_frame(encode_snapshot_reply_wire(
                     sr.enc, req.req, req.session,
                     svc.snapshot_session(it->second.local))),
                 false);
          } else if (req.type == Request::Type::Result) {
            send(sr.conn,
                 encode_frame(encode_result_reply_wire(
                     sr.enc, req.req, req.session,
                     svc.finished(it->second.local),
                     svc.quarantined(it->second.local),
                     svc.stop_reason(it->second.local),
                     svc.result(it->second.local))),
                 false);
          } else {
            svc.close(it->second.local);
            drop_session(req.session);
            send(sr.conn,
                 encode_frame(
                     encode_closed_wire(sr.enc, req.req, req.session)),
                 false);
          }
        } catch (const std::exception& e) {
          send(sr.conn,
               encode_frame(encode_error_wire(sr.enc, req.req, "bad_request",
                                              e.what(), true)),
               true);
        }
        return;
      }
    }
  };

  util::Backoff backoff;
  int idle_streak = 0;
  while (true) {
    bool overflowing = false;
    for (std::size_t t = 0; t < k; ++t) {
      if (!flush_overflow(t)) overflowing = true;
    }
    // One request per transport lane per pass: a saturated lane cannot
    // starve the others, and each connection (one lane) stays FIFO.
    const bool busy = util::serve_round_robin(
        k,
        [&](std::size_t t) -> util::SpscQueue<ShardRequest>& {
          return *request_lanes_[t][s];
        },
        handle);
    if (busy) {
      backoff.reset();
      idle_streak = 0;
      continue;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    // Spin hot briefly (low request latency under load), then sleep on
    // the shard's doorbell so an idle server costs ~no CPU. Undelivered
    // overflow keeps the tick short: the consuming transport does not
    // ring this doorbell when it drains a reply lane.
    if (++idle_streak < 256) {
      backoff.spin();
    } else {
      // Armed doorbell (see WakeupFd): declare the sleep, then re-check
      // every request lane — a transport that pushed before the flag
      // flipped skipped its ring, so blocking now would lose the wake.
      shard_wakeups_[s]->arm();
      bool raced = stop_.load(std::memory_order_relaxed);
      for (std::size_t t = 0; t < k && !raced; ++t) {
        raced = !request_lanes_[t][s]->empty();
      }
      if (!raced) {
        pollfd pfd{};
        pfd.fd = shard_wakeups_[s]->read_fd();
        pfd.events = POLLIN;
        ::poll(&pfd, 1, overflowing ? 1 : 50);
        shard_wakeups_[s]->drain();
      }
      shard_wakeups_[s]->disarm();
    }
  }
}

}  // namespace lynceus::net
