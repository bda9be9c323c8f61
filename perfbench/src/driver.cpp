// The load generator: one client thread multiplexing two pipelined
// connections to a loopback TuningServer, in a closed or an open loop.
//
// Every request is encoded and framed with the public net/ codec and
// written to a non-blocking socket, so any number of sessions can have a
// tell in flight on one connection; replies are matched by `req` token.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "net/binary_codec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/tuning_server.hpp"

namespace perfbench {

namespace {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One client connection: a non-blocking socket with an output buffer and
/// an incremental frame splitter.
struct Conn {
  net::Socket sock;
  net::FrameAssembler frames;
  net::WireEncoding enc = net::WireEncoding::kJson;
  std::string out;
  std::size_t out_off = 0;

  void queue(const std::string& payload) { out += net::encode_frame(payload); }

  /// Writes as much buffered output as the socket takes.
  void flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(sock.fd(), out.data() + out_off,
                               out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw net::SocketError(std::string("send: ") + std::strerror(errno));
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }

  /// Reads what is available; false on EOF.
  bool fill() {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        frames.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) return true;
      } else if (n == 0) {
        return false;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;
      } else if (errno != EINTR) {
        throw net::SocketError(std::string("recv: ") + std::strerror(errno));
      }
    }
  }

  /// Blocking round trip for set-up: sends `payload`, returns the first
  /// non-run reply (pushed runs are discarded).
  net::ServerMessage round_trip(const std::string& payload) {
    queue(payload);
    while (true) {
      flush();
      std::string frame;
      while (frames.next(frame)) {
        net::ServerMessage m = net::parse_server_message_wire(enc, frame);
        if (m.type == net::ServerMessage::Type::Error) {
          throw std::runtime_error("server error " + m.code + ": " + m.message);
        }
        if (m.type != net::ServerMessage::Type::Run) return m;
      }
      pollfd p{sock.fd(), POLLIN, 0};
      if (!out.empty()) p.events |= POLLOUT;
      ::poll(&p, 1, 1000);
      if ((p.revents & POLLIN) && !fill()) {
        throw net::SocketError("server closed the connection");
      }
    }
  }
};

Conn connect_client(std::uint16_t port) {
  Conn c;
  c.sock = net::connect_tcp("127.0.0.1", port);
  net::set_nodelay(c.sock.fd());
  net::set_nonblocking(c.sock.fd(), true);
  // Offer binary first, as the stock client does; the reply is JSON.
  const net::ServerMessage hello = c.round_trip(net::encode_hello_request(
      0, net::kProtocolVersion, {"binary", "json"}));
  if (hello.type != net::ServerMessage::Type::Hello ||
      !net::wire_encoding_from_name(hello.encoding, c.enc)) {
    throw net::SocketError("hello handshake failed");
  }
  return c;
}

}  // namespace

struct Setup {
  std::unique_ptr<net::TuningServer> server;
  std::vector<Conn> conns;
};

void SetupDeleter::operator()(Setup* s) const { delete s; }

SetupPtr set_up(const Workload& workload, SessionStream& stream,
                double& seconds) {
  const std::vector<service::SessionSpec> specs = stream.distinct_job_specs();
  const std::int64_t t0 = now_ns();
  SetupPtr setup(new Setup);
  net::TuningServer::Options opts;
  opts.shards = kShards;
  opts.root_cache_capacity = workload.root_cache_capacity;
  setup->server = std::make_unique<net::TuningServer>(opts);
  // The acceptor hands connection n to transport n % shards, and a shard
  // loop drains one transport's request lane until it is empty before
  // looking at the next, so under a saturating closed loop a second lane
  // into the same shard starves. Both client connections therefore go
  // through transport 0 (connections 0 and 2; connection 1 is closed
  // right away): every shard serves one FIFO lane, whatever the mix of
  // connections its sessions came from.
  for (std::size_t c = 0; c <= kShards; ++c) {
    Conn conn = connect_client(setup->server->port());
    if (c % kShards == 0) setup->conns.push_back(std::move(conn));
  }
  std::vector<std::pair<std::size_t, std::uint64_t>> opened;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Conn& c = setup->conns[i % kConnections];
    const net::ServerMessage m =
        c.round_trip(net::encode_open_wire(c.enc, 1 + i, specs[i]));
    opened.emplace_back(i % kConnections, m.session);
  }
  seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const auto& [conn, id] : opened) {
    Conn& c = setup->conns[conn];
    c.round_trip(net::encode_close_wire(c.enc, 1000000 + id, id));
  }
  return setup;
}

namespace {

constexpr std::size_t kCaptureLimit = 4096;

/// The state of one remote session on the client.
struct Sess {
  enum class State {
    kOpening, kPooled, kActive, kSnapshotting, kRestoring, kFetching,
    kClosing, kDone
  };
  std::size_t index = 0;
  const PlannedSession* plan = nullptr;
  std::uint64_t wire = 0;
  std::size_t conn = 0;
  State state = State::kOpening;
  std::vector<service::PendingRun> stash;  ///< runs pushed while pooled
  std::vector<core::ConfigId> told;        ///< configs sent, in order
  std::size_t answered = 0;
  std::size_t in_flight = 0;  ///< tells sent, not yet answered
  std::uint32_t generation = 0;  ///< open loop: invalidates timers
  bool finished = false;
  bool snapshotted = false;
  bool ready = false;  ///< closed loop: queued to send its next tell
  bool has_result = false;
  core::OptimizerResult result;
};

struct PendingReq {
  enum class Kind { kOpen, kRestore, kTell, kSnapshot, kResult, kClose };
  Kind kind = Kind::kOpen;
  std::size_t sess = 0;
  std::int64_t sent = 0;  ///< tell written to the connection buffer
  std::int64_t due = 0;   ///< open loop: when the tell was due
  std::size_t log_op = SIZE_MAX;
  ClientTellSpan span;
};

struct Timer {
  std::int64_t due = 0;
  std::uint64_t seq = 0;
  bool arrival = false;
  std::size_t sess = 0;  ///< stream index (arrival) or session slot
  std::uint32_t generation = 0;
  service::PendingRun run;
  core::RunResult result;
  bool operator>(const Timer& o) const {
    return due != o.due ? due > o.due : seq > o.seq;
  }
};

class Driver {
 public:
  Driver(Setup& setup, const Workload& workload, SessionStream& stream,
         double seconds, bool traced)
      : setup_(setup),
        w_(workload),
        stream_(stream),
        seconds_(seconds),
        traced_(traced) {}

  RemoteRun run() {
    try {
      if (w_.loop == Loop::kClosed) {
        closed_loop();
      } else {
        open_loop();
      }
    } catch (const std::exception& e) {
      ++out_.failed;
      out_.errors.push_back(e.what());
      if (t_end_ == 0) finish_window();
    }
    std::size_t deciding = 0, decided = 0;
    for (Sess& s : sessions_) {
      if (s.told.empty()) continue;
      if (s.has_result) {
        const std::size_t first = first_deciding_tell(s);
        deciding += s.told.size() > first ? s.told.size() - first : 0;
        decided += s.result.decisions;
      }
      SessionOutcome o;
      o.index = s.index;
      o.told = std::move(s.told);
      o.finished = s.finished;
      o.has_result = s.has_result;
      if (s.has_result) {
        o.digest = digest(s.result);
        out_.decisions += s.result.decisions;
        out_.decision_seconds += s.result.decision_seconds;
        o.result = std::move(s.result);
      }
      out_.sessions.push_back(std::move(o));
    }
    if (deciding > 0) {
      out_.decisions_per_deciding_tell =
          static_cast<double>(decided) / static_cast<double>(deciding);
    }
    for (const net::TuningServer::LaneStats& ls :
         setup_.server->request_lane_stats()) {
      out_.lane_high_water = std::max(out_.lane_high_water, ls.high_water);
      out_.lane_stalls += ls.stalls;
    }
    out_.shard_sessions = setup_.server->shard_session_counts();
    return std::move(out_);
  }

 private:
  // --- Sending ------------------------------------------------------------

  std::uint64_t send(std::size_t conn, PendingReq req,
                     const std::function<std::string(net::WireEncoding,
                                                     std::uint64_t)>& encode) {
    Conn& c = setup_.conns[conn];
    const std::uint64_t id = next_req_++;
    const std::string payload = encode(c.enc, id);
    c.queue(payload);
    ++out_.attempted;
    pending_[id] = std::move(req);
    return id;
  }

  std::size_t log(LoggedOp op) {
    if (!traced_) return SIZE_MAX;
    out_.log.push_back(std::move(op));
    return out_.log.size() - 1;
  }

  std::size_t new_session(std::size_t index, std::size_t conn) {
    Sess s;
    s.index = index;
    s.plan = &stream_.at(index);
    s.conn = conn;
    sessions_.push_back(std::move(s));
    const std::size_t slot = sessions_.size() - 1;
    PendingReq req;
    req.kind = PendingReq::Kind::kOpen;
    req.sess = slot;
    LoggedOp op;
    op.kind = LoggedOp::Kind::kOpen;
    op.session = index;
    req.log_op = log(std::move(op));
    const service::SessionSpec& spec = sessions_[slot].plan->spec;
    send(conn, std::move(req), [&](net::WireEncoding e, std::uint64_t id) {
      return net::encode_open_wire(e, id, spec);
    });
    ++opens_in_flight_;
    ++open_sessions_;
    return slot;
  }

  /// Closed loop: opens the next spec of the stream, alternating
  /// connections.
  void open_next() {
    new_session(next_index_, next_index_ % kConnections);
    ++next_index_;
  }

  /// Executes `run` (eval layer) and returns the result, accounting time.
  ExecutedRun execute(const Sess& s, const service::PendingRun& run) {
    const std::int64_t t0 = now_ns();
    ExecutedRun r = execute_run(*s.plan, run);
    out_.runner_ns += now_ns() - t0;
    return r;
  }

  void send_tell(std::size_t slot, const service::PendingRun& run,
                 const core::RunResult& result, std::int64_t origin,
                 std::int64_t eval_ns) {
    Sess& s = sessions_[slot];
    PendingReq req;
    req.kind = PendingReq::Kind::kTell;
    req.sess = slot;
    const std::size_t tell_index = s.told.size();
    if (traced_) {
      LoggedOp op;
      op.kind = LoggedOp::Kind::kTell;
      op.session = s.index;
      op.wire_id = s.wire;
      op.tell_index = tell_index;
      op.config = run.config;
      op.result = result;
      req.log_op = log(std::move(op));
      req.span.key = (static_cast<std::uint64_t>(s.index) << 24) | tell_index;
      req.span.start = origin;
      req.span.eval_ns = eval_ns;
      if (out_.captured_tells.size() < kCaptureLimit) {
        out_.captured_tells.push_back(
            {next_req_, s.wire, run.config, result});
      }
    }
    const std::int64_t t_enc = now_ns();
    Conn& c = setup_.conns[s.conn];
    const std::size_t before = c.out.size();
    const std::uint64_t wire = s.wire;
    const std::uint64_t id =
        send(s.conn, std::move(req), [&](net::WireEncoding e, std::uint64_t r) {
          return net::encode_tell_wire(e, r, wire, run.config, result);
        });
    out_.tell_frame_bytes += c.out.size() - before;
    const std::int64_t t_sent = now_ns();
    PendingReq& p = pending_[id];
    p.sent = t_sent;
    p.due = origin;
    p.span.encode_ns = t_sent - t_enc;
    s.told.push_back(run.config);
    ++s.in_flight;
    ++tells_in_flight_;
  }

  void send_simple(std::size_t slot, PendingReq::Kind kind) {
    Sess& s = sessions_[slot];
    PendingReq req;
    req.kind = kind;
    req.sess = slot;
    const std::uint64_t wire = s.wire;
    if (kind == PendingReq::Kind::kSnapshot) {
      LoggedOp op;
      op.kind = LoggedOp::Kind::kSnapshot;
      op.session = s.index;
      op.wire_id = wire;
      req.log_op = log(std::move(op));
    }
    send(s.conn, std::move(req), [&](net::WireEncoding e, std::uint64_t id) {
      switch (kind) {
        case PendingReq::Kind::kSnapshot:
          return net::encode_snapshot_request_wire(e, id, wire);
        case PendingReq::Kind::kResult:
          return net::encode_result_request_wire(e, id, wire);
        default:
          return net::encode_close_wire(e, id, wire);
      }
    });
  }

  void close_session(std::size_t slot, bool with_digest) {
    Sess& s = sessions_[slot];
    LoggedOp op;
    op.kind = LoggedOp::Kind::kClose;
    op.session = s.index;
    op.wire_id = s.wire;
    op.has_digest = with_digest;
    if (with_digest) op.digest = digest(s.result);
    log(std::move(op));
    send_simple(slot, PendingReq::Kind::kClose);
  }

  // --- Receiving -----------------------------------------------------------

  /// Polls both connections (and flushes output) for up to `timeout_ms`,
  /// then dispatches every complete frame.
  void pump(int timeout_ms) {
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = setup_.conns[i];
      c.flush();
      fds[i] = pollfd{c.sock.fd(), POLLIN, 0};
      if (!c.out.empty()) fds[i].events |= POLLOUT;
    }
    const int n = ::poll(fds, kConnections, timeout_ms);
    if (n < 0 && errno != EINTR) {
      throw net::SocketError(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn& c = setup_.conns[i];
      if (fds[i].revents & POLLOUT) c.flush();
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!c.fill()) throw net::SocketError("server closed a connection");
        std::string frame;
        while (c.frames.next(frame)) {
          const std::int64_t t_recv = now_ns();
          net::ServerMessage m = net::parse_server_message_wire(c.enc, frame);
          const std::int64_t t_dec = now_ns();
          dispatch(i, m, frame.size() + net::kFrameHeaderBytes, t_recv,
                   t_dec);
        }
      }
    }
  }

  void dispatch(std::size_t conn, net::ServerMessage& m, std::size_t bytes,
                std::int64_t t_recv, std::int64_t t_dec) {
    using T = net::ServerMessage::Type;
    if (m.type == T::Error) {
      throw std::runtime_error("server error " + m.code + ": " + m.message);
    }
    if (m.type == T::Run) {
      out_.tell_frame_bytes += bytes;
      if (m.run.attempt > 0) ++out_.retries;
      if (traced_ && out_.captured_runs.size() < kCaptureLimit) {
        out_.captured_runs.push_back(m.run);
      }
      on_run(m.run);
      return;
    }
    const auto it = pending_.find(m.req);
    if (it == pending_.end()) {
      throw std::runtime_error("reply to unknown request " +
                               std::to_string(m.req));
    }
    PendingReq req = std::move(it->second);
    pending_.erase(it);
    Sess& s = sessions_[req.sess];
    switch (req.kind) {
      case PendingReq::Kind::kOpen:
      case PendingReq::Kind::kRestore:
        s.wire = m.session;
        by_wire_[m.session] = req.sess;
        if (req.log_op != SIZE_MAX) out_.log[req.log_op].wire_id = m.session;
        on_opened(req.sess, req.kind == PendingReq::Kind::kRestore);
        return;
      case PendingReq::Kind::kTell: {
        out_.tell_frame_bytes += bytes;
        // Closed loop: from the tell's send; open loop: from its due time.
        const std::int64_t origin =
            w_.loop == Loop::kClosed ? req.sent : req.due;
        if (measuring_) {
          out_.tell_ms.push_back(static_cast<double>(t_dec - origin) * 1e-6);
          if (s.answered >= first_deciding_tell(s)) ++slice_deciding_;
        }
        if (traced_) {
          req.span.rtt_ns = t_recv - req.sent;
          req.span.decode_ns = t_dec - t_recv;
          req.span.end = t_dec;
          out_.spans.push_back(req.span);
          if (out_.captured_tolds.size() < kCaptureLimit) {
            out_.captured_tolds.push_back({m.req, m.session, m.finished,
                                           m.quarantined, m.stop_reason});
          }
        }
        ++s.answered;
        --s.in_flight;
        --tells_in_flight_;
        last_reply_ = t_dec;
        if (m.finished && !s.finished) {
          s.finished = true;
          on_finished(req.sess);
        } else if (!m.finished) {
          on_told(req.sess);
          if (w_.loop == Loop::kClosed) make_ready(req.sess);
        }
        return;
      }
      case PendingReq::Kind::kSnapshot: {
        ++out_.snapshots;
        out_.snapshot_bytes += bytes;
        const std::size_t other = (conn + 1) % kConnections;
        by_wire_.erase(s.wire);
        close_session(req.sess, false);
        s.conn = other;
        s.state = Sess::State::kRestoring;
        PendingReq rr;
        rr.kind = PendingReq::Kind::kRestore;
        rr.sess = req.sess;
        LoggedOp op;
        op.kind = LoggedOp::Kind::kRestore;
        op.session = s.index;
        op.snapshot = m.data;
        rr.log_op = log(std::move(op));
        const service::SessionSpec& spec = s.plan->spec;
        send(other, std::move(rr), [&](net::WireEncoding e, std::uint64_t id) {
          return net::encode_restore_wire(e, id, spec, m.data);
        });
        return;
      }
      case PendingReq::Kind::kResult:
        s.result = std::move(m.result);
        s.has_result = true;
        by_wire_.erase(s.wire);
        close_session(req.sess, true);
        s.state = Sess::State::kClosing;
        return;
      case PendingReq::Kind::kClose:
        if (s.state == Sess::State::kClosing) {
          s.state = Sess::State::kDone;
          --open_sessions_;
        }
        return;
    }
  }

  void on_run(const service::PendingRun& run) {
    const auto it = by_wire_.find(run.session);
    if (it == by_wire_.end()) return;  // a closed session's stale push
    const std::size_t slot = it->second;
    Sess& s = sessions_[slot];
    switch (s.state) {
      case Sess::State::kPooled:
      case Sess::State::kOpening:
      case Sess::State::kRestoring:
        s.stash.push_back(run);
        return;
      case Sess::State::kActive:
        if (w_.loop == Loop::kClosed) {
          s.stash.push_back(run);
          make_ready(slot);
        } else {
          schedule_tell(slot, run);
        }
        return;
      default:
        return;  // snapshotting: re-pushed after restore
    }
  }

  void on_opened(std::size_t slot, bool restored) {
    Sess& s = sessions_[slot];
    if (!restored) --opens_in_flight_;
    if (restored && s.finished) {
      s.state = Sess::State::kFetching;
      send_simple(slot, PendingReq::Kind::kResult);
      return;
    }
    if (w_.loop == Loop::kClosed) {
      if (t_end_ != 0) {
        by_wire_.erase(s.wire);
        s.state = Sess::State::kClosing;
        close_session(slot, false);
      } else if (loading_ && !stopping_ &&
                 active_[s.wire % kShards] < target_active_) {
        activate(slot);
      } else {
        s.state = Sess::State::kPooled;
        pools_[s.wire % kShards].push_back(slot);
      }
    } else if (stopping_) {
      s.state = Sess::State::kFetching;
      send_simple(slot, PendingReq::Kind::kResult);
    } else {
      s.state = Sess::State::kActive;
      std::vector<service::PendingRun> stash = std::move(s.stash);
      for (const service::PendingRun& run : stash) schedule_tell(slot, run);
    }
  }

  void activate(std::size_t slot) {
    Sess& s = sessions_[slot];
    s.state = Sess::State::kActive;
    ++active_[s.wire % kShards];
    make_ready(slot);
  }

  /// Closed loop: each session keeps at most one tell in flight, so every
  /// tell (bootstrap runs included) waits its own turn in the shard's lane.
  void make_ready(std::size_t slot) {
    Sess& s = sessions_[slot];
    if (s.in_flight == 0 && !s.stash.empty() && !s.ready) {
      s.ready = true;
      ready_.push_back(slot);
    }
  }

  void on_finished(std::size_t slot) {
    Sess& s = sessions_[slot];
    if (s.state == Sess::State::kSnapshotting) return;  // fetched after restore
    if (w_.loop == Loop::kClosed && s.state == Sess::State::kActive) {
      --active_[s.wire % kShards];
    }
    s.state = Sess::State::kFetching;
    send_simple(slot, PendingReq::Kind::kResult);
  }

  void on_told(std::size_t slot) {
    Sess& s = sessions_[slot];
    if (w_.snapshot_restore && !s.snapshotted && !stopping_ &&
        s.state == Sess::State::kActive && s.plan->snapshot_after > 0 &&
        s.answered >= s.plan->snapshot_after) {
      s.snapshotted = true;
      s.state = Sess::State::kSnapshotting;
      ++s.generation;  // drop its scheduled tells; restore re-pushes them
      send_simple(slot, PendingReq::Kind::kSnapshot);
    }
  }

  // --- Closed loop ---------------------------------------------------------

  void closed_loop() {
    // A full spare complement per shard: sessions of one wave finish close
    // together, and every one must be replaced at once or the shard's
    // queue (and with it every tell's latency) shrinks.
    const std::size_t pool_target =
        std::max<std::size_t>(2, w_.active_per_shard);
    // Opens share the shards' FIFO lanes with tells; a small window keeps
    // them trickling in instead of landing as one burst that every tell
    // behind it waits for.
    const std::size_t max_opens =
        std::min<std::size_t>(32, 2 * pool_target * kShards);
    auto refill = [&] {
      while (opens_in_flight_ < max_opens) {
        bool short_pool = false;
        for (std::size_t s = 0; s < kShards; ++s) {
          if (pools_[s].size() < pool_target) short_pool = true;
        }
        if (!short_pool) break;
        open_next();
      }
    };
    // Pre-open until every shard can start with its full complement.
    while (true) {
      bool ready = true;
      for (std::size_t s = 0; s < kShards; ++s) {
        if (pools_[s].size() < w_.active_per_shard + pool_target) ready = false;
      }
      if (ready) break;
      if (opens_in_flight_ < max_opens) open_next();
      pump(opens_in_flight_ < max_opens ? 0 : 50);
    }
    start_load();
    const auto ramp_ns = static_cast<std::int64_t>(kWarmupSeconds * 0.5e9);
    while (true) {
      const std::int64_t now = now_ns();
      tick(now);
      if (!stopping_) {
        const std::int64_t ramped = now - t_load_;
        target_active_ =
            ramped >= ramp_ns
                ? w_.active_per_shard
                : std::max<std::size_t>(
                      1, static_cast<std::size_t>(
                             static_cast<double>(w_.active_per_shard) *
                             static_cast<double>(ramped) /
                             static_cast<double>(ramp_ns)));
        for (std::size_t s = 0; s < kShards; ++s) {
          while (active_[s] < target_active_ && !pools_[s].empty()) {
            const std::size_t slot = pools_[s].front();
            pools_[s].pop_front();
            activate(slot);
          }
        }
        refill();
        // Tell every run that is ready (its session's last reply arrived).
        std::vector<std::size_t> ready;
        ready.swap(ready_);
        for (const std::size_t slot : ready) {
          Sess& s = sessions_[slot];
          s.ready = false;
          const service::PendingRun run = s.stash.front();
          s.stash.erase(s.stash.begin());
          const std::int64_t t0 = now_ns();
          const ExecutedRun r = execute(sessions_[slot], run);
          send_tell(slot, run, r.result, t0, now_ns() - t0);
        }
      } else {
        ready_.clear();
        if (tells_in_flight_ == 0 && t_end_ == 0) {
          finish_window();
          fetch_all();
        }
        if (t_end_ != 0 && open_sessions_ == 0) break;
      }
      pump(stopping_ ? 50 : 1);
    }
  }

  // --- Open loop -----------------------------------------------------------

  void schedule_tell(std::size_t slot, const service::PendingRun& run) {
    const Sess& s = sessions_[slot];
    const ExecutedRun r = execute(s, run);
    const double delay_ms =
        w_.run_delay_ms * r.simulated_seconds / s.plan->mean_runtime_s;
    Timer t;
    t.due = now_ns() + static_cast<std::int64_t>(delay_ms * 1e6);
    t.seq = timer_seq_++;
    t.sess = slot;
    t.generation = s.generation;
    t.run = run;
    t.result = r.result;
    timers_.push(std::move(t));
  }

  void open_loop() {
    start_load();
    for (std::size_t i = 0;; ++i) {
      const PlannedSession& p = stream_.at(i);
      if (p.arrival_s >= kWarmupSeconds + seconds_) {
        if (i % 2 == 0) break;  // a late repeat's original was admitted
        continue;
      }
      Timer t;
      t.due = t_load_ + static_cast<std::int64_t>(p.arrival_s * 1e9);
      t.seq = timer_seq_++;
      t.arrival = true;
      t.sess = i;
      timers_.push(std::move(t));
    }
    while (true) {
      std::int64_t now = now_ns();
      tick(now);
      while (!timers_.empty() && timers_.top().due <= now) {
        Timer t = timers_.top();
        timers_.pop();
        if (t.arrival) {
          if (stopping_) continue;
          if (measuring_) {
            out_.gen_lag_ms.push_back(static_cast<double>(now - t.due) * 1e-6);
          }
          new_session(t.sess, t.sess % kConnections);
          continue;
        }
        Sess& s = sessions_[t.sess];
        if (t.generation != s.generation || s.state != Sess::State::kActive ||
            stopping_) {
          continue;
        }
        const std::int64_t sent_at = now_ns();
        if (measuring_) {
          out_.gen_lag_ms.push_back(static_cast<double>(sent_at - t.due) *
                                    1e-6);
        }
        send_tell(t.sess, t.run, t.result, t.due, sent_at - t.due);
        now = now_ns();
      }
      if (stopping_) {
        bool busy = tells_in_flight_ > 0;
        for (const Sess& s : sessions_) {
          if (s.state == Sess::State::kSnapshotting ||
              s.state == Sess::State::kRestoring ||
              s.state == Sess::State::kOpening) {
            busy = true;
          }
        }
        if (!busy && t_end_ == 0) {
          finish_window();
          fetch_all();
        }
        if (t_end_ != 0 && open_sessions_ == 0) break;
      }
      int timeout = 50;
      if (!stopping_) {
        std::int64_t next = next_tick();
        if (!timers_.empty()) next = std::min(next, timers_.top().due);
        const std::int64_t wait = (next - now_ns()) / 1000000;
        timeout = static_cast<int>(std::clamp<std::int64_t>(wait, 0, 50));
      }
      pump(timeout);
    }
  }

  // --- Window bookkeeping --------------------------------------------------

  /// Index of a session's last bootstrap tell (see Slice::deciding_tells).
  static std::size_t first_deciding_tell(const Sess& s) {
    return std::max<std::size_t>(1, s.plan->problem->bootstrap_samples) - 1;
  }

  static constexpr std::int64_t kSliceNs = 1'000'000'000;

  void start_load() {
    t_load_ = now_ns();
    t_start_ = t_load_ + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
    deadline_ = t_start_ + static_cast<std::int64_t>(seconds_ * 1e9);
    loading_ = true;
  }

  /// When tick() next has something to do.
  std::int64_t next_tick() const {
    if (!measuring_) return t_start_;
    return std::min(slice_start_ + kSliceNs, deadline_);
  }

  /// Starts measuring when warm-up is over, closes slices, and stops the
  /// load at the deadline.
  void tick(std::int64_t now) {
    if (stopping_) return;
    if (!measuring_ && now >= t_start_) {
      measuring_ = true;
      t_start_ = slice_start_ = now;
      slice_cpu_ = process_cpu_seconds();
    }
    if (measuring_ && now >= next_tick()) {
      const double cpu = process_cpu_seconds();
      const double seconds = static_cast<double>(now - slice_start_) * 1e-9;
      // A short last slice (the deadline cut it) would be the noisiest.
      if (seconds >= 0.5) {
        out_.slices.push_back({seconds, cpu - slice_cpu_, slice_deciding_});
      }
      slice_start_ = now;
      slice_cpu_ = cpu;
      slice_deciding_ = 0;
    }
    if (now >= deadline_) stopping_ = true;
  }

  void finish_window() {
    t_end_ = std::max(last_reply_, t_start_ + 1);
    out_.window_s = static_cast<double>(t_end_ - t_start_) * 1e-9;
    out_.peak_rss_mb = peak_rss_mb();
  }

  /// After the window: fetch the result of every session that told
  /// anything, and close every other open session.
  void fetch_all() {
    for (std::size_t slot = 0; slot < sessions_.size(); ++slot) {
      Sess& s = sessions_[slot];
      switch (s.state) {
        case Sess::State::kPooled:
        case Sess::State::kActive:
          if (s.told.empty()) {
            by_wire_.erase(s.wire);
            s.state = Sess::State::kClosing;
            close_session(slot, false);
          } else {
            s.state = Sess::State::kFetching;
            send_simple(slot, PendingReq::Kind::kResult);
          }
          break;
        default:
          break;
      }
    }
  }

  Setup& setup_;
  const Workload& w_;
  SessionStream& stream_;
  double seconds_;
  bool traced_;
  RemoteRun out_;

  std::deque<Sess> sessions_;
  std::unordered_map<std::uint64_t, std::size_t> by_wire_;
  std::unordered_map<std::uint64_t, PendingReq> pending_;
  std::uint64_t next_req_ = 1;
  std::size_t next_index_ = 0;
  std::size_t opens_in_flight_ = 0;
  std::size_t tells_in_flight_ = 0;
  std::size_t open_sessions_ = 0;
  std::deque<std::size_t> pools_[kShards];
  std::size_t active_[kShards] = {};
  std::vector<std::size_t> ready_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::uint64_t timer_seq_ = 0;

  bool loading_ = false;    ///< sessions may be activated
  bool measuring_ = false;  ///< warm-up is over
  bool stopping_ = false;
  std::size_t target_active_ = 0;  ///< closed loop: per shard, ramped
  std::int64_t t_load_ = 0, t_start_ = 0, deadline_ = 0, t_end_ = 0,
               last_reply_ = 0;
  std::int64_t slice_start_ = 0;
  double slice_cpu_ = 0.0;
  std::size_t slice_deciding_ = 0;
};

}  // namespace

RemoteRun run_remote(Setup& setup, const Workload& workload,
                     SessionStream& stream, double seconds, bool traced) {
  Driver d(setup, workload, stream, seconds, traced);
  return d.run();
}

}  // namespace perfbench
