#include "src/serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/analysis/lint.hpp"
#include "src/core/network_io.hpp"
#include "src/ipc/byte_stream.hpp"
#include "src/obs/json_report.hpp"

namespace nsc::serve {

Server::Server(Config cfg) : cfg_(std::move(cfg)) {
  // Every stats document carries these totals, zero until the first kTick.
  for (const char* name : {"serve.spikes_queued", "serve.spikes_dropped"}) metrics_.counter(name);
}

Server::~Server() = default;

void Server::load_networks() {
  for (const auto& [name, path] : cfg_.net_paths) {
    add_network(name, core::load_network(path));
  }
}

void Server::add_network(const std::string& name, core::Network net) {
  if (name.empty()) throw std::runtime_error("serve: network name must not be empty");
  if (nets_.count(name) != 0) {
    throw std::runtime_error("serve: duplicate network name '" + name + "'");
  }
  if (cfg_.lint_admission) {
    const analysis::LintReport report = analysis::lint(net);
    if (report.max_severity() == analysis::Severity::kError) {
      throw std::runtime_error(
          "serve: network '" + name + "' refused by admission lint (" +
          std::to_string(report.count(analysis::Severity::kError)) +
          " error finding(s); run nsc_lint for the report)");
    }
  }
  nets_.emplace(name, std::make_shared<const core::Network>(std::move(net)));
}

void Server::bind() { listener_ = ipc::Listener(cfg_.socket_path); }

void Server::run() {
  if (!listener_.alive()) bind();
  started_ns_ = obs::now_ns();
  std::vector<ipc::PollItem> items;
  std::vector<Conn*> item_conn;
  while (!stop_.load(std::memory_order_relaxed) && !ipc::stop_signal_raised()) {
    items.clear();
    item_conn.clear();
    {
      ipc::PollItem li;
      li.fd = listener_.fd();
      li.want_read = true;
      items.push_back(li);
      item_conn.push_back(nullptr);
    }
    for (const auto& c : conns_) {
      if (c->dead || !c->ch.alive()) continue;
      ipc::PollItem it;
      it.fd = c->ch.fd();
      it.want_read = true;
      it.want_write = c->woff < c->wbuf.size();
      items.push_back(it);
      item_conn.push_back(c.get());
    }
    const int rc = ipc::poll_wait(items, cfg_.poll_interval_ms);
    if (rc < 0) continue;  // EINTR: re-check the stop flag.
    for (std::size_t i = 0; i < items.size(); ++i) {
      Conn* conn = item_conn[i];
      if (conn == nullptr) {
        if (items[i].readable) accept_pending();
        continue;
      }
      if (conn->dead) continue;
      if (items[i].readable) read_conn(*conn);
      if (!conn->dead && (items[i].writable || conn->woff < conn->wbuf.size())) {
        flush_conn(*conn);
      }
    }
    sweep_dead();
  }
  drain_and_close();
}

void Server::accept_pending() {
  for (;;) {
    ipc::Channel ch = listener_.accept_channel();
    if (!ch.alive()) return;
    if (static_cast<int>(conns_.size()) >= cfg_.max_connections) {
      ++metrics_.counter("serve.conns_refused");
      continue;  // ch closes on scope exit: connection shed at the door.
    }
    ch.set_nonblocking();
    auto conn = std::make_unique<Conn>();
    conn->ch = std::move(ch);
    conns_.push_back(std::move(conn));
    ++metrics_.counter("serve.conns_accepted");
  }
}

void Server::read_conn(Conn& conn) {
  // Bound the bytes consumed per poll round so one firehose client cannot
  // starve the loop; the rest stays in the kernel buffer for the next round.
  constexpr std::size_t kMaxRoundBytes = 1u << 20;
  std::size_t got = 0;
  while (got < kMaxRoundBytes) {
    const int r = conn.ch.read_some(conn.rbuf);
    if (r < 0) {
      conn.dead = true;  // EOF: the tenant is gone; sessions die in sweep.
      break;
    }
    if (r == 0) break;  // Drained for now.
    got += static_cast<std::size_t>(r);
    metrics_.counter("serve.bytes_rx") += static_cast<std::uint64_t>(r);
  }
  if (!pump_frames(conn)) {
    conn.dead = true;
    ++metrics_.counter("serve.conns_killed_protocol");
  }
}

bool Server::pump_frames(Conn& conn) {
  std::size_t off = 0;
  bool framing_ok = true;
  ipc::Frame f;
  while (!conn.dead) {
    const ipc::TakeStatus st = ipc::take_frame(conn.rbuf, off, kMaxCommandPayload, f);
    if (st == ipc::TakeStatus::kIncomplete) break;
    if (st == ipc::TakeStatus::kOversized) {
      framing_ok = false;  // Unresyncable garbage: kill the connection.
      break;
    }
    ++metrics_.counter("serve.frames_rx");
    dispatch(conn, f);
  }
  if (off > 0) conn.rbuf.erase(conn.rbuf.begin(), conn.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  return framing_ok;
}

void Server::dispatch(Conn& conn, const ipc::Frame& frame) {
  const auto kind = static_cast<Cmd>(frame.kind);
  if (!conn.helloed) {
    // Handshake-first is part of the framing contract: any other first frame
    // is protocol abuse and drops the connection.
    std::size_t off = 0;
    HelloReq req{};
    bool ok = kind == Cmd::kHello;
    if (ok) {
      try {
        req = ipc::get_pod<HelloReq>(frame.payload, off);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok || req.magic != kMagic || req.version != kVersion) {
      conn.dead = true;
      ++metrics_.counter("serve.conns_killed_protocol");
      return;
    }
    conn.helloed = true;
    reply_hello(conn);
    return;
  }

  try {
    std::size_t off = 0;
    switch (kind) {
      case Cmd::kHello: {
        // Re-hello after the handshake is harmless; acknowledge idempotently.
        reply_hello(conn);
        return;
      }
      case Cmd::kCreate: {
        if (draining_ || stop_.load(std::memory_order_relaxed)) {
          throw ServeError(ErrorCode::kShuttingDown, "serve: daemon is draining");
        }
        const auto req = ipc::get_pod<CreateReq>(frame.payload, off);
        if (req.name_len > frame.payload.size() - off) {
          throw ServeError(ErrorCode::kBadRequest, "serve: truncated network name");
        }
        const std::string name(frame.payload.begin() + static_cast<std::ptrdiff_t>(off),
                               frame.payload.begin() +
                                   static_cast<std::ptrdiff_t>(off + req.name_len));
        const auto it = nets_.find(name);
        if (it == nets_.end()) {
          throw ServeError(ErrorCode::kNoSuchNetwork,
                           "serve: no network named '" + name + "'");
        }
        if (static_cast<int>(sessions_.size()) >= cfg_.max_sessions) {
          ++metrics_.counter("serve.admission_refused");
          throw ServeError(ErrorCode::kAdmissionRefused,
                           "serve: session cap reached (max_sessions=" +
                               std::to_string(cfg_.max_sessions) + ")");
        }
        int threads = static_cast<int>(req.threads);
        if (threads == 0) threads = cfg_.default_threads;
        if (threads < 1 || threads > 256) {
          throw ServeError(ErrorCode::kBadRequest, "serve: thread count out of range");
        }
        const std::uint64_t id = next_session_++;
        sessions_.emplace(id, std::make_unique<Session>(it->second, name, threads,
                                                        cfg_.limits));
        conn.sessions.push_back(id);
        ++metrics_.counter("serve.sessions_created");
        CreateOk okr;
        okr.session = id;
        reply(conn, Cmd::kCreateOk, &okr, sizeof okr);
        return;
      }
      case Cmd::kTick: {
        const auto req = ipc::get_pod<TickReq>(frame.payload, off);
        Session& s = owned_session(conn, req.session);
        const SessionCounters before = s.counters();
        s.tick(req.nticks, req.record != 0);
        metrics_.counter("serve.ticks_served") += static_cast<std::uint64_t>(req.nticks);
        metrics_.counter("serve.spikes_queued") +=
            s.counters().spikes_queued - before.spikes_queued;
        metrics_.counter("serve.spikes_dropped") +=
            s.counters().spikes_dropped - before.spikes_dropped;
        TickOk okr;
        okr.now = s.now();
        okr.queued = s.queue_depth();
        okr.dropped_total = s.counters().spikes_dropped;
        reply(conn, Cmd::kTickOk, &okr, sizeof okr);
        return;
      }
      case Cmd::kInject: {
        const auto req = ipc::get_pod<InjectReq>(frame.payload, off);
        Session& s = owned_session(conn, req.session);
        std::vector<core::InputSpike> events;
        ipc::get_pod_array(frame.payload, off, static_cast<std::size_t>(req.count), events);
        s.inject(events);
        metrics_.counter("serve.inputs_injected") += req.count;
        reply(conn, Cmd::kAck, nullptr, 0);
        return;
      }
      case Cmd::kReadSpikes: {
        const auto req = ipc::get_pod<ReadReq>(frame.payload, off);
        Session& s = owned_session(conn, req.session);
        // Cap one reply so a huge read request cannot build an unbounded
        // reply buffer in one shot; `remaining` tells the client to loop.
        const std::uint64_t cap = cfg_.max_conn_out_bytes / (2 * sizeof(core::Spike));
        const std::uint64_t want = req.max_spikes < cap ? req.max_spikes : cap;
        std::vector<core::Spike> spikes;
        const std::uint64_t remaining = s.read_spikes(want, spikes);
        std::vector<std::uint8_t> payload;
        payload.reserve(sizeof(SpikesOk) + spikes.size() * sizeof(core::Spike));
        SpikesOk okr;
        okr.count = spikes.size();
        okr.remaining = remaining;
        ipc::put_pod(payload, okr);
        ipc::put_pod_array(payload, spikes.data(), spikes.size());
        metrics_.counter("serve.spikes_streamed") += spikes.size();
        reply(conn, Cmd::kSpikesOk, payload.data(), payload.size());
        return;
      }
      case Cmd::kCheckpoint: {
        const auto req = ipc::get_pod<SessionReq>(frame.payload, off);
        std::ostringstream os;
        owned_session(conn, req.session).save_checkpoint(os);
        const std::string blob = os.str();
        ++metrics_.counter("serve.checkpoints");
        reply(conn, Cmd::kBlob, blob.data(), blob.size());
        return;
      }
      case Cmd::kRestore: {
        const auto req = ipc::get_pod<SessionReq>(frame.payload, off);
        Session& s = owned_session(conn, req.session);
        ipc::ByteIStream is(frame.payload.data() + off, frame.payload.size() - off);
        s.restore_checkpoint(is);
        ++metrics_.counter("serve.restores");
        reply(conn, Cmd::kAck, nullptr, 0);
        return;
      }
      case Cmd::kDestroy: {
        const auto req = ipc::get_pod<SessionReq>(frame.payload, off);
        owned_session(conn, req.session);
        destroy_session(req.session);
        conn.sessions.erase(std::find(conn.sessions.begin(), conn.sessions.end(), req.session));
        reply(conn, Cmd::kAck, nullptr, 0);
        return;
      }
      case Cmd::kStats: {
        const std::string json = stats_json();
        reply(conn, Cmd::kStatsJson, json.data(), json.size());
        return;
      }
      case Cmd::kShutdown: {
        reply(conn, Cmd::kAck, nullptr, 0);
        draining_ = true;
        stop_.store(true, std::memory_order_relaxed);
        return;
      }
      default:
        throw ServeError(ErrorCode::kBadRequest, "serve: unknown command kind");
    }
  } catch (const ServeError& e) {
    reply_error(conn, e.code(), e.what());
  } catch (const std::exception& e) {
    // Bounds-checked decoding (ipc::get_pod) and simulator-side validation
    // land here: the command dies with an error reply, the daemon lives.
    reply_error(conn, ErrorCode::kBadRequest, e.what());
  }
}

void Server::reply(Conn& conn, Cmd kind, const void* payload, std::size_t size) {
  const std::size_t before = conn.wbuf.size();
  ipc::append_frame(conn.wbuf, static_cast<std::uint32_t>(kind), payload, size);
  ++metrics_.counter("serve.frames_tx");
  metrics_.counter("serve.bytes_tx") += conn.wbuf.size() - before;
  if (conn.wbuf.size() - conn.woff > cfg_.max_conn_out_bytes) {
    // Slow-client shedding: the tenant is not draining replies; evicting it
    // (and its sessions) protects every other tenant's latency and the
    // daemon's memory. Graceful degradation, not failure.
    conn.dead = true;
    ++metrics_.counter("serve.conns_evicted_slow");
  }
}

void Server::reply_error(Conn& conn, ErrorCode code, const std::string& msg) {
  const std::vector<std::uint8_t> payload = encode_error(code, msg);
  ++metrics_.counter("serve.errors_replied");
  reply(conn, Cmd::kError, payload.data(), payload.size());
}

void Server::flush_conn(Conn& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const long w = conn.ch.write_some(conn.wbuf.data() + conn.woff,
                                      conn.wbuf.size() - conn.woff);
    if (w < 0) {
      conn.dead = true;
      return;
    }
    if (w == 0) break;  // Kernel buffer full; poll will call us back.
    conn.woff += static_cast<std::size_t>(w);
  }
  if (conn.woff == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
  } else if (conn.woff > (1u << 20)) {
    conn.wbuf.erase(conn.wbuf.begin(), conn.wbuf.begin() + static_cast<std::ptrdiff_t>(conn.woff));
    conn.woff = 0;
  }
}

void Server::sweep_dead() {
  for (std::size_t i = 0; i < conns_.size();) {
    if (!conns_[i]->dead && conns_[i]->ch.alive()) {
      ++i;
      continue;
    }
    for (const std::uint64_t id : conns_[i]->sessions) destroy_session(id);
    ++metrics_.counter("serve.conns_closed");
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Server::drain_and_close() {
  // Flush pending replies best-effort (bounded: a gone client cannot stall
  // shutdown), then destroy every session and release the socket path.
  const std::uint64_t deadline_ns = obs::now_ns() + 500ull * 1000 * 1000;
  for (;;) {
    std::vector<ipc::PollItem> items;
    std::vector<Conn*> item_conn;
    for (const auto& c : conns_) {
      if (c->dead || !c->ch.alive() || c->woff >= c->wbuf.size()) continue;
      ipc::PollItem it;
      it.fd = c->ch.fd();
      it.want_write = true;
      items.push_back(it);
      item_conn.push_back(c.get());
    }
    if (items.empty() || obs::now_ns() >= deadline_ns) break;
    const int rc = ipc::poll_wait(items, 20);
    if (rc < 0) continue;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].writable || items[i].hangup) flush_conn(*item_conn[i]);
    }
  }
  for (const auto& c : conns_) {
    for (const std::uint64_t id : c->sessions) destroy_session(id);
  }
  conns_.clear();
  // Sessions created by already-swept connections are gone; anything left
  // (defensive) folds into the retired totals too.
  while (!sessions_.empty()) destroy_session(sessions_.begin()->first);
  listener_.close();
}

void Server::reply_hello(Conn& conn) {
  HelloOk hello;
  hello.max_sessions = static_cast<std::uint32_t>(cfg_.max_sessions);
  hello.active_sessions = static_cast<std::uint32_t>(sessions_.size());
  hello.networks = static_cast<std::uint32_t>(nets_.size());
  reply(conn, Cmd::kHelloOk, &hello, sizeof hello);
}

Session& Server::owned_session(const Conn& conn, std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() ||
      std::find(conn.sessions.begin(), conn.sessions.end(), id) == conn.sessions.end()) {
    throw ServeError(ErrorCode::kNoSuchSession, "serve: unknown session id");
  }
  return *it->second;
}

void Server::destroy_session(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  retired_stats_ += it->second->stats();
  sessions_.erase(it);
  ++metrics_.counter("serve.sessions_destroyed");
}

std::string Server::stats_json() const {
  obs::BenchReport report;
  report.name = "serve";
  report.threads = cfg_.max_sessions;
  report.wall_s =
      started_ns_ != 0 ? static_cast<double>(obs::now_ns() - started_ns_) / 1e9 : 0.0;
  report.stats = retired_stats_;
  std::uint64_t queued_now = 0;
  for (const auto& [id, s] : sessions_) {
    report.stats += s->stats();
    queued_now += s->queue_depth();
  }
  report.ticks = metrics_.counter_value("serve.ticks_served");
  report.metrics = metrics_;
  report.metrics.counter("serve.sessions_active") = sessions_.size();
  report.metrics.counter("serve.connections_active") = conns_.size();
  report.metrics.counter("serve.queue_depth") = queued_now;

  obs::JsonValue doc = obs::report_to_json(report);
  obs::JsonValue list = obs::JsonValue::array();
  for (const auto& [id, s] : sessions_) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("id", obs::JsonValue(static_cast<std::uint64_t>(id)));
    entry.set("net", obs::JsonValue(s->net_name()));
    entry.set("now", obs::JsonValue(static_cast<std::int64_t>(s->now())));
    entry.set("ticks_served", obs::JsonValue(s->counters().ticks_served));
    entry.set("spikes_streamed", obs::JsonValue(s->counters().spikes_streamed));
    entry.set("spikes_dropped", obs::JsonValue(s->counters().spikes_dropped));
    entry.set("inputs_injected", obs::JsonValue(s->counters().inputs_injected));
    entry.set("queue_depth", obs::JsonValue(static_cast<std::uint64_t>(s->queue_depth())));
    entry.set("checkpoints", obs::JsonValue(s->counters().checkpoints));
    entry.set("restores", obs::JsonValue(s->counters().restores));
    list.push_back(std::move(entry));
  }
  doc.set("sessions", std::move(list));
  return doc.to_string(2);
}

}  // namespace nsc::serve
