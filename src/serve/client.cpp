#include "src/serve/client.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/ipc/endpoint.hpp"

namespace nsc::serve {

Client::Client(ipc::Channel ch, int reply_deadline_ms)
    : ch_(std::move(ch)), reply_deadline_ms_(reply_deadline_ms) {}

Client Client::connect(const std::string& socket_path, int connect_deadline_ms,
                       int reply_deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    ipc::Channel ch = ipc::connect_unix(socket_path);
    if (ch.alive()) return Client(std::move(ch), reply_deadline_ms);
    if (ipc::ms_since(start) >= connect_deadline_ms) {
      throw std::runtime_error("serve client: cannot connect to '" + socket_path + "'");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

ipc::Frame Client::rpc(Cmd cmd, const std::vector<std::uint8_t>& payload, Cmd expect) {
  if (!ch_.send_frame(static_cast<std::uint32_t>(cmd), payload.data(), payload.size())) {
    throw std::runtime_error("serve client: daemon connection lost on send");
  }
  ipc::Frame reply;
  const ipc::RecvStatus st = ch_.recv_frame_deadline(reply, reply_deadline_ms_);
  if (st == ipc::RecvStatus::kTimeout) {
    throw std::runtime_error("serve client: reply deadline exceeded");
  }
  if (st != ipc::RecvStatus::kOk) {
    throw std::runtime_error("serve client: daemon connection lost awaiting reply");
  }
  if (reply.kind == static_cast<std::uint32_t>(Cmd::kError)) {
    std::string msg;
    const ErrorCode code = decode_error(reply.payload, msg);
    throw ServeError(code, msg.empty() ? std::string(error_code_name(code)) : msg);
  }
  if (reply.kind != static_cast<std::uint32_t>(expect)) {
    throw std::runtime_error("serve client: unexpected reply kind");
  }
  return reply;
}

HelloOk Client::hello() {
  std::vector<std::uint8_t> payload;
  ipc::put_pod(payload, HelloReq{});
  const ipc::Frame reply = rpc(Cmd::kHello, payload, Cmd::kHelloOk);
  std::size_t off = 0;
  return ipc::get_pod<HelloOk>(reply.payload, off);
}

std::uint64_t Client::create(const std::string& net_name, std::uint32_t threads) {
  std::vector<std::uint8_t> payload;
  CreateReq req;
  req.threads = threads;
  req.name_len = static_cast<std::uint32_t>(net_name.size());
  ipc::put_pod(payload, req);
  payload.insert(payload.end(), net_name.begin(), net_name.end());
  const ipc::Frame reply = rpc(Cmd::kCreate, payload, Cmd::kCreateOk);
  std::size_t off = 0;
  return ipc::get_pod<CreateOk>(reply.payload, off).session;
}

TickOk Client::tick(std::uint64_t session, core::Tick nticks, bool record) {
  std::vector<std::uint8_t> payload;
  TickReq req;
  req.session = session;
  req.nticks = nticks;
  req.record = record ? 1 : 0;
  ipc::put_pod(payload, req);
  const ipc::Frame reply = rpc(Cmd::kTick, payload, Cmd::kTickOk);
  std::size_t off = 0;
  return ipc::get_pod<TickOk>(reply.payload, off);
}

void Client::inject(std::uint64_t session, const std::vector<core::InputSpike>& events) {
  std::vector<std::uint8_t> payload;
  InjectReq req;
  req.session = session;
  req.count = events.size();
  payload.reserve(sizeof req + events.size() * sizeof(core::InputSpike));
  ipc::put_pod(payload, req);
  ipc::put_pod_array(payload, events.data(), events.size());
  rpc(Cmd::kInject, payload, Cmd::kAck);
}

std::uint64_t Client::read_spikes(std::uint64_t session, std::uint64_t max_spikes,
                                  std::vector<core::Spike>& out) {
  std::vector<std::uint8_t> payload;
  ReadReq req;
  req.session = session;
  req.max_spikes = max_spikes;
  ipc::put_pod(payload, req);
  const ipc::Frame reply = rpc(Cmd::kReadSpikes, payload, Cmd::kSpikesOk);
  std::size_t off = 0;
  const auto hdr = ipc::get_pod<SpikesOk>(reply.payload, off);
  ipc::get_pod_array(reply.payload, off, static_cast<std::size_t>(hdr.count), out);
  return hdr.remaining;
}

void Client::read_all_spikes(std::uint64_t session, std::vector<core::Spike>& out) {
  while (read_spikes(session, 1u << 20, out) != 0) {
  }
}

std::vector<std::uint8_t> Client::checkpoint(std::uint64_t session) {
  std::vector<std::uint8_t> payload;
  SessionReq req;
  req.session = session;
  ipc::put_pod(payload, req);
  ipc::Frame reply = rpc(Cmd::kCheckpoint, payload, Cmd::kBlob);
  return std::move(reply.payload);
}

void Client::restore(std::uint64_t session, const std::vector<std::uint8_t>& blob) {
  std::vector<std::uint8_t> payload;
  SessionReq req;
  req.session = session;
  ipc::put_pod(payload, req);
  payload.insert(payload.end(), blob.begin(), blob.end());
  rpc(Cmd::kRestore, payload, Cmd::kAck);
}

void Client::destroy(std::uint64_t session) {
  std::vector<std::uint8_t> payload;
  SessionReq req;
  req.session = session;
  ipc::put_pod(payload, req);
  rpc(Cmd::kDestroy, payload, Cmd::kAck);
}

std::string Client::stats_json() {
  const ipc::Frame reply = rpc(Cmd::kStats, {}, Cmd::kStatsJson);
  return std::string(reply.payload.begin(), reply.payload.end());
}

void Client::shutdown() { rpc(Cmd::kShutdown, {}, Cmd::kAck); }

}  // namespace nsc::serve
