#include "serve_leg.hpp"

#include <exception>
#include <utility>

#include "src/obs/obs.hpp"

namespace perfbench {

namespace {

nsc::serve::Server::Config daemon_config(const std::string& socket_path) {
  nsc::serve::Server::Config cfg;
  cfg.socket_path = socket_path;
  cfg.max_sessions = 8;
  cfg.poll_interval_ms = 5;
  return cfg;
}

/// Runs `call` as command `name`: always timed for the caller, recorded as
/// a span and a sample only when the tracer is on.
template <typename F>
void command(Tracer& tr, const char* name, std::int64_t parent, std::vector<double>& samples,
             F&& call) {
  const std::uint64_t t0 = nsc::obs::now_ns();
  call();
  if (tr.enabled()) {
    const std::uint64_t t1 = nsc::obs::now_ns();
    tr.record(name, t0, t1, parent);
    samples.push_back(1e-6 * static_cast<double>(t1 - t0));
  }
}

}  // namespace

Daemon::Daemon(const std::string& socket_path, const std::string& net_name,
               nsc::core::Network net)
    : server_(daemon_config(socket_path)) {
  server_.add_network(net_name, std::move(net));
  server_.bind();
  loop_ = std::thread([this] {
    try {
      server_.run();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  });
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  server_.request_stop();
  if (loop_.joinable()) loop_.join();
}

void CommandSamples::append(const CommandSamples& o) {
  inject.insert(inject.end(), o.inject.begin(), o.inject.end());
  tick.insert(tick.end(), o.tick.begin(), o.tick.end());
  read_spikes.insert(read_spikes.end(), o.read_spikes.begin(), o.read_spikes.end());
  checkpoint.insert(checkpoint.end(), o.checkpoint.begin(), o.checkpoint.end());
  restore.insert(restore.end(), o.restore.begin(), o.restore.end());
}

Tenant::Tenant(const std::string& socket_path, const std::string& net_name,
               std::uint32_t threads)
    : client_(nsc::serve::Client::connect(socket_path)), net_(net_name), threads_(threads) {
  client_.hello();
  session_ = client_.create(net_, threads_);
}

void Tenant::inject(const std::vector<nsc::core::InputSpike>& events, Tracer& tr,
                    std::int64_t parent, CommandSamples& cs) {
  command(tr, "serve.inject", parent, cs.inject, [&] { client_.inject(session_, events); });
}

double Tenant::cycle(WitnessSink& sink, Tracer& tr, std::int64_t parent, CommandSamples& cs) {
  const std::uint64_t t0 = nsc::obs::now_ns();
  const std::int64_t span = tr.open("serve.cycle", parent);
  command(tr, "serve.tick", span, cs.tick, [&] {
    dropped_ = dropped_base_ + client_.tick(session_, 1, true).dropped_total;
  });
  command(tr, "serve.read_spikes", span, cs.read_spikes, [&] {
    buf_.clear();
    client_.read_all_spikes(session_, buf_);
  });
  sink.on_spike_batch(buf_.data(), buf_.size());
  tr.close(span);
  return 1e-6 * static_cast<double>(nsc::obs::now_ns() - t0);
}

double Tenant::checkpoint_restore(Tracer& tr, std::int64_t parent, CommandSamples& cs) {
  const std::uint64_t t0 = nsc::obs::now_ns();
  const std::int64_t span = tr.open("serve.checkpoint_restore", parent);
  std::vector<std::uint8_t> blob;
  command(tr, "serve.checkpoint", span, cs.checkpoint,
          [&] { blob = client_.checkpoint(session_); });
  command(tr, "serve.restore", span, cs.restore, [&] { client_.restore(session_, blob); });
  tr.close(span);
  return 1e-6 * static_cast<double>(nsc::obs::now_ns() - t0);
}

void Tenant::advance(nsc::core::Tick n) { client_.tick(session_, n, false); }

void Tenant::recreate() {
  client_.destroy(session_);
  dropped_base_ = dropped_;
  session_ = client_.create(net_, threads_);
}

}  // namespace perfbench
