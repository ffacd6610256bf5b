// nsc_client — scriptable driver for the nsc_serve session protocol
// (docs/SERVE.md). One invocation = one session, driven end to end; ctest
// chains invocations to exercise the daemon like a real tenant.
//
//   nsc_client --socket PATH --create NET --ticks N
//              [--threads N] [--chunk N] [--in events.aer] [--out spikes.aer]
//              [--trace-hash] [--expect-trace-hash HEX]
//              [--checkpoint-roundtrip-at T] [--verify-solo net.nsc]
//              [--stats-out FILE] [--shutdown | --sigterm]
//              [--spawn-serve BIN [--spawn-arg ARG ...]]
//
// The session is created over a daemon-preloaded network, inputs from --in
// are injected up front (absolute ticks, same AER file nsc_run takes), the
// run advances in --chunk-tick commands (default: one command) draining the
// spike queue after each, and the streamed spike train is hashed with the
// same FNV-1a digest as nsc_run --trace-hash — so a served session is
// golden-gated against the solo witness hashes. --checkpoint-roundtrip-at T
// checkpoints mid-run, finishes, restores the blob and replays the tail,
// requiring the two tails to be spike-for-spike identical (exit 1 on drift).
// --verify-solo runs the same network+inputs on an in-process solo compass
// simulator and requires exact stream equality. --spawn-serve forks the
// daemon (args via repeated --spawn-arg), waits for its socket, and shuts it
// down afterwards, propagating a non-zero daemon exit; --sigterm stops the
// spawned daemon with the signal instead of the kShutdown command, asserting
// the signal path also exits 0 (the clean-shutdown contract).
//
// Exit codes: 0 success, 1 runtime/protocol failure (daemon refused the
// session, hash or roundtrip or solo mismatch, daemon died), 2 usage error
// (`usage error: <reason>` before anything connects or forks, tools/cli.hpp).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "src/compass/simulator.hpp"
#include "src/core/aer.hpp"
#include "src/core/network_io.hpp"
#include "src/core/spike_sink.hpp"
#include "src/ipc/endpoint.hpp"
#include "src/serve/client.hpp"
#include "tools/cli.hpp"

namespace {

/// Advances the session from `from` to `to` in `chunk`-tick commands,
/// draining the queue after each so the stream arrives in canonical order.
void run_span(nsc::serve::Client& client, std::uint64_t session, nsc::core::Tick from,
              nsc::core::Tick to, nsc::core::Tick chunk,
              std::vector<nsc::core::Spike>& out) {
  nsc::core::Tick at = from;
  while (at < to) {
    const nsc::core::Tick step = chunk > 0 && chunk < to - at ? chunk : to - at;
    client.tick(session, step, /*record=*/true);
    client.read_all_spikes(session, out);
    at += step;
  }
}

struct Options {
  std::string socket;
  std::string net_name;
  std::string in_path;
  std::string out_path;
  std::string solo_net;
  std::string stats_out;
  std::string spawn_serve;
  std::vector<std::string> spawn_args;
  nsc::core::Tick ticks = 0;
  nsc::core::Tick chunk = 0;
  nsc::core::Tick roundtrip_at = -1;
  std::uint32_t threads = 0;
  bool trace_hash = false;
  bool has_expect = false;
  std::uint64_t expect_hash = 0;
  bool do_shutdown = false;
  bool do_sigterm = false;
};

int run_session(const Options& opt) {
  nsc::serve::Client client = nsc::serve::Client::connect(opt.socket);
  client.hello();

  std::vector<nsc::core::InputSpike> inputs;
  if (!opt.in_path.empty()) {
    const nsc::core::InputSchedule sched = nsc::core::load_aer_inputs(opt.in_path);
    inputs.assign(sched.events().begin(), sched.events().end());
  }

  const std::uint64_t session = client.create(opt.net_name, opt.threads);
  if (!inputs.empty()) client.inject(session, inputs);

  std::vector<nsc::core::Spike> stream;
  if (opt.roundtrip_at > 0 && opt.roundtrip_at < opt.ticks) {
    run_span(client, session, 0, opt.roundtrip_at, opt.chunk, stream);
    const std::vector<std::uint8_t> blob = client.checkpoint(session);
    std::vector<nsc::core::Spike> tail_a;
    run_span(client, session, opt.roundtrip_at, opt.ticks, opt.chunk, tail_a);
    client.restore(session, blob);
    std::vector<nsc::core::Spike> tail_b;
    run_span(client, session, opt.roundtrip_at, opt.ticks, opt.chunk, tail_b);
    if (tail_a != tail_b) {
      std::fprintf(stderr,
                   "nsc_client: checkpoint roundtrip diverged (%zu vs %zu spikes, "
                   "hash %016llx vs %016llx)\n",
                   tail_a.size(), tail_b.size(),
                   static_cast<unsigned long long>(nsc::core::trace_hash(tail_a)),
                   static_cast<unsigned long long>(nsc::core::trace_hash(tail_b)));
      return 1;
    }
    stream.insert(stream.end(), tail_a.begin(), tail_a.end());
  } else {
    run_span(client, session, 0, opt.ticks, opt.chunk, stream);
  }

  if (!opt.stats_out.empty()) {
    const std::string json = client.stats_json();
    std::FILE* f = std::fopen(opt.stats_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "nsc_client: cannot write %s\n", opt.stats_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  client.destroy(session);
  if (opt.do_shutdown) client.shutdown();

  const std::uint64_t hash = nsc::core::trace_hash(stream);
  if (opt.trace_hash || opt.has_expect) {
    std::printf("trace-hash         : %016llx (%zu spikes)\n",
                static_cast<unsigned long long>(hash), stream.size());
  }
  if (!opt.out_path.empty()) nsc::core::save_aer(stream, opt.out_path);

  if (!opt.solo_net.empty()) {
    const nsc::core::Network net = nsc::core::load_network(opt.solo_net);
    nsc::compass::Config cfg;
    cfg.threads = opt.threads == 0 ? 1 : static_cast<int>(opt.threads);
    nsc::compass::Simulator solo(net, cfg);
    nsc::core::InputSchedule sched;
    for (const auto& e : inputs) sched.add(e);
    sched.finalize();
    nsc::core::VectorSink sink;
    solo.run(opt.ticks, inputs.empty() ? nullptr : &sched, &sink);
    if (sink.spikes() != stream) {
      std::fprintf(stderr,
                   "nsc_client: served stream diverges from solo run "
                   "(%zu vs %zu spikes)\n",
                   stream.size(), sink.spikes().size());
      return 1;
    }
    std::printf("solo-verify        : identical (%zu spikes)\n", stream.size());
  }

  if (opt.has_expect && hash != opt.expect_hash) {
    std::fprintf(stderr, "nsc_client: trace hash mismatch: got %016llx, expected %016llx\n",
                 static_cast<unsigned long long>(hash),
                 static_cast<unsigned long long>(opt.expect_hash));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    const nsc::cli::Args a(
        argc, argv,
        {.values = {"--socket", "--create", "--ticks", "--chunk", "--threads", "--in", "--out",
                    "--expect-trace-hash", "--checkpoint-roundtrip-at", "--verify-solo",
                    "--stats-out", "--spawn-serve"},
         .switches = {"--trace-hash", "--shutdown", "--sigterm"},
         .repeatable = {"--spawn-arg"}});
    opt.socket = a.str("--socket");
    opt.net_name = a.str("--create");
    opt.in_path = a.str("--in");
    opt.out_path = a.str("--out");
    opt.solo_net = a.str("--verify-solo");
    opt.stats_out = a.str("--stats-out");
    opt.spawn_serve = a.str("--spawn-serve");
    opt.spawn_args = a.all("--spawn-arg");
    opt.ticks = a.integer<nsc::core::Tick>("--ticks", 0, 0);
    opt.chunk = a.integer<nsc::core::Tick>("--chunk", 0, 0);
    opt.roundtrip_at = a.integer<nsc::core::Tick>("--checkpoint-roundtrip-at", -1, 1);
    opt.threads = a.integer<std::uint32_t>("--threads", 0);
    opt.trace_hash = a.has("--trace-hash");
    opt.has_expect = a.has("--expect-trace-hash");
    opt.expect_hash = a.hex64("--expect-trace-hash", 0);
    opt.do_shutdown = a.has("--shutdown");
    opt.do_sigterm = a.has("--sigterm");
    nsc::cli::check({
        {opt.socket.empty(), "--socket is required"},
        {opt.net_name.empty(), "--create is required"},
        {opt.do_shutdown && opt.do_sigterm, "--shutdown and --sigterm are mutually exclusive"},
        {opt.do_sigterm && opt.spawn_serve.empty(), "--sigterm requires --spawn-serve"},
    });
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  }

  int serve_pid = -1;
  if (!opt.spawn_serve.empty()) {
    std::vector<std::string> argv_serve;
    argv_serve.push_back(opt.spawn_serve);
    argv_serve.push_back("--socket");
    argv_serve.push_back(opt.socket);
    for (const std::string& a : opt.spawn_args) argv_serve.push_back(a);
    try {
      serve_pid = nsc::ipc::spawn_process(argv_serve);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nsc_client: %s\n", e.what());
      return 1;
    }
  }

  int rc;
  try {
    rc = run_session(opt);
  } catch (const nsc::serve::ServeError& e) {
    std::fprintf(stderr, "nsc_client: daemon refused: %s (%s)\n", e.what(),
                 std::string(nsc::serve::error_code_name(e.code())).c_str());
    rc = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsc_client: %s\n", e.what());
    rc = 1;
  }

  if (serve_pid > 0) {
    if (opt.do_sigterm) {
      nsc::ipc::signal_process(serve_pid, SIGTERM);
    } else if (!opt.do_shutdown) {
      // The script did not shut the daemon down itself; do it now so the
      // test never leaks a process (SIGTERM as the fallback path).
      try {
        nsc::serve::Client c = nsc::serve::Client::connect(opt.socket, 1000);
        c.hello();
        c.shutdown();
      } catch (const std::exception&) {
        nsc::ipc::signal_process(serve_pid, SIGTERM);
      }
    }
    const int status = nsc::ipc::reap_process_deadline(serve_pid, 10000);
    const bool clean = status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean && rc == 0) {
      std::fprintf(stderr, "nsc_client: spawned daemon exited uncleanly (status %d)\n",
                   status);
      rc = 1;
    }
  }
  return rc;
}
