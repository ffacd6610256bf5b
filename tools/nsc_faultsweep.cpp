// nsc_faultsweep — graceful-degradation curves under mid-run fault
// campaigns (docs/RESILIENCE.md).
//
//   nsc_faultsweep --net net.nsc --ticks 200 [--backend tn|compass]
//                  [--threads N] [--fractions 0,0.1,0.25] [--events-seed S]
//                  [--in events.aer] [--json curve.json] [--check-monotone]
//                  [--lint]
//   nsc_faultsweep --net net.nsc --ticks 200 --rank-kills [--ranks N]
//                  [--recovery-interval K] [--threads N] [--in events.aer]
//                  [--json report.json] [--check-monotone]
//
// For each fault fraction f, runs the network under a deterministic seeded
// campaign that kills round(f * cores) cores at random ticks in the first
// half of the run, and reports spike fidelity — the fraction of the
// fault-free reference spike train the degraded run still produces — plus
// the reroute/drop accounting. --json writes an "nsc-bench-v1" report whose
// "degradation" array is the curve; --check-monotone exits non-zero unless
// the fault-free point has fidelity 1.0 and fidelity is non-increasing in f
// (0.1 tolerance for spike trains that reorganize rather than thin out).
//
// --rank-kills switches to the chaos mode (docs/DISTRIBUTED.md): it sweeps
// the (kill tick × victim rank) grid — kill ticks at T/4, T/2, 3T/4 — each
// cell running the self-healing dist::Supervisor over --ranks forked rank
// processes with that rank SIGKILLed at that tick boundary, and reports
// post-recovery fidelity (must be 1.0: recovery is exact), respawn count,
// recovery latency, and rollback depth. --json writes the grid into a
// "rank_kills" array; --check-monotone exits non-zero unless every cell
// recovered exactly (fidelity 1.0, at least one respawn).
//
// Exit codes: 0 success, 1 runtime failure or a failed --check-monotone,
// 2 usage error (`usage error: <reason>` before anything loads,
// tools/cli.hpp).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/report.hpp"
#include "src/compass/simulator.hpp"
#include "src/core/aer.hpp"
#include "src/core/network_io.hpp"
#include "src/core/spike_sink.hpp"
#include "src/dist/supervisor.hpp"
#include "src/fault/campaign.hpp"
#include "src/obs/json_report.hpp"
#include "src/obs/obs.hpp"
#include "src/tn/chip_sim.hpp"
#include "tools/cli.hpp"

namespace {

/// Comma-separated fault fractions, each in [0, 1).
std::vector<double> parse_fractions(const std::string& spec) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    const double f = nsc::cli::parse_real("--fractions", tok);
    if (f < 0.0 || f >= 1.0) {
      throw nsc::cli::UsageError("invalid fault fraction '" + tok + "' (need 0 <= f < 1)");
    }
    out.push_back(f);
    pos = comma + 1;
  }
  return out;
}

std::unique_ptr<nsc::core::Simulator> make_sim(const nsc::core::Network& net,
                                               const std::string& backend, int threads) {
  if (backend == "compass") {
    return std::make_unique<nsc::compass::Simulator>(
        net, nsc::compass::Config{.threads = std::max(1, threads)});
  }
  return std::make_unique<nsc::tn::TrueNorthSimulator>(net);
}

const nsc::obs::Registry& sim_metrics(const nsc::core::Simulator& sim, const std::string& backend) {
  if (backend == "compass") return static_cast<const nsc::compass::Simulator&>(sim).metrics();
  return static_cast<const nsc::tn::TrueNorthSimulator&>(sim).metrics();
}

/// |A ∩ B| for two canonically ordered spike trains (two-pointer sweep).
std::size_t spike_intersection(const std::vector<nsc::core::Spike>& a,
                               const std::vector<nsc::core::Spike>& b) {
  std::size_t i = 0, j = 0, matched = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++matched, ++i, ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return matched;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const nsc::cli::Args a(
        argc, argv,
        {.values = {"--net", "--ticks", "--backend", "--threads", "--events-seed", "--fractions",
                    "--in", "--json", "--ranks", "--recovery-interval"},
         .switches = {"--check-monotone", "--lint", "--rank-kills"}});
    const std::string net_path = a.str("--net");
    const auto ticks = a.integer<nsc::core::Tick>("--ticks", 100, 1);
    const std::string backend = a.choice("--backend", "tn", {"tn", "compass"});
    const int threads = a.integer("--threads", 1);
    const auto events_seed = static_cast<std::uint64_t>(a.integer("--events-seed", 1LL));
    const std::vector<double> fractions =
        parse_fractions(a.str("--fractions", "0,0.05,0.15,0.3"));
    const std::string in_path = a.str("--in");
    const std::string json_path = a.str("--json");
    const bool check_monotone = a.has("--check-monotone");
    const bool rank_kills = a.has("--rank-kills");
    const int nranks = a.integer("--ranks", 2);
    const auto interval = a.integer<nsc::core::Tick>("--recovery-interval", 8);
    nsc::cli::check({
        {net_path.empty(), "--net is required"},
        {rank_kills && nranks < 2, "--rank-kills needs --ranks >= 2"},
        {rank_kills && interval < 1, "--recovery-interval must be >= 1"},
        {rank_kills && ticks < 4, "--rank-kills needs --ticks >= 4"},
    });

    const nsc::core::Network net = nsc::core::load_network(net_path);
    if (a.has("--lint") && !nsc::analysis::lint_preflight(net, net_path)) {
      return 1;
    }
    const int ncores = net.geom.total_cores();
    nsc::core::InputSchedule inputs;
    if (!in_path.empty()) {
      inputs = nsc::core::load_aer_inputs(in_path);
    } else {
      inputs.finalize();
    }

    if (rank_kills) {
      // Fault-free reference on the single-process kernel: recovery is exact,
      // so every cell of the grid must reproduce this train spike for spike.
      nsc::core::VectorSink ref;
      nsc::obs::BenchReport report;
      report.name = "nsc_faultsweep";
      report.ticks = static_cast<std::uint64_t>(ticks);
      report.threads = std::max(1, threads);
      {
        nsc::compass::Simulator sim(net,
                                    nsc::compass::Config{.threads = std::max(1, threads)});
        const std::uint64_t t0 = nsc::obs::now_ns();
        sim.run(ticks, &inputs, &ref);
        report.wall_s = 1e-9 * static_cast<double>(nsc::obs::now_ns() - t0);
        report.stats = sim.stats();
        report.metrics = sim.metrics();
      }
      std::printf("reference (compass): %zu spikes over %lld ticks on %d cores\n",
                  ref.spikes().size(), static_cast<long long>(ticks), ncores);

      const nsc::core::Tick kill_ticks[] = {ticks / 4, ticks / 2, 3 * ticks / 4};
      nsc::obs::JsonValue grid = nsc::obs::JsonValue::array();
      bool all_exact = true;
      bool all_respawned = true;
      std::printf("%6s %10s %10s %10s %10s %12s %10s\n", "rank", "kill_tick", "spikes",
                  "fidelity", "respawns", "recovery_ms", "rollback");
      for (int r = 0; r < nranks; ++r) {
        nsc::core::Tick prev = -1;
        for (const nsc::core::Tick kt : kill_ticks) {
          if (kt == prev) continue;  // Tiny --ticks collapses grid columns.
          prev = kt;
          nsc::dist::Supervisor sim(
              net,
              nsc::dist::Config{.ranks = nranks, .threads_per_rank = std::max(1, threads)},
              nsc::dist::SupervisorConfig{.recovery_interval = interval});
          nsc::fault::Campaign campaign;
          campaign.kill_rank_at(std::max<nsc::core::Tick>(1, kt), r);
          campaign.finalize();
          nsc::core::VectorSink sink;
          nsc::fault::run_with_campaign(sim, ticks, &inputs, &sink, campaign);

          const nsc::obs::Registry& m = sim.metrics();
          const std::uint64_t respawned = m.counter_value("dist.ranks_respawned");
          const std::uint64_t recovery_ns = m.counter_value("dist.recovery_ns");
          const std::uint64_t rollback = m.counter_value("dist.rollback_ticks");
          const bool exact = sink.spikes() == ref.spikes();
          const double fidelity =
              ref.spikes().empty()
                  ? (exact ? 1.0 : 0.0)
                  : static_cast<double>(spike_intersection(ref.spikes(), sink.spikes())) /
                        static_cast<double>(ref.spikes().size());
          all_exact = all_exact && exact;
          all_respawned = all_respawned && sim.respawns_done() >= 1;
          std::printf("%6d %10lld %10zu %10.4f %10d %12.2f %10llu\n", r,
                      static_cast<long long>(kt), sink.spikes().size(), fidelity,
                      sim.respawns_done(), 1e-6 * static_cast<double>(recovery_ns),
                      static_cast<unsigned long long>(rollback));

          nsc::obs::JsonValue cell = nsc::obs::JsonValue::object();
          cell.set("rank", static_cast<std::int64_t>(r));
          cell.set("kill_tick", static_cast<std::int64_t>(kt));
          cell.set("spikes", static_cast<std::uint64_t>(sink.spikes().size()));
          cell.set("ref_spikes", static_cast<std::uint64_t>(ref.spikes().size()));
          cell.set("fidelity", fidelity);
          cell.set("exact", exact);
          cell.set("ranks_respawned", respawned);
          cell.set("recovery_ns", recovery_ns);
          cell.set("rollback_ticks", rollback);
          grid.push_back(std::move(cell));
        }
      }

      if (!json_path.empty()) {
        nsc::obs::JsonValue doc = nsc::obs::report_to_json(report);
        doc.set("rank_kills", std::move(grid));
        std::ofstream out(json_path);
        if (!out) throw std::runtime_error("cannot open " + json_path + " for writing");
        out << doc.to_string(2) << "\n";
        if (!out) throw std::runtime_error("write failed: " + json_path);
        std::printf("wrote rank-kill grid to %s\n", json_path.c_str());
      }

      if (check_monotone) {
        // Recovery is all-or-nothing: every cell must be exact and must have
        // actually exercised a respawn (a kill that never fired is a test bug).
        if (!all_exact) {
          std::fprintf(stderr, "CHECK FAILED: a recovered trace diverged from the reference\n");
          return 1;
        }
        if (!all_respawned) {
          std::fprintf(stderr, "CHECK FAILED: a grid cell completed without any respawn\n");
          return 1;
        }
        std::printf("rank-kill check passed (all cells exact, all respawned)\n");
      }
      return 0;
    }

    // Fault-free reference: the spike train every degraded run is scored
    // against.
    nsc::core::VectorSink ref;
    nsc::obs::BenchReport report;
    report.name = "nsc_faultsweep";
    report.ticks = static_cast<std::uint64_t>(ticks);
    report.threads = backend == "compass" ? std::max(1, threads) : 1;
    {
      auto sim = make_sim(net, backend, threads);
      const std::uint64_t t0 = nsc::obs::now_ns();
      sim->run(ticks, &inputs, &ref);
      report.wall_s = 1e-9 * static_cast<double>(nsc::obs::now_ns() - t0);
      report.stats = sim->stats();
      report.metrics = sim_metrics(*sim, backend);
    }
    std::printf("reference (%s): %zu spikes over %lld ticks on %d cores\n", backend.c_str(),
                ref.spikes().size(), static_cast<long long>(ticks), ncores);

    nsc::obs::JsonValue curve = nsc::obs::JsonValue::array();
    std::vector<double> fidelities;
    std::printf("%10s %8s %10s %10s %10s %10s\n", "fraction", "failed", "spikes", "fidelity",
                "dropped", "rerouted");
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const double f = fractions[fi];
      const int n_faults = std::min(ncores - 1, static_cast<int>(std::lround(f * ncores)));
      // Events land in the first half so degradation has time to show.
      const auto campaign = nsc::fault::Campaign::random(
          net.geom, n_faults, 0, std::max<nsc::core::Tick>(1, ticks / 2),
          events_seed + 7919 * fi);
      auto sim = make_sim(net, backend, threads);
      nsc::core::VectorSink sink;
      nsc::fault::run_with_campaign(*sim, ticks, &inputs, &sink, campaign);

      const nsc::obs::Registry& m = sim_metrics(*sim, backend);
      const std::uint64_t cores_failed = m.counter_value("fault.cores_failed");
      const std::uint64_t dropped = m.counter_value("fault.spikes_dropped");
      const std::uint64_t rerouted = m.counter_value("fault.rerouted_hops");
      const double fidelity =
          ref.spikes().empty()
              ? 1.0
              : static_cast<double>(spike_intersection(ref.spikes(), sink.spikes())) /
                    static_cast<double>(ref.spikes().size());
      fidelities.push_back(fidelity);
      std::printf("%10.3f %8llu %10zu %10.4f %10llu %10llu\n", f,
                  static_cast<unsigned long long>(cores_failed), sink.spikes().size(), fidelity,
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(rerouted));

      nsc::obs::JsonValue point = nsc::obs::JsonValue::object();
      point.set("fraction", f);
      point.set("cores_failed", cores_failed);
      point.set("spikes", static_cast<std::uint64_t>(sink.spikes().size()));
      point.set("ref_spikes", static_cast<std::uint64_t>(ref.spikes().size()));
      point.set("fidelity", fidelity);
      point.set("fault_spikes_dropped", dropped);
      point.set("rerouted_hops", rerouted);
      curve.push_back(std::move(point));
    }

    if (!json_path.empty()) {
      nsc::obs::JsonValue doc = nsc::obs::report_to_json(report);
      doc.set("degradation", std::move(curve));
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot open " + json_path + " for writing");
      out << doc.to_string(2) << "\n";
      if (!out) throw std::runtime_error("write failed: " + json_path);
      std::printf("wrote degradation curve to %s\n", json_path.c_str());
    }

    if (check_monotone) {
      // The curve must start perfect and must not climb back up as faults
      // accumulate (small tolerance: dead cores can unmask spikes elsewhere).
      constexpr double kTol = 0.1;
      for (std::size_t i = 0; i < fractions.size(); ++i) {
        if (fractions[i] == 0.0 && fidelities[i] != 1.0) {
          std::fprintf(stderr, "CHECK FAILED: fault-free fidelity %.4f != 1.0\n", fidelities[i]);
          return 1;
        }
        if (i > 0 && fractions[i] >= fractions[i - 1] &&
            fidelities[i] > fidelities[i - 1] + kTol) {
          std::fprintf(stderr, "CHECK FAILED: fidelity climbed %.4f -> %.4f at fraction %.3f\n",
                       fidelities[i - 1], fidelities[i], fractions[i]);
          return 1;
        }
      }
      std::printf("monotone check passed (%zu points)\n", fractions.size());
    }
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
