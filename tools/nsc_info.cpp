// nsc_info — inspect a network model file: geometry, resource usage,
// parameter distributions, validation findings.
//
//   nsc_info --net net.nsc [--per-core]
//
// Exit codes: 0 success, 1 unreadable file, 2 usage error
// (`usage error: <reason>`, tools/cli.hpp).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "src/analysis/lint.hpp"
#include "src/core/network_io.hpp"
#include "src/util/table.hpp"
#include "tools/cli.hpp"

int main(int argc, char** argv) {
  try {
    const nsc::cli::Args a(argc, argv, {.values = {"--net"}, .switches = {"--per-core"}});
    const std::string net_path = a.str("--net");
    nsc::cli::check({{net_path.empty(), "--net is required"}});
    const nsc::core::Network net = nsc::core::load_network(net_path);
    std::printf("%s\n", net_path.c_str());
    std::printf("geometry: %dx%d chips of %dx%d cores = %d cores, %d neuron slots\n",
                net.geom.chips_x, net.geom.chips_y, net.geom.cores_x, net.geom.cores_y,
                net.geom.total_cores(), net.geom.neurons());
    std::printf("seed: %llu\n", static_cast<unsigned long long>(net.seed));

    std::uint64_t enabled = 0, synapses = 0, stochastic = 0, delays[16] = {};
    int disabled_cores = 0;
    std::uint64_t targets_local = 0, targets_remote = 0, targets_none = 0;
    for (nsc::core::CoreId c = 0; c < static_cast<nsc::core::CoreId>(net.geom.total_cores());
         ++c) {
      const auto& cs = net.core(c);
      disabled_cores += cs.disabled ? 1 : 0;
      synapses += static_cast<std::uint64_t>(cs.crossbar.count());
      for (const auto& p : cs.neuron) {
        if (!p.enabled) continue;
        ++enabled;
        stochastic += (p.stochastic_weight || p.stochastic_leak || p.threshold_mask) ? 1 : 0;
        if (!p.target.valid()) {
          ++targets_none;
        } else {
          ++delays[p.target.delay & 15];
          if (p.target.core == c) {
            ++targets_local;
          } else {
            ++targets_remote;
          }
        }
      }
    }
    std::printf("enabled neurons: %llu (%.1f%% of slots), stochastic modes on %llu\n",
                static_cast<unsigned long long>(enabled),
                100.0 * static_cast<double>(enabled) / net.geom.neurons(),
                static_cast<unsigned long long>(stochastic));
    std::printf("synapses: %llu (density %.3f)\n", static_cast<unsigned long long>(synapses),
                static_cast<double>(synapses) /
                    (static_cast<double>(net.geom.total_cores()) * 256.0 * 256.0));
    std::printf("targets: %llu remote, %llu same-core, %llu none (sinks)\n",
                static_cast<unsigned long long>(targets_remote),
                static_cast<unsigned long long>(targets_local),
                static_cast<unsigned long long>(targets_none));
    std::printf("disabled cores: %d\n", disabled_cores);
    std::printf("delay histogram:");
    for (int d = 1; d <= 15; ++d) {
      if (delays[d]) std::printf(" %d:%llu", d, static_cast<unsigned long long>(delays[d]));
    }
    std::printf("\n");

    const auto lint = nsc::analysis::lint(net);
    if (lint.clean()) {
      std::printf("lint: OK\n");
    } else {
      std::printf("lint: %llu error(s), %llu warning(s), %llu info(s); first: [%s] %s\n",
                  static_cast<unsigned long long>(lint.count(nsc::analysis::Severity::kError)),
                  static_cast<unsigned long long>(lint.count(nsc::analysis::Severity::kWarn)),
                  static_cast<unsigned long long>(lint.count(nsc::analysis::Severity::kInfo)),
                  lint.findings[0].rule.c_str(), lint.findings[0].message.c_str());
      std::printf("      run nsc_lint --net %s for the full report\n", net_path.c_str());
    }

    if (a.has("--per-core")) {
      nsc::util::Table t({"core", "enabled", "synapses", "mean row fanout"});
      const int show = std::min(net.geom.total_cores(), 32);
      for (int c = 0; c < show; ++c) {
        const auto& cs = net.core(static_cast<nsc::core::CoreId>(c));
        int en = 0;
        for (const auto& p : cs.neuron) en += p.enabled ? 1 : 0;
        t.add_row({std::to_string(c), std::to_string(en), std::to_string(cs.crossbar.count()),
                   nsc::util::format_sig(cs.mean_row_synapses(), 3)});
      }
      if (net.geom.total_cores() > show) {
        std::printf("(showing the first %d of %d cores)\n", show, net.geom.total_cores());
      }
      t.print(std::cout);
    }
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
