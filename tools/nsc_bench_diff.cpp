// nsc_bench_diff — compare two BENCH_*.json metrics reports and gate on
// regressions (the hook CI's bench smoke job fails on).
//
//   nsc_bench_diff baseline.json candidate.json [--threshold R] [--phases]
//                  [--min-speedup S]
//
// Throughput metrics (ticks_per_s, sops_per_s) regress when the candidate is
// more than R× slower than the baseline; with --phases, per-phase mean wall
// times regress when more than R× larger. --min-speedup S replaces the
// regression gate on throughput metrics: every one must be at least S× the
// baseline — the CI check that pins an optimization's promised win (e.g. the
// event-driven hot path's ≥2× at the sparse operating point, or the 4-rank
// distributed speedup) so it cannot silently erode. The two reports may then
// be different configurations of the same workload (1 rank vs 4 ranks), where
// "candidate slower than baseline" is exactly what the gate is for. Exit
// codes: 0 = within threshold, 1 = regression (or missed speedup) detected,
// 2 = usage or parse error (a usage error prints `usage error: <reason>`
// before either report is read, tools/cli.hpp).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/json_report.hpp"
#include "tools/cli.hpp"

namespace {

const char* string_at(const nsc::obs::JsonValue& doc, const char* key, const char* fallback) {
  const nsc::obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->kind() == nsc::obs::JsonValue::Kind::String ? v->as_string().c_str()
                                                                        : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const nsc::cli::Args a(argc, argv,
                           {.values = {"--threshold", "--min-speedup"},
                            .switches = {"--phases"},
                            .positionals = 2});
    const std::vector<std::string>& paths = a.positionals();
    const double threshold = a.real("--threshold", 1.25, 1.0);
    const double min_speedup = a.real("--min-speedup", 0.0, 0.0);  // 0 = gate disabled
    const bool phases = a.has("--phases");
    nsc::cli::check({{paths.size() != 2, "needs baseline.json and candidate.json"}});

    const nsc::obs::JsonValue base = nsc::obs::load_json_file(paths[0]);
    const nsc::obs::JsonValue cand = nsc::obs::load_json_file(paths[1]);
    std::printf("baseline:  %s (%s, git %s)\n", paths[0].c_str(), string_at(base, "name", "?"),
                string_at(base, "git_sha", "?"));
    std::printf("candidate: %s (%s, git %s)\n", paths[1].c_str(), string_at(cand, "name", "?"),
                string_at(cand, "git_sha", "?"));
    std::printf("threshold: %.2fx%s\n\n", threshold, phases ? " (including phases)" : "");

    const nsc::obs::DiffResult diff = nsc::obs::diff_reports(base, cand, threshold, phases);
    if (diff.entries.empty()) {
      std::fprintf(stderr, "no comparable metrics found (wrong schema?)\n");
      return 2;
    }
    for (const nsc::obs::DiffEntry& e : diff.entries) {
      std::printf("%-28s %14.4g -> %14.4g   ratio %6.3f   %s\n", e.metric.c_str(), e.baseline,
                  e.candidate, e.ratio, e.regression ? "REGRESSION" : "ok");
    }
    const auto is_throughput = [](const std::string& m) {
      return m.size() > 6 && m.compare(m.size() - 6, 6, "_per_s") == 0;
    };
    bool missed_speedup = false;
    if (min_speedup > 0.0) {
      std::printf("\n");
      for (const nsc::obs::DiffEntry& e : diff.entries) {
        // Speedup gating only makes sense for higher-is-better throughput
        // metrics; phase wall times (lower is better) are excluded.
        if (!is_throughput(e.metric)) continue;
        const bool ok = e.ratio >= min_speedup;
        missed_speedup = missed_speedup || !ok;
        std::printf("speedup %-28s ratio %6.3f (need >= %.2f)   %s\n", e.metric.c_str(), e.ratio,
                    min_speedup, ok ? "ok" : "BELOW TARGET");
      }
    }
    // With the speedup gate active, it owns the verdict on throughput
    // metrics; the R x threshold still applies to any phase entries.
    bool regressed = false;
    for (const nsc::obs::DiffEntry& e : diff.entries) {
      if (min_speedup > 0.0 && is_throughput(e.metric)) continue;
      regressed = regressed || e.regression;
    }
    if (regressed || missed_speedup) {
      if (regressed) {
        std::printf("\nFAIL: regression beyond %.2fx threshold\n", threshold);
      }
      if (missed_speedup) {
        std::printf("\nFAIL: throughput below %.2fx required speedup\n", min_speedup);
      }
      return 1;
    }
    std::printf("\nOK: all metrics within %.2fx threshold\n", threshold);
    return 0;
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
