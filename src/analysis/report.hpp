// Rendering of lint results: human-readable text and the machine-readable
// "nsc-lint-v1" JSON schema (docs/ANALYSIS.md). The JSON is built with
// src/obs/json so every report the emitter writes is round-trippable by the
// same parser CI tooling uses for the bench reports.
#pragma once

#include <iosfwd>
#include <string>

#include "src/analysis/lint.hpp"
#include "src/obs/json.hpp"

namespace nsc::analysis {

/// Pretty-prints the report: findings grouped by severity (errors first),
/// then the load summary and the severity tally. `max_findings` caps the
/// printed findings (0 = unlimited); the tally always reflects all of them.
void print_report(std::ostream& os, const LintReport& report, std::size_t max_findings = 50);

/// Serializes the report to the "nsc-lint-v1" schema:
///   { "schema": "nsc-lint-v1", "net": <name>, "geometry": {...},
///     "counts": {"error": n, "warn": n, "info": n},
///     "findings": [{"rule","severity","message","core","neuron","count"}...],
///     "suppressed": [...],
///     "load": { "total_rate_bound", "link_capacity_per_tick",
///               "max_link_worst_case", "fan_in_hist", "fan_out_hist" } }
[[nodiscard]] obs::JsonValue report_to_json(const LintReport& report, const std::string& net_name,
                                            const core::Geometry& geom);

/// Writes the JSON to `path`; throws std::runtime_error on I/O failure.
void write_lint_report(const std::string& path, const LintReport& report,
                       const std::string& net_name, const core::Geometry& geom);

/// CLI `--lint` preflight (nsc_run, nsc_faultsweep): lints `net`, prints
/// error- and warn-level findings to stderr, and returns false when
/// error-level findings make the network undeployable — callers must then
/// refuse to simulate it. Warnings never block. With `deploy`, the planner
/// rules (NSC041–NSC047, NSC055) also vet that configuration, so `--ranks`/
/// `--replicas`/`--supervise` runs are checked before any process forks.
[[nodiscard]] bool lint_preflight(const core::Network& net, const std::string& net_name,
                                  const DeploymentSpec* deploy = nullptr);

}  // namespace nsc::analysis
