#include "src/analysis/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace nsc::analysis {

void print_report(std::ostream& os, const LintReport& report, std::size_t max_findings) {
  std::size_t shown = 0;
  for (const Finding& f : report.findings) {
    if (max_findings != 0 && shown == max_findings) {
      os << "... " << (report.findings.size() - shown) << " more finding(s) elided\n";
      break;
    }
    os << severity_name(f.severity) << " [" << f.rule << "] " << f.message << "\n";
    ++shown;
  }
  if (!report.suppressed.empty()) {
    os << "suppressed:";
    for (const std::string& rule : report.suppressed) os << " " << rule;
    os << "\n";
  }
  if (!report.load.cores.empty()) {
    std::uint64_t worst_link = 0;
    for (const LinkLoad& link : report.load.links) {
      worst_link = std::max(worst_link, link.worst_case_packets);
    }
    os << "load: rate bound " << report.load.total_rate_bound << " spikes/tick";
    if (!report.load.links.empty()) {
      os << ", busiest merge-split link worst case " << worst_link << "/"
         << kLinkPacketsPerTickCapacity << " packets/tick";
    }
    os << "\n";
  }
  os << report.count(Severity::kError) << " error(s), " << report.count(Severity::kWarn)
     << " warning(s), " << report.count(Severity::kInfo) << " info(s)\n";
}

obs::JsonValue report_to_json(const LintReport& report, const std::string& net_name,
                              const core::Geometry& geom) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", "nsc-lint-v1");
  doc.set("net", net_name);

  obs::JsonValue g = obs::JsonValue::object();
  g.set("chips_x", geom.chips_x);
  g.set("chips_y", geom.chips_y);
  g.set("cores_x", geom.cores_x);
  g.set("cores_y", geom.cores_y);
  g.set("total_cores", geom.total_cores());
  doc.set("geometry", std::move(g));

  obs::JsonValue counts = obs::JsonValue::object();
  counts.set("error", report.count(Severity::kError));
  counts.set("warn", report.count(Severity::kWarn));
  counts.set("info", report.count(Severity::kInfo));
  doc.set("counts", std::move(counts));

  obs::JsonValue findings = obs::JsonValue::array();
  for (const Finding& f : report.findings) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("rule", f.rule);
    entry.set("severity", std::string(severity_name(f.severity)));
    entry.set("message", f.message);
    if (f.core != core::kInvalidCore) entry.set("core", static_cast<std::int64_t>(f.core));
    if (f.neuron >= 0) entry.set("neuron", f.neuron);
    entry.set("count", f.count);
    findings.push_back(std::move(entry));
  }
  doc.set("findings", std::move(findings));

  obs::JsonValue suppressed = obs::JsonValue::array();
  for (const std::string& rule : report.suppressed) suppressed.push_back(obs::JsonValue(rule));
  doc.set("suppressed", std::move(suppressed));

  if (!report.load.cores.empty()) {
    obs::JsonValue load = obs::JsonValue::object();
    load.set("total_rate_bound", report.load.total_rate_bound);
    load.set("link_capacity_per_tick", kLinkPacketsPerTickCapacity);
    std::uint64_t worst = 0;
    double bounded = 0.0;
    for (const LinkLoad& link : report.load.links) {
      worst = std::max(worst, link.worst_case_packets);
      bounded = std::max(bounded, link.bounded_packets);
    }
    load.set("max_link_worst_case", worst);
    load.set("max_link_rate_bound", bounded);
    obs::JsonValue fin = obs::JsonValue::array();
    for (std::uint64_t b : report.load.fan_in_hist) fin.push_back(obs::JsonValue(b));
    load.set("fan_in_hist", std::move(fin));
    obs::JsonValue fout = obs::JsonValue::array();
    for (std::uint64_t b : report.load.fan_out_hist) fout.push_back(obs::JsonValue(b));
    load.set("fan_out_hist", std::move(fout));
    doc.set("load", std::move(load));
  }
  return doc;
}

bool lint_preflight(const core::Network& net, const std::string& net_name,
                    const DeploymentSpec* deploy) {
  LintOptions options;
  options.deploy = deploy;
  const LintReport report = lint(net, options);
  std::size_t shown = 0;
  for (const Finding& f : report.findings) {
    if (f.severity == Severity::kInfo) continue;
    if (shown++ == 20) {
      std::fprintf(stderr, "lint: ... further findings elided; run nsc_lint --net %s\n",
                   net_name.c_str());
      break;
    }
    std::fprintf(stderr, "lint: %s [%s] %s\n", std::string(severity_name(f.severity)).c_str(),
                 f.rule.c_str(), f.message.c_str());
  }
  const std::uint64_t errors = report.count(Severity::kError);
  if (errors > 0) {
    std::fprintf(stderr,
                 "lint preflight FAILED: %llu error-level finding(s) in %s; refusing to run "
                 "(the kernel expressions are only equivalent inside the hardware envelope)\n",
                 static_cast<unsigned long long>(errors), net_name.c_str());
    return false;
  }
  return true;
}

void write_lint_report(const std::string& path, const LintReport& report,
                       const std::string& net_name, const core::Geometry& geom) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os << report_to_json(report, net_name, geom).to_string(2) << "\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace nsc::analysis
