// nsc_perfbench: runs one benchmark workload (or `all` of them in this
// process) and prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output agreed, 1 on any failed or mismatched
// operation, 2 on a usage error.
//
//   nsc_perfbench --workload <fig5_sparse|fig5_dense|serve_stream|all>
//                 --seed <n> --seconds <s> --trace <0|1>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nsc_perfbench: %s\n"
               "usage: nsc_perfbench --workload <name|all> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

void print_json(const perfbench::Result& r, const std::string& prefix, bool& first) {
  for (const auto& m : r.metrics) {
    std::printf("%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                prefix.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  std::vector<std::string> names;
  if (workload == "all") {
    names = perfbench::workload_names();
  } else {
    names.push_back(workload);
  }
  std::vector<perfbench::Result> results;
  for (const std::string& name : names) {
    perfbench::Result r;
    try {
      r = perfbench::run_workload(name, opt);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    } catch (const std::exception& e) {
      r.workload = name;
      r.fail(e.what());
    }
    for (const auto& m : r.metrics) {
      std::printf("%s %-44s %14.6g %s\n", r.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& [what, d] : r.digests) {
      std::printf("%s digest.%-37s %016llx\n", r.workload.c_str(), what.c_str(),
                  static_cast<unsigned long long>(d));
    }
    std::printf("%s %-44s %14.6g ratio (%llu of %llu operations)\n", r.workload.c_str(),
                "failed_frac",
                r.attempted ? double(r.failed) / double(r.attempted) : 1.0,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (const auto& e : r.errors) std::fprintf(stderr, "%s: FAILED: %s\n", name.c_str(), e.c_str());
    results.push_back(std::move(r));
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed + (attempted == 0 ? 1 : 0)));
  bool first = true;
  for (const auto& r : results) print_json(r, results.size() > 1 ? r.workload + "." : "", first);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
