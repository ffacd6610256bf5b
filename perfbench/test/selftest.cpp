// Self-test of the benchmark itself (run with `python3 perfbench/run.py
// --selftest`, or ctest in the benchmark's build tree):
//   - the percentile code refuses a sample that leaves fewer than 10
//     samples beyond p99, and accepts one that does not;
//   - the witness digest is the same through on_spike and on_spike_batch;
//   - each workload, run twice at reduced length with one seed, repeats
//     every count-type per-layer metric and every digest exactly, and a
//     second seed changes the digests.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) v.push_back(static_cast<double>(i));
  expect(!perfbench::tail_percentile(v, 0.99), "p99 of 999 samples must be refused");
  perfbench::Result r;
  perfbench::add_tail(r, "p99", v);
  expect(r.metrics.empty(), "a 999-sample p99 must not be reported");
  v.push_back(999.0);
  const auto p99 = perfbench::tail_percentile(v, 0.99);
  expect(p99.has_value(), "p99 of 1000 samples must be reported");
  expect(p99 && *p99 > 989.0 && *p99 < 990.0, "p99 of 0..999 is 989.01");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of {1,2,3} is 2");
}

void test_witness_paths() {
  const std::vector<nsc::core::Spike> spikes = {{0, 1, 2}, {0, 7, 255}, {1, 0, 0}, {3, 1023, 9}};
  perfbench::WitnessSink one, batch;
  for (const auto& s : spikes) one.on_spike(s.tick, s.core, s.neuron);
  batch.on_spike_batch(spikes.data(), spikes.size());
  expect(one.digest() == batch.digest(), "per-spike and batched digests agree");
  perfbench::WitnessSink swapped;
  swapped.on_spike(0, 7, 255);
  swapped.on_spike(0, 1, 2);
  swapped.on_spike(1, 0, 0);
  swapped.on_spike(3, 1023, 9);
  expect(swapped.digest() != one.digest(), "digest depends on spike order");
}

perfbench::Result reduced_run(const std::string& name, std::uint64_t seed) {
  perfbench::Options opt;
  opt.seed = seed;
  opt.trace = true;
  opt.fixed_rounds = 3;  // Leaves at least one untraced round or epoch.
  opt.round_length = name == "serve_stream" ? 100 : 25;
  opt.work_dir = "perfbench-selftest";
  return perfbench::run_workload(name, opt);
}

void test_workload_repeats(const std::string& name) {
  const perfbench::Result a = reduced_run(name, 7);
  const perfbench::Result b = reduced_run(name, 7);
  const perfbench::Result c = reduced_run(name, 8);
  for (const auto* r : {&a, &b, &c}) {
    for (const auto& e : r->errors) std::fprintf(stderr, "  %s: %s\n", name.c_str(), e.c_str());
    expect(r->failed == 0 && r->attempted > 0, name + ": reduced run must pass");
  }
  int exact = 0;
  for (const auto& m : a.metrics) {
    if (!m.exact) continue;
    ++exact;
    const perfbench::Metric* other = b.find(m.name);
    expect(other != nullptr && same_bits(other->value, m.value),
           name + ": count metric " + m.name + " must repeat exactly");
  }
  expect(exact >= 10, name + ": count-type metrics reported");
  expect(!a.digests.empty() && a.digests == b.digests, name + ": digests must repeat exactly");
  expect(a.digests.size() == c.digests.size() && a.digests.front() != c.digests.front(),
         name + ": another seed must change the digests");
  std::printf("%s: %d count metrics and %zu digests repeat; seed 8 differs\n", name.c_str(),
              exact, a.digests.size());
}

}  // namespace

int main() {
  test_percentiles();
  test_witness_paths();
  for (const std::string& name : perfbench::workload_names()) test_workload_repeats(name);
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
