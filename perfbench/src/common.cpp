#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/obs/obs.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::optional<double> tail_percentile(std::vector<double> v, double p) {
  if (static_cast<double>(v.size()) * (1.0 - p) < kTailSamples - 1e-9) return std::nullopt;
  return quantile(std::move(v), p);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<double> intervals_ms(const std::vector<std::uint64_t>& stamps, std::size_t first) {
  std::vector<double> out;
  for (std::size_t i = first + 1; i < stamps.size(); ++i) {
    out.push_back(1e-6 * static_cast<double>(stamps[i] - stamps[i - 1]));
  }
  return out;
}

double peak_rss_mib() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double seconds_since(std::uint64_t t0_ns) {
  return 1e-9 * static_cast<double>(nsc::obs::now_ns() - t0_ns);
}

void WitnessSink::on_tick_end(nsc::core::Tick) {
  if (stamps_ != nullptr) stamps_->push_back(nsc::obs::now_ns());
}

double witness_sink_ms_per_tick(double spikes_per_tick, std::uint64_t seed) {
  // A canonical-order tick of the measured size: ascending (core, neuron).
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(spikes_per_tick)));
  std::vector<nsc::core::Spike> tick(n);
  nsc::util::Xoshiro rng(seed);
  std::uint32_t at = 0;
  for (auto& s : tick) {
    at += 1 + static_cast<std::uint32_t>(rng.next_below(8));
    s = {0, at / 256, static_cast<std::uint16_t>(at % 256)};
  }
  WitnessSink witness;
  // Read through a volatile pointer so the compiler cannot see the dynamic
  // type and must dispatch virtually, as the backends do.
  nsc::core::SpikeSink* volatile opaque = &witness;
  nsc::core::SpikeSink* sink = opaque;
  const int reps = static_cast<int>(std::max<std::size_t>(20, 2'000'000 / n));
  const std::uint64_t t0 = nsc::obs::now_ns();
  for (int r = 0; r < reps; ++r) {
    for (const auto& s : tick) sink->on_spike(r, s.core, s.neuron);
    sink->on_tick_end(r);
  }
  const double ms = 1e-6 * static_cast<double>(nsc::obs::now_ns() - t0);
  if (witness.spikes() != n * static_cast<std::size_t>(reps)) {
    throw std::logic_error("witness sink lost spikes");
  }
  return ms / reps;
}

void check_digests(const std::vector<std::pair<std::string, std::uint64_t>>& named,
                   const std::string& where, Result& r) {
  for (std::size_t i = 1; i < named.size(); ++i) {
    if (named[i].second != named[0].second) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: %s digest %016llx != %s %016llx", where.c_str(),
                    named[i].first.c_str(), static_cast<unsigned long long>(named[i].second),
                    named[0].first.c_str(), static_cast<unsigned long long>(named[0].second));
      r.fail(buf);
    }
  }
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den != 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double phase_ms_per_tick(const nsc::obs::Registry& reg, const char* phase, std::uint64_t ticks) {
  const nsc::obs::PhaseAccum* p = reg.find_phase(phase);
  return p != nullptr ? 1e-6 * ratio(p->total_ns, ticks) : 0.0;
}

void add_tail(Result& r, const std::string& name, const std::vector<double>& ms) {
  if (const auto tail = tail_percentile(ms, 0.99)) {
    r.add(name, *tail, "ms");
  } else {
    std::fprintf(stderr, "note: %s not reported: %zu samples\n", name.c_str(), ms.size());
  }
}

void add_percentiles(Result& r, const std::string& name, const std::vector<double>& ms,
                     bool p99) {
  if (ms.empty()) return;
  r.add(name + ".rtt_ms_p50", median(ms), "ms");
  if (p99) add_tail(r, name + ".rtt_ms_p99", ms);
}

/// In-process checkpoint round trips through the core snapshot format.
void checkpoint_layer(nsc::core::Simulator& sim, Tracer& tr, std::int64_t parent, Result& r) {
  constexpr int kReps = 5;
  std::vector<double> save_ms, load_ms;
  std::string blob;
  for (int i = 0; i < kReps; ++i) {
    std::ostringstream os;
    {
      SpanScope s(tr, "core.save_checkpoint", parent);
      const std::uint64_t t0 = nsc::obs::now_ns();
      sim.save_checkpoint(os);
      save_ms.push_back(1e3 * seconds_since(t0));
    }
    blob = os.str();
    std::istringstream is(blob);
    SpanScope s(tr, "core.load_checkpoint", parent);
    const std::uint64_t t0 = nsc::obs::now_ns();
    sim.load_checkpoint(is);  // The state just saved: the trajectory is unchanged.
    load_ms.push_back(1e3 * seconds_since(t0));
  }
  r.add("core.save_checkpoint_ms", median(save_ms), "ms");
  r.add("core.load_checkpoint_ms", median(load_ms), "ms");
  r.add("core.checkpoint_bytes", static_cast<double>(blob.size()), "bytes", true);
}

}  // namespace perfbench
