#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "src/obs/obs.hpp"

namespace perfbench {

std::int64_t Tracer::open(std::string name, std::int64_t parent) {
  if (!enabled_) return -1;
  const std::uint64_t now = nsc::obs::now_ns();
  return record(std::move(name), now, now, parent);
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id & 0xFFFFFFFF)].end_ns = nsc::obs::now_ns();
}

std::int64_t Tracer::record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                            std::int64_t parent) {
  if (!enabled_) return -1;
  // Thread in the high half, index in the low half: unique after merging.
  const std::int64_t id = (static_cast<std::int64_t>(tid_) << 32) |
                          static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), start_ns, end_ns, id, parent, tid_});
  return id;
}

std::vector<Span> merge_spans(const std::vector<const Tracer*>& tracers) {
  std::vector<Span> out;
  for (const Tracer* t : tracers) out.insert(out.end(), t->spans().begin(), t->spans().end());
  return out;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of child intervals, clipped to the parent.
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;
    for (const auto& [a0, b0] : iv) {
      const std::uint64_t a = std::max(a0, reach);
      const std::uint64_t b = std::min(b0, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = hi - lo - std::min(covered, hi - lo);
  }
  return self;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"self_us\":%.3f}}",
                  s.tid, 1e-3 * double(s.start_ns - t0), 1e-3 * double(s.end_ns - s.start_ns),
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  1e-3 * double(self[i]));
    os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(s.name) << buf;
  }
  os << "\n]}\n";
  if (!os.flush()) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
