// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own calls into each layer's public functions (nothing inside
// the simulators is instrumented), kept in memory, and written once at the
// end as Chrome trace-event JSON, which Perfetto and chrome://tracing open
// offline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 = root.
  int tid = 0;               ///< Recording thread (0 = main, 1.. = tenants).
};

/// Span buffer of one thread. A disabled tracer records nothing and hands
/// out id -1, so call sites need no branches of their own.
class Tracer {
 public:
  explicit Tracer(bool enabled, int tid = 0) : enabled_(enabled), tid_(tid) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span now; returns its id.
  std::int64_t open(std::string name, std::int64_t parent);
  /// Closes span `id` now (no-op for -1).
  void close(std::int64_t id);
  /// Records an already-measured span; returns its id.
  std::int64_t record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                      std::int64_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tr, std::string name, std::int64_t parent)
      : tr_(tr), id_(tr.open(std::move(name), parent)) {}
  ~SpanScope() { tr_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tr_;
  std::int64_t id_;
};

/// Self time of each span: its duration minus the part of its interval that
/// its children's intervals cover (children may overlap when they run on
/// other threads). Indexed like `spans`.
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Concatenates several tracers' spans (ids are unique across threads).
std::vector<Span> merge_spans(const std::vector<const Tracer*>& tracers);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one
/// track per recording thread, id/parent/self time in args). Throws
/// std::runtime_error when the file cannot be written.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
