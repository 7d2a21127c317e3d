#ifndef STORYPIVOT_PERFBENCH_TRACE_H_
#define STORYPIVOT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace storypivot::perfbench {

/// Monotonic nanoseconds (steady_clock), the time base of every span.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One traced interval: a call from the benchmark into a layer, or an
/// interval between two such calls whose owner is known (see
/// Tracer::Record).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  /// Spans caused by one request (one write op, one round) share it.
  uint64_t request = 0;
};

/// In-memory span recorder for the writer thread. Disabled, every call
/// is a branch on `enabled_` and nothing is stored, which is how the
/// end-to-end metrics are measured.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int Begin(const char* name, uint64_t request);
  void End(int span);

  /// Records an already-closed interval under the innermost open span.
  int Record(const char* name, int64_t start_ns, int64_t end_ns,
             uint64_t request);

  /// Writes one JSON object per span, one per line.
  [[nodiscard]] Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), span_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(span_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

}  // namespace storypivot::perfbench

#endif  // STORYPIVOT_PERFBENCH_TRACE_H_
