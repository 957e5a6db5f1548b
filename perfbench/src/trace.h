// In-memory spans recorded by the benchmark around its calls into the
// gdlog modules. A span has a name, start and end (steady clock, ns), the
// span that caused it, and the id of the request it belongs to. Spans stay
// in memory while the workload runs and are written out once at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span.
  uint64_t request = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe span sink.
class Tracer {
 public:
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }
  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }
  void Add(Span span);
  std::vector<Span> Snapshot() const;
  /// Writes {"spans": [...]} to `path`; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
};

/// Times one call. It always measures; it records a span only when given
/// a tracer, so traced and untraced runs time the same code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (once) and returns its duration in ns.
  uint64_t End();
  uint64_t id() const { return id_; }
  uint64_t request() const { return request_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t start_ns_;
  uint64_t duration_ns_ = 0;
  bool ended_ = false;
};

/// Self time of every span, parallel to `spans`: its duration minus the
/// part of its interval covered by its direct children (child intervals
/// are clipped to the parent and overlaps are counted once).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name durations over a span list.
struct SpanSummary {
  std::vector<double> durations_ms;
  double total_ms = 0.0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
