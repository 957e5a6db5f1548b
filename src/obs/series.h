#ifndef GDLOG_OBS_SERIES_H_
#define GDLOG_OBS_SERIES_H_

#include <atomic>
#include <cstdint>

namespace gdlog {

/// A uint64 counter (or gauge) updated with relaxed atomics that copies by
/// value. A struct of these is a subsystem's live storage, and a copy of
/// the struct is its point-in-time snapshot: one relaxed load per field,
/// with no hand-written snapshot code to keep in step with the fields.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& other) : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  /// Raises the value to `n` unless it is already at least `n` (a
  /// high-water gauge).
  void RaiseTo(uint64_t n) {
    uint64_t seen = load();
    while (n > seen && !value_.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }

  uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// How /v1/metrics types a series.
enum class SeriesKind { kCounter, kGauge };

/// One row of a counter table: a scalar series exported with the same
/// value as the /v1/stats key `key` inside the top-level object `section`
/// (a dotted key nests one object level: "requests.total") and as the
/// unlabelled Prometheus family `metric`. `value` reads the series from a
/// `Snapshot` of every subsystem's counters, so both endpoints render one
/// table at one point in time.
template <typename Snapshot>
struct Series {
  const char* section;
  const char* key;
  const char* metric;
  SeriesKind kind;
  const char* help;
  uint64_t (*value)(const Snapshot&);
};

}  // namespace gdlog

#endif  // GDLOG_OBS_SERIES_H_
