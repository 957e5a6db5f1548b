// The four workloads and the layer probes of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace gdlog {
class OutcomeSpace;
}

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string gdlogd;   ///< Path of the gdlogd binary.
  std::string out_dir;  ///< Logs and the span dump go here.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result line's fields plus the metrics.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one operation; a false `ok` is a failure (wrong bytes, error
  /// status or refusal) and makes the run incorrect. `what` describes it.
  void Check(bool ok, const std::string& what);
};

/// The traced run's loop in four slices of a quarter of the time each:
/// untraced, traced, traced, untraced. A drift over the run then cancels
/// from the traced-minus-untraced difference (perfbench.trace.overhead_ms).
constexpr std::array<bool, 4> kAbbaTraced = {false, true, true, false};

/// Operation latencies of one kind, in ms.
struct Samples {
  std::vector<double> ms;
  void Add(uint64_t ns) { ms.push_back(static_cast<double>(ns) / 1e6); }
};

/// Adds the end-to-end metrics every workload reports. `primary` and
/// `secondary` are the workload's two headline operation kinds; `ops` is
/// every operation completed in `elapsed_s`.
void AddEndToEnd(Result* result, const std::vector<double>& setup_s,
                 const Samples& primary, const Samples& secondary,
                 uint64_t ops, double elapsed_s, double peak_rss_mb);

/// Writes the traced run's spans to <out_dir>/spans-<workload>.json.
void WriteSpans(const Tracer& tracer, const Config& config);

/// Prints a sample's count, median, quartile spread and highest
/// supported percentile to stderr.
void PrintSamples(const char* label, const Samples& samples);

/// Outcome-by-outcome equality: choices, probabilities and stable-model
/// sets, in order, plus completeness and finite mass.
bool SameOutcomeSpace(const gdlog::OutcomeSpace& a,
                      const gdlog::OutcomeSpace& b);

Result RunChaseWorkload(const Config& config, bool quarantine);
Result RunServeWorkload(const Config& config);
Result RunFleetWorkload(const Config& config);

/// Layer-level numbers gathered by the workload's own traced loop; the
/// probes fill in the rest.
struct LayerOverrides {
  bool have_cache = false;
  double cache_hit_ratio = 0, cache_evictions = 0, spaces_revalidated = 0;
  bool have_fleet = false;
  double steals = 0, retries = 0, duplicate_partials = 0,
         partial_cache_hit_ratio = 0;
};

/// The traced run's layer probes: times the public entry points of every
/// module (ast, opt, ground, gdatalog, stable, server, util) on one
/// program and database, serially and in isolation, recording a span
/// around every call, and adds every per-layer metric to `result`.
/// Correctness checks along the way count into `result`.
void RunLayerProbes(const std::string& program, const std::string& db,
                    uint64_t seed, const LayerOverrides& overrides,
                    Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
