// Order statistics for the benchmark's latency samples and run-to-run
// spreads.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-th quantile (q in [0, 1]) by linear interpolation between the
/// closest order statistics (numpy's default). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Percentile(values, 0.5).
double Median(std::vector<double> values);

/// The three quartile cut points exactly as Python's
/// statistics.quantiles(values, n=4) computes them (the default
/// "exclusive" method). Needs at least two values; with fewer, every cut
/// point is the single value (or 0 when empty).
std::array<double, 3> Quartiles(std::vector<double> values);

/// (Q3 - Q1) / median: the run-to-run spread the benchmark's bounds are
/// judged against. 0 when the median is 0.
double RelativeSpread(const std::vector<double>& values);

/// The highest of p99, p95 and p90 that has at least ten samples beyond
/// it in a sample of `count`, as a fraction; 0 when none does (then only
/// the median is supported).
double HighestSupportedQuantile(size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
