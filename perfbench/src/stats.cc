#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // CPython's statistics.quantiles, method="exclusive", n=4: exact integer
  // rescaling of the cut index, clamped to [1, len-1].
  const long n = 4;
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> cuts{};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    long delta = i * m - j * n;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                   values[j] * static_cast<double>(delta)) /
                  static_cast<double>(n);
  }
  return cuts;
}

double RelativeSpread(const std::vector<double>& values) {
  double median = Median(values);
  if (median == 0.0) return 0.0;
  std::array<double, 3> q = Quartiles(values);
  return (q[2] - q[0]) / median;
}

double HighestSupportedQuantile(size_t count) {
  for (int percent : {99, 95, 90}) {
    if (count * static_cast<size_t>(100 - percent) >= 1000) {
      return percent / 100.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
