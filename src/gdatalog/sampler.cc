#include "gdatalog/sampler.h"

#include <algorithm>
#include <cmath>

namespace gdlog {

namespace {

// The mean and standard error of an indicator that was 1 on `hits` of `n`
// walks. Its sum and its sum of squares are both `hits`, exact in a double,
// so this is the running-sum estimator's arithmetic to the bit.
MonteCarloResult::Estimate FromHits(size_t hits, size_t n) {
  MonteCarloResult::Estimate est;
  if (n == 0) return est;
  const double sum = static_cast<double>(hits);
  const double sum_sq = sum;
  est.mean = sum / static_cast<double>(n);
  if (n > 1) {
    double var = (sum_sq - sum * sum / static_cast<double>(n)) /
                 static_cast<double>(n - 1);
    est.std_error = std::sqrt(std::max(0.0, var) / static_cast<double>(n));
  }
  return est;
}

}  // namespace

Result<MonteCarloResult> EstimateByMonteCarlo(
    const ChaseEngine& engine, const ChaseOptions& options, size_t n,
    uint64_t seed, const std::vector<GroundAtom>& atoms) {
  Rng rng(seed);
  MonteCarloResult result;
  size_t consistent = 0;
  std::vector<size_t> lower_hits(atoms.size(), 0);
  std::vector<size_t> upper_hits(atoms.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    GDLOG_ASSIGN_OR_RETURN(ChaseEngine::PathSample sample,
                           engine.SamplePath(&rng, options));
    if (sample.truncated) {
      ++result.truncated;
      continue;
    }
    ++result.samples;
    if (sample.models.empty()) continue;
    ++consistent;
    for (size_t a = 0; a < atoms.size(); ++a) {
      auto holds = [&](const StableModel& model) {
        return std::binary_search(model.begin(), model.end(), atoms[a]);
      };
      const StableModelSet& models = sample.models;
      upper_hits[a] += std::any_of(models.begin(), models.end(), holds);
      lower_hits[a] += std::all_of(models.begin(), models.end(), holds);
    }
  }
  result.consistent = FromHits(consistent, n);
  result.inconsistent = FromHits(result.samples - consistent, n);
  result.marginals.reserve(atoms.size());
  for (size_t a = 0; a < atoms.size(); ++a) {
    result.marginals.push_back(
        {FromHits(lower_hits[a], n), FromHits(upper_hits[a], n)});
  }
  return result;
}

}  // namespace gdlog
