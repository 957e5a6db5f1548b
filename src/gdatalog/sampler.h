#ifndef GDLOG_GDATALOG_SAMPLER_H_
#define GDLOG_GDATALOG_SAMPLER_H_

#include <vector>

#include "gdatalog/chase.h"

namespace gdlog {

/// What one Monte-Carlo pass estimates. Every figure is the mean of a 0/1
/// indicator over all walks; a depth-truncated walk counts 0 for every
/// indicator (the paper treats infinite outcomes as invalid) and is
/// reported in `truncated`.
struct MonteCarloResult {
  struct Estimate {
    double mean = 0.0;
    /// Standard error of the mean (σ/√n over all n walks).
    double std_error = 0.0;
  };
  /// Cautious (lower) and brave (upper) marginal of one atom.
  struct Bounds {
    Estimate lower;  ///< P(outcome consistent and atom in every model).
    Estimate upper;  ///< P(atom in some stable model).
  };

  size_t samples = 0;    ///< Walks that reached a finite outcome.
  size_t truncated = 0;  ///< Depth-truncated walks (error-event samples).
  Estimate consistent;   ///< P(some stable model exists).
  /// P(no stable model), e.g. P(domination) in the paper's running example.
  Estimate inconsistent;
  /// One entry per queried atom, in query order.
  std::vector<Bounds> marginals;
};

/// Monte-Carlo inference over chase paths. Walks `n` random maximal paths
/// with one Rng(seed); Theorem 4.6 makes each walk a sample of a possible
/// outcome, so one walk settles every statistic at once: consistency, and
/// each atom's brave and cautious membership. The cost is n walks however
/// many atoms are asked for.
Result<MonteCarloResult> EstimateByMonteCarlo(
    const ChaseEngine& engine, const ChaseOptions& options, size_t n,
    uint64_t seed, const std::vector<GroundAtom>& atoms = {});

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_SAMPLER_H_
