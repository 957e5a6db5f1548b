#include "reference.h"

#include <numeric>
#include <set>
#include <stdexcept>

namespace perfbench {

NetworkReference BruteForceNetwork(const Network& network, int64_t p_num,
                                   int64_t p_den) {
  const size_t edges = network.edges.size();
  if (edges > 18) throw std::invalid_argument("too many edges");
  // Every weight shares the denominator p_den^edges; numerators are
  // p_num^ones * (p_den - p_num)^zeros, summed exactly.
  int64_t denominator = 1;
  for (size_t i = 0; i < edges; ++i) denominator *= p_den;
  std::vector<int64_t> pow_one(edges + 1, 1), pow_zero(edges + 1, 1);
  for (size_t i = 1; i <= edges; ++i) {
    pow_one[i] = pow_one[i - 1] * p_num;
    pow_zero[i] = pow_zero[i - 1] * (p_den - p_num);
  }

  int64_t consistent = 0;
  std::set<std::pair<uint32_t, uint32_t>> outcomes;
  for (uint32_t world = 0; world < (1u << edges); ++world) {
    std::set<int> infected = {network.start};
    for (bool grew = true; grew;) {
      grew = false;
      for (size_t e = 0; e < edges; ++e) {
        if ((world >> e & 1u) && infected.count(network.edges[e].first) &&
            infected.insert(network.edges[e].second).second) {
          grew = true;
        }
      }
    }
    bool ok = true;
    uint32_t drawn = 0;
    for (size_t e = 0; e < edges; ++e) {
      const auto& [x, y] = network.edges[e];
      if (!infected.count(x) && !infected.count(y)) ok = false;
      if (infected.count(x)) drawn |= 1u << e;
    }
    outcomes.emplace(drawn, world & drawn);
    if (ok) {
      int ones = __builtin_popcount(world);
      consistent += pow_one[ones] * pow_zero[edges - ones];
    }
  }
  int64_t g = std::gcd(consistent, denominator);
  NetworkReference ref;
  ref.num_outcomes = outcomes.size();
  ref.prob_consistent = std::to_string(consistent / g);
  if (denominator / g != 1) {
    ref.prob_consistent += "/" + std::to_string(denominator / g);
  }
  return ref;
}

}  // namespace perfbench
