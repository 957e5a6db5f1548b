// An oracle for the network program of Example 3.6 that shares no code
// with the engine: it enumerates every assignment of the edge flips
// directly, instead of running the chase.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A directed router network: routers are any distinct integers, every
/// edge (x, y) means connected(x, y), and `start` is infected.
struct Network {
  std::vector<int> routers;
  std::vector<std::pair<int, int>> edges;
  int start = 0;
};

struct NetworkReference {
  /// Finite possible outcomes: distinct assignments of the flips the
  /// chase actually draws (only edges leaving an infected router).
  uint64_t num_outcomes = 0;
  /// P(the program has a stable model), reduced, written as gdlog writes
  /// exact rationals: "a/b", or "a" when b is 1.
  std::string prob_consistent;
};

/// Brute force over all 2^|edges| flip assignments with flip probability
/// p_num/p_den: infection spreads from `start` along edges whose flip is
/// 1, and an assignment is consistent when no edge joins two uninfected
/// routers. Exact integer arithmetic; |edges| must be at most 18.
NetworkReference BruteForceNetwork(const Network& network, int64_t p_num,
                                   int64_t p_den);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
