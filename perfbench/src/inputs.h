// The benchmark's seeded input generator. Every program, database, op
// sequence, shuffle seed and PATCH fact a run uses comes from here, as a
// pure function of --seed; gdlog only ever sees the generated text.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

/// splitmix64: a tiny generator whose output is fixed by the seed on every
/// platform (the standard distributions are not).
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// A trigger-shuffle seed in [1, 2^31): nonzero, and exact as a JSON
  /// number on every wire.
  uint64_t ShuffleSeed() { return 1 + Below((1ull << 31) - 1); }

 private:
  uint64_t state_;
};

/// Example 3.6's stratified network program, flip probability 0.1.
extern const char* const kNetworkProgram;
/// The same network with an even negation loop: each infected router is
/// either quarantined (it infects nobody) or free. Not stratified.
extern const char* const kQuarantineProgram;
/// Example 3.10's dimes and a quarter.
extern const char* const kDimeQuarterProgram;

/// A fully connected network of `n` routers under seed-chosen distinct
/// labels, a seed-chosen infected router, and the facts in seed-chosen
/// order. Every labelling is isomorphic, so the outcome space and its cost
/// do not depend on the seed.
struct NetworkInputs {
  Network network;
  std::string db;
};
NetworkInputs CliqueNetwork(int n, SeededRng& rng);

/// `dimes` dimes and one quarter under seed-chosen labels.
std::string DimeQuarterDb(int dimes, SeededRng& rng);

/// The E14 skewed tree: pick one of 12 branches with probability
/// proportional to its subtree size; every fourth branch unlocks 9 fair
/// flips, the rest 6. Labels and fact order come from the seed.
struct SkewedTree {
  std::string program;
  std::string db;
};
SkewedTree SkewedTreeInputs(SeededRng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
