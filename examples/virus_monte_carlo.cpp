// Monte-Carlo inference at scales where exact chase enumeration blows up:
// malware domination on larger random networks, estimated by sampling
// chase paths (Theorem 4.6 makes path sampling faithful to the semantics).
//
//   $ ./build/examples/virus_monte_carlo [routers] [samples]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/sampler.h"
#include "util/rng.h"

namespace {

constexpr const char* kProgram = R"(
  infected(Y, flip<0.3>[X, Y]) :- infected(X, 1), connected(X, Y).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

// An Erdős–Rényi-ish random symmetric network, deterministic from the seed.
std::string RandomNetwork(int n, double edge_prob, uint64_t seed) {
  gdlog::Rng rng(seed);
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = i + 1; j <= n; ++j) {
      if (rng.NextDouble() < edge_prob) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) + ").\n";
        db += "connected(" + std::to_string(j) + "," + std::to_string(i) + ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  int routers = argc > 1 ? std::atoi(argv[1]) : 12;
  size_t samples = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 2000;

  std::string db = RandomNetwork(routers, 0.3, /*seed=*/2023);
  auto engine = gdlog::GDatalog::Create(kProgram, db);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // Brave marginal of a specific router's infection, estimated on the same
  // walks as domination.
  std::vector<gdlog::GroundAtom> atoms;
  auto atom = engine->ParseGroundAtom("infected(2, 1)");
  if (atom.ok()) atoms.push_back(std::move(*atom));

  gdlog::ChaseOptions options;
  options.max_depth = 10000;
  std::printf("routers=%d edges~0.3, samples=%zu\n", routers, samples);
  auto result = gdlog::EstimateByMonteCarlo(engine->chase(), options, samples,
                                            /*seed=*/42, atoms);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  // Note the flip of perspective vs the exact example: here we report the
  // NOT-dominated probability too.
  std::printf("P(not dominated) ~= %.4f +- %.4f  (truncated walks: %zu)\n",
              result->inconsistent.mean, 2 * result->inconsistent.std_error,
              result->truncated);
  std::printf("P(dominated)     ~= %.4f\n", 1.0 - result->inconsistent.mean);
  if (!atoms.empty()) {
    const gdlog::MonteCarloResult::Estimate& upper = result->marginals[0].upper;
    std::printf("P(infected(2)) ~= %.4f +- %.4f\n", upper.mean,
                2 * upper.std_error);
  }
  return 0;
}
