#include "inputs.h"

#include <algorithm>
#include <set>
#include <utility>

namespace perfbench {

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* const kNetworkProgram = R"(
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
)";

const char* const kQuarantineProgram = R"(
infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y), not quarantined(X).
quarantined(X) :- infected(X, 1), not free(X).
free(X) :- infected(X, 1), not quarantined(X).
uninfected(X) :- router(X), not infected(X, 1).
:- uninfected(X), uninfected(Y), connected(X, Y).
)";

const char* const kDimeQuarterProgram = R"(
dimetail(X, flip<0.5>[X]) :- dime(X).
somedimetail :- dimetail(X, 1).
quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.
)";

namespace {

/// `count` distinct labels in [1, 1000].
std::vector<int> DistinctLabels(size_t count, SeededRng& rng) {
  std::set<int> seen;
  std::vector<int> labels;
  while (labels.size() < count) {
    int label = 1 + static_cast<int>(rng.Below(1000));
    if (seen.insert(label).second) labels.push_back(label);
  }
  return labels;
}

/// Shuffles `lines` (newline-terminated facts) and joins them.
std::string ShuffleLines(std::vector<std::string> lines, SeededRng& rng) {
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.Below(i)]);
  }
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

}  // namespace

NetworkInputs CliqueNetwork(int n, SeededRng& rng) {
  NetworkInputs in;
  in.network.routers = DistinctLabels(static_cast<size_t>(n), rng);
  in.network.start = in.network.routers[rng.Below(in.network.routers.size())];
  std::vector<std::string> facts;
  for (int x : in.network.routers) {
    facts.push_back("router(" + std::to_string(x) + ").\n");
    for (int y : in.network.routers) {
      if (x == y) continue;
      in.network.edges.emplace_back(x, y);
      facts.push_back("connected(" + std::to_string(x) + ", " +
                      std::to_string(y) + ").\n");
    }
  }
  facts.push_back("infected(" + std::to_string(in.network.start) + ", 1).\n");
  in.db = ShuffleLines(std::move(facts), rng);
  return in;
}

std::string DimeQuarterDb(int dimes, SeededRng& rng) {
  std::vector<int> labels = DistinctLabels(static_cast<size_t>(dimes) + 1, rng);
  std::vector<std::string> facts;
  for (int i = 0; i < dimes; ++i) {
    facts.push_back("dime(" + std::to_string(labels[i]) + ").\n");
  }
  facts.push_back("quarter(" + std::to_string(labels.back()) + ").\n");
  return ShuffleLines(std::move(facts), rng);
}

SkewedTree SkewedTreeInputs(SeededRng& rng) {
  constexpr int kBranches = 12;
  std::vector<int> branch = DistinctLabels(kBranches, rng);
  std::vector<int> flip = DistinctLabels(9, rng);
  SkewedTree tree;
  std::string params;
  std::vector<std::string> facts;
  for (int i = 1; i <= kBranches; ++i) {
    int flips = i % 4 == 0 ? 9 : 6;
    if (i > 1) params += ", ";
    params += std::to_string(branch[i - 1]) + ", " +
              std::to_string(1 << flips);
    for (int j = 0; j < flips; ++j) {
      facts.push_back("unlocks(" + std::to_string(branch[i - 1]) + ", " +
                      std::to_string(flip[j]) + ").\n");
    }
  }
  tree.program = "pick(discrete<" + params + ">).\n"
                 "coin(J, flip<0.5>[J]) :- pick(I), unlocks(I, J).\n";
  tree.db = ShuffleLines(std::move(facts), rng);
  return tree;
}

}  // namespace perfbench
