// Self-test of the benchmark's own helpers: order statistics, span self
// time, the brute-force network oracle and the seeded generator.
//
//   cmake --build .bench_build --target perfbench_test
//   ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestPercentile() {
  using perfbench::Percentile;
  ExpectNear(Percentile({4, 1, 3, 2}, 0.5), 2.5, "median of 1..4");
  ExpectNear(Percentile({4, 1, 3, 2}, 0.0), 1, "p0");
  ExpectNear(Percentile({4, 1, 3, 2}, 1.0), 4, "p100");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.99), 99.01, "p99 of 1..100");
  ExpectNear(Percentile({}, 0.5), 0, "empty sample");
  ExpectNear(perfbench::Median({7}), 7, "median of one");
}

// Cut points taken from Python's statistics.quantiles(values, n=4).
void TestQuartiles() {
  using perfbench::Quartiles;
  auto expect = [](std::vector<double> values, std::array<double, 3> want,
                   const char* what) {
    std::array<double, 3> got = Quartiles(values);
    for (int i = 0; i < 3; ++i) ExpectNear(got[i], want[i], what);
  };
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25}, "1..10");
  expect({1, 2}, {0.75, 1.5, 2.25}, "two values extrapolate");
  expect({5, 1, 4, 2, 3}, {1.5, 3.0, 4.5}, "unsorted five");
  expect({3, 1, 2}, {1, 2, 3}, "three values");
  ExpectNear(perfbench::RelativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             (8.25 - 2.75) / 5.5, "relative spread");
  ExpectNear(perfbench::RelativeSpread({0, 0, 0}), 0, "zero median");
}

void TestSupportedQuantile() {
  using perfbench::HighestSupportedQuantile;
  ExpectNear(HighestSupportedQuantile(1000), 0.99, "1000 samples");
  ExpectNear(HighestSupportedQuantile(200), 0.95, "200 samples");
  ExpectNear(HighestSupportedQuantile(100), 0.90, "100 samples");
  ExpectNear(HighestSupportedQuantile(99), 0.0, "99 samples");
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {1, 0, 1, "root", 0, 100},
      // Overlapping children are counted once: [10, 50) covers 40.
      {2, 1, 1, "child", 10, 30},
      {3, 1, 1, "child", 20, 50},
      {4, 1, 1, "child", 60, 70},
      // A child running past its parent only covers the parent's part.
      {5, 1, 1, "late", 90, 120},
      // A grandchild is charged to its parent, not to the root.
      {6, 4, 1, "grandchild", 62, 68},
      // An unknown parent makes a root.
      {7, 99, 2, "orphan", 0, 5},
  };
  std::vector<uint64_t> self = perfbench::SelfTimesNs(spans);
  Expect(self[0] == 100 - 40 - 10 - 10, "root self time");
  Expect(self[1] == 20 && self[2] == 30, "leaf self time is duration");
  Expect(self[3] == 10 - 6, "parent of a grandchild");
  Expect(self[6] == 5, "orphan self time");

  auto summary = perfbench::Summarize(spans);
  ExpectNear(summary["child"].total_ms, 60e-6, "summed durations");
  Expect(summary["child"].durations_ms.size() == 3, "per-name samples");
}

void TestScopedSpan() {
  perfbench::Tracer tracer;
  uint64_t parent_id = 0;
  {
    perfbench::ScopedSpan parent(&tracer, "parent", 0, tracer.NewRequest());
    parent_id = parent.id();
    perfbench::ScopedSpan child(&tracer, "child", parent.id(),
                                parent.request());
    uint64_t first = child.End();
    Expect(child.End() == first, "End is idempotent");
  }
  std::vector<perfbench::Span> spans = tracer.Snapshot();
  Expect(spans.size() == 2, "two spans recorded");
  Expect(spans[0].name == "child" && spans[0].parent == parent_id &&
             spans[0].request == spans[1].request,
         "child links to parent and shares its request");
  perfbench::ScopedSpan untraced(nullptr, "x");
  Expect(untraced.id() == 0, "an untraced span has no id");
}

perfbench::Network Clique(int n) {
  perfbench::Network network;
  for (int i = 1; i <= n; ++i) network.routers.push_back(i);
  for (int x = 1; x <= n; ++x) {
    for (int y = 1; y <= n; ++y) {
      if (x != y) network.edges.emplace_back(x, y);
    }
  }
  network.start = 1;
  return network;
}

// The reference values the chase workloads check against: the paper's
// 19/100 on clique-3, and 2535 outcomes with P = 7417/100000 on clique-4
// (both also reproduced by an independent enumeration with Python's
// fractions module).
void TestBruteForce() {
  perfbench::NetworkReference three =
      perfbench::BruteForceNetwork(Clique(3), 1, 10);
  Expect(three.prob_consistent == "19/100", "clique-3 P = " +
                                                three.prob_consistent);
  Expect(three.num_outcomes == 37, "clique-3 outcomes");
  perfbench::NetworkReference four =
      perfbench::BruteForceNetwork(Clique(4), 1, 10);
  Expect(four.prob_consistent == "7417/100000",
         "clique-4 P = " + four.prob_consistent);
  Expect(four.num_outcomes == 2535, "clique-4 outcomes");

  // Two routers: the first flip is always drawn, the second only once it
  // fired; no edge ever joins two uninfected routers.
  perfbench::NetworkReference two =
      perfbench::BruteForceNetwork(Clique(2), 1, 10);
  Expect(two.num_outcomes == 3 && two.prob_consistent == "1",
         "two-router network");

  // Labels do not matter.
  perfbench::Network relabeled = Clique(4);
  for (auto& [x, y] : relabeled.edges) {
    x = x * 37 + 5;
    y = y * 37 + 5;
  }
  relabeled.start = 42;
  perfbench::NetworkReference same =
      perfbench::BruteForceNetwork(relabeled, 1, 10);
  Expect(same.num_outcomes == 2535 && same.prob_consistent == "7417/100000",
         "relabelled clique-4");
}

void TestGenerator() {
  perfbench::SeededRng a(7), b(7), c(8);
  perfbench::NetworkInputs x = perfbench::CliqueNetwork(4, a);
  perfbench::NetworkInputs y = perfbench::CliqueNetwork(4, b);
  perfbench::NetworkInputs z = perfbench::CliqueNetwork(4, c);
  Expect(x.db == y.db, "same seed, same database");
  Expect(x.db != z.db, "another seed, another database");
  Expect(x.network.edges.size() == 12, "clique-4 has 12 edges");
  perfbench::NetworkReference ref =
      perfbench::BruteForceNetwork(z.network, 1, 10);
  Expect(ref.prob_consistent == "7417/100000",
         "a generated clique-4 keeps the reference value");
  for (int i = 0; i < 1000; ++i) {
    uint64_t seed = a.ShuffleSeed();
    Expect(seed >= 1 && seed < (1ull << 31), "shuffle seed range");
  }
}

}  // namespace

int main() {
  TestPercentile();
  TestQuartiles();
  TestSupportedQuantile();
  TestSelfTime();
  TestScopedSpan();
  TestBruteForce();
  TestGenerator();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
