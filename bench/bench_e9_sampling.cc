// E9 — Monte-Carlo convergence: the sampler's estimate of P(dominated)
// converges to the exact 19/100 at the 1/√n rate, and scales to networks
// far beyond exact enumeration. Reports estimate ± stderr per sample count
// and times samples/second.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_common.h"
#include "gdatalog/sampler.h"

namespace {

using namespace gdlog_bench;

void VerificationTable() {
  std::printf("=== E9: Monte-Carlo convergence (exact P = 0.19) ===\n");
  auto engine = MustCreate(kNetworkProgram, Clique(3));
  std::printf("%-10s %-12s %-12s %-10s\n", "samples", "estimate", "stderr",
              "|err|/se");
  for (size_t n : {100u, 1000u, 10000u}) {
    auto result = gdlog::EstimateByMonteCarlo(
        engine.chase(), gdlog::ChaseOptions{}, n, /*seed=*/2023);
    if (!result.ok()) continue;
    const gdlog::MonteCarloResult::Estimate& est = result->consistent;
    double err = std::fabs(est.mean - 0.19);
    std::printf("%-10zu %-12.5f %-12.5f %-10.2f\n", n, est.mean,
                est.std_error, est.std_error > 0 ? err / est.std_error : 0);
  }

  std::printf("\nlarger networks (exact enumeration infeasible):\n");
  std::printf("%-10s %-14s %-12s\n", "routers", "P(dominated)", "stderr");
  for (int n : {8, 12, 16}) {
    auto big = MustCreate(NetworkProgram(0.3), RandomNetwork(n, 0.3, 99));
    gdlog::ChaseOptions options;
    options.max_depth = 100000;
    auto result = gdlog::EstimateByMonteCarlo(big.chase(), options, 500, 7);
    if (result.ok()) {
      std::printf("%-10d %-14.4f %-12.4f\n", n, result->consistent.mean,
                  result->consistent.std_error);
    }
  }
  std::printf("\n");
}

void BM_SamplePath_Clique3(benchmark::State& state) {
  auto engine = MustCreate(kNetworkProgram, Clique(3));
  gdlog::Rng rng(1);
  gdlog::ChaseOptions options;
  for (auto _ : state) {
    auto sample = engine.chase().SamplePath(&rng, options);
    benchmark::DoNotOptimize(sample->prob);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplePath_Clique3);

void BM_SamplePath_RandomNetwork(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = MustCreate(NetworkProgram(0.3), RandomNetwork(n, 0.3, 99));
  gdlog::Rng rng(1);
  gdlog::ChaseOptions options;
  options.max_depth = 100000;
  for (auto _ : state) {
    auto sample = engine.chase().SamplePath(&rng, options);
    benchmark::DoNotOptimize(sample->prob);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplePath_RandomNetwork)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SamplePath_NoModels(benchmark::State& state) {
  // Skipping stable-model computation isolates chase-walk cost.
  auto engine = MustCreate(kNetworkProgram, Clique(3));
  gdlog::Rng rng(1);
  gdlog::ChaseOptions options;
  options.compute_models = false;
  for (auto _ : state) {
    auto sample = engine.chase().SamplePath(&rng, options);
    benchmark::DoNotOptimize(sample->prob);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplePath_NoModels);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
