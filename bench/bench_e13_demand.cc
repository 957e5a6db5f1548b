// E13 — the magic-sets demand transformation. A marginal query observes
// only the coin/win subsystem while an irrelevant buzz subsystem (its own
// Active/Result signature: a different event arity than coin's flip) grows
// quadratically in the chatter population. Demand prunes buzz's rules from
// Σ_Π, collapsing the outcome space from 2·2^(n²) to 2; the verification
// table checks the goal marginal is untouched and that demand strictly
// lowers both outcomes and facts derived, and the timings put a number on
// the wall-clock gap.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

using namespace gdlog_bench;

constexpr const char* kDemandProgram = R"(
  win :- coin(1).
  coin(flip<0.5>).
  buzz(X, Y, flip<0.5>[X, Y]) :- chatter(X), chatter(Y).
)";

std::string ChatterDb(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "chatter(" + std::to_string(i) + ").\n";
  return db;
}

gdlog::GDatalog MustCreateDemand(int n) {
  gdlog::GDatalog::Options options;
  options.demand_goals = {"win"};
  auto engine =
      gdlog::GDatalog::Create(kDemandProgram, ChatterDb(n), std::move(options));
  if (!engine.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

/// Total ground atoms across every stable model of every outcome — the
/// "facts derived" the chase had to materialize end to end.
size_t FactsDerived(const gdlog::OutcomeSpace& space) {
  size_t facts = 0;
  for (const auto& outcome : space.outcomes) {
    for (const auto& model : outcome.models) facts += model.size();
  }
  return facts;
}

void VerificationTable() {
  std::printf("=== E13: magic-sets demand for goal marginals ===\n");
  std::printf("%-8s %-16s %-16s %-14s %-14s %-10s\n", "chatter",
              "outcomes(full)", "outcomes(dem)", "facts(full)", "facts(dem)",
              "P(win)");
  for (int n : {1, 2, 3}) {
    auto full = MustCreate(kDemandProgram, ChatterDb(n));
    auto demand = MustCreateDemand(n);
    auto full_space = MustInfer(full);
    auto demand_space = MustInfer(demand);
    size_t full_facts = FactsDerived(full_space);
    size_t demand_facts = FactsDerived(demand_space);

    auto full_atom = full.ParseGroundAtom("win");
    auto demand_atom = demand.ParseGroundAtom("win");
    if (!full_atom.ok() || !demand_atom.ok()) std::abort();
    auto full_bounds = full_space.Marginal(*full_atom);
    auto demand_bounds = demand_space.Marginal(*demand_atom);
    // Demand must preserve the goal marginal exactly and strictly shrink
    // the explored space — this is the bench's correctness gate.
    if (full_bounds.lower.ToString() != demand_bounds.lower.ToString() ||
        full_bounds.upper.ToString() != demand_bounds.upper.ToString()) {
      std::fprintf(stderr, "E13: demand changed the goal marginal\n");
      std::abort();
    }
    if (demand_space.outcomes.size() >= full_space.outcomes.size() ||
        demand_facts >= full_facts) {
      std::fprintf(stderr, "E13: demand failed to prune\n");
      std::abort();
    }
    std::printf("%-8d %-16zu %-16zu %-14zu %-14zu %-10s\n", n,
                full_space.outcomes.size(), demand_space.outcomes.size(),
                full_facts, demand_facts,
                demand_bounds.lower.ToString().c_str());
  }
  std::printf("(demand keeps win's backward closure: 2 outcomes at any n)\n\n");
}

void BM_Demand_Off(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = MustCreate(kDemandProgram, ChatterDb(n));
  size_t facts = 0;
  for (auto _ : state) {
    auto space = MustInfer(engine);
    facts = FactsDerived(space);
    benchmark::DoNotOptimize(space.finite_mass);
  }
  state.counters["facts_derived"] = static_cast<double>(facts);
}
BENCHMARK(BM_Demand_Off)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Demand_On(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = MustCreateDemand(n);
  size_t facts = 0;
  for (auto _ : state) {
    auto space = MustInfer(engine);
    facts = FactsDerived(space);
    benchmark::DoNotOptimize(space.finite_mass);
  }
  state.counters["facts_derived"] = static_cast<double>(facts);
}
BENCHMARK(BM_Demand_On)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
