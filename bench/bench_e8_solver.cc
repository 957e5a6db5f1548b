// E8 — Stable-model solver throughput: well-founded fast path on
// stratified ground programs vs branch-and-verify on even negation cycles,
// enumeration cost as the model count grows (2^k models), and the solve of
// every chase leaf of an unstratified program as the chase runs it.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "bench/bench_common.h"
#include "stable/solver.h"
#include "stable/wfs.h"

namespace {

// Parses a ground program (reusing the test helper pattern).
gdlog::GroundRuleSet ParseGroundProgram(const std::string& text,
                                        gdlog::Interner* interner) {
  auto shared = std::shared_ptr<gdlog::Interner>(interner,
                                                 [](gdlog::Interner*) {});
  auto prog = gdlog::ParseProgram(text, shared);
  gdlog::GroundRuleSet out;
  for (const gdlog::Rule& rule : prog->rules()) {
    gdlog::GroundRule gr;
    gr.is_constraint = rule.is_constraint;
    if (!rule.is_constraint) {
      gr.head.predicate = rule.head.predicate;
      for (const gdlog::HeadArg& arg : rule.head.args) {
        gr.head.args.push_back(arg.term().constant());
      }
    }
    for (const gdlog::Literal& lit : rule.body) {
      gdlog::GroundAtom atom;
      atom.predicate = lit.atom.predicate;
      for (const gdlog::Term& t : lit.atom.args) {
        atom.args.push_back(t.constant());
      }
      (lit.negated ? gr.negative : gr.positive).push_back(std::move(atom));
    }
    out.Add(std::move(gr));
  }
  return out;
}

// A stratified chain: a0. a1 :- a0, not z0. a2 :- a1, not z1. ...
std::string StratifiedChain(int n) {
  std::string text = "a0.\n";
  for (int i = 1; i < n; ++i) {
    text += "a" + std::to_string(i) + " :- a" + std::to_string(i - 1) +
            ", not z" + std::to_string(i - 1) + ".\n";
  }
  return text;
}

// k independent even cycles: 2^k stable models.
std::string EvenCycles(int k) {
  std::string text;
  for (int i = 0; i < k; ++i) {
    std::string a = "a" + std::to_string(i), b = "b" + std::to_string(i);
    text += a + " :- not " + b + ".\n" + b + " :- not " + a + ".\n";
  }
  return text;
}

void VerificationTable() {
  std::printf("=== E8: stable-model solver ===\n");
  std::printf("%-22s %-8s %-10s\n", "program", "atoms", "models");
  for (int k : {4, 8, 12}) {
    gdlog::Interner interner;
    auto rules = ParseGroundProgram(EvenCycles(k), &interner);
    auto models = gdlog::AllStableModels(rules);
    std::printf("%-22s %-8zu %-10zu (expect %d)\n",
                ("even-cycles k=" + std::to_string(k)).c_str(),
                rules.size(), models->size(), 1 << k);
  }
  for (int n : {64, 256}) {
    gdlog::Interner interner;
    auto rules = ParseGroundProgram(StratifiedChain(n), &interner);
    auto models = gdlog::AllStableModels(rules);
    std::printf("%-22s %-8zu %-10zu (expect 1)\n",
                ("strat-chain n=" + std::to_string(n)).c_str(), rules.size(),
                models->size());
  }
  std::printf("\n");
}

void BM_Wfs_StratifiedChain(benchmark::State& state) {
  gdlog::Interner interner;
  auto rules =
      ParseGroundProgram(StratifiedChain(static_cast<int>(state.range(0))),
                         &interner);
  gdlog::NormalProgram prog = gdlog::NormalProgram::FromRuleSet(rules);
  for (auto _ : state) {
    auto wfm = gdlog::ComputeWellFounded(prog);
    benchmark::DoNotOptimize(wfm.truth.data());
  }
  state.counters["atoms"] = static_cast<double>(prog.atom_count());
}
BENCHMARK(BM_Wfs_StratifiedChain)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_Enumerate_EvenCycles(benchmark::State& state) {
  gdlog::Interner interner;
  auto rules = ParseGroundProgram(EvenCycles(static_cast<int>(state.range(0))),
                                  &interner);
  gdlog::NormalProgram prog = gdlog::NormalProgram::FromRuleSet(rules);
  size_t models = 0;
  for (auto _ : state) {
    gdlog::StableModelEnumerator solver(prog);
    models = 0;
    auto st = solver.Enumerate([&](const std::vector<uint32_t>&) {
      ++models;
      return true;
    });
    benchmark::DoNotOptimize(st);
  }
  state.counters["models"] = static_cast<double>(models);
  state.counters["models/s"] = benchmark::Counter(
      static_cast<double>(models),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Enumerate_EvenCycles)->Arg(4)->Arg(8)->Arg(12)->Arg(14)
    ->Unit(benchmark::kMillisecond);

void BM_FirstModel_EvenCycles(benchmark::State& state) {
  // HasStableModel short-circuits after one model: near-linear despite the
  // 2^k model space.
  gdlog::Interner interner;
  auto rules = ParseGroundProgram(EvenCycles(static_cast<int>(state.range(0))),
                                  &interner);
  for (auto _ : state) {
    auto has = gdlog::HasStableModel(rules);
    benchmark::DoNotOptimize(*has);
  }
}
BENCHMARK(BM_FirstModel_EvenCycles)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The network program with a quarantined/free even negation loop: not
// stratified, so every chase leaf reaches the general solver (~5.7 models
// per leaf on clique-4).
constexpr const char* kQuarantineProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y), not quarantined(X).
  quarantined(X) :- infected(X, 1), not free(X).
  free(X) :- infected(X, 1), not quarantined(X).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

void BM_SolveOutcome_QuarantineClique4(benchmark::State& state) {
  // Replays ChaseEngine::SolveOutcome over the grounding of every leaf
  // (2,535 outcomes, each re-grounded from its choice set before timing): model-program build, search and model conversion, as
  // the chase pays them per leaf. leaf_time is the time per leaf.
  auto engine = gdlog_bench::MustCreate(kQuarantineProgram,
                                        gdlog_bench::Clique(4));
  gdlog::ChaseOptions options;
  options.num_threads = 1;
  const gdlog::OutcomeSpace space = gdlog_bench::MustInfer(engine, options);
  std::vector<gdlog::GroundRuleSet> groundings(space.outcomes.size());
  for (size_t i = 0; i < space.outcomes.size(); ++i) {
    if (!engine.grounder()
             .Ground(space.outcomes[i].choices, &groundings[i])
             .ok()) {
      state.SkipWithError("Ground failed");
      return;
    }
  }
  size_t models = 0;
  for (auto _ : state) {
    models = 0;
    for (size_t i = 0; i < space.outcomes.size(); ++i) {
      const gdlog::PossibleOutcome& outcome = space.outcomes[i];
      auto solved = engine.chase().SolveOutcome(
          outcome.choices, groundings[i], options.solver_max_nodes);
      if (!solved.ok() || *solved != outcome.models) {
        state.SkipWithError("SolveOutcome disagrees with the chase");
        return;
      }
      models += solved->size();
    }
  }
  const double leaves = static_cast<double>(space.outcomes.size());
  state.counters["leaves"] = leaves;
  state.counters["models/leaf"] = static_cast<double>(models) / leaves;
  state.counters["leaf_time"] = benchmark::Counter(
      leaves, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_SolveOutcome_QuarantineClique4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
