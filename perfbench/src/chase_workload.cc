// chase-strat and chase-unstrat: exact inference on the network program
// over a 4-router clique, called in a closed loop by one caller.
#include <array>
#include <optional>
#include <thread>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "inputs.h"
#include "process.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kChaseThreads = 4;
constexpr size_t kCallers = 4;

/// The summary document (`gdlog_cli --json` without outcomes or events).
std::string SummaryJson(const gdlog::GDatalog& engine,
                        const gdlog::OutcomeSpace& space) {
  gdlog::JsonExportOptions options;
  options.include_outcomes = false;
  options.include_events = false;
  return gdlog::OutcomeSpaceToJson(space, engine.translated(),
                                   engine.program().interner(), options);
}

/// Checks an exact space against the brute-force oracle.
void CheckAgainstReference(const gdlog::OutcomeSpace& space,
                           const NetworkReference& ref, const char* what,
                           Result* result) {
  std::string prob = space.ProbConsistent().rational().ToString();
  result->Check(space.complete && space.outcomes.size() == ref.num_outcomes &&
                    prob == ref.prob_consistent,
                std::string(what) + ": " +
                    std::to_string(space.outcomes.size()) + " outcomes, P=" +
                    prob + "; reference " + std::to_string(ref.num_outcomes) +
                    ", P=" + ref.prob_consistent);
}

struct Loop {
  Samples primary;    ///< Infer at kChaseThreads threads, one caller.
  Samples secondary;  ///< Infer at one thread, kCallers callers at once.
  uint64_t ops = 0;
  double elapsed_s = 0;

  void Append(const Loop& other) {
    primary.ms.insert(primary.ms.end(), other.primary.ms.begin(),
                      other.primary.ms.end());
    secondary.ms.insert(secondary.ms.end(), other.secondary.ms.begin(),
                        other.secondary.ms.end());
  }
};

/// Closed loop in alternating phases, every call under a fresh
/// trigger-shuffle seed: one caller runs Infer at kChaseThreads threads
/// twice; then kCallers callers each run Infer at one thread at once, the way
/// gdlogd (one chase thread per query, four HTTP threads) serves
/// concurrent cold queries. Lemma 4.4 makes every result equal to the
/// canonical-order space, outcome by outcome and model by model, with a
/// byte-identical summary document.
Loop RunLoop(const gdlog::GDatalog& engine,
             const gdlog::OutcomeSpace& reference,
             const std::string& reference_summary, double seconds,
             SeededRng& rng, Tracer* tracer, Result* result) {
  Loop loop;
  // Runs one call; safe to run from several threads at once.
  auto infer = [&](size_t threads, uint64_t shuffle_seed, uint64_t* ns) {
    gdlog::ChaseOptions options;
    options.num_threads = threads;
    options.trigger_shuffle_seed = shuffle_seed;
    ScopedSpan span(tracer,
                    threads == 1 ? "gdatalog.GDatalog.Infer.threads1"
                                 : "gdatalog.GDatalog.Infer.threads4",
                    0, tracer != nullptr ? tracer->NewRequest() : 0);
    auto space = engine.Infer(options);
    *ns = span.End();
    return space.ok() && SameOutcomeSpace(*space, reference) &&
           SummaryJson(engine, *space) == reference_summary;
  };
  auto check = [&](bool ok, uint64_t shuffle_seed) {
    result->Check(ok, "Infer under shuffle seed " +
                          std::to_string(shuffle_seed) +
                          " differs from the canonical-order space");
  };
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < stop; ++i) {
    if (i % 3 != 2) {
      const uint64_t seed = rng.ShuffleSeed();
      uint64_t ns = 0;
      check(infer(kChaseThreads, seed, &ns), seed);
      loop.primary.Add(ns);
      ++loop.ops;
      continue;
    }
    std::array<uint64_t, kCallers> seeds{}, ns{};
    std::array<bool, kCallers> ok{};
    for (uint64_t& seed : seeds) seed = rng.ShuffleSeed();
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { ok[c] = infer(1, seeds[c], &ns[c]); });
    }
    for (std::thread& caller : callers) caller.join();
    for (size_t c = 0; c < kCallers; ++c) {
      check(ok[c], seeds[c]);
      loop.secondary.Add(ns[c]);
      ++loop.ops;
    }
  }
  loop.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return loop;
}

}  // namespace

bool SameOutcomeSpace(const gdlog::OutcomeSpace& a,
                      const gdlog::OutcomeSpace& b) {
  if (a.complete != b.complete || !(a.finite_mass == b.finite_mass) ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const gdlog::PossibleOutcome& x = a.outcomes[i];
    const gdlog::PossibleOutcome& y = b.outcomes[i];
    if (!(x.choices == y.choices) || !(x.prob == y.prob) ||
        x.models != y.models) {
      return false;
    }
  }
  return true;
}

Result RunChaseWorkload(const Config& config, bool quarantine) {
  Result result;
  SeededRng rng(config.seed * 8 + (quarantine ? 2 : 1));
  const char* program = quarantine ? kQuarantineProgram : kNetworkProgram;

  // The paper's headline: clique-3 gives 19/100, from the oracle and from
  // the engine.
  NetworkInputs small = CliqueNetwork(3, rng);
  NetworkReference small_ref = BruteForceNetwork(small.network, 1, 10);
  result.Check(small_ref.prob_consistent == "19/100",
               "oracle gives P=" + small_ref.prob_consistent +
                   " on clique-3, not 19/100");
  {
    auto engine = gdlog::GDatalog::Create(program, small.db);
    auto space = engine.ok() ? engine->Infer() : engine.status();
    result.Check(space.ok(), "clique-3 inference failed");
    if (space.ok()) {
      CheckAgainstReference(*space, small_ref, "clique-3", &result);
    }
  }

  NetworkInputs in = CliqueNetwork(4, rng);
  NetworkReference ref = BruteForceNetwork(in.network, 1, 10);

  // Set-up: engine construction plus the first (warm-up) inference, which
  // finishes every lazily built structure. Done nine times; the last
  // engine is kept.
  std::vector<double> setup_s;
  std::optional<gdlog::GDatalog> engine;
  std::optional<gdlog::OutcomeSpace> reference;
  std::string reference_summary;
  constexpr int kSetups = 9;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    auto created = gdlog::GDatalog::Create(program, in.db);
    if (!created.ok()) {
      result.Check(false, "Create failed: " + created.status().ToString());
      return result;
    }
    gdlog::ChaseOptions options;
    options.num_threads = kChaseThreads;
    auto space = created->Infer(options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!space.ok()) {
      result.Check(false, "Infer failed: " + space.status().ToString());
      return result;
    }
    if (i == kSetups - 1) {
      CheckAgainstReference(*space, ref, "clique-4", &result);
      reference_summary = SummaryJson(*created, *space);
      reference.emplace(std::move(*space));
      engine.emplace(std::move(*created));
    }
  }

  if (!config.trace) {
    Loop loop = RunLoop(*engine, *reference, reference_summary,
                        config.seconds, rng, nullptr, &result);
    PrintSamples("infer threads=4", loop.primary);
    PrintSamples("infer threads=1 x4", loop.secondary);
    AddEndToEnd(&result, setup_s, loop.primary, loop.secondary, loop.ops,
                loop.elapsed_s, SelfPeakRssMb());
    return result;
  }

  Tracer tracer;
  Loop plain, traced;
  for (bool on : kAbbaTraced) {
    Loop part = RunLoop(*engine, *reference, reference_summary,
                        config.seconds / 4, rng, on ? &tracer : nullptr,
                        &result);
    (on ? traced : plain).Append(part);
  }
  result.Add("perfbench.trace.overhead_ms",
             Median(traced.primary.ms) - Median(plain.primary.ms), "ms");
  RunLayerProbes(program, in.db, config.seed, LayerOverrides{}, &tracer,
                 &result);
  WriteSpans(tracer, config);
  return result;
}

}  // namespace perfbench
