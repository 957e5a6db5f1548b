// Chase-tree exploration (§4): order independence (Lemma 4.4), outcome
// bijection (Lemma 4.5 / Theorem 4.6), budgets and the error event Ω∞,
// BCKOV agreement on positive programs (Theorem C.4), and the Monte-Carlo
// sampler against exact inference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <set>

#include "ast/parser.h"
#include "dist/distribution.h"
#include "gdatalog/bckov.h"
#include "gdatalog/compare.h"
#include "gdatalog/engine.h"
#include "gdatalog/sampler.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

std::string Clique(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + ", " + std::to_string(j) +
              ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  return db;
}

// ---------------------------------------------------------------------------
// Lemma 4.4 / Theorem 4.6: trigger order does not matter.
// ---------------------------------------------------------------------------

class TriggerOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriggerOrderTest, OutcomeSpaceIndependentOfTriggerOrder) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());

  ChaseOptions canonical;
  auto base = engine->Infer(canonical);
  ASSERT_TRUE(base.ok());

  ChaseOptions shuffled;
  shuffled.trigger_shuffle_seed = GetParam();
  auto other = engine->Infer(shuffled);
  ASSERT_TRUE(other.ok());

  // Identical sets of possible outcomes (choices + probability), though
  // possibly enumerated in different orders.
  ASSERT_EQ(base->outcomes.size(), other->outcomes.size());
  std::map<ChoiceSet, Prob> base_map, other_map;
  for (const PossibleOutcome& o : base->outcomes) {
    base_map.emplace(o.choices, o.prob);
  }
  for (const PossibleOutcome& o : other->outcomes) {
    other_map.emplace(o.choices, o.prob);
  }
  EXPECT_EQ(base_map.size(), other_map.size());
  for (const auto& [choices, prob] : base_map) {
    auto it = other_map.find(choices);
    ASSERT_NE(it, other_map.end());
    EXPECT_EQ(it->second, prob);
  }
  EXPECT_EQ(base->finite_mass, other->finite_mass);
  EXPECT_EQ(base->ProbConsistent(), other->ProbConsistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriggerOrderTest,
                         ::testing::Values(1, 2, 3, 17, 99, 31337));

// ---------------------------------------------------------------------------
// Outcome structure invariants
// ---------------------------------------------------------------------------

TEST(ChaseInvariants, OutcomesAreDistinctAndMinimal) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  // Lemma 4.5: outcomes are in bijection with finite maximal paths; choice
  // sets are pairwise distinct and ⊆-incomparable (terminal minimality).
  for (size_t i = 0; i < space->outcomes.size(); ++i) {
    for (size_t j = i + 1; j < space->outcomes.size(); ++j) {
      const ChoiceSet& a = space->outcomes[i].choices;
      const ChoiceSet& b = space->outcomes[j].choices;
      EXPECT_FALSE(a == b);
      EXPECT_FALSE(a.SubsetOf(b));
      EXPECT_FALSE(b.SubsetOf(a));
    }
  }
}

TEST(ChaseInvariants, ProbabilitiesMatchChoiceProducts) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  const DistributionRegistry& registry = engine->registry();
  const Distribution* flip = registry.Lookup("flip");
  for (const PossibleOutcome& outcome : space->outcomes) {
    Prob product = Prob::One();
    for (const auto& [active, value] : outcome.choices.entries()) {
      std::vector<Value> params = {active.args[0]};
      product = product * flip->Pmf(params, value);
    }
    EXPECT_EQ(product, outcome.prob);
  }
}

TEST(ChaseInvariants, FiniteMassSumsToOneWhenComplete) {
  for (int n : {2, 3, 4}) {
    auto engine = GDatalog::Create(kNetworkProgram, Clique(n));
    ASSERT_TRUE(engine.ok());
    auto space = engine->Infer();
    ASSERT_TRUE(space.ok());
    EXPECT_TRUE(space->complete);
    EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0)) << "n=" << n;
    EXPECT_EQ(space->residual_mass(), Prob::Zero());
  }
}

TEST(ChaseInvariants, EventMassesSumToFiniteMass) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  Prob total = Prob::Zero();
  for (const auto& [models, mass] : space->Events()) {
    total = total + mass;
  }
  EXPECT_EQ(total, space->finite_mass);
}

TEST(ChaseInvariants, MarginalBoundsAreOrderedAndBounded) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  for (const char* atom_text :
       {"infected(2, 1)", "infected(3, 1)", "uninfected(2)", "router(1)"}) {
    auto atom = engine->ParseGroundAtom(atom_text);
    ASSERT_TRUE(atom.ok());
    OutcomeSpace::Bounds b = space->Marginal(*atom);
    EXPECT_LE(b.lower.value(), b.upper.value() + 1e-15) << atom_text;
    EXPECT_GE(b.lower.value(), 0.0);
    EXPECT_LE(b.upper.value(), 1.0);
  }
}

// ---------------------------------------------------------------------------
// Budgets and the error event
// ---------------------------------------------------------------------------

TEST(ChaseBudgets, GeometricSupportTruncationFeedsResidual) {
  // A single geometric sample: countably infinite support. With support
  // truncated at 8, residual mass = (1/2)^8.
  auto engine = GDatalog::Create("n(geometric<0.5>).", "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.support_limit = 8;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 8u);
  EXPECT_EQ(space->support_truncation_mass, Prob(Rational(1, 256)));
  EXPECT_EQ(space->residual_mass(), Prob(Rational(1, 256)));
}

TEST(ChaseBudgets, NonTerminatingChaseHitsDepthBudget) {
  // A value-inventing loop: each positive sample triggers another sample.
  // P(terminating) = Σ (1/2)^k telescopes to 1, but individual paths can
  // run arbitrarily deep; with max_depth = 5 the tail goes to the residual.
  const char* program = R"(
    count(0, flip<0.5>).
    count(N1, flip<0.5>[N1]) :- succ(N, N1), count(N, 1).
  )";
  std::string db;
  for (int i = 0; i < 50; ++i) {
    db += "succ(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  auto engine = GDatalog::Create(program, db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.max_depth = 5;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_GT(space->depth_truncated_paths, 0u);
  // Terminated outcomes: runs ending in a 0 within depth 5.
  EXPECT_EQ(space->outcomes.size(), 5u);
  EXPECT_EQ(space->finite_mass,
            Prob(Rational(1, 2)) + Prob(Rational(1, 4)) +
                Prob(Rational(1, 8)) + Prob(Rational(1, 16)) +
                Prob(Rational(1, 32)));
}

TEST(ChaseBudgets, MaxOutcomesStopsEnumeration) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.max_outcomes = 3;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  EXPECT_FALSE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 3u);
  EXPECT_LT(space->finite_mass.value(), 1.0);
}

TEST(ChaseBudgets, MinPathProbPrunesDeepTails) {
  auto engine = GDatalog::Create("n(geometric<0.5>).", "");
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.min_path_prob = 0.05;  // prunes nothing here (leaf probs = path)
  options.support_limit = 64;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  // Outcomes with probability < 0.05: (1/2)^k < 0.05 for k >= 5. Those
  // paths are pruned.
  EXPECT_FALSE(space->complete);
  EXPECT_GE(space->pruned_paths, 1u);
  for (const PossibleOutcome& o : space->outcomes) {
    EXPECT_GE(o.prob.value(), 0.05);
  }
}

TEST(ChaseBudgets, CompleteSpaceRejectsNothing) {
  auto engine = GDatalog::Create("n(uniformint<1, 6>).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 6u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));
}

// ---------------------------------------------------------------------------
// Theorem C.4: BCKOV agreement on positive programs.
// ---------------------------------------------------------------------------

class BckovAgreementTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(BckovAgreementTest, SimpleGrounderSpaceIsomorphicToBckov) {
  auto [program_text, db_text] = GetParam();

  GDatalog::Options options;
  options.grounder = GrounderKind::kSimple;
  auto engine = GDatalog::Create(program_text, db_text, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions chase_options;
  auto space = engine->Infer(chase_options);
  ASSERT_TRUE(space.ok());
  ASSERT_TRUE(space->complete);

  auto prog = ParseProgram(program_text);
  ASSERT_TRUE(prog.ok());
  auto db = ParseFacts(db_text, prog->interner());
  ASSERT_TRUE(db.ok());
  auto bckov =
      BckovEngine::Create(*prog, &*db, &engine->registry());
  ASSERT_TRUE(bckov.ok()) << bckov.status().ToString();
  auto bckov_space = bckov->Explore(1u << 20, 4096, 64);
  ASSERT_TRUE(bckov_space.ok());
  ASSERT_TRUE(bckov_space->complete);

  // |Ω| matches, total masses match.
  ASSERT_EQ(space->outcomes.size(), bckov_space->outcomes.size());
  EXPECT_EQ(space->finite_mass, bckov_space->finite_mass);

  // The bijection f: each of our outcomes has exactly one stable model
  // (Lemma C.5); its Result atoms (the model "modulo active", restricted
  // to Result predicates) determine the matching BCKOV outcome with equal
  // probability (Lemma C.6 / Theorem C.4).
  // NOTE: interners differ between the two engines, so compare via
  // rendered strings of Result atoms.
  std::multiset<std::pair<std::string, std::string>> ours, theirs;
  auto render_results = [](const std::vector<GroundAtom>& atoms,
                           const TranslatedProgram& tp,
                           const Interner* interner) {
    std::string out;
    std::vector<std::string> parts;
    for (const GroundAtom& a : atoms) {
      if (tp.IsResultPredicate(a.predicate)) {
        parts.push_back(a.ToString(interner));
      }
    }
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) out += p + ";";
    return out;
  };

  for (const PossibleOutcome& o : space->outcomes) {
    ASSERT_EQ(o.models.size(), 1u);
    std::vector<GroundAtom> model(o.models.begin()->begin(),
                                  o.models.begin()->end());
    ours.emplace(render_results(model, engine->translated(),
                                engine->program().interner()),
                 o.prob.ToString());
  }
  for (const BckovEngine::Outcome& o : bckov_space->outcomes) {
    theirs.emplace(render_results(o.instance, bckov->translated(),
                                  prog->interner()),
                   o.prob.ToString());
  }
  EXPECT_EQ(ours, theirs);
}

INSTANTIATE_TEST_SUITE_P(
    PositivePrograms, BckovAgreementTest,
    ::testing::Values(
        std::make_pair("coin(flip<0.5>).", ""),
        std::make_pair("virus(Y, flip<0.3>[X, Y]) :- virus(X, 1), link(X, Y).",
                       "virus(1, 1). link(1, 2). link(2, 3)."),
        std::make_pair("roll(P, uniformint<1, 4>[P]) :- player(P).",
                       "player(1). player(2)."),
        std::make_pair(
            "pick(X, flip<0.2>[X]) :- item(X).\n"
            "chosen(X) :- pick(X, 1).\n"
            "bonus(X, flip<0.5>[X]) :- chosen(X).",
            "item(1). item(2).")));

// ---------------------------------------------------------------------------
// Monte-Carlo sampler vs exact inference
// ---------------------------------------------------------------------------

TEST(Sampler, ConvergesToExactDominationProbability) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto est = EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 20000,
                                  /*seed=*/7);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est->samples, 20000u);
  EXPECT_EQ(est->truncated, 0u);
  EXPECT_NEAR(est->consistent.mean, 0.19, 5 * est->consistent.std_error + 1e-9);
  EXPECT_NEAR(est->consistent.mean, 0.19, 0.02);
  EXPECT_TRUE(est->marginals.empty());
}

TEST(Sampler, MarginalEstimatesMatchExact) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto atom = engine->ParseGroundAtom("infected(2, 1)");
  ASSERT_TRUE(atom.ok());
  auto est = EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 20000, 11,
                                  {*atom});
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->marginals.size(), 1u);
  EXPECT_NEAR(est->marginals[0].upper.mean, 0.109, 0.02);
  EXPECT_NEAR(est->marginals[0].lower.mean, 0.109, 0.02);
}

TEST(Sampler, SamplePathProbabilityMatchesChoices) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    auto sample = engine->chase().SamplePath(&rng, ChaseOptions{});
    ASSERT_TRUE(sample.ok());
    EXPECT_FALSE(sample->truncated);
    EXPECT_GE(sample->choices.size(), 2u);
    EXPECT_GT(sample->prob.value(), 0.0);
  }
}

// Depth-capped counter: with continue-probability 0.9 and a depth cap of 3,
// most walks truncate.
constexpr const char* kCounterProgram = R"(
  count(0, flip<0.9>).
  count(N1, flip<0.9>[N1]) :- succ(N, N1), count(N, 1).
)";

std::string CounterDb() {
  std::string db;
  for (int i = 0; i < 100; ++i) {
    db += "succ(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  return db;
}

TEST(Sampler, TruncatedWalksAreReported) {
  auto engine = GDatalog::Create(kCounterProgram, CounterDb());
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.max_depth = 3;
  auto est = EstimateByMonteCarlo(engine->chase(), options, 500, 3);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->truncated, 250u);
  EXPECT_EQ(est->samples + est->truncated, 500u);
}

TEST(Sampler, DeterministicGivenSeed) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  auto a = EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 200, 42);
  auto b = EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 200, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->consistent.mean, b->consistent.mean);
}

// The estimator the one pass replaced: a fresh Rng(seed) and n walks for
// each statistic, averaging `f` with a running sum and sum of squares (a
// truncated walk counts 0).
struct ReferenceEstimate {
  double mean = 0.0;
  double std_error = 0.0;
  size_t samples = 0;
  size_t truncated = 0;
};

ReferenceEstimate EstimatePerStatistic(
    const ChaseEngine& chase, const ChaseOptions& options, size_t n,
    uint64_t seed,
    const std::function<double(const ChaseEngine::PathSample&)>& f) {
  Rng rng(seed);
  ReferenceEstimate est;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    auto sample = chase.SamplePath(&rng, options);
    EXPECT_TRUE(sample.ok());
    if (!sample.ok()) return est;
    double value = 0.0;
    if (sample->truncated) {
      ++est.truncated;
    } else {
      ++est.samples;
      value = f(*sample);
    }
    sum += value;
    sum_sq += value * value;
  }
  if (n > 0) {
    est.mean = sum / static_cast<double>(n);
    if (n > 1) {
      double var = (sum_sq - sum * sum / static_cast<double>(n)) /
                   static_cast<double>(n - 1);
      est.std_error = std::sqrt(std::max(0.0, var) / static_cast<double>(n));
    }
  }
  return est;
}

void ExpectSame(const ReferenceEstimate& want, const MonteCarloResult& result,
                const MonteCarloResult::Estimate& got, const char* what) {
  EXPECT_EQ(got.mean, want.mean) << what;
  EXPECT_EQ(got.std_error, want.std_error) << what;
  EXPECT_EQ(result.samples, want.samples) << what;
  EXPECT_EQ(result.truncated, want.truncated) << what;
}

// One pass reports, to the bit, what one pass per statistic reported:
// P(consistent), P(inconsistent) and both bounds of every atom, on a
// stratified program, an unstratified one (brave and cautious differ) and
// a program whose walks truncate.
TEST(Sampler, OnePassMatchesOnePassPerStatistic) {
  constexpr const char* kQuarantineProgram = R"(
    infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y),
                                    not quarantined(X).
    quarantined(X) :- infected(X, 1), not free(X).
    free(X) :- infected(X, 1), not quarantined(X).
    uninfected(X) :- router(X), not infected(X, 1).
    :- uninfected(X), uninfected(Y), connected(X, Y).
  )";
  ChaseOptions capped;
  capped.max_depth = 3;
  struct Case {
    const char* program;
    std::string db;
    ChaseOptions options;
    std::vector<std::string> queries;
    uint64_t seed;
  };
  const std::vector<Case> cases = {
      {kNetworkProgram, Clique(3), ChaseOptions{},
       {"infected(2, 1)", "infected(3, 1)", "uninfected(2)"}, 7},
      {kQuarantineProgram, Clique(3), ChaseOptions{},
       {"infected(2, 1)", "quarantined(1)", "free(1)"}, 11},
      {kCounterProgram, CounterDb(), capped, {"count(1, 1)", "count(2, 1)"},
       3},
  };
  constexpr size_t kWalks = 600;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.program);
    auto engine = GDatalog::Create(c.program, c.db);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<GroundAtom> atoms;
    for (const std::string& query : c.queries) {
      auto atom = engine->ParseGroundAtom(query);
      ASSERT_TRUE(atom.ok()) << query;
      atoms.push_back(*atom);
    }
    auto result = EstimateByMonteCarlo(engine->chase(), c.options, kWalks,
                                       c.seed, atoms);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->marginals.size(), atoms.size());
    // The capped counter does truncate, so the truncated count is pinned.
    if (c.program == kCounterProgram) {
      EXPECT_GT(result->truncated, 0u);
    }
    const ChaseEngine& chase = engine->chase();
    ExpectSame(EstimatePerStatistic(chase, c.options, kWalks, c.seed,
                                    [](const ChaseEngine::PathSample& s) {
                                      return s.models.empty() ? 0.0 : 1.0;
                                    }),
               *result, result->consistent, "P(consistent)");
    ExpectSame(EstimatePerStatistic(chase, c.options, kWalks, c.seed,
                                    [](const ChaseEngine::PathSample& s) {
                                      return s.models.empty() ? 1.0 : 0.0;
                                    }),
               *result, result->inconsistent, "P(inconsistent)");
    for (size_t a = 0; a < atoms.size(); ++a) {
      const GroundAtom& atom = atoms[a];
      auto upper = [&](const ChaseEngine::PathSample& s) {
        for (const StableModel& model : s.models) {
          if (std::binary_search(model.begin(), model.end(), atom)) return 1.0;
        }
        return 0.0;
      };
      auto lower = [&](const ChaseEngine::PathSample& s) {
        if (s.models.empty()) return 0.0;
        for (const StableModel& model : s.models) {
          if (!std::binary_search(model.begin(), model.end(), atom)) {
            return 0.0;
          }
        }
        return 1.0;
      };
      ExpectSame(EstimatePerStatistic(chase, c.options, kWalks, c.seed, lower),
                 *result, result->marginals[a].lower, c.queries[a].c_str());
      ExpectSame(EstimatePerStatistic(chase, c.options, kWalks, c.seed, upper),
                 *result, result->marginals[a].upper, c.queries[a].c_str());
    }
  }
}

// flip under another name that counts its Sample() calls: one per trigger
// a walk resolves, so the count measures how many walks a pass makes.
class CountingFlip : public Distribution {
 public:
  explicit CountingFlip(std::atomic<size_t>* calls) : calls_(calls) {}
  std::string_view name() const override { return "cflip"; }
  bool AcceptsDim(size_t dim) const override { return flip().AcceptsDim(dim); }
  Prob Pmf(const std::vector<Value>& params,
           const Value& outcome) const override {
    return flip().Pmf(params, outcome);
  }
  bool HasFiniteSupport(const std::vector<Value>& params) const override {
    return flip().HasFiniteSupport(params);
  }
  std::vector<Value> Support(const std::vector<Value>& params,
                             size_t limit) const override {
    return flip().Support(params, limit);
  }
  Value Sample(const std::vector<Value>& params, Rng* rng) const override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return flip().Sample(params, rng);
  }

 private:
  const Distribution& flip() const { return *builtins_.Lookup("flip"); }

  DistributionRegistry builtins_ = DistributionRegistry::Builtins();
  std::atomic<size_t>* calls_;
};

TEST(Sampler, WalksEachPathOnceWhateverItAsks) {
  std::atomic<size_t> calls{0};
  GDatalog::Options options;
  options.registry = std::make_unique<DistributionRegistry>(
      DistributionRegistry::Builtins());
  ASSERT_TRUE(
      options.registry->Register(std::make_unique<CountingFlip>(&calls)).ok());
  auto engine = GDatalog::Create(R"(
    infected(Y, cflip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
    uninfected(X) :- router(X), not infected(X, 1).
    :- uninfected(X), uninfected(Y), connected(X, Y).
  )",
                                 Clique(3), std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<GroundAtom> atoms;
  for (const char* query :
       {"infected(2, 1)", "infected(3, 1)", "uninfected(2)"}) {
    auto atom = engine->ParseGroundAtom(query);
    ASSERT_TRUE(atom.ok()) << query;
    atoms.push_back(*atom);
  }

  calls = 0;
  auto none = EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 300, 5);
  ASSERT_TRUE(none.ok());
  const size_t calls_without_queries = calls.load();
  calls = 0;
  auto three =
      EstimateByMonteCarlo(engine->chase(), ChaseOptions{}, 300, 5, atoms);
  ASSERT_TRUE(three.ok());
  EXPECT_GT(calls_without_queries, 0u);
  EXPECT_EQ(calls.load(), calls_without_queries);
  EXPECT_EQ(three->consistent.mean, none->consistent.mean);
}

}  // namespace
}  // namespace gdlog
