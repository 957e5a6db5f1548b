// End-to-end reproduction of every worked example in the paper:
//  * the fair-coin program of §3 (possible outcomes, event probabilities),
//  * the network-resilience program (Examples 1.1/3.1/3.6/3.10,
//    P(dominated) = 0.19 on the 3-router clique),
//  * the dime/quarter stratified program of Appendix E (perfect grounding).
#include <gtest/gtest.h>

#include "gdatalog/engine.h"
#include "gdatalog/compare.h"

namespace gdlog {
namespace {

// ---------------------------------------------------------------------------
// §3: the fair-coin program Π_coin.
//
//   → Coin(Flip⟨0.5⟩)        Coin(1), ¬Aux1 → Aux2
//   Coin(0) → ⊥              Coin(1), ¬Aux2 → Aux1
// ---------------------------------------------------------------------------
constexpr const char* kCoinProgram = R"(
  coin(flip<0.5>).
  :- coin(0).
  aux2 :- coin(1), not aux1.
  aux1 :- coin(1), not aux2.
)";

TEST(CoinExample, TwoOutcomesHalfEach) {
  auto engine = GDatalog::Create(kCoinProgram, "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Π_coin is not stratified (aux1/aux2 cycle through negation): the engine
  // must auto-select the simple grounder.
  EXPECT_FALSE(engine->stratified());
  EXPECT_EQ(engine->grounder().name(), "simple");

  auto space = engine->Infer();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_TRUE(space->complete);
  ASSERT_EQ(space->outcomes.size(), 2u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));

  // One outcome (flip = 0) has no stable model; the other (flip = 1) has
  // exactly two: {Aux1, Coin(1), ...} and {Aux2, Coin(1), ...}.
  int empty_outcomes = 0;
  for (const PossibleOutcome& outcome : space->outcomes) {
    EXPECT_EQ(outcome.prob, Prob(Rational(1, 2)));
    if (outcome.models.empty()) {
      ++empty_outcomes;
    } else {
      EXPECT_EQ(outcome.models.size(), 2u);
    }
  }
  EXPECT_EQ(empty_outcomes, 1);

  // P(Π has some stable model) = 1/2.
  EXPECT_EQ(space->ProbConsistent(), Prob(Rational(1, 2)));
  EXPECT_EQ(space->ProbInconsistent(), Prob(Rational(1, 2)));
}

TEST(CoinExample, EventsGroupBySmsSets) {
  auto engine = GDatalog::Create(kCoinProgram, "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  auto events = space->Events();
  // Two events: the empty stable-model set (mass 1/2) and the two-model set
  // (mass 1/2).
  ASSERT_EQ(events.size(), 2u);
  for (const auto& [models, mass] : events) {
    EXPECT_EQ(mass, Prob(Rational(1, 2)));
    EXPECT_TRUE(models.empty() || models.size() == 2);
  }
}

TEST(CoinExample, AddingCoinOneConstraintMergesEvents) {
  // §3 remarks that adding "Coin(1) → ⊥" makes both configurations lead to
  // the same (empty) set of stable models — but they remain *different*
  // possible outcomes, distinguished by their recorded choices.
  std::string program = std::string(kCoinProgram) + "\n:- coin(1).\n";
  auto engine = GDatalog::Create(program, "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  ASSERT_EQ(space->outcomes.size(), 2u);
  for (const PossibleOutcome& outcome : space->outcomes) {
    EXPECT_TRUE(outcome.models.empty());
  }
  auto events = space->Events();
  ASSERT_EQ(events.size(), 1u);  // both outcomes in the same event
  EXPECT_EQ(events.begin()->second, Prob::FromDouble(1.0));
  EXPECT_EQ(space->ProbInconsistent(), Prob::FromDouble(1.0));
}

// ---------------------------------------------------------------------------
// Examples 1.1 / 3.1 / 3.6 / 3.10: network resilience.
// ---------------------------------------------------------------------------
constexpr const char* kNetworkProgram = R"(
  % Malware spreads over links with success rate 10%.
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
  % A router that is not infected is uninfected.
  uninfected(X) :- router(X), not infected(X, 1).
  % Domination fails when two uninfected routers are connected.
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

std::string CliqueDatabase(int n, int infected) {
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
  db += "infected(" + std::to_string(infected) + ", 1).\n";
  return db;
}

TEST(NetworkResilience, DominationProbabilityIsExactly19Percent) {
  // Example 3.10: on the fully connected 3-router network with router 1
  // infected, the malware dominates with probability 1 - 0.9² = 0.19.
  auto engine = GDatalog::Create(kNetworkProgram, CliqueDatabase(3, 1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine->stratified());
  EXPECT_EQ(engine->grounder().name(), "perfect");

  auto space = engine->Infer();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));

  // Domination <=> the program has NO stable model is wrong reading: the
  // constraint kills outcomes where two uninfected routers are connected,
  // i.e. non-dominated networks have no stable model. Dominated networks
  // keep theirs. P(dominated) = P(some stable model) = 0.19.
  EXPECT_EQ(space->ProbConsistent(), Prob(Rational(19, 100)));
  EXPECT_EQ(space->ProbInconsistent(), Prob(Rational(81, 100)));
}

TEST(NetworkResilience, ExampleThreeSixOutcome) {
  // Example 3.6/3.10 singles out the outcome where both flips are 0: it has
  // no stable model and probability 0.9² = 81/100.
  auto engine = GDatalog::Create(kNetworkProgram, CliqueDatabase(3, 1));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer(ChaseOptions{});
  ASSERT_TRUE(space.ok());

  int both_zero = 0;
  for (const PossibleOutcome& outcome : space->outcomes) {
    bool all_zero = true;
    for (const auto& [active, value] : outcome.choices.entries()) {
      if (!(value == Value::Int(0))) all_zero = false;
    }
    if (all_zero && outcome.choices.size() == 2) {
      ++both_zero;
      EXPECT_EQ(outcome.prob, Prob(Rational(81, 100)));
      EXPECT_TRUE(outcome.models.empty());
      GroundRuleSet grounding;
      ASSERT_TRUE(engine->grounder().Ground(outcome.choices, &grounding).ok());
      EXPECT_GT(grounding.size(), 0u);
    }
  }
  EXPECT_EQ(both_zero, 1);
}

TEST(NetworkResilience, SimpleAndPerfectGroundersAgreeOnEventMasses) {
  // Theorem 5.3 specialized: the perfect semantics is as good as the simple
  // one; on this program both are complete, so the event masses coincide.
  GDatalog::Options simple_options;
  simple_options.grounder = GrounderKind::kSimple;
  auto simple_engine = GDatalog::Create(kNetworkProgram, CliqueDatabase(3, 1),
                                        std::move(simple_options));
  ASSERT_TRUE(simple_engine.ok());
  GDatalog::Options perfect_options;
  perfect_options.grounder = GrounderKind::kPerfect;
  auto perfect_engine = GDatalog::Create(kNetworkProgram, CliqueDatabase(3, 1),
                                         std::move(perfect_options));
  ASSERT_TRUE(perfect_engine.ok());

  auto simple_space = simple_engine->Infer();
  ASSERT_TRUE(simple_space.ok()) << simple_space.status().ToString();
  auto perfect_space = perfect_engine->Infer();
  ASSERT_TRUE(perfect_space.ok()) << perfect_space.status().ToString();

  EXPECT_EQ(simple_space->ProbConsistent(), Prob(Rational(19, 100)));
  EXPECT_EQ(perfect_space->ProbConsistent(), Prob(Rational(19, 100)));

  auto cmp = IsAsGoodAs(*perfect_space, *simple_space);
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_TRUE(cmp->as_good) << cmp->violation;
}

TEST(NetworkResilience, MarginalOfInfectionIsExact) {
  auto engine = GDatalog::Create(kNetworkProgram, CliqueDatabase(3, 1));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  auto atom = engine->ParseGroundAtom("infected(2, 1)");
  ASSERT_TRUE(atom.ok()) << atom.status().ToString();
  // Infection cascades: router 2 is infected either directly from router 1
  // (0.1) or via router 3 (0.9 · 0.1 · 0.1), so P(infected(2,1)) =
  // 0.1 + 0.009 = 109/1000. Every outcome infecting router 2 is dominated
  // (at most one uninfected router remains), so the same mass survives the
  // consistency filter.
  OutcomeSpace::Bounds bounds = space->Marginal(*atom);
  EXPECT_EQ(bounds.lower, Prob(Rational(109, 1000)));
  EXPECT_EQ(bounds.upper, Prob(Rational(109, 1000)));

  // Conditioned on domination (= consistency): (109/1000) / (19/100).
  auto conditioned =
      space->MarginalGivenConsistent(*atom, space->ProbConsistent());
  ASSERT_TRUE(conditioned.has_value());
  EXPECT_EQ(conditioned->lower, Prob(Rational(109, 190)));
}

// ---------------------------------------------------------------------------
// Appendix E: dimes and quarters with stratified negation (Figure 1).
// ---------------------------------------------------------------------------
constexpr const char* kDimeQuarterProgram = R"(
  dimetail(X, flip<0.5>[X]) :- dime(X).
  somedimetail :- dimetail(X, 1).
  quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.
)";

constexpr const char* kDimeQuarterDb = "dime(1). dime(2). quarter(3).";

TEST(DimeQuarter, PerfectGroundingEnumeratesExactOutcomes) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine->stratified());
  EXPECT_EQ(engine->grounder().name(), "perfect");

  auto space = engine->Infer();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));

  // Outcomes: 3 with some dime tail (choices over the two dimes: 11,10,01)
  // — the quarter is never tossed — plus 2 where both dimes are heads and
  // the quarter is tossed (00+q0, 00+q1). Total 5.
  EXPECT_EQ(space->outcomes.size(), 5u);

  int two_choice_outcomes = 0;
  int three_choice_outcomes = 0;
  for (const PossibleOutcome& outcome : space->outcomes) {
    // Stratified programs: every outcome has exactly one stable model
    // (Lemma E.1 / Proposition 5.2).
    EXPECT_EQ(outcome.models.size(), 1u);
    if (outcome.choices.size() == 2) {
      ++two_choice_outcomes;
      EXPECT_EQ(outcome.prob, Prob(Rational(1, 4)));
    } else {
      ASSERT_EQ(outcome.choices.size(), 3u);
      ++three_choice_outcomes;
      EXPECT_EQ(outcome.prob, Prob(Rational(1, 8)));
    }
  }
  EXPECT_EQ(two_choice_outcomes, 3);
  EXPECT_EQ(three_choice_outcomes, 2);

  // P(quarter shows tail) = P(no dime tail) * 1/2 = 1/8.
  auto atom = engine->ParseGroundAtom("quartertail(3, 1)");
  ASSERT_TRUE(atom.ok());
  OutcomeSpace::Bounds bounds = space->Marginal(*atom);
  EXPECT_EQ(bounds.lower, Prob(Rational(1, 8)));
  EXPECT_EQ(bounds.upper, Prob(Rational(1, 8)));
}

TEST(DimeQuarter, SimpleGrounderWastesMassOnSuperfluousQuarterChoices) {
  // §5's motivation: the simple grounder grounds the quarter rule even when
  // a dime shows tail (it ignores negation while grounding), forcing a
  // choice for the quarter in every outcome. The event masses — and hence
  // every probability — are unchanged (the perfect semantics is as good
  // as, and here equal to, the simple one on finite-outcome events), but
  // outcome granularity differs: 4 * 2 = 8 outcomes instead of 5.
  GDatalog::Options options;
  options.grounder = GrounderKind::kSimple;
  auto engine =
      GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb, std::move(options));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 8u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));

  auto atom = engine->ParseGroundAtom("quartertail(3, 1)");
  ASSERT_TRUE(atom.ok());
  OutcomeSpace::Bounds bounds = space->Marginal(*atom);
  EXPECT_EQ(bounds.lower, Prob(Rational(1, 8)));
}

TEST(DimeQuarter, PerfectIsAsGoodAsSimple) {
  GDatalog::Options simple_opts;
  simple_opts.grounder = GrounderKind::kSimple;
  auto simple_engine =
      GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb, std::move(simple_opts));
  ASSERT_TRUE(simple_engine.ok());
  GDatalog::Options perfect_opts;
  perfect_opts.grounder = GrounderKind::kPerfect;
  auto perfect_engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb,
                                         std::move(perfect_opts));
  ASSERT_TRUE(perfect_engine.ok());

  auto simple_space = simple_engine->Infer();
  ASSERT_TRUE(simple_space.ok());
  auto perfect_space = perfect_engine->Infer();
  ASSERT_TRUE(perfect_space.ok());

  // Theorem 5.3: Π_GPerfect(D) is as good as Π_G(D) for any grounder G.
  auto cmp = IsAsGoodAs(*perfect_space, *simple_space);
  ASSERT_TRUE(cmp.ok());
  EXPECT_TRUE(cmp->as_good) << cmp->violation;
}

}  // namespace
}  // namespace gdlog
