// GDatalog facade tests: construction errors, grounder selection, custom
// distribution registries, outcome-space query APIs, and conditioning.
#include <gtest/gtest.h>

#include "gdatalog/engine.h"

namespace gdlog {
namespace {

TEST(Engine, ParseErrorsPropagate) {
  auto engine = GDatalog::Create("p(X :- q(X).", "");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kParseError);
}

TEST(Engine, DatabaseParseErrorsPropagate) {
  auto engine = GDatalog::Create("p(X) :- q(X).", "q(X) :- r(X).");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, UnsafeProgramRejected) {
  auto engine = GDatalog::Create("p(Y) :- q(X).", "");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnsafeProgram);
}

TEST(Engine, UnknownDistributionRejected) {
  auto engine = GDatalog::Create("p(zipf<1.5>) :- q.", "");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(Engine, PerfectGrounderOnNonStratifiedFails) {
  GDatalog::Options options;
  options.grounder = GrounderKind::kPerfect;
  auto engine =
      GDatalog::Create("a :- not b. b :- not a.", "", std::move(options));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotStratified);
}

TEST(Engine, AutoSelectsSimpleForNonStratified) {
  auto engine = GDatalog::Create("a :- not b. b :- not a.", "");
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->stratified());
  EXPECT_EQ(engine->grounder().name(), "simple");
}

TEST(Engine, AutoSelectsPerfectForStratified) {
  auto engine = GDatalog::Create("a(X) :- b(X), not c(X).", "b(1).");
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->stratified());
  EXPECT_EQ(engine->grounder().name(), "perfect");
}

TEST(Engine, PlainDatalogProgramsWork) {
  // No Δ-terms at all: one outcome with probability 1, one stable model —
  // the engine doubles as an ordinary Datalog¬ evaluator.
  auto engine = GDatalog::Create(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
      "unreachable(X, Y) :- node(X), node(Y), not path(X, Y).",
      "node(1). node(2). node(3). edge(1, 2). edge(2, 3).");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  ASSERT_EQ(space->outcomes.size(), 1u);
  EXPECT_EQ(space->outcomes[0].prob, Prob::FromDouble(1.0));
  ASSERT_EQ(space->outcomes[0].models.size(), 1u);
  auto path13 = engine->ParseGroundAtom("path(1, 3)");
  ASSERT_TRUE(path13.ok());
  EXPECT_EQ(space->Marginal(*path13).lower, Prob::FromDouble(1.0));
  auto un31 = engine->ParseGroundAtom("unreachable(3, 1)");
  ASSERT_TRUE(un31.ok());
  EXPECT_EQ(space->Marginal(*un31).lower, Prob::FromDouble(1.0));
  auto un13 = engine->ParseGroundAtom("unreachable(1, 3)");
  EXPECT_EQ(space->Marginal(*un13).upper, Prob::Zero());
}

TEST(Engine, EmptyProgramEmptyDatabase) {
  auto engine = GDatalog::Create("", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  ASSERT_EQ(space->outcomes.size(), 1u);  // the empty outcome
  EXPECT_TRUE(space->outcomes[0].choices.empty());
  ASSERT_EQ(space->outcomes[0].models.size(), 1u);
  EXPECT_TRUE(space->outcomes[0].models.begin()->empty());
}

TEST(Engine, CustomRegistry) {
  // A registry without `flip` must reject flip programs.
  auto registry = std::make_unique<DistributionRegistry>();
  GDatalog::Options options;
  options.registry = std::move(registry);
  auto engine = GDatalog::Create("c(flip<0.5>).", "", std::move(options));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(Engine, ParseGroundAtomValidation) {
  auto engine = GDatalog::Create("p(X) :- q(X).", "q(1).");
  ASSERT_TRUE(engine.ok());
  auto good = engine->ParseGroundAtom("p(1)");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->args[0], Value::Int(1));
  EXPECT_FALSE(engine->ParseGroundAtom("p(X)").ok());
  EXPECT_FALSE(engine->ParseGroundAtom("p(1) :- q(1)").ok());
  EXPECT_FALSE(engine->ParseGroundAtom("").ok());
  // Trailing dot optional.
  EXPECT_TRUE(engine->ParseGroundAtom("p(2).").ok());
}

TEST(Engine, MarginalGivenConsistentUndefinedWhenInconsistent) {
  // Every outcome violates the constraint: P(consistent) = 0.
  auto engine = GDatalog::Create("p(1). :- p(1).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->ProbConsistent(), Prob::Zero());
  auto atom = engine->ParseGroundAtom("p(1)");
  EXPECT_FALSE(space->MarginalGivenConsistent(*atom, space->ProbConsistent())
                   .has_value());
}

TEST(Engine, StripAuxiliaryRemovesActiveAndResult) {
  auto engine = GDatalog::Create("c(flip<0.5>).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  for (const PossibleOutcome& outcome : space->outcomes) {
    for (const StableModel& model : outcome.models) {
      StableModel stripped =
          OutcomeSpace::StripAuxiliary(model, engine->translated());
      // Exactly the user-visible coin atom remains.
      ASSERT_EQ(stripped.size(), 1u);
      EXPECT_EQ(engine->program().interner()->Name(stripped[0].predicate),
                "c");
      EXPECT_LT(stripped.size(), model.size());
    }
  }
}

TEST(Engine, MultipleDeltaTermsInSameHead) {
  auto engine = GDatalog::Create("pair(flip<0.5>[l], flip<0.5>[r]).", "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  // 2x2 outcomes, each 1/4.
  ASSERT_EQ(space->outcomes.size(), 4u);
  for (const PossibleOutcome& o : space->outcomes) {
    EXPECT_EQ(o.prob, Prob(Rational(1, 4)));
    EXPECT_EQ(o.choices.size(), 2u);
  }
}

TEST(Engine, VariableDistributionParameters) {
  // The bias arrives from the database — Δ-term parameters are terms.
  auto engine = GDatalog::Create("t(X, flip<P>[X]) :- bias(X, P).",
                                 "bias(1, 0.25). bias(2, 0.75).");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  ASSERT_EQ(space->outcomes.size(), 4u);
  auto t11 = engine->ParseGroundAtom("t(1, 1)");
  EXPECT_EQ(space->Marginal(*t11).lower, Prob(Rational(1, 4)));
  auto t21 = engine->ParseGroundAtom("t(2, 1)");
  EXPECT_EQ(space->Marginal(*t21).lower, Prob(Rational(3, 4)));
}

TEST(Engine, EventSignatureSharingCollapsesSamples) {
  // Same Δ-term event signature ⇒ one shared sample: two rules referencing
  // flip<0.5>[X] with the same X draw the *same* coin.
  auto engine = GDatalog::Create(
      "a(X, flip<0.5>[X]) :- item(X).\n"
      "b(X, flip<0.5>[X]) :- item(X).",
      "item(1).");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  // One Active atom only — not two: outcomes are 2, not 4.
  ASSERT_EQ(space->outcomes.size(), 2u);
  // And a(1,v), b(1,v) always agree.
  uint32_t a_pred = engine->program().interner()->Lookup("a");
  uint32_t b_pred = engine->program().interner()->Lookup("b");
  for (const PossibleOutcome& o : space->outcomes) {
    ASSERT_EQ(o.models.size(), 1u);
    const StableModel& m = *o.models.begin();
    StableModel stripped = OutcomeSpace::StripAuxiliary(m, engine->translated());
    ASSERT_EQ(stripped.size(), 3u);  // a(1,v), b(1,v), item(1)
    Value a_value, b_value;
    for (const GroundAtom& atom : stripped) {
      if (atom.predicate == a_pred) a_value = atom.args[1];
      if (atom.predicate == b_pred) b_value = atom.args[1];
    }
    EXPECT_EQ(a_value, b_value);
  }
}

TEST(Engine, DistinctEventSignaturesStayIndependent) {
  auto engine = GDatalog::Create(
      "a(X, flip<0.5>[X, left]) :- item(X).\n"
      "b(X, flip<0.5>[X, right]) :- item(X).",
      "item(1).");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->outcomes.size(), 4u);  // independent coins
}

}  // namespace
}  // namespace gdlog
