// Π → Σ_Π translation (§3) and grounder unit tests (Definitions 3.4, 5.1),
// including the worked grounding of Examples 3.2/3.6 and Appendix E.
#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "gdatalog/grounder.h"
#include "gdatalog/translation.h"

namespace gdlog {
namespace {

class TranslationTest : public ::testing::Test {
 protected:
  DistributionRegistry registry_ = DistributionRegistry::Builtins();

  Result<TranslatedProgram> Translate(const std::string& text) {
    auto prog = ParseProgram(text);
    if (!prog.ok()) return prog.status();
    GDLOG_RETURN_IF_ERROR(prog->Validate());
    program_ = std::move(prog).value();
    return TranslateToTgd(program_, registry_);
  }

  Program program_;
};

TEST_F(TranslationTest, PlainRulesPassThrough) {
  auto tp = Translate("p(X) :- q(X), not r(X).");
  ASSERT_TRUE(tp.ok()) << tp.status().ToString();
  ASSERT_EQ(tp->sigma().rules().size(), 1u);
  EXPECT_EQ(tp->sigma().rules()[0], program_.rules()[0]);
  EXPECT_TRUE(tp->signatures().empty());
}

TEST_F(TranslationTest, DeltaRuleSplitsIntoActiveAndHeadRules) {
  // Example 3.2: the infection rule becomes an Active rule and a
  // Result-joined head rule.
  auto tp = Translate(
      "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).");
  ASSERT_TRUE(tp.ok()) << tp.status().ToString();
  ASSERT_EQ(tp->sigma().rules().size(), 2u);
  ASSERT_EQ(tp->signatures().size(), 1u);
  const DeltaSignature& sig = tp->signatures()[0];
  EXPECT_EQ(sig.param_count, 1u);
  EXPECT_EQ(sig.event_count, 2u);
  EXPECT_TRUE(tp->IsActivePredicate(sig.active_pred));
  EXPECT_TRUE(tp->IsResultPredicate(sig.result_pred));
  EXPECT_EQ(tp->SignatureByActive(sig.active_pred), &sig);
  EXPECT_EQ(tp->SignatureByResult(sig.result_pred), &sig);

  // Rule 0: body → Active(0.1, X, Y) — arity |p̄| + |q̄| = 3.
  const Rule& active_rule = tp->sigma().rules()[0];
  EXPECT_EQ(active_rule.head.predicate, sig.active_pred);
  EXPECT_EQ(active_rule.head.arity(), 3u);
  EXPECT_EQ(active_rule.body.size(), 2u);

  // Rule 1: Result(0.1, X, Y, Z), body → infected(Y, Z).
  const Rule& head_rule = tp->sigma().rules()[1];
  EXPECT_EQ(head_rule.body.size(), 3u);
  EXPECT_EQ(head_rule.body[0].atom.predicate, sig.result_pred);
  EXPECT_EQ(head_rule.body[0].atom.arity(), 4u);
  EXPECT_TRUE(head_rule.head.IsPlain());
}

TEST_F(TranslationTest, MultipleDeltaTermsInOneHead) {
  auto tp = Translate("pair(flip<0.5>[l], flip<0.5>[r]) :- go.");
  ASSERT_TRUE(tp.ok()) << tp.status().ToString();
  // Two Active rules + one head rule; one shared signature (same dist, same
  // param and event dimensions).
  ASSERT_EQ(tp->sigma().rules().size(), 3u);
  EXPECT_EQ(tp->signatures().size(), 1u);
  const Rule& head_rule = tp->sigma().rules()[2];
  EXPECT_EQ(head_rule.body.size(), 3u);  // two Result atoms + go
}

TEST_F(TranslationTest, DistinctSignaturesPerEventArity) {
  auto tp = Translate(
      "a(flip<0.5>) :- go.\n"
      "b(flip<0.5>[X]) :- item(X).");
  ASSERT_TRUE(tp.ok());
  EXPECT_EQ(tp->signatures().size(), 2u);
}

TEST_F(TranslationTest, UnknownDistributionFails) {
  auto tp = Translate("a(gauss<0.5>) :- go.");
  ASSERT_FALSE(tp.ok());
  EXPECT_EQ(tp.status().code(), StatusCode::kNotFound);
}

TEST_F(TranslationTest, WrongParamDimensionFails) {
  auto tp = Translate("a(flip<0.5, 0.5>) :- go.");
  ASSERT_FALSE(tp.ok());
  EXPECT_EQ(tp.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TranslationTest, OriginTracksSourceRules) {
  auto tp = Translate(
      "p(X) :- q(X).\n"
      "r(flip<0.5>[X]) :- q(X).");
  ASSERT_TRUE(tp.ok());
  ASSERT_EQ(tp->origin().size(), 3u);
  EXPECT_EQ(tp->origin()[0], 0u);  // plain rule
  EXPECT_EQ(tp->origin()[1], 1u);  // Active rule from rule 1
  EXPECT_EQ(tp->origin()[2], 1u);  // head rule from rule 1
}

TEST_F(TranslationTest, ConstraintsPassThrough) {
  auto tp = Translate("p(1). :- p(X), not q(X).");
  ASSERT_TRUE(tp.ok()) << tp.status().ToString();
  ASSERT_EQ(tp->sigma().rules().size(), 2u);
  EXPECT_TRUE(tp->sigma().rules()[1].is_constraint);
}

// ---------------------------------------------------------------------------
// Simple grounder (Definition 3.4; Example 3.6)
// ---------------------------------------------------------------------------

class GrounderTest : public ::testing::Test {
 protected:
  // Builds program + database + translation; returns the interner.
  void Setup(const std::string& program_text, const std::string& db_text) {
    auto prog = ParseProgram(program_text);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    program_ = std::move(prog).value();
    ASSERT_TRUE(program_.Validate().ok());
    auto db = ParseFacts(db_text, program_.interner());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto tp = TranslateToTgd(program_, registry_);
    ASSERT_TRUE(tp.ok()) << tp.status().ToString();
    translated_ = std::move(tp).value();
  }

  GroundAtom MakeActive(size_t sig_index, Tuple args) {
    return GroundAtom{translated_.signatures()[sig_index].active_pred,
                      std::move(args)};
  }

  DistributionRegistry registry_ = DistributionRegistry::Builtins();
  Program program_;
  FactStore db_;
  TranslatedProgram translated_;
};

constexpr const char* kNetworkProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

constexpr const char* kNetworkDb = R"(
  router(1). router(2). router(3).
  connected(1, 2). connected(2, 1).
  connected(1, 3). connected(3, 1).
  connected(2, 3). connected(3, 2).
  infected(1, 1).
)";

TEST_F(GrounderTest, SimpleGrounderOnEmptyChoices) {
  // Example 3.6: GSimple(∅) contains the two Active rules for (1,2), (1,3)
  // and the ground uninfected/constraint rules for all routers.
  Setup(kNetworkProgram, kNetworkDb);
  SimpleGrounder grounder(&translated_, DatabasePrefix::Of(db_));
  GroundRuleSet out;
  ASSERT_TRUE(grounder.Ground(ChoiceSet(), &out).ok());

  uint32_t active = translated_.signatures()[0].active_pred;
  EXPECT_EQ(out.heads().Count(active), 2u);  // Active(0.1,1,2), (0.1,1,3)

  uint32_t uninfected = program_.interner()->Lookup("uninfected");
  // The simple grounder ignores negation while grounding: uninfected(i)
  // rules appear for every router.
  EXPECT_EQ(out.heads().Count(uninfected), 3u);

  std::vector<GroundAtom> triggers =
      FindTriggers(translated_, out, ChoiceSet());
  ASSERT_EQ(triggers.size(), 2u);
  EXPECT_EQ(triggers[0].args,
            (Tuple{Value::Double(0.1), Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(triggers[1].args,
            (Tuple{Value::Double(0.1), Value::Int(1), Value::Int(3)}));
}

TEST_F(GrounderTest, SimpleGrounderExtendsWithChoices) {
  // Example 3.6 continued: choices {(1,2)→0, (1,3)→0} close the chase —
  // no new triggers, and the grounding includes the Infected(i, 0) rules.
  Setup(kNetworkProgram, kNetworkDb);
  SimpleGrounder grounder(&translated_, DatabasePrefix::Of(db_));
  ChoiceSet choices;
  choices.Assign(
      MakeActive(0, {Value::Double(0.1), Value::Int(1), Value::Int(2)}),
      Value::Int(0));
  choices.Assign(
      MakeActive(0, {Value::Double(0.1), Value::Int(1), Value::Int(3)}),
      Value::Int(0));
  GroundRuleSet out;
  ASSERT_TRUE(grounder.Ground(choices, &out).ok());
  EXPECT_TRUE(FindTriggers(translated_, out, choices).empty());

  uint32_t infected = program_.interner()->Lookup("infected");
  EXPECT_TRUE(out.heads().Contains(infected, {Value::Int(2), Value::Int(0)}));
  EXPECT_TRUE(out.heads().Contains(infected, {Value::Int(3), Value::Int(0)}));
}

TEST_F(GrounderTest, SimpleGrounderCascadesOnPositiveChoice) {
  // Choosing 1 for (1,2) infects router 2 and spawns actives (2,1), (2,3).
  Setup(kNetworkProgram, kNetworkDb);
  SimpleGrounder grounder(&translated_, DatabasePrefix::Of(db_));
  ChoiceSet choices;
  choices.Assign(
      MakeActive(0, {Value::Double(0.1), Value::Int(1), Value::Int(2)}),
      Value::Int(1));
  GroundRuleSet out;
  ASSERT_TRUE(grounder.Ground(choices, &out).ok());
  std::vector<GroundAtom> triggers = FindTriggers(translated_, out, choices);
  // Unresolved: (1,3) plus the new (2,1), (2,3).
  EXPECT_EQ(triggers.size(), 3u);
}

TEST_F(GrounderTest, GroundingIsMonotoneInChoices) {
  // Definition 3.3 requires grounders to be monotone: more choices ⇒ a
  // superset grounding.
  Setup(kNetworkProgram, kNetworkDb);
  SimpleGrounder grounder(&translated_, DatabasePrefix::Of(db_));
  ChoiceSet small;
  small.Assign(
      MakeActive(0, {Value::Double(0.1), Value::Int(1), Value::Int(2)}),
      Value::Int(1));
  ChoiceSet big = small;
  big.Assign(
      MakeActive(0, {Value::Double(0.1), Value::Int(1), Value::Int(3)}),
      Value::Int(0));

  GroundRuleSet small_out, big_out;
  ASSERT_TRUE(grounder.Ground(small, &small_out).ok());
  ASSERT_TRUE(grounder.Ground(big, &big_out).ok());
  for (const GroundRule* rule : small_out.rules()) {
    EXPECT_TRUE(big_out.Contains(*rule))
        << "lost rule: " << rule->ToString(program_.interner());
  }
}

// ---------------------------------------------------------------------------
// Perfect grounder (Definition 5.1; Appendix E)
// ---------------------------------------------------------------------------

constexpr const char* kDimeQuarter = R"(
  dimetail(X, flip<0.5>[X]) :- dime(X).
  somedimetail :- dimetail(X, 1).
  quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.
)";

constexpr const char* kDimeQuarterDb = "dime(1). dime(2). quarter(3).";

TEST_F(GrounderTest, PerfectGrounderRequiresStratification) {
  Setup("a :- not b. b :- not a.", "");
  auto grounder = PerfectGrounder::Create(program_, &translated_,
                                          DatabasePrefix::Of(db_));
  ASSERT_FALSE(grounder.ok());
  EXPECT_EQ(grounder.status().code(), StatusCode::kNotStratified);
}

TEST_F(GrounderTest, PerfectGrounderStallsUntilChoicesArrive) {
  // With no choices, only the dime stratum is grounded: the quarter rule
  // (later stratum) must wait for the dime flips (Definition 5.1's
  // compatibility condition).
  Setup(kDimeQuarter, kDimeQuarterDb);
  auto grounder = PerfectGrounder::Create(program_, &translated_,
                                          DatabasePrefix::Of(db_));
  ASSERT_TRUE(grounder.ok()) << grounder.status().ToString();

  GroundRuleSet out;
  ASSERT_TRUE((*grounder)->Ground(ChoiceSet(), &out).ok());
  std::vector<GroundAtom> triggers =
      FindTriggers(translated_, out, ChoiceSet());
  ASSERT_EQ(triggers.size(), 2u);  // the two dime flips only
  EXPECT_EQ(triggers[0].args, (Tuple{Value::Double(0.5), Value::Int(1)}));
  EXPECT_EQ(triggers[1].args, (Tuple{Value::Double(0.5), Value::Int(2)}));
  // The quarter predicate is grounded nowhere yet.
  uint32_t quartertail = program_.interner()->Lookup("quartertail");
  EXPECT_EQ(out.heads().Count(quartertail), 0u);
}

TEST_F(GrounderTest, PerfectGrounderAppendixETailCase) {
  // Appendix E, first case: dime 1 tails, dime 2 heads ⇒ somedimetail is
  // derived and the quarter rule is *not* grounded (its negative body
  // hits heads).
  Setup(kDimeQuarter, kDimeQuarterDb);
  auto grounder = PerfectGrounder::Create(program_, &translated_,
                                          DatabasePrefix::Of(db_));
  ASSERT_TRUE(grounder.ok());

  // Both signatures share (flip, 1 param, 1 event) — one Active predicate.
  ASSERT_EQ(translated_.signatures().size(), 1u);
  ChoiceSet choices;
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(1)}),
                 Value::Int(1));
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(2)}),
                 Value::Int(0));

  GroundRuleSet out;
  ASSERT_TRUE((*grounder)->Ground(choices, &out).ok());
  EXPECT_TRUE(FindTriggers(translated_, out, choices).empty());

  uint32_t somedimetail = program_.interner()->Lookup("somedimetail");
  uint32_t quartertail = program_.interner()->Lookup("quartertail");
  EXPECT_EQ(out.heads().Count(somedimetail), 1u);
  EXPECT_EQ(out.heads().Count(quartertail), 0u);
  // No Active atom for the quarter either.
  uint32_t active = translated_.signatures()[0].active_pred;
  EXPECT_EQ(out.heads().Count(active), 2u);
}

TEST_F(GrounderTest, PerfectGrounderAppendixEHeadsCase) {
  // Appendix E, second case: both dimes heads ⇒ the quarter's Active atom
  // appears and becomes the next trigger.
  Setup(kDimeQuarter, kDimeQuarterDb);
  auto grounder = PerfectGrounder::Create(program_, &translated_,
                                          DatabasePrefix::Of(db_));
  ASSERT_TRUE(grounder.ok());
  ChoiceSet choices;
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(1)}),
                 Value::Int(0));
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(2)}),
                 Value::Int(0));

  GroundRuleSet out;
  ASSERT_TRUE((*grounder)->Ground(choices, &out).ok());
  std::vector<GroundAtom> triggers = FindTriggers(translated_, out, choices);
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_EQ(triggers[0].args,
            (Tuple{Value::Double(0.5), Value::Int(3)}));
}

TEST_F(GrounderTest, PerfectGroundingSmallerThanSimple) {
  // §5: the perfect grounder derives no superfluous quarter rules when a
  // dime shows tail; the simple grounder does.
  Setup(kDimeQuarter, kDimeQuarterDb);
  auto perfect = PerfectGrounder::Create(program_, &translated_,
                                         DatabasePrefix::Of(db_));
  ASSERT_TRUE(perfect.ok());
  SimpleGrounder simple(&translated_, DatabasePrefix::Of(db_));

  ChoiceSet choices;
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(1)}),
                 Value::Int(1));
  choices.Assign(MakeActive(0, {Value::Double(0.5), Value::Int(2)}),
                 Value::Int(0));

  GroundRuleSet perfect_out, simple_out;
  ASSERT_TRUE((*perfect)->Ground(choices, &perfect_out).ok());
  ASSERT_TRUE(simple.Ground(choices, &simple_out).ok());
  EXPECT_LT(perfect_out.size(), simple_out.size());
  // The simple grounding leaves the quarter trigger dangling.
  EXPECT_EQ(FindTriggers(translated_, simple_out, choices).size(), 1u);
  EXPECT_TRUE(FindTriggers(translated_, perfect_out, choices).empty());
}

TEST_F(GrounderTest, ChoiceSetFunctionalConsistency) {
  Setup(kDimeQuarter, kDimeQuarterDb);
  ChoiceSet choices;
  GroundAtom active = MakeActive(0, {Value::Double(0.5), Value::Int(1)});
  EXPECT_TRUE(choices.Assign(active, Value::Int(1)));
  EXPECT_TRUE(choices.Assign(active, Value::Int(1)));   // same outcome: OK
  EXPECT_FALSE(choices.Assign(active, Value::Int(0)));  // conflict
  EXPECT_EQ(choices.size(), 1u);
  EXPECT_EQ(*choices.Lookup(active), Value::Int(1));
  choices.Unassign(active);
  EXPECT_FALSE(choices.Defined(active));
}

TEST_F(GrounderTest, ChoiceSetSubsetAndOrdering) {
  Setup(kDimeQuarter, kDimeQuarterDb);
  ChoiceSet small, big;
  GroundAtom a1 = MakeActive(0, {Value::Double(0.5), Value::Int(1)});
  GroundAtom a2 = MakeActive(0, {Value::Double(0.5), Value::Int(2)});
  small.Assign(a1, Value::Int(1));
  big.Assign(a1, Value::Int(1));
  big.Assign(a2, Value::Int(0));
  EXPECT_TRUE(small.SubsetOf(big));
  EXPECT_FALSE(big.SubsetOf(small));
  ChoiceSet conflicting;
  conflicting.Assign(a1, Value::Int(0));
  EXPECT_FALSE(conflicting.SubsetOf(big));
}

}  // namespace
}  // namespace gdlog
