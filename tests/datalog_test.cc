// Plain Datalog¬ (no Δ-terms) through the engine: a Δ-free program's
// outcome space is one outcome of probability 1 with no choices, whose
// stable models are sms(Π[D]) — for stratified Π exactly the perfect model,
// read off the perfect grounder's grounding. Covers recursion, stratified
// negation across several strata, constraints, an unstratified even loop,
// agreement between the perfect read-off and the simple grounder's solver,
// and the compiled-join counters of a grounding.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "gdatalog/engine.h"

namespace gdlog {
namespace {

using Instance = std::set<std::string>;

GDatalog MustCreate(const std::string& program, const std::string& db,
                    GrounderKind grounder = GrounderKind::kAuto) {
  GDatalog::Options options;
  options.grounder = grounder;
  auto engine = GDatalog::Create(program, db, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// The stable models of a Δ-free program's single outcome, each stripped of
/// Active/Result bookkeeping and rendered atom by atom.
std::set<Instance> StableModelsOf(const GDatalog& engine) {
  auto space = engine.Infer();
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  if (!space.ok()) return {};
  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->outcomes.size(), 1u);
  if (space->outcomes.size() != 1) return {};
  const PossibleOutcome& outcome = space->outcomes[0];
  EXPECT_TRUE(outcome.choices.empty());
  EXPECT_EQ(outcome.prob, Prob::One());
  std::set<Instance> models;
  for (const StableModel& model : outcome.models) {
    Instance rendered;
    for (const GroundAtom& atom :
         OutcomeSpace::StripAuxiliary(model, engine.translated())) {
      rendered.insert(atom.ToString(engine.program().interner()));
    }
    models.insert(std::move(rendered));
  }
  return models;
}

/// The one model of a consistent stratified program: its perfect model.
Instance PerfectModel(const GDatalog& engine) {
  EXPECT_TRUE(engine.stratified());
  std::set<Instance> models = StableModelsOf(engine);
  EXPECT_EQ(models.size(), 1u);
  return models.empty() ? Instance{} : *models.begin();
}

size_t CountPredicate(const Instance& model, const std::string& name) {
  size_t n = 0;
  for (const std::string& atom : model) {
    if (atom.rfind(name + "(", 0) == 0 || atom == name) ++n;
  }
  return n;
}

TEST(Datalog, TransitiveClosure) {
  GDatalog engine = MustCreate(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      "edge(1,2). edge(2,3). edge(3,4).");
  EXPECT_EQ(PerfectModel(engine),
            (Instance{"edge(1, 2)", "edge(2, 3)", "edge(3, 4)", "path(1, 2)",
                      "path(1, 3)", "path(1, 4)", "path(2, 3)", "path(2, 4)",
                      "path(3, 4)"}));
}

TEST(Datalog, StratifiedNegationComplement) {
  GDatalog engine = MustCreate(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).",
      "start(1). node(1). node(2). node(3). node(4). edge(1,2). edge(2,3).");
  EXPECT_EQ(PerfectModel(engine),
            (Instance{"start(1)", "node(1)", "node(2)", "node(3)", "node(4)",
                      "edge(1, 2)", "edge(2, 3)", "reach(1)", "reach(2)",
                      "reach(3)", "unreached(4)"}));
}

TEST(Datalog, EvenLoopHasTwoStableModels) {
  // Not stratified: the engine falls back to the simple grounder and the
  // stable-model solver, which finds both answer sets of the even loop.
  GDatalog engine = MustCreate("a :- not b. b :- not a.", "");
  EXPECT_FALSE(engine.stratified());
  EXPECT_EQ(StableModelsOf(engine), (std::set<Instance>{{"a"}, {"b"}}));
}

TEST(Datalog, ConstraintsDetectViolations) {
  const char* program =
      "big(X) :- size(X, Y), threshold(T), above(Y, T).\n"
      ":- big(X), forbidden(X).";
  GDatalog ok = MustCreate(
      program, "size(a, 5). threshold(3). above(5, 3). forbidden(b).");
  EXPECT_EQ(PerfectModel(ok),
            (Instance{"size(a, 5)", "threshold(3)", "above(5, 3)",
                      "forbidden(b)", "big(a)"}));

  GDatalog bad = MustCreate(
      program, "size(a, 5). threshold(3). above(5, 3). forbidden(a).");
  EXPECT_TRUE(StableModelsOf(bad).empty());
}

TEST(Datalog, ConstraintWithNegation) {
  const char* program =
      "covered(X) :- item(X), box(B), in(X, B).\n"
      ":- item(X), not covered(X).";
  GDatalog complete = MustCreate(program, "item(1). box(b). in(1, b).");
  EXPECT_EQ(PerfectModel(complete),
            (Instance{"item(1)", "box(b)", "in(1, b)", "covered(1)"}));
  GDatalog incomplete =
      MustCreate(program, "item(1). item(2). box(b). in(1, b).");
  EXPECT_TRUE(StableModelsOf(incomplete).empty());
}

TEST(Datalog, StatsAreMeaningful) {
  std::string db_text;
  for (int i = 1; i < 20; ++i) {
    db_text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").";
  }
  GDatalog engine = MustCreate(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      db_text);
  EXPECT_EQ(CountPredicate(PerfectModel(engine), "path"), 190u);  // 20*19/2

  // Compiled-join counters of G(∅): the recursive rule probes edge's index
  // every round through plans reused from the cache.
  GroundRuleSet grounding;
  MatchStats stats;
  ASSERT_TRUE(engine.grounder().Ground(ChoiceSet(), &grounding, &stats).ok());
  EXPECT_GT(stats.bindings, 0u);
  EXPECT_GT(stats.index_hits, 0u);
  EXPECT_GT(stats.plan_cache_hits, 0u);
  EXPECT_GT(stats.plans_compiled, 0u);
}

TEST(Datalog, FactsOnlyProgramInBody) {
  // Facts may live in the program text instead of the database.
  GDatalog engine = MustCreate("p(1). q(X) :- p(X).", "");
  EXPECT_EQ(PerfectModel(engine), (Instance{"p(1)", "q(1)"}));
}

TEST(Datalog, PerfectReadOffAgreesWithSolverOnPlainPrograms) {
  // The perfect grounder reads its one model off the grounding; the simple
  // grounder hands G(∅) to the stable-model solver. On a stratified plain
  // program both must give the perfect model.
  const char* program =
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "island(X) :- node(X), not reach(X).\n"
      "linked(X, Y) :- edge(X, Y).\n"
      "linked(X, Y) :- edge(Y, X).";
  const char* db =
      "start(1). node(1). node(2). node(3). node(4). node(5). "
      "edge(1,2). edge(2,3). edge(4,5).";
  GDatalog perfect = MustCreate(program, db, GrounderKind::kPerfect);
  GDatalog simple = MustCreate(program, db, GrounderKind::kSimple);
  Instance model = PerfectModel(perfect);
  EXPECT_EQ(StableModelsOf(simple), (std::set<Instance>{model}));
  EXPECT_EQ(CountPredicate(model, "island"), 2u);  // 4 and 5
  EXPECT_EQ(CountPredicate(model, "linked"), 6u);
}

TEST(Datalog, MultiStratumPipeline) {
  // Four strata: base → derived → negation → negation-of-negation.
  const char* program =
      "holds(X) :- fact(X).\n"
      "missing(X) :- universe(X), not holds(X).\n"
      "complete :- universe(X), not missing_any.\n"
      "missing_any :- missing(X).";
  GDatalog full =
      MustCreate(program, "universe(1). universe(2). fact(1). fact(2).");
  EXPECT_EQ(CountPredicate(PerfectModel(full), "complete"), 1u);

  GDatalog partial = MustCreate(program, "universe(1). universe(2). fact(1).");
  Instance model = PerfectModel(partial);
  EXPECT_EQ(CountPredicate(model, "complete"), 0u);
  EXPECT_EQ(model.count("missing(2)"), 1u);
  EXPECT_EQ(model.count("missing_any"), 1u);
}

}  // namespace
}  // namespace gdlog
