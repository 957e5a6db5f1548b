// Incremental grounding: the chase extending the parent node's grounding
// must produce exactly the same outcome space as re-grounding from scratch
// (sound by grounder monotonicity, Definition 3.3), on both grounders. For
// the perfect grounder, node by node: Clone()+Extend must equal Ground,
// and a leaf's read-off models must equal the general solver's.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "gdatalog/engine.h"
#include "gdatalog/sampler.h"
#include "obs/profile.h"
#include "stable/solver.h"
#include "util/rng.h"

namespace gdlog {
namespace {

struct Case {
  const char* label;
  const char* program;
  std::string db;
  GrounderKind grounder = GrounderKind::kSimple;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.label; }

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).";

std::string Clique(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
              ").\n";
      }
    }
  }
  return db + "infected(1, 1).\n";
}

constexpr const char* kDimeQuarterProgram =
    "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
    "somedimetail :- dimetail(X, 1).\n"
    "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.";
constexpr const char* kDimeQuarterDb = "dime(1). dime(2). quarter(3).";

constexpr const char* kCascadeProgram =
    "pick(X, flip<0.4>[X]) :- item(X).\n"
    "chosen(X) :- pick(X, 1).\n"
    "bonus(X, uniformint<1, 3>[X]) :- chosen(X).";
constexpr const char* kCascadeDb = "item(1). item(2).";

// Both flips share one Δ-signature (one Active predicate) but sit in
// different strata: a's flips are chosen in a's stratum, b's on values a
// never reaches only in b's, above a's through the negation. b(1, ·)
// reuses a's choice for flip<0.5>[1].
constexpr const char* kSharedSignatureProgram =
    "a(X, flip<0.5>[X]) :- d(X).\n"
    "b(X, flip<0.5>[X]) :- e(X), not a(X, 1).\n"
    "both(X) :- b(X, 1), d(X).\n"
    ":- b(X, 0), not d(X).";
constexpr const char* kSharedSignatureDb = "d(1). e(1). e(2). e(3).";

// The constraint negates q, whose stratum is the last one and stalls on
// q's own flips: the constraint pass must wait for those choices.
constexpr const char* kConstraintStallProgram =
    "p(X) :- d(X).\n"
    "q(X, flip<0.5>[X]) :- p(X).\n"
    ":- p(X), not q(X, 1).";

// E14's skewed tree, scaled down: branch 3 unlocks four flips, the others
// one each, and a negation stratum sits on top.
constexpr const char* kSkewedProgram =
    "pick(discrete<1, 2, 2, 2, 3, 16>).\n"
    "coin(J, flip<0.5>[J]) :- pick(I), unlocks(I, J).\n"
    "heads :- coin(J, 1).\n"
    "allTails(I) :- pick(I), not heads.";
constexpr const char* kSkewedDb =
    "unlocks(1,1). unlocks(2,1). unlocks(3,1). unlocks(3,2). unlocks(3,3). "
    "unlocks(3,4).";

class IncrementalEquivalenceTest : public ::testing::TestWithParam<Case> {};

std::map<ChoiceSet, std::pair<std::string, size_t>> Fingerprint(
    const OutcomeSpace& space) {
  std::map<ChoiceSet, std::pair<std::string, size_t>> out;
  for (const PossibleOutcome& o : space.outcomes) {
    out.emplace(o.choices,
                std::make_pair(o.prob.ToString(), o.models.size()));
  }
  return out;
}

TEST_P(IncrementalEquivalenceTest, SameOutcomeSpaceAsFromScratch) {
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = c.grounder;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->grounder().SupportsIncremental());

  ChaseOptions incremental;
  incremental.incremental = true;
  ChaseOptions scratch;
  scratch.incremental = false;

  auto inc_space = engine->Infer(incremental);
  ASSERT_TRUE(inc_space.ok()) << inc_space.status().ToString();
  auto scr_space = engine->Infer(scratch);
  ASSERT_TRUE(scr_space.ok());

  EXPECT_EQ(inc_space->outcomes.size(), scr_space->outcomes.size());
  EXPECT_EQ(inc_space->finite_mass, scr_space->finite_mass);
  EXPECT_EQ(Fingerprint(*inc_space), Fingerprint(*scr_space));
  EXPECT_EQ(inc_space->Events().size(), scr_space->Events().size());
  EXPECT_EQ(inc_space->ProbConsistent(), scr_space->ProbConsistent());
}

TEST_P(IncrementalEquivalenceTest, SamplePathsIdenticalGivenSeed) {
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = c.grounder;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok());

  ChaseOptions incremental;
  incremental.incremental = true;
  ChaseOptions scratch;
  scratch.incremental = false;

  Rng rng_a(77), rng_b(77);
  for (int i = 0; i < 25; ++i) {
    auto a = engine->chase().SamplePath(&rng_a, incremental);
    auto b = engine->chase().SamplePath(&rng_b, scratch);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a->choices == b->choices);
    EXPECT_EQ(a->prob, b->prob);
    EXPECT_EQ(a->models, b->models);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, IncrementalEquivalenceTest,
    ::testing::Values(
        Case{"network3", kNetworkProgram, Clique(3)},
        Case{"coin",
             "coin(flip<0.5>). :- coin(0).\n"
             "aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.",
             ""},
        Case{"dime", kDimeQuarterProgram, kDimeQuarterDb},
        Case{"cascade", kCascadeProgram, kCascadeDb}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

// The perfect grounder resumes the stratum its parent stalled in; the
// unstratified "coin" case has no perfect grounding.
INSTANTIATE_TEST_SUITE_P(
    PerfectPrograms, IncrementalEquivalenceTest,
    ::testing::Values(
        Case{"network3", kNetworkProgram, Clique(3), GrounderKind::kPerfect},
        Case{"dime", kDimeQuarterProgram, kDimeQuarterDb,
             GrounderKind::kPerfect},
        Case{"cascade", kCascadeProgram, kCascadeDb, GrounderKind::kPerfect},
        Case{"shared_signature", kSharedSignatureProgram, kSharedSignatureDb,
             GrounderKind::kPerfect},
        Case{"constraint_stall", kConstraintStallProgram, "d(1). d(2).",
             GrounderKind::kPerfect},
        Case{"skewed_discrete", kSkewedProgram, kSkewedDb,
             GrounderKind::kPerfect}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

TEST(Incremental, PerfectGrounderIsIncremental) {
  // The perfect grounder extends its parent's grounding from the stratum
  // the parent stalled in; the chase takes that path by default.
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->grounder().name(), "perfect");
  EXPECT_TRUE(engine->grounder().SupportsIncremental());
  ChaseOptions options;
  options.incremental = true;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_EQ(space->outcomes.size(), 5u);
  EXPECT_EQ(space->finite_mass, Prob::FromDouble(1.0));

  // A leaf's grounding is complete, not stalled: Extend refuses it and
  // leaves it untouched rather than resuming from a wrong place.
  const PossibleOutcome& leaf = space->outcomes.front();
  GroundRuleSet grounding;
  ASSERT_TRUE(engine->grounder().Ground(leaf.choices, &grounding).ok());
  EXPECT_EQ(grounding.stall_stage(), GroundRuleSet::kNoStall);
  const GroundAtom& chosen = leaf.choices.entries().begin()->first;
  const size_t before = grounding.size();
  Status status = engine->grounder().Extend(leaf.choices, chosen, &grounding);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(grounding.size(), before);
}

TEST(Incremental, ExtendDirectlyMatchesGround) {
  // Unit-level: Ground(Σ∪{c}) == Clone(Ground(Σ)) + Extend(c).
  auto engine = GDatalog::Create(
      "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).",
      "connected(1,2). connected(2,3). infected(1, 1).",
      [] {
        GDatalog::Options o;
        o.grounder = GrounderKind::kSimple;
        return o;
      }());
  ASSERT_TRUE(engine.ok());
  const Grounder& grounder = engine->grounder();

  GroundRuleSet base;
  ASSERT_TRUE(grounder.Ground(ChoiceSet(), &base).ok());

  // The single trigger: Active(0.1, 1, 2).
  std::vector<GroundAtom> triggers =
      FindTriggers(engine->translated(), base, ChoiceSet());
  ASSERT_EQ(triggers.size(), 1u);

  ChoiceSet choices;
  choices.Assign(triggers[0], Value::Int(1));

  // From scratch.
  GroundRuleSet scratch;
  ASSERT_TRUE(grounder.Ground(choices, &scratch).ok());

  // Incremental: the clone's heads() carries the whole matching instance,
  // so Extend resumes from the grounding alone.
  GroundRuleSet extended = base.Clone();
  ASSERT_TRUE(grounder.Extend(choices, triggers[0], &extended).ok());

  ASSERT_EQ(extended.size(), scratch.size());
  for (const GroundRule* rule : scratch.rules()) {
    EXPECT_TRUE(extended.Contains(*rule))
        << rule->ToString(engine->program().interner());
  }
}


// ---------------------------------------------------------------------------
// Perfect-grounder resume and leaf read-off, node by node
// ---------------------------------------------------------------------------

Result<GDatalog> PerfectEngine(const Case& c) {
  GDatalog::Options options;
  options.grounder = GrounderKind::kPerfect;
  return GDatalog::Create(c.program, c.db, std::move(options));
}

/// The atoms of a matching instance, sorted: a resumed and a from-scratch
/// fixpoint may append the same atoms in different row orders.
std::vector<GroundAtom> InstanceAtoms(const FactStore& heads) {
  std::vector<GroundAtom> atoms;
  for (uint32_t pred : heads.Predicates()) {
    for (const Tuple& row : heads.Rows(pred)) atoms.push_back({pred, row});
  }
  std::sort(atoms.begin(), atoms.end());
  return atoms;
}

::testing::AssertionResult SameGrounding(const GroundRuleSet& a,
                                         const GroundRuleSet& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " rules";
  }
  for (const GroundRule* rule : a.rules()) {
    if (!b.Contains(*rule)) {
      return ::testing::AssertionFailure() << "missing " << rule->ToString();
    }
  }
  if (InstanceAtoms(a.heads()) != InstanceAtoms(b.heads())) {
    return ::testing::AssertionFailure() << "heads() differ";
  }
  if (a.stall_stage() != b.stall_stage()) {
    return ::testing::AssertionFailure()
           << "stall stage " << a.stall_stage() << " vs " << b.stall_stage();
  }
  return ::testing::AssertionSuccess();
}

/// sms(G(Σ) ∪ Σ) by the general solver: the grounding plus one
/// Active → Result rule per choice.
StableModelSet SolverModels(const GDatalog& engine, const ChoiceSet& choices,
                            const GroundRuleSet& grounding) {
  GroundRuleSet program = grounding.Clone();
  for (const auto& [active, outcome] : choices.entries()) {
    const DeltaSignature* sig =
        engine.translated().SignatureByActive(active.predicate);
    EXPECT_NE(sig, nullptr);
    if (sig == nullptr) return {};
    GroundRule rule;
    rule.head = ChoiceSet::ResultAtom(sig->result_pred, active, outcome);
    rule.positive.push_back(active);
    program.Add(std::move(rule));
  }
  auto models = AllStableModels(program);
  EXPECT_TRUE(models.ok()) << models.status().ToString();
  return models.ok() ? std::move(models).value() : StableModelSet{};
}

/// Walks every node of the chase tree, resolving the first trigger or,
/// with `shuffle`, a seeded pick. Each child is grounded twice — from
/// scratch, and as Clone()+Extend of its parent's grounding — and the two
/// must agree; each leaf's read-off models must equal the solver's.
/// Returns the number of nodes visited.
size_t WalkChase(const GDatalog& engine, uint64_t shuffle) {
  struct Node {
    ChoiceSet choices;
    GroundRuleSet grounding;
  };
  const Grounder& grounder = engine.grounder();
  Rng rng(shuffle);
  size_t nodes = 0;
  std::vector<Node> stack(1);
  EXPECT_TRUE(grounder.Ground(ChoiceSet(), &stack[0].grounding).ok());
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    ++nodes;
    std::vector<GroundAtom> triggers =
        FindTriggers(engine.translated(), node.grounding, node.choices);
    if (triggers.empty()) {
      EXPECT_EQ(node.grounding.stall_stage(), GroundRuleSet::kNoStall);
      auto models = engine.chase().SolveOutcome(
          node.choices, node.grounding, ChaseOptions{}.solver_max_nodes);
      EXPECT_TRUE(models.ok()) << models.status().ToString();
      if (!models.ok()) return nodes;
      EXPECT_EQ(*models,
                SolverModels(engine, node.choices, node.grounding));
      continue;
    }
    EXPECT_NE(node.grounding.stall_stage(), GroundRuleSet::kNoStall);
    const GroundAtom& trigger =
        triggers[shuffle == 0 ? 0 : rng.NextBounded(triggers.size())];
    const DeltaSignature* sig =
        engine.translated().SignatureByActive(trigger.predicate);
    std::vector<Value> params(trigger.args.begin(),
                              trigger.args.begin() + sig->param_count);
    for (const Value& value : sig->dist->Support(params, 64)) {
      Node child;
      child.choices = node.choices;
      child.choices.Assign(trigger, value);
      GroundRuleSet scratch;
      EXPECT_TRUE(grounder.Ground(child.choices, &scratch).ok());
      child.grounding = node.grounding.Clone();
      Status status = grounder.Extend(child.choices, trigger,
                                      &child.grounding);
      EXPECT_TRUE(status.ok()) << status.ToString();
      ::testing::AssertionResult same = SameGrounding(child.grounding, scratch);
      EXPECT_TRUE(same) << "at a child of depth " << child.choices.size();
      if (!status.ok() || !same) return nodes;
      stack.push_back(std::move(child));
    }
  }
  return nodes;
}

class PerfectResumeTest : public ::testing::TestWithParam<Case> {};

TEST_P(PerfectResumeTest, ExtendEqualsGroundAtEveryNode) {
  auto engine = PerfectEngine(GetParam());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->grounder().SupportsIncremental());
  for (uint64_t shuffle : {0u, 7u}) {
    size_t nodes = WalkChase(*engine, shuffle);
    // The walk visits the chase's own tree: same node count as Infer's.
    ChaseOptions options;
    options.num_threads = 1;
    options.profile = true;
    options.trigger_shuffle_seed = shuffle;
    ChaseProfile profile;
    ASSERT_TRUE(engine->Infer(options, &profile).ok());
    if (shuffle == 0) {
      EXPECT_EQ(nodes, profile.nodes);
    }
    EXPECT_GT(nodes, 1u);
  }
}

TEST_P(PerfectResumeTest, ReadOffMatchesSolverOnEveryLeaf) {
  auto engine = PerfectEngine(GetParam());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::map<ChoiceSet, std::pair<std::string, size_t>> reference;
  for (size_t threads : {1u, 4u}) {
    for (uint64_t shuffle : {0u, 99u}) {
      ChaseOptions options;
      options.num_threads = threads;
      options.trigger_shuffle_seed = shuffle;
      options.keep_groundings = true;
      auto space = engine->Infer(options);
      ASSERT_TRUE(space.ok()) << space.status().ToString();
      for (const PossibleOutcome& o : space->outcomes) {
        ASSERT_NE(o.grounding, nullptr);
        ASSERT_EQ(o.models, SolverModels(*engine, o.choices, *o.grounding))
            << "threads " << threads << ", shuffle " << shuffle;
      }
      if (reference.empty()) reference = Fingerprint(*space);
      EXPECT_EQ(Fingerprint(*space), reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PerfectResumeTest,
    ::testing::Values(
        Case{"e1_clique4", kNetworkProgram, Clique(4)},
        Case{"e3_dime_quarter", kDimeQuarterProgram, kDimeQuarterDb},
        Case{"skewed_discrete", kSkewedProgram, kSkewedDb},
        Case{"shared_signature", kSharedSignatureProgram, kSharedSignatureDb},
        Case{"constraint_stall", kConstraintStallProgram, "d(1). d(2)."}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

TEST(PerfectResume, ConstraintPassWaitsForTheStalledStratum) {
  auto engine = PerfectEngine(
      Case{"constraint_stall", kConstraintStallProgram, "d(1)."});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ(engine->grounder().name(), "perfect");
  const auto& grounder =
      static_cast<const PerfectGrounder&>(engine->grounder());
  auto constraints = [](const GroundRuleSet& g) {
    return std::count_if(g.rules().begin(), g.rules().end(),
                         [](const GroundRule* r) { return r->is_constraint; });
  };

  // q's stratum is the last and leaves q's flip unchosen: grounding stalls
  // before the constraint pass, so `not q(1, 1)` is never checked against
  // the incomplete stratum.
  GroundRuleSet root;
  ASSERT_TRUE(grounder.Ground(ChoiceSet(), &root).ok());
  EXPECT_EQ(root.stall_stage(), grounder.stratum_count());
  EXPECT_EQ(constraints(root), 0);
  std::vector<GroundAtom> triggers =
      FindTriggers(engine->translated(), root, ChoiceSet());
  ASSERT_EQ(triggers.size(), 1u);

  for (int64_t value : {0, 1}) {
    ChoiceSet choices;
    choices.Assign(triggers[0], Value::Int(value));
    GroundRuleSet extended = root.Clone();
    ASSERT_TRUE(grounder.Extend(choices, triggers[0], &extended).ok());
    GroundRuleSet scratch;
    ASSERT_TRUE(grounder.Ground(choices, &scratch).ok());
    EXPECT_TRUE(SameGrounding(extended, scratch));
    EXPECT_EQ(extended.stall_stage(), GroundRuleSet::kNoStall);
    // q(1, 0) violates the constraint; q(1, 1) satisfies it.
    EXPECT_EQ(constraints(extended), value == 0 ? 1 : 0);
    auto models = engine->chase().SolveOutcome(
        choices, extended, ChaseOptions{}.solver_max_nodes);
    ASSERT_TRUE(models.ok());
    EXPECT_EQ(models->size(), value == 0 ? 0u : 1u);
    EXPECT_EQ(*models, SolverModels(*engine, choices, extended));
  }
  auto space = engine->Infer(ChaseOptions{});
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->ProbConsistent().ToString(), "1/2");
}

}  // namespace
}  // namespace gdlog
