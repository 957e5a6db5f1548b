// Incremental grounding: the chase extends each child from its parent's
// grounding (sound by grounder monotonicity, Definition 3.3). A reference
// walk that calls Grounder::Ground at every node is the oracle: node by
// node, Clone()+Extend must equal Ground, and the chase's outcome space
// must equal the walk's leaves, on both grounders. A leaf's models (the
// perfect grounder's read-off, or the solver) must equal the general
// solver's over the from-scratch grounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "gdatalog/engine.h"
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

/// A leaf's probability (exact, as text) and stable models, by choice set.
std::map<ChoiceSet, std::pair<std::string, StableModelSet>> Leaves(
    const OutcomeSpace& space) {
  std::map<ChoiceSet, std::pair<std::string, StableModelSet>> out;
  for (const PossibleOutcome& o : space.outcomes) {
    out.emplace(o.choices, std::make_pair(o.prob.ToString(), o.models));
  }
  return out;
}

struct Walk {
  size_t nodes = 0;
  /// One outcome per leaf, models solved over the from-scratch grounding.
  std::vector<PossibleOutcome> leaves;
};

/// The reference chase: walks every node of the chase tree, resolving the
/// first trigger or, with `shuffle`, a seeded pick, over every value of
/// its (finite) support. Every node is grounded from scratch by
/// Grounder::Ground, and every node below the root also as Clone()+Extend
/// of its parent's grounding; the two must agree. A leaf's models are
/// AllStableModels over the from-scratch grounding, and SolveOutcome over
/// the extended one must match them. Only the perfect grounder stalls, and
/// it stalls exactly at inner nodes.
Walk WalkChase(const GDatalog& engine, uint64_t shuffle) {
  struct Node {
    ChoiceSet choices;
    Prob prob = Prob::One();
    GroundRuleSet grounding;  ///< Clone()+Extend below the root
  };
  const Grounder& grounder = engine.grounder();
  const bool stalls = grounder.name() == "perfect";
  Rng rng(shuffle);
  Walk walk;
  std::vector<Node> stack(1);
  EXPECT_TRUE(grounder.Ground(ChoiceSet(), &stack[0].grounding).ok());
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    ++walk.nodes;
    GroundRuleSet scratch;
    EXPECT_TRUE(grounder.Ground(node.choices, &scratch).ok());
    ::testing::AssertionResult same = SameGrounding(node.grounding, scratch);
    EXPECT_TRUE(same) << "at a node of depth " << node.choices.size();
    if (!same) return walk;
    std::vector<GroundAtom> triggers =
        FindTriggers(engine.translated(), scratch, node.choices);
    if (triggers.empty()) {
      EXPECT_EQ(scratch.stall_stage(), GroundRuleSet::kNoStall);
      PossibleOutcome leaf;
      leaf.models = SolverModels(engine, node.choices, scratch);
      auto models = engine.chase().SolveOutcome(
          node.choices, node.grounding, ChaseOptions{}.solver_max_nodes);
      EXPECT_TRUE(models.ok()) << models.status().ToString();
      if (!models.ok()) return walk;
      EXPECT_EQ(*models, leaf.models);
      leaf.choices = std::move(node.choices);
      leaf.prob = node.prob;
      walk.leaves.push_back(std::move(leaf));
      continue;
    }
    EXPECT_EQ(scratch.stall_stage() != GroundRuleSet::kNoStall, stalls);
    const GroundAtom& trigger =
        triggers[shuffle == 0 ? 0 : rng.NextBounded(triggers.size())];
    const DeltaSignature* sig =
        engine.translated().SignatureByActive(trigger.predicate);
    std::vector<Value> params(trigger.args.begin(),
                              trigger.args.begin() + sig->param_count);
    EXPECT_TRUE(sig->dist->HasFiniteSupport(params));
    for (const Value& value : sig->dist->Support(params, 0)) {
      Node child;
      child.choices = node.choices;
      child.choices.Assign(trigger, value);
      child.prob = node.prob * sig->dist->Pmf(params, value);
      child.grounding = node.grounding.Clone();
      Status status = grounder.Extend(child.choices, trigger,
                                      &child.grounding);
      EXPECT_TRUE(status.ok()) << status.ToString();
      if (!status.ok()) return walk;
      stack.push_back(std::move(child));
    }
  }
  return walk;
}

class IncrementalEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(IncrementalEquivalenceTest, SameOutcomeSpaceAsFromScratch) {
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = c.grounder;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto space = engine->Infer(ChaseOptions{});
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  OutcomeSpace reference;
  reference.outcomes = WalkChase(*engine, /*shuffle=*/0).leaves;
  for (const PossibleOutcome& o : reference.outcomes) {
    reference.finite_mass = reference.finite_mass + o.prob;
  }

  EXPECT_TRUE(space->complete);
  EXPECT_EQ(space->outcomes.size(), reference.outcomes.size());
  EXPECT_EQ(space->finite_mass, reference.finite_mass);
  EXPECT_EQ(Leaves(*space), Leaves(reference));
  EXPECT_EQ(space->Events(), reference.Events());
  EXPECT_EQ(space->ProbConsistent(), reference.ProbConsistent());
}

TEST_P(IncrementalEquivalenceTest, SampledPathsAreOutcomesOfTheSpace) {
  // SamplePath threads one grounding through the walk, extending it in
  // place; every path it draws must end in an outcome of the exact space,
  // with the same probability and models.
  const Case& c = GetParam();
  GDatalog::Options options;
  options.grounder = c.grounder;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer(ChaseOptions{});
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  const auto outcomes = Leaves(*space);

  Rng rng(77);
  for (int i = 0; i < 25; ++i) {
    auto path = engine->chase().SamplePath(&rng, ChaseOptions{});
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    ASSERT_FALSE(path->truncated);
    auto it = outcomes.find(path->choices);
    ASSERT_NE(it, outcomes.end()) << "sampled path " << i;
    EXPECT_EQ(path->prob.ToString(), it->second.first);
    EXPECT_EQ(path->models, it->second.second);
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
  // the parent stalled in; the chase always takes that path.
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->grounder().name(), "perfect");
  auto space = engine->Infer(ChaseOptions{});
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

class PerfectResumeTest : public ::testing::TestWithParam<Case> {};

TEST_P(PerfectResumeTest, ExtendEqualsGroundAtEveryNode) {
  auto engine = PerfectEngine(GetParam());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (uint64_t shuffle : {0u, 7u}) {
    size_t nodes = WalkChase(*engine, shuffle).nodes;
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
  std::map<ChoiceSet, std::pair<std::string, StableModelSet>> reference;
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
      if (reference.empty()) reference = Leaves(*space);
      EXPECT_EQ(Leaves(*space), reference);
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
