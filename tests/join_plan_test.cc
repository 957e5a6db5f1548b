// Property tests for the compiled join machinery (ground/join_plan.h):
// randomized conjunctive queries and stratified programs must produce
// bit-identical binding sets, models and groundings between compiled plans
// (driven directly, or by the engine's grounders) and the legacy reference
// Matcher, plus unit coverage of composite indices, frames, stats
// counters, and concurrent plan execution against a frozen store (the TSan
// job exercises the once-guarded index builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "gdatalog/engine.h"
#include "ground/join_plan.h"
#include "ground/matcher.h"
#include "util/rng.h"

namespace gdlog {
namespace {

constexpr uint32_t kNumPredicates = 4;
constexpr uint32_t kNumConstants = 4;
constexpr uint32_t kNumVariables = 4;

struct RandomInstance {
  FactStore store;
  std::vector<size_t> arities;  // per predicate
};

RandomInstance MakeInstance(Rng* rng) {
  RandomInstance out;
  out.arities.resize(kNumPredicates);
  for (uint32_t p = 0; p < kNumPredicates; ++p) {
    out.arities[p] = 1 + rng->NextBounded(3);  // arity 1..3
    // Predicate 3 stays empty every few instances (empty-relation edge).
    size_t rows = (p == 3 && rng->NextBounded(2) == 0) ? 0 : rng->NextBounded(10);
    for (size_t r = 0; r < rows; ++r) {
      Tuple tuple;
      for (size_t c = 0; c < out.arities[p]; ++c) {
        tuple.push_back(
            Value::Int(static_cast<int64_t>(rng->NextBounded(kNumConstants))));
      }
      out.store.Insert(p, std::move(tuple));
    }
  }
  return out;
}

/// Random conjunctions biased toward the tentpole's edge cases: repeated
/// variables within an atom (R(X,X)), constants-only atoms, self-joins
/// (the same predicate several times), and the empty relation.
std::vector<Atom> MakeQuery(Rng* rng, const RandomInstance& inst) {
  size_t num_atoms = 1 + rng->NextBounded(4);
  std::vector<Atom> query;
  bool self_join = rng->NextBounded(3) == 0;
  uint32_t self_pred = static_cast<uint32_t>(rng->NextBounded(kNumPredicates));
  for (size_t i = 0; i < num_atoms; ++i) {
    Atom atom;
    atom.predicate =
        self_join ? self_pred
                  : static_cast<uint32_t>(rng->NextBounded(kNumPredicates));
    bool constants_only = rng->NextBounded(8) == 0;
    uint32_t repeated_var = static_cast<uint32_t>(rng->NextBounded(kNumVariables));
    bool repeat = rng->NextBounded(4) == 0;
    for (size_t c = 0; c < inst.arities[atom.predicate]; ++c) {
      if (constants_only || rng->NextBounded(4) == 0) {
        atom.args.push_back(Term::Constant(
            Value::Int(static_cast<int64_t>(rng->NextBounded(kNumConstants)))));
      } else if (repeat) {
        atom.args.push_back(Term::Variable(repeated_var));
      } else {
        atom.args.push_back(Term::Variable(
            static_cast<uint32_t>(rng->NextBounded(kNumVariables))));
      }
    }
    query.push_back(std::move(atom));
  }
  return query;
}

using BindingKey = std::vector<std::pair<uint32_t, Value>>;

std::set<BindingKey> LegacyBindings(const std::vector<const Atom*>& atoms,
                                    const FactStore& store,
                                    const std::vector<uint32_t>& vars) {
  Matcher matcher(&store);
  std::set<BindingKey> out;
  matcher.Match(atoms, [&](const Binding& binding) {
    BindingKey key;
    for (uint32_t v : vars) key.emplace_back(v, binding.at(v));
    out.insert(std::move(key));
    return true;
  });
  return out;
}

std::set<BindingKey> CompiledBindings(const std::vector<const Atom*>& atoms,
                                      const FactStore& store,
                                      const std::vector<uint32_t>& vars,
                                      MatchStats* stats) {
  CompiledRule body = CompileBody(atoms);
  JoinPlan plan = CompileJoinPlan(body, store);
  JoinExecutor exec;
  std::set<BindingKey> out;
  exec.Execute(plan, stats, [&](const BindingFrame& frame) {
    BindingKey key;
    for (uint32_t v : vars) key.emplace_back(v, frame.Get(body.slots.SlotOf(v)));
    out.insert(std::move(key));
    return true;
  });
  return out;
}

std::vector<uint32_t> VarsOf(const std::vector<Atom>& query) {
  std::set<uint32_t> vars;
  for (const Atom& atom : query) {
    for (const Term& t : atom.args) {
      if (t.is_variable()) vars.insert(t.var_id());
    }
  }
  return std::vector<uint32_t>(vars.begin(), vars.end());
}

class JoinPlanOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinPlanOracleTest, CompiledMatchesLegacyMatcher) {
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    RandomInstance inst = MakeInstance(&rng);
    std::vector<Atom> query = MakeQuery(&rng, inst);
    std::vector<const Atom*> atoms;
    for (const Atom& a : query) atoms.push_back(&a);
    std::vector<uint32_t> vars = VarsOf(query);

    MatchStats stats;
    ASSERT_EQ(CompiledBindings(atoms, inst.store, vars, &stats),
              LegacyBindings(atoms, inst.store, vars))
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(JoinPlanOracleTest, PivotMatchesLegacyPivot) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 15; ++round) {
    RandomInstance inst = MakeInstance(&rng);
    std::vector<Atom> query = MakeQuery(&rng, inst);
    std::vector<const Atom*> atoms;
    for (const Atom& a : query) atoms.push_back(&a);
    std::vector<uint32_t> vars = VarsOf(query);
    Matcher matcher(&inst.store);

    CompiledRule body = CompileBody(atoms);
    JoinExecutor exec;
    MatchStats stats;
    for (size_t pivot = 0; pivot < atoms.size(); ++pivot) {
      const std::vector<Tuple>& rows =
          inst.store.Rows(atoms[pivot]->predicate);

      std::set<BindingKey> legacy;
      matcher.MatchWithPivot(atoms, pivot, rows, [&](const Binding& b) {
        BindingKey key;
        for (uint32_t v : vars) key.emplace_back(v, b.at(v));
        legacy.insert(std::move(key));
        return true;
      });

      JoinPlan plan = CompileJoinPlan(body, inst.store, pivot);
      std::set<BindingKey> compiled;
      exec.ExecuteWithPivotRange(
          plan, rows, 0, rows.size(), &stats, [&](const BindingFrame& f) {
            BindingKey key;
            for (uint32_t v : vars) {
              key.emplace_back(v, f.Get(body.slots.SlotOf(v)));
            }
            compiled.insert(std::move(key));
            return true;
          });
      ASSERT_EQ(compiled, legacy)
          << "seed " << GetParam() << " round " << round << " pivot " << pivot;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinPlanOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Randomized stratified programs: the perfect model the engine reads off
// its perfect grounder vs. a reference materializer driven by the legacy
// matcher.
// ---------------------------------------------------------------------------

/// Naive fixpoint with the legacy Matcher: loop every rule over the whole
/// store until nothing new appears; negative literals checked per binding.
/// (Stratification caveat: callers only generate negation on extensional
/// predicates, for which a single global fixpoint is the perfect model.)
FactStore ReferenceMaterialize(const Program& pi, const FactStore& db) {
  FactStore facts = db;
  bool changed = true;
  while (changed) {
    changed = false;
    Matcher matcher(&facts);
    std::vector<GroundAtom> derived;
    for (const Rule& rule : pi.rules()) {
      if (rule.is_constraint) continue;
      std::vector<const Atom*> pos = rule.PositiveBody();
      auto fire = [&](const Binding& binding) {
        for (const Literal& lit : rule.body) {
          if (!lit.negated) continue;
          if (facts.Contains(ApplyAtom(lit.atom, binding))) return true;
        }
        GroundAtom head;
        head.predicate = rule.head.predicate;
        for (const HeadArg& arg : rule.head.args) {
          head.args.push_back(ApplyTerm(arg.term(), binding));
        }
        derived.push_back(std::move(head));
        return true;
      };
      if (pos.empty()) {
        Binding empty;
        fire(empty);
      } else {
        matcher.Match(pos, fire);
      }
    }
    for (GroundAtom& atom : derived) {
      if (facts.Insert(atom)) changed = true;
    }
  }
  return facts;
}

std::vector<std::string> SortedFacts(const FactStore& store) {
  std::vector<std::string> out;
  for (const GroundAtom& atom : store.AllFacts()) out.push_back(atom.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// The perfect model of a plain stratified program as the engine computes
/// it: G(∅) from the perfect grounder (stats accumulated into `stats`) and
/// the single model of the chase's one outcome, read off without a solver.
std::vector<std::string> EngineModel(const Program& pi, const FactStore& db,
                                     MatchStats* stats) {
  GDatalog::Options options;
  options.grounder = GrounderKind::kPerfect;
  auto engine = GDatalog::FromProgram(pi, db, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return {};
  GroundRuleSet grounding;
  EXPECT_TRUE(engine->grounder().Ground(ChoiceSet(), &grounding, stats).ok());
  auto space = engine->Infer();
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  if (!space.ok() || space->outcomes.size() != 1 ||
      space->outcomes[0].models.size() != 1) {
    ADD_FAILURE() << "expected one outcome with one model";
    return {};
  }
  std::vector<std::string> out;
  for (const GroundAtom& atom : *space->outcomes[0].models.begin()) {
    out.push_back(atom.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Random safe program: extensional e0..e2 (with facts, negatable),
/// intensional i0..i1 (positive recursion allowed). Negation only on
/// extensional predicates keeps every program stratified and makes the
/// naive reference fixpoint compute the perfect model.
TEST_P(JoinPlanOracleTest, RandomProgramsMatchReferenceMaterialization) {
  Rng rng(GetParam() + 9000);
  for (int round = 0; round < 10; ++round) {
    Program pi;
    uint32_t edb[3], idb[2], var[4];
    for (int i = 0; i < 3; ++i) {
      edb[i] = pi.interner()->Intern("e" + std::to_string(i));
    }
    for (int i = 0; i < 2; ++i) {
      idb[i] = pi.interner()->Intern("i" + std::to_string(i));
    }
    for (int i = 0; i < 4; ++i) {
      var[i] = pi.interner()->Intern("V" + std::to_string(i));
    }
    // Arities: e* = 2, i* = 2.
    size_t num_rules = 2 + rng.NextBounded(4);
    for (size_t r = 0; r < num_rules; ++r) {
      Rule rule;
      size_t num_pos = 1 + rng.NextBounded(3);
      std::vector<uint32_t> body_vars;
      for (size_t b = 0; b < num_pos; ++b) {
        Atom atom;
        atom.predicate = rng.NextBounded(2) == 0 ? edb[rng.NextBounded(3)]
                                                 : idb[rng.NextBounded(2)];
        for (int c = 0; c < 2; ++c) {
          if (rng.NextBounded(5) == 0) {
            atom.args.push_back(Term::Constant(
                Value::Int(static_cast<int64_t>(rng.NextBounded(3)))));
          } else {
            uint32_t v = var[rng.NextBounded(4)];
            atom.args.push_back(Term::Variable(v));
            body_vars.push_back(v);
          }
        }
        rule.body.push_back(Literal{std::move(atom), /*negated=*/false});
      }
      if (body_vars.empty()) continue;  // keep rules safe and interesting
      // Optional negative literal on an extensional predicate, using only
      // positive-body variables (safety).
      if (rng.NextBounded(3) == 0) {
        Atom neg;
        neg.predicate = edb[rng.NextBounded(3)];
        for (int c = 0; c < 2; ++c) {
          neg.args.push_back(
              Term::Variable(body_vars[rng.NextBounded(body_vars.size())]));
        }
        rule.body.push_back(Literal{std::move(neg), /*negated=*/true});
      }
      rule.head.predicate = idb[rng.NextBounded(2)];
      for (int c = 0; c < 2; ++c) {
        rule.head.args.push_back(HeadArg(
            Term::Variable(body_vars[rng.NextBounded(body_vars.size())])));
      }
      pi.AddRule(std::move(rule));
    }
    if (pi.rules().empty()) continue;

    FactStore db;
    for (int i = 0; i < 3; ++i) {
      size_t rows = rng.NextBounded(8);
      for (size_t f = 0; f < rows; ++f) {
        db.Insert(edb[i],
                  {Value::Int(static_cast<int64_t>(rng.NextBounded(3))),
                   Value::Int(static_cast<int64_t>(rng.NextBounded(3)))});
      }
    }

    FactStore reference = ReferenceMaterialize(pi, db);
    ASSERT_EQ(EngineModel(pi, db, /*stats=*/nullptr), SortedFacts(reference))
        << "seed " << GetParam() << " round " << round << "\n"
        << pi.ToString();
  }
}

// ---------------------------------------------------------------------------
// Grounding bit-identity: SimpleGrounder (compiled) vs. a reference
// grounding fixpoint driven by the legacy matcher.
// ---------------------------------------------------------------------------

std::multiset<std::string> RuleStrings(const GroundRuleSet& rules,
                                       const Interner* names) {
  std::multiset<std::string> out;
  for (const GroundRule* r : rules.rules()) out.insert(r->ToString(names));
  return out;
}

/// Simple^∞ with the legacy matcher, for an empty choice set: saturate
/// h(B+) ⊆ heads-so-far, ignoring negation (Definition 3.4).
GroundRuleSet ReferenceSimpleGround(const TranslatedProgram& translated,
                                    const FactStore& db) {
  GroundRuleSet out;
  for (uint32_t pred : db.Predicates()) {
    for (const Tuple& row : db.Rows(pred)) {
      GroundRule fact;
      fact.head = GroundAtom{pred, row};
      out.Add(std::move(fact));
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    Matcher matcher(&out.heads());
    std::vector<GroundRule> derived;
    for (const Rule& rule : translated.sigma().rules()) {
      std::vector<const Atom*> pos = rule.PositiveBody();
      auto fire = [&](const Binding& binding) {
        GroundRule gr;
        gr.is_constraint = rule.is_constraint;
        if (!rule.is_constraint) {
          gr.head.predicate = rule.head.predicate;
          for (const HeadArg& arg : rule.head.args) {
            gr.head.args.push_back(ApplyTerm(arg.term(), binding));
          }
        }
        for (const Literal& lit : rule.body) {
          (lit.negated ? gr.negative : gr.positive)
              .push_back(ApplyAtom(lit.atom, binding));
        }
        derived.push_back(std::move(gr));
        return true;
      };
      if (pos.empty()) {
        Binding empty;
        fire(empty);
      } else {
        matcher.Match(pos, fire);
      }
    }
    for (GroundRule& gr : derived) {
      if (out.Add(std::move(gr))) changed = true;
    }
  }
  return out;
}

TEST(JoinPlanGrounding, SimpleGrounderMatchesLegacyReference) {
  struct Case {
    const char* program;
    const char* db;
  };
  const Case cases[] = {
      {"infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
       "uninfected(X) :- router(X), not infected(X, 1).",
       "router(1). router(2). router(3). connected(1,2). connected(2,3). "
       "connected(3,1). infected(1, 1)."},
      {"dimetail(X, flip<0.5>[X]) :- dime(X).\n"
       "somedimetail :- dimetail(X, 1).\n"
       "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.",
       "dime(1). dime(2). quarter(3)."},
  };
  for (const Case& c : cases) {
    auto engine = GDatalog::Create(c.program, c.db, [] {
      GDatalog::Options o;
      o.grounder = GrounderKind::kSimple;
      return o;
    }());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    GroundRuleSet compiled;
    MatchStats stats;
    ASSERT_TRUE(
        engine->grounder().Ground(ChoiceSet(), &compiled, &stats).ok());
    GroundRuleSet reference =
        ReferenceSimpleGround(engine->translated(), engine->database());
    const Interner* names = engine->program().interner();
    EXPECT_EQ(RuleStrings(compiled, names), RuleStrings(reference, names));
    EXPECT_GT(stats.bindings, 0u);
  }
}

// ---------------------------------------------------------------------------
// Stats counters
// ---------------------------------------------------------------------------

TEST(JoinPlanStats, GroundReportsIndexAndPlanCounters) {
  std::string db;
  for (int i = 1; i < 64; ++i) {
    db += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").";
  }
  auto engine = GDatalog::Create(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).",
      db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  GroundRuleSet grounding;
  MatchStats stats;
  ASSERT_TRUE(engine->grounder().Ground(ChoiceSet(), &grounding, &stats).ok());
  EXPECT_GT(stats.index_hits, 0u);       // path ⋈ edge probes
  EXPECT_GT(stats.full_scans, 0u);       // unbound-atom scans
  EXPECT_GT(stats.plan_cache_hits, 0u);  // plans reused across rounds
  EXPECT_GT(stats.plans_compiled, 0u);
  EXPECT_GT(stats.bindings, 0u);
}

TEST(JoinPlanStats, CompositeIndexUsedForMultiBoundAtoms) {
  // For a composite probe we need an atom with >= 2 bound columns:
  // triangle(X,Y,Z) :- edge(X,Y), edge(Y,Z), edge(X,Z) — the third atom
  // has both X and Z bound.
  auto prog = ParseProgram(
      "triangle(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(X, Z).");
  ASSERT_TRUE(prog.ok());
  std::string db_text;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    db_text += "edge(" + std::to_string(rng.NextBounded(40)) + "," +
               std::to_string(rng.NextBounded(40)) + ").";
  }
  auto db = ParseFacts(db_text, prog->interner());
  ASSERT_TRUE(db.ok());
  MatchStats stats;
  std::vector<std::string> model = EngineModel(*prog, *db, &stats);
  EXPECT_GT(stats.composite_index_hits, 0u);

  // The composite access path must agree with brute force.
  EXPECT_EQ(model, SortedFacts(ReferenceMaterialize(*prog, *db)));
}

// ---------------------------------------------------------------------------
// Composite indices in FactStore
// ---------------------------------------------------------------------------

TEST(CompositeIndex, LookupAndInsertMaintenance) {
  FactStore store;
  store.Insert(0, {Value::Int(1), Value::Int(2), Value::Int(3)});
  store.Insert(0, {Value::Int(1), Value::Int(2), Value::Int(4)});
  store.Insert(0, {Value::Int(2), Value::Int(2), Value::Int(3)});
  std::vector<uint16_t> cols = {0, 1};
  const FactStore::CompositeKeyMap* index = store.GetCompositeIndex(0, cols);
  ASSERT_NE(index, nullptr);
  auto hit = index->find(Tuple{Value::Int(1), Value::Int(2)});
  ASSERT_NE(hit, index->end());
  EXPECT_EQ(hit->second, (std::vector<uint32_t>{0, 1}));

  // Insert() keeps a built composite current, in ascending row order.
  store.Insert(0, {Value::Int(1), Value::Int(2), Value::Int(5)});
  hit = index->find(Tuple{Value::Int(1), Value::Int(2)});
  EXPECT_EQ(hit->second, (std::vector<uint32_t>{0, 1, 3}));

  // Out-of-range column and unknown predicate are nullptr, not UB.
  EXPECT_EQ(store.GetCompositeIndex(0, {0, 7}), nullptr);
  EXPECT_EQ(store.GetCompositeIndex(9, cols), nullptr);
}

TEST(CompositeIndex, CowCloneAdoptsBuiltComposites) {
  FactStore store;
  store.Insert(0, {Value::Int(1), Value::Int(2)});
  std::vector<uint16_t> cols = {0, 1};
  ASSERT_NE(store.GetCompositeIndex(0, cols), nullptr);

  FactStore copy = store;  // COW
  // Writing through the copy must not disturb the original's index.
  copy.Insert(0, {Value::Int(1), Value::Int(2)});  // duplicate: no-op
  copy.Insert(0, {Value::Int(3), Value::Int(4)});
  const FactStore::CompositeKeyMap* copied = copy.GetCompositeIndex(0, cols);
  ASSERT_NE(copied, nullptr);
  EXPECT_EQ(copied->size(), 2u);
  const FactStore::CompositeKeyMap* original = store.GetCompositeIndex(0, cols);
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(original->size(), 1u);
}

TEST(CompositeIndex, CopiesOfFrozenStoresAreUnfrozen) {
  FactStore store;
  store.Insert(0, {Value::Int(1)});
  store.Freeze();
  EXPECT_TRUE(store.frozen());
  FactStore copy = store;
  EXPECT_FALSE(copy.frozen());
  EXPECT_TRUE(copy.Insert(0, {Value::Int(2)}));
  EXPECT_EQ(store.Count(0), 1u);
  EXPECT_EQ(copy.Count(0), 2u);
}

// ---------------------------------------------------------------------------
// Concurrency: many executors against one frozen store (TSan coverage of
// the once-guarded column/composite index builds and plan handles).
// ---------------------------------------------------------------------------

TEST(JoinPlanConcurrency, ParallelExecutionAgainstFrozenStore) {
  Rng rng(42);
  FactStore store;
  for (int i = 0; i < 500; ++i) {
    store.Insert(0, {Value::Int(static_cast<int64_t>(rng.NextBounded(30))),
                     Value::Int(static_cast<int64_t>(rng.NextBounded(30)))});
    store.Insert(1, {Value::Int(static_cast<int64_t>(rng.NextBounded(30))),
                     Value::Int(static_cast<int64_t>(rng.NextBounded(30)))});
  }
  store.Freeze();

  // p0(X,Y), p1(Y,Z), p0(X,Z): the third atom probes a composite index.
  Atom a0, a1, a2;
  a0.predicate = 0;
  a0.args = {Term::Variable(0), Term::Variable(1)};
  a1.predicate = 1;
  a1.args = {Term::Variable(1), Term::Variable(2)};
  a2.predicate = 0;
  a2.args = {Term::Variable(0), Term::Variable(2)};
  std::vector<const Atom*> atoms = {&a0, &a1, &a2};
  CompiledRule body = CompileBody(atoms);

  // One thread compiles its own plan (exercising concurrent first builds
  // of the same indices) and counts bindings.
  constexpr int kThreads = 8;
  std::vector<uint64_t> counts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      JoinPlan plan = CompileJoinPlan(body, store);
      JoinExecutor exec;
      MatchStats stats;
      exec.Execute(plan, &stats, [&](const BindingFrame&) {
        ++counts[t];
        return true;
      });
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(counts[t], counts[0]);
  EXPECT_GT(counts[0], 0u);
}

// ---------------------------------------------------------------------------
// BindingFrame basics
// ---------------------------------------------------------------------------

TEST(BindingFrame, BindAndBitmap) {
  BindingFrame frame;
  frame.Reset(70);  // spans two bitmap words
  EXPECT_FALSE(frame.IsBound(0));
  EXPECT_FALSE(frame.IsBound(69));
  frame.Bind(0, Value::Int(1));
  frame.Bind(69, Value::Int(2));
  EXPECT_TRUE(frame.IsBound(0));
  EXPECT_TRUE(frame.IsBound(69));
  EXPECT_FALSE(frame.IsBound(33));
  EXPECT_EQ(frame.Get(69), Value::Int(2));
  frame.Reset(70);
  EXPECT_FALSE(frame.IsBound(0));
  EXPECT_FALSE(frame.IsBound(69));
}

TEST(RuleSlots, FirstOccurrenceNumbering) {
  auto safe = ParseProgram("h(X, Z) :- a(Y, X), b(X, Z), not c(Z, X).");
  ASSERT_TRUE(safe.ok());
  const Rule& rule = safe->rules()[0];
  RuleSlots slots = NumberRuleSlots(rule);
  EXPECT_EQ(slots.count(), 3u);  // Y, X, Z in positive-body order
  const Interner* names = safe->interner();
  uint32_t x = names->Lookup("X"), y = names->Lookup("Y"), z = names->Lookup("Z");
  EXPECT_EQ(slots.SlotOf(y), 0u);
  EXPECT_EQ(slots.SlotOf(x), 1u);
  EXPECT_EQ(slots.SlotOf(z), 2u);
}

}  // namespace
}  // namespace gdlog
