// Well-founded semantics and stable-model enumeration: the Datalog¬
// substrate the probabilistic layer rests on.
#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "stable/solver.h"
#include "stable/wfs.h"
#include "util/thread_pool.h"

namespace gdlog {
namespace {

// Test helper: parse a *ground* normal program in surface syntax and return
// the GroundRuleSet (facts and ground rules only; no variables).
GroundRuleSet ParseGround(const std::string& text, Interner* interner) {
  auto shared = std::shared_ptr<Interner>(interner, [](Interner*) {});
  auto prog = ParseProgram(text, shared);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  GroundRuleSet out;
  for (const Rule& rule : prog->rules()) {
    GroundRule gr;
    gr.is_constraint = rule.is_constraint;
    if (!rule.is_constraint) {
      gr.head.predicate = rule.head.predicate;
      for (const HeadArg& arg : rule.head.args) {
        EXPECT_TRUE(arg.term().is_constant()) << "ground programs only";
        gr.head.args.push_back(arg.term().constant());
      }
    }
    for (const Literal& lit : rule.body) {
      GroundAtom atom;
      atom.predicate = lit.atom.predicate;
      for (const Term& t : lit.atom.args) {
        EXPECT_TRUE(t.is_constant()) << "ground programs only";
        atom.args.push_back(t.constant());
      }
      (lit.negated ? gr.negative : gr.positive).push_back(std::move(atom));
    }
    out.Add(std::move(gr));
  }
  return out;
}

StableModelSet Solve(const std::string& text) {
  Interner interner;
  GroundRuleSet rules = ParseGround(text, &interner);
  auto models = AllStableModels(rules);
  EXPECT_TRUE(models.ok()) << models.status().ToString();
  return std::move(models).value();
}

// Renders a model as "a b(1)" for compact assertions.
std::vector<std::string> Render(const StableModelSet& models,
                                const std::string& text) {
  // Re-parse to get a consistent interner for rendering.
  Interner interner;
  ParseGround(text, &interner);
  std::vector<std::string> out;
  for (const StableModel& model : models) {
    std::string s;
    for (const GroundAtom& atom : model) {
      if (!s.empty()) s += " ";
      s += atom.ToString(&interner);
    }
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Well-founded model
// ---------------------------------------------------------------------------

TEST(Wfs, PositiveProgramIsTotal) {
  Interner interner;
  GroundRuleSet rules = ParseGround("a. b :- a. c :- b. d :- e.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_TRUE(wfm.IsTotal());
  EXPECT_EQ(wfm.TrueAtoms().size(), 3u);  // a, b, c; d and e false
}

TEST(Wfs, StratifiedNegationIsTotal) {
  Interner interner;
  GroundRuleSet rules = ParseGround("a. c :- a, not b.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_TRUE(wfm.IsTotal());
  EXPECT_EQ(wfm.TrueAtoms().size(), 2u);  // a, c
}

TEST(Wfs, EvenNegativeLoopIsUndefined) {
  Interner interner;
  GroundRuleSet rules = ParseGround("a :- not b. b :- not a.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_FALSE(wfm.IsTotal());
  EXPECT_TRUE(wfm.TrueAtoms().empty());
  for (Truth t : wfm.truth) EXPECT_EQ(t, Truth::kUndefined);
}

TEST(Wfs, OddNegativeLoopIsUndefined) {
  Interner interner;
  GroundRuleSet rules = ParseGround("a :- not a.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_FALSE(wfm.IsTotal());
}

TEST(Wfs, UnfoundedPositiveLoopIsFalse) {
  // a :- b. b :- a.  — no external support: both well-founded false.
  Interner interner;
  GroundRuleSet rules = ParseGround("a :- b. b :- a.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_TRUE(wfm.IsTotal());
  EXPECT_TRUE(wfm.TrueAtoms().empty());
}

TEST(Wfs, MixedDefiniteAndUndefined) {
  Interner interner;
  GroundRuleSet rules =
      ParseGround("f. a :- not b. b :- not a. c :- f, not g.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  EXPECT_FALSE(wfm.IsTotal());
  // f and c are well-founded true.
  EXPECT_EQ(wfm.TrueAtoms().size(), 2u);
}

TEST(Wfs, ExternalConditioningBlocksRules) {
  Interner interner;
  GroundRuleSet rules = ParseGround("a :- not b. b :- not a.", &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  // Force b true: "not b" is falsified, so a becomes false... and b has no
  // derivation either way — conditioning only affects negation.
  std::vector<Truth> external(prog.atom_count(), Truth::kUndefined);
  uint32_t b = prog.atoms().Lookup(
      GroundAtom{interner.Lookup("b"), {}});
  ASSERT_NE(b, AtomTable::kNotFound);
  external[b] = Truth::kTrue;
  WellFoundedModel wfm = ComputeWellFounded(prog, &external);
  uint32_t a = prog.atoms().Lookup(GroundAtom{interner.Lookup("a"), {}});
  EXPECT_EQ(wfm.truth[a], Truth::kFalse);
  EXPECT_EQ(wfm.truth[b], Truth::kTrue);  // b :- not a fires since a false
}

// ---------------------------------------------------------------------------
// Stable models
// ---------------------------------------------------------------------------

TEST(Solver, PositiveProgramHasUniqueMinimalModel) {
  StableModelSet models = Solve("a. b :- a. c :- z.");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models.begin()->size(), 2u);  // {a, b}
}

TEST(Solver, EvenLoopHasTwoModels) {
  StableModelSet models = Solve("a :- not b. b :- not a.");
  auto rendered = Render(models, "a :- not b. b :- not a.");
  ASSERT_EQ(rendered.size(), 2u);
  EXPECT_EQ(rendered[0], "a");
  EXPECT_EQ(rendered[1], "b");
}

TEST(Solver, OddLoopHasNoModel) {
  EXPECT_TRUE(Solve("a :- not a.").empty());
}

TEST(Solver, OddLoopWithEscape) {
  // a :- not a is inconsistent alone, but "a :- b. b." provides support.
  StableModelSet models = Solve("a :- not a. a :- b. b.");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models.begin()->size(), 2u);  // {a, b}
}

TEST(Solver, UnfoundedLoopNotStable) {
  // The supported model {a, b} is not stable (circular support).
  EXPECT_EQ(Solve("a :- b. b :- a.").size(), 1u);  // only {} is stable
  EXPECT_TRUE(Solve("a :- b. b :- a.").begin()->empty());
}

TEST(Solver, ChoiceViaEvenLoopsScales) {
  // n independent even loops ⇒ 2^n stable models.
  std::string text;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    text += a + " :- not " + b + ". " + b + " :- not " + a + ".\n";
  }
  EXPECT_EQ(Solve(text).size(), 64u);
}

TEST(Solver, ConstraintsFilterModels) {
  std::string text = "a :- not b. b :- not a. :- a.";
  StableModelSet models = Solve(text);
  auto rendered = Render(models, text);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "b");
}

TEST(Solver, ConstraintCanEraseAllModels) {
  EXPECT_TRUE(Solve("a :- not b. b :- not a. :- a. :- b.").empty());
}

TEST(Solver, ConstraintWithNegativeBody) {
  // ":- not a" forces a true; only the model containing a survives.
  std::string text = "a :- not b. b :- not a. :- not a.";
  auto rendered = Render(Solve(text), text);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "a");
}

TEST(Solver, FactsAlwaysInEveryModel) {
  std::string text = "f(1). f(2). a :- not b. b :- not a.";
  StableModelSet models = Solve(text);
  ASSERT_EQ(models.size(), 2u);
  for (const StableModel& model : models) {
    EXPECT_EQ(model.size(), 3u);  // two facts + one of a/b
  }
}

TEST(Solver, GelfondLifschitzClassicExample) {
  // p :- not q. q :- not p. r :- p. r :- q.  — two models, both contain r.
  std::string text = "p :- not q. q :- not p. r :- p. r :- q.";
  StableModelSet models = Solve(text);
  ASSERT_EQ(models.size(), 2u);
  for (const StableModel& model : models) EXPECT_EQ(model.size(), 2u);
}

TEST(Solver, NegationOfDerivedAtom) {
  // b derivable ⇒ "not b" fails ⇒ a underivable.
  EXPECT_EQ(Render(Solve("b. a :- not b."), "b. a :- not b.").at(0), "b");
}

TEST(Solver, CoinProgramGroundVersion) {
  // The ground version of the paper's Π_coin with flip = 1:
  //   coin(1). aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.
  std::string text =
      "coin(1). aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.";
  StableModelSet models = Solve(text);
  ASSERT_EQ(models.size(), 2u);
  auto rendered = Render(models, text);
  // Models are sorted by predicate-interning order: coin first.
  EXPECT_EQ(rendered[0], "coin(1) aux1");
  EXPECT_EQ(rendered[1], "coin(1) aux2");
}

TEST(Solver, EnumerationHonorsMaxModels) {
  Interner interner;
  std::string text =
      "a0 :- not b0. b0 :- not a0. a1 :- not b1. b1 :- not a1.";
  GroundRuleSet rules = ParseGround(text, &interner);
  StableModelEnumerator::Options options;
  options.max_models = 2;
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  StableModelEnumerator solver(prog, options);
  size_t count = 0;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>&) {
    ++count;
    return true;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 2u);
}

TEST(Solver, NodeBudgetReportsExhaustion) {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    text += a + " :- not " + b + ". " + b + " :- not " + a + ".\n";
  }
  Interner interner;
  GroundRuleSet rules = ParseGround(text, &interner);
  StableModelEnumerator::Options options;
  options.max_nodes = 10;
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  StableModelEnumerator solver(prog, options);
  Status st = solver.Enumerate(
      [](const std::vector<uint32_t>&) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kBudgetExhausted);
}

TEST(Solver, HasStableModelShortCircuits) {
  Interner interner;
  GroundRuleSet sat = ParseGround("a :- not b. b :- not a.", &interner);
  auto has = HasStableModel(sat);
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  Interner interner2;
  GroundRuleSet unsat = ParseGround("x. a :- not a.", &interner2);
  auto hasnt = HasStableModel(unsat);
  ASSERT_TRUE(hasnt.ok());
  EXPECT_FALSE(*hasnt);
}

TEST(Solver, DeepSearchOnPoolWorkerIsIterative) {
  // 20,000 independent even loops a_i :- not b_i. b_i :- not a_i. The
  // search takes 20,000 decisions on one path; it must neither grow the
  // stack per decision nor redo work proportional to the program per node
  // — here on a pool worker, whose stack is what chase leaves get.
  constexpr uint32_t kLoops = 20'000;
  GroundRuleSet rules;
  for (uint32_t i = 0; i < kLoops; ++i) {
    GroundAtom a{2 * i, {}};
    GroundAtom b{2 * i + 1, {}};
    GroundRule ra;
    ra.head = a;
    ra.negative.push_back(b);
    rules.Add(std::move(ra));
    GroundRule rb;
    rb.head = b;
    rb.negative.push_back(a);
    rules.Add(std::move(rb));
  }
  Result<bool> has = Status::Internal("not run");
  uint64_t nodes = 0;
  size_t model_size = 0;
  {
    ThreadPool pool(1);
    pool.Submit([&](size_t) {
      has = HasStableModel(rules);
      NormalProgram prog = NormalProgram::FromRuleSet(rules);
      StableModelEnumerator::Options options;
      options.max_models = 1;
      StableModelEnumerator solver(prog, options);
      Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
        model_size = atoms.size();
        return true;
      });
      EXPECT_TRUE(st.ok()) << st.ToString();
      nodes = solver.nodes_used();
    });
    pool.WaitIdle();
  }
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_TRUE(*has);
  EXPECT_EQ(model_size, kLoops);
  // The root plus one decision per loop: propagation settles each b_i.
  EXPECT_EQ(nodes, kLoops + 1);
}

// ---------------------------------------------------------------------------
// Property sweep: every enumerated stable model passes an independent
// Gelfond–Lifschitz verification, and the well-founded model brackets it.
// ---------------------------------------------------------------------------

class SolverPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SolverPropertyTest, ModelsAreStableAndBracketedByWfs) {
  Interner interner;
  GroundRuleSet rules = ParseGround(GetParam(), &interner);
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  WellFoundedModel wfm = ComputeWellFounded(prog);

  StableModelEnumerator solver(prog);
  size_t models = 0;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    ++models;
    std::vector<bool> in_model(prog.atom_count(), false);
    for (uint32_t a : atoms) in_model[a] = true;

    // Independent verification: M equals the least model of the reduct
    // P^M (drop rules with a negative atom in M; drop negative literals).
    std::vector<Truth> external(prog.atom_count(), Truth::kFalse);
    for (uint32_t a = 0; a < prog.atom_count(); ++a) {
      if (in_model[a]) external[a] = Truth::kTrue;
    }
    std::vector<bool> least = LeastModelOfReduct(prog, external);
    uint32_t bot = prog.falsity_atom();
    for (uint32_t a = 0; a < prog.atom_count(); ++a) {
      if (a == bot) {
        EXPECT_FALSE(least[a]) << "constraint-violating model emitted";
        continue;
      }
      EXPECT_EQ(least[a], in_model[a]) << "atom " << a << " not stable";
    }

    // WFS bracket: well-founded-true atoms are in every stable model,
    // well-founded-false atoms in none.
    for (uint32_t a = 0; a < prog.atom_count(); ++a) {
      if (a == bot) continue;
      if (wfm.truth[a] == Truth::kTrue) {
        EXPECT_TRUE(in_model[a]);
      }
      if (wfm.truth[a] == Truth::kFalse) {
        EXPECT_FALSE(in_model[a]);
      }
    }
    return true;
  });
  ASSERT_TRUE(st.ok());
}

INSTANTIATE_TEST_SUITE_P(
    GroundPrograms, SolverPropertyTest,
    ::testing::Values(
        "a. b :- a.",
        "a :- not b. b :- not a.",
        "a :- not b. b :- not a. c :- a. c :- b.",
        "x. a :- not a.",
        "a :- not b. b :- not c. c :- not a.",
        "f. a :- f, not b. b :- f, not a. :- a.",
        "p(1). p(2). q(1) :- p(1), not q(2). q(2) :- p(2), not q(1).",
        "a :- b. b :- a. c :- not a.",
        "a :- not b. b :- not a. :- not a.",
        "d. e :- d. f :- e, not g. g :- e, not f. h :- f. h :- g. :- h, f."));

}  // namespace
}  // namespace gdlog
