// FactStore, GroundRuleSet, homomorphism Matcher, and DependencyGraph tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "ast/parser.h"
#include "ground/dependency_graph.h"
#include "ground/fact_store.h"
#include "ground/ground_rule.h"
#include "ground/matcher.h"

namespace gdlog {
namespace {

// ---------------------------------------------------------------------------
// FactStore
// ---------------------------------------------------------------------------

TEST(FactStore, InsertAndContains) {
  FactStore store;
  EXPECT_TRUE(store.Insert(1, {Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(store.Insert(1, {Value::Int(1), Value::Int(2)}));  // dup
  EXPECT_TRUE(store.Contains(1, {Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(store.Contains(1, {Value::Int(2), Value::Int(1)}));
  EXPECT_FALSE(store.Contains(2, {Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(FactStore, RowsPreserveInsertionOrder) {
  FactStore store;
  store.Insert(5, {Value::Int(3)});
  store.Insert(5, {Value::Int(1)});
  store.Insert(5, {Value::Int(2)});
  const auto& rows = store.Rows(5);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::Int(3));
  EXPECT_EQ(rows[2][0], Value::Int(2));
  EXPECT_TRUE(store.Rows(99).empty());
}

TEST(FactStore, RowsForUnknownPredicateIsAllocationFreeStatic) {
  // Unknown predicates must all map to the one shared function-local
  // static empty vector — no per-call allocation, and a stable address the
  // caller may hold across calls.
  FactStore store;
  store.Insert(1, {Value::Int(1)});
  const std::vector<Tuple>& a = store.Rows(404);
  const std::vector<Tuple>& b = store.Rows(405);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(&a, &b);
  FactStore other;
  EXPECT_EQ(&other.Rows(404), &a);  // shared across stores too
}

TEST(FactStore, IndexLookupFindsMatchingRows) {
  FactStore store;
  for (int i = 0; i < 10; ++i) {
    store.Insert(1, {Value::Int(i % 3), Value::Int(i)});
  }
  const std::vector<uint32_t>* rows = store.IndexLookup(1, 0, Value::Int(1));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 3u);  // i = 1, 4, 7
  for (uint32_t r : *rows) {
    EXPECT_EQ(store.Rows(1)[r][0], Value::Int(1));
  }
  EXPECT_EQ(store.IndexLookup(1, 0, Value::Int(9)), nullptr);
  EXPECT_EQ(store.IndexLookup(1, 5, Value::Int(0)), nullptr);  // bad column
}

TEST(FactStore, IndexStaysCurrentAfterInserts) {
  FactStore store;
  store.Insert(1, {Value::Int(0)});
  // Build the index...
  ASSERT_NE(store.IndexLookup(1, 0, Value::Int(0)), nullptr);
  // ...then insert more rows and expect them to be indexed.
  store.Insert(1, {Value::Int(0), });
  store.Insert(1, {Value::Int(7)});
  const auto* zeros = store.IndexLookup(1, 0, Value::Int(0));
  ASSERT_NE(zeros, nullptr);
  EXPECT_EQ(zeros->size(), 1u);  // duplicate row was rejected
  ASSERT_NE(store.IndexLookup(1, 0, Value::Int(7)), nullptr);
}

TEST(FactStore, ParseFactsFromText) {
  Interner interner;
  auto store = ParseFacts("router(1). router(2).\nconnected(1, 2).", &interner);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  uint32_t router = interner.Lookup("router");
  uint32_t connected = interner.Lookup("connected");
  EXPECT_EQ(store->Count(router), 2u);
  EXPECT_EQ(store->Count(connected), 1u);
}

TEST(FactStore, ParseFactsRejectsRules) {
  Interner interner;
  auto store = ParseFacts("p(X) :- q(X).", &interner);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST(GroundAtomT, OrderingIsTotalAndConsistent) {
  GroundAtom a{1, {Value::Int(1)}};
  GroundAtom b{1, {Value::Int(2)}};
  GroundAtom c{2, {Value::Int(0)}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(a < a);
  EXPECT_EQ(a.Hash(), (GroundAtom{1, {Value::Int(1)}}.Hash()));
}

// ---------------------------------------------------------------------------
// GroundRuleSet: rule segments shared between clones
// ---------------------------------------------------------------------------

/// p(v) :- q(v), or the fact p(v) with `body` false.
GroundRule RuleFor(int64_t v, bool body = true) {
  GroundRule rule;
  rule.head = GroundAtom{1, {Value::Int(v)}};
  if (body) rule.positive.push_back(GroundAtom{2, {Value::Int(v)}});
  return rule;
}

GroundRuleSet SetOf(std::initializer_list<int64_t> values) {
  GroundRuleSet set;
  for (int64_t v : values) EXPECT_TRUE(set.Add(RuleFor(v)));
  return set;
}

TEST(GroundRuleSetSharing, CloneSharesTheParentsRuleObjects) {
  GroundRuleSet parent = SetOf({1, 2, 3});
  ASSERT_TRUE(parent.Add(RuleFor(4, /*body=*/false)));
  GroundRuleSet clone = parent.Clone();
  ASSERT_EQ(clone.size(), parent.size());
  // Pointer-equal: branching copied no GroundRule.
  for (size_t i = 0; i < parent.size(); ++i) {
    EXPECT_EQ(clone.rules()[i], parent.rules()[i]) << "rule " << i;
  }
  EXPECT_TRUE(clone.Contains(RuleFor(2)));
  EXPECT_TRUE(clone.heads().Contains(GroundAtom{1, {Value::Int(4)}}));
}

TEST(GroundRuleSetSharing, AddToACloneIsInvisibleToParentAndSibling) {
  GroundRuleSet parent = SetOf({1, 2});
  GroundRuleSet left = parent.Clone();
  GroundRuleSet right = parent.Clone();
  EXPECT_TRUE(left.Add(RuleFor(10)));
  EXPECT_TRUE(right.Add(RuleFor(20)));
  EXPECT_EQ(parent.size(), 2u);
  EXPECT_EQ(left.size(), 3u);
  EXPECT_EQ(right.size(), 3u);
  EXPECT_FALSE(parent.Contains(RuleFor(10)));
  EXPECT_FALSE(parent.Contains(RuleFor(20)));
  EXPECT_FALSE(right.Contains(RuleFor(10)));
  EXPECT_FALSE(left.Contains(RuleFor(20)));
  EXPECT_FALSE(parent.heads().Contains(GroundAtom{1, {Value::Int(10)}}));
  EXPECT_FALSE(right.heads().Contains(GroundAtom{1, {Value::Int(10)}}));
  // Each side may add the rule the other added: it is new to that side.
  EXPECT_TRUE(right.Add(RuleFor(10)));
  EXPECT_TRUE(parent.Add(RuleFor(20)));
}

TEST(GroundRuleSetSharing, AddToTheParentAfterCloneIsInvisibleToTheClone) {
  GroundRuleSet parent = SetOf({1, 2});
  GroundRuleSet clone = parent.Clone();
  EXPECT_TRUE(parent.Add(RuleFor(3)));
  EXPECT_EQ(parent.size(), 3u);
  EXPECT_EQ(clone.size(), 2u);
  EXPECT_FALSE(clone.Contains(RuleFor(3)));
  EXPECT_FALSE(clone.heads().Contains(GroundAtom{1, {Value::Int(3)}}));
  EXPECT_TRUE(clone.Add(RuleFor(3)));
}

TEST(GroundRuleSetSharing, RuleOfAnAncestorSegmentIsADuplicate) {
  GroundRuleSet grandparent = SetOf({1, 2});
  GroundRuleSet parent = grandparent.Clone();
  ASSERT_TRUE(parent.Add(RuleFor(3)));
  GroundRuleSet child = parent.Clone();
  ASSERT_TRUE(child.Add(RuleFor(4)));
  // Stored only in the grandparent's segment, then only in the parent's.
  EXPECT_FALSE(child.Add(RuleFor(1)));
  EXPECT_FALSE(child.Add(RuleFor(3)));
  bool new_head = true;
  EXPECT_EQ(child.AddAndGet(RuleFor(2), &new_head), nullptr);
  EXPECT_FALSE(new_head);
  EXPECT_EQ(child.size(), 4u);
  // A rule of the child's own tail is a duplicate, too.
  EXPECT_FALSE(child.Add(RuleFor(4)));
  EXPECT_EQ(child.size(), 4u);
}

TEST(GroundRuleSetSharing, CloneStaysReadableAfterItsParentIsDestroyed) {
  auto parent = std::make_unique<GroundRuleSet>(SetOf({1, 2, 3}));
  GroundRuleSet clone = parent->Clone();
  ASSERT_TRUE(clone.Add(RuleFor(4)));
  parent.reset();
  ASSERT_EQ(clone.size(), 4u);
  for (size_t i = 0; i < clone.size(); ++i) {
    EXPECT_EQ(clone.rules()[i]->head,
              (GroundAtom{1, {Value::Int(static_cast<int64_t>(i) + 1)}}));
  }
  EXPECT_TRUE(clone.Contains(RuleFor(1)));
  EXPECT_FALSE(clone.Add(RuleFor(2)));
  EXPECT_TRUE(clone.Add(RuleFor(5)));
}

TEST(GroundRuleSetSharing, CloneCarriesTheStallStage) {
  GroundRuleSet parent = SetOf({1});
  EXPECT_EQ(parent.Clone().stall_stage(), GroundRuleSet::kNoStall);
  parent.set_stall_stage(2);
  GroundRuleSet clone = parent.Clone();
  EXPECT_EQ(clone.stall_stage(), 2u);
  clone.set_stall_stage(GroundRuleSet::kNoStall);
  EXPECT_EQ(parent.stall_stage(), 2u);
}

// ---------------------------------------------------------------------------
// Matcher
// ---------------------------------------------------------------------------

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edge_ = 1;
    node_ = 2;
    // A small directed graph: 1→2, 2→3, 3→1, 1→3.
    store_.Insert(edge_, {Value::Int(1), Value::Int(2)});
    store_.Insert(edge_, {Value::Int(2), Value::Int(3)});
    store_.Insert(edge_, {Value::Int(3), Value::Int(1)});
    store_.Insert(edge_, {Value::Int(1), Value::Int(3)});
    for (int i = 1; i <= 3; ++i) store_.Insert(node_, {Value::Int(i)});
  }

  Atom MakeAtom(uint32_t pred, std::vector<Term> args) {
    return Atom{pred, std::move(args)};
  }

  size_t CountMatches(const std::vector<const Atom*>& atoms) {
    Matcher matcher(&store_);
    size_t n = 0;
    matcher.Match(atoms, [&](const Binding&) {
      ++n;
      return true;
    });
    return n;
  }

  FactStore store_;
  uint32_t edge_, node_;
};

TEST_F(MatcherTest, SingleAtomAllBindings) {
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(11)});
  EXPECT_EQ(CountMatches({&a}), 4u);
}

TEST_F(MatcherTest, ConstantsFilter) {
  Atom a = MakeAtom(edge_, {Term::Constant(Value::Int(1)), Term::Variable(11)});
  EXPECT_EQ(CountMatches({&a}), 2u);  // 1→2, 1→3
}

TEST_F(MatcherTest, RepeatedVariableRequiresEquality) {
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(10)});
  EXPECT_EQ(CountMatches({&a}), 0u);  // no self loops
  store_.Insert(edge_, {Value::Int(2), Value::Int(2)});
  EXPECT_EQ(CountMatches({&a}), 1u);
}

TEST_F(MatcherTest, JoinTwoAtoms) {
  // Paths of length two: X→Y→Z.
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(11)});
  Atom b = MakeAtom(edge_, {Term::Variable(11), Term::Variable(12)});
  // 1→2→3, 2→3→1, 3→1→2, 3→1→3, 1→3→1.
  EXPECT_EQ(CountMatches({&a, &b}), 5u);
}

TEST_F(MatcherTest, TriangleJoin) {
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(11)});
  Atom b = MakeAtom(edge_, {Term::Variable(11), Term::Variable(12)});
  Atom c = MakeAtom(edge_, {Term::Variable(12), Term::Variable(10)});
  // Triangles: (1,2,3), (2,3,1), (3,1,2) and the 2-cycle-with-chord
  // (1,3,1)? 1→3,3→1,1→1: no. (3,1,3): 3→1,1→3,3→3: no.
  EXPECT_EQ(CountMatches({&a, &b, &c}), 3u);
}

TEST_F(MatcherTest, CrossProductWhenDisconnected) {
  Atom a = MakeAtom(node_, {Term::Variable(10)});
  Atom b = MakeAtom(node_, {Term::Variable(11)});
  EXPECT_EQ(CountMatches({&a, &b}), 9u);
}

TEST_F(MatcherTest, EmptyRelationYieldsNoMatches) {
  Atom a = MakeAtom(99, {Term::Variable(10)});
  Atom b = MakeAtom(node_, {Term::Variable(11)});
  EXPECT_EQ(CountMatches({&a, &b}), 0u);
}

TEST_F(MatcherTest, CallbackCanAbort) {
  Matcher matcher(&store_);
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(11)});
  size_t n = 0;
  bool completed = matcher.Match({&a}, [&](const Binding&) {
    ++n;
    return n < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(n, 2u);
}

TEST_F(MatcherTest, MatchWithPivotRestrictsOneAtom) {
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Variable(11)});
  Atom b = MakeAtom(edge_, {Term::Variable(11), Term::Variable(12)});
  Matcher matcher(&store_);
  // Pivot atom a on only the delta row (1, 2): paths starting with 1→2.
  std::vector<Tuple> delta = {{Value::Int(1), Value::Int(2)}};
  size_t n = 0;
  matcher.MatchWithPivot({&a, &b}, 0, delta, [&](const Binding& binding) {
    EXPECT_EQ(binding.at(10), Value::Int(1));
    EXPECT_EQ(binding.at(11), Value::Int(2));
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1u);  // 1→2→3
}

TEST_F(MatcherTest, ApplyAtomSubstitutes) {
  Binding binding;
  binding[10] = Value::Int(7);
  Atom a = MakeAtom(edge_, {Term::Variable(10), Term::Constant(Value::Int(2))});
  GroundAtom ga = ApplyAtom(a, binding);
  EXPECT_EQ(ga.predicate, edge_);
  EXPECT_EQ(ga.args[0], Value::Int(7));
  EXPECT_EQ(ga.args[1], Value::Int(2));
}

// ---------------------------------------------------------------------------
// DependencyGraph
// ---------------------------------------------------------------------------

TEST(DependencyGraphT, StratifiedChain) {
  auto prog = ParseProgram(
      "b(X) :- a(X).\n"
      "c(X) :- b(X), not a(X).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_TRUE(dg.IsStratified());
  uint32_t a = prog->interner()->Lookup("a");
  uint32_t c = prog->interner()->Lookup("c");
  EXPECT_LT(dg.ComponentOf(a), dg.ComponentOf(c));
  EXPECT_TRUE(dg.DependsOn(c, a));
  EXPECT_FALSE(dg.DependsOn(a, c));
}

TEST(DependencyGraphT, NegativeCycleNotStratified) {
  auto prog = ParseProgram(
      "a :- not b.\n"
      "b :- not a.");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_FALSE(dg.IsStratified());
}

TEST(DependencyGraphT, PositiveCycleIsStratified) {
  auto prog = ParseProgram(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_TRUE(dg.IsStratified());
  uint32_t path = prog->interner()->Lookup("path");
  EXPECT_TRUE(dg.DependsOn(path, path));  // self-dependency via the cycle
}

TEST(DependencyGraphT, NegationIntoCycleStillStratifiedWhenAcyclicNegEdge) {
  auto prog = ParseProgram(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_TRUE(dg.IsStratified());
  uint32_t reach = prog->interner()->Lookup("reach");
  uint32_t unreached = prog->interner()->Lookup("unreached");
  EXPECT_LT(dg.ComponentOf(reach), dg.ComponentOf(unreached));
}

TEST(DependencyGraphT, NegativeCycleThroughTwoPredicates) {
  auto prog = ParseProgram(
      "p(X) :- q(X), not r(X).\n"
      "r(X) :- p(X).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_FALSE(dg.IsStratified());
  // p and r share a strongly connected component.
  uint32_t p = prog->interner()->Lookup("p");
  uint32_t r = prog->interner()->Lookup("r");
  EXPECT_EQ(dg.ComponentOf(p), dg.ComponentOf(r));
}

TEST(DependencyGraphT, ConstraintsDoNotBreakStratification) {
  auto prog = ParseProgram(
      "b(X) :- a(X), not c(X).\n"
      ":- b(X), not a(X).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_TRUE(dg.IsStratified());
}

TEST(DependencyGraphT, TopologicalOrderRespectsAllEdges) {
  auto prog = ParseProgram(
      "d(X) :- c(X).\n"
      "c(X) :- b(X).\n"
      "b(X) :- a(X).");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  for (const DependencyGraph::Edge& e : dg.edges()) {
    EXPECT_LE(dg.ComponentOf(e.from), dg.ComponentOf(e.to));
  }
}

TEST(DependencyGraphT, FigureOneDimeQuarter) {
  // Appendix E, Figure 1: Dime, Quarter, DimeTail, SomeDimeTail,
  // QuarterTail with the dashed (negative) arc SomeDimeTail → QuarterTail.
  auto prog = ParseProgram(
      "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
      "somedimetail :- dimetail(X, 1).\n"
      "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.");
  ASSERT_TRUE(prog.ok());
  DependencyGraph dg(*prog);
  EXPECT_TRUE(dg.IsStratified());
  auto name = [&](const char* n) { return prog->interner()->Lookup(n); };
  // The topological order puts dime before dimetail before somedimetail
  // before quartertail, as in the worked example.
  EXPECT_LT(dg.ComponentOf(name("dime")), dg.ComponentOf(name("dimetail")));
  EXPECT_LT(dg.ComponentOf(name("dimetail")),
            dg.ComponentOf(name("somedimetail")));
  EXPECT_LT(dg.ComponentOf(name("somedimetail")),
            dg.ComponentOf(name("quartertail")));
  // Exactly one negative edge: somedimetail → quartertail.
  int negative_edges = 0;
  for (const DependencyGraph::Edge& e : dg.edges()) {
    if (e.negative) {
      ++negative_edges;
      EXPECT_EQ(e.from, name("somedimetail"));
      EXPECT_EQ(e.to, name("quartertail"));
    }
  }
  EXPECT_EQ(negative_edges, 1);
  // The DOT rendering mentions the dashed arc.
  std::string dot = dg.ToDot(prog->interner());
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace gdlog
