// Adversarial property testing of the stable-model solver: random ground
// normal programs are solved both by the engine and by a brute-force
// oracle (enumerate all 2^n interpretations, keep the Gelfond–Lifschitz
// fixpoints that satisfy all constraints). The two must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "stable/solver.h"
#include "stable/wfs.h"
#include "util/rng.h"

namespace gdlog {
namespace {

/// A random ground normal program over `num_atoms` 0-ary atoms.
struct RandomProgram {
  std::vector<const GroundRule*> rule_ptrs;
  std::vector<GroundRule> rules;
};

RandomProgram MakeRandomProgram(uint64_t seed, size_t num_atoms,
                                size_t num_rules, bool with_constraints) {
  Rng rng(seed);
  RandomProgram out;
  out.rules.reserve(num_rules + 2);
  for (size_t i = 0; i < num_rules; ++i) {
    GroundRule rule;
    bool constraint =
        with_constraints && rng.NextBounded(8) == 0;  // ~12% constraints
    rule.is_constraint = constraint;
    if (!constraint) {
      rule.head = GroundAtom{static_cast<uint32_t>(rng.NextBounded(num_atoms)),
                             {}};
    }
    size_t body_size = rng.NextBounded(3);  // 0..2 literals
    if (constraint && body_size == 0) body_size = 1;
    for (size_t b = 0; b < body_size; ++b) {
      GroundAtom atom{static_cast<uint32_t>(rng.NextBounded(num_atoms)), {}};
      if (rng.NextBounded(2) == 0) {
        rule.negative.push_back(std::move(atom));
      } else {
        rule.positive.push_back(std::move(atom));
      }
    }
    out.rules.push_back(std::move(rule));
  }
  for (const GroundRule& r : out.rules) out.rule_ptrs.push_back(&r);
  return out;
}

/// A larger random program that always carries the shapes the solver's
/// propagation treats specially, next to `num_rules` random rules (~12%
/// constraints, bodies of 0..3 literals): three even negation loops, a
/// positive loop x ↔ y with an exit through "not z", a rule with a
/// duplicated positive body atom, and one whose atom occurs both
/// positively and negatively.
RandomProgram MakeShapedProgram(uint64_t seed, size_t num_atoms,
                                size_t num_rules) {
  Rng rng(seed);
  RandomProgram out;
  auto atom = [&] {
    return GroundAtom{static_cast<uint32_t>(rng.NextBounded(num_atoms)), {}};
  };
  auto add = [&](GroundAtom head, std::vector<GroundAtom> positive,
                 std::vector<GroundAtom> negative) {
    GroundRule rule;
    rule.head = std::move(head);
    rule.positive = std::move(positive);
    rule.negative = std::move(negative);
    out.rules.push_back(std::move(rule));
  };
  out.rules.reserve(num_rules + 10);
  for (int loop = 0; loop < 3; ++loop) {
    GroundAtom u = atom(), v = atom();
    add(u, {}, {v});
    add(v, {}, {u});
  }
  GroundAtom x = atom(), y = atom(), z = atom(), w = atom();
  add(x, {y}, {z});
  add(y, {x}, {});
  add(atom(), {w, w}, {});
  add(atom(), {w}, {w});
  for (size_t i = 0; i < num_rules; ++i) {
    GroundRule rule;
    rule.is_constraint = rng.NextBounded(8) == 0;
    if (!rule.is_constraint) rule.head = atom();
    size_t body_size = rng.NextBounded(4);
    if (rule.is_constraint && body_size == 0) body_size = 1;
    for (size_t b = 0; b < body_size; ++b) {
      (rng.NextBounded(2) == 0 ? rule.negative : rule.positive)
          .push_back(atom());
    }
    out.rules.push_back(std::move(rule));
  }
  for (const GroundRule& r : out.rules) out.rule_ptrs.push_back(&r);
  return out;
}

/// Brute-force oracle: M ⊆ atoms is a stable model iff M is the least
/// model of the reduct P^M and no constraint fires under M.
std::set<std::vector<uint32_t>> BruteForceStableModels(
    const std::vector<GroundRule>& rules, size_t num_atoms) {
  std::set<std::vector<uint32_t>> models;
  for (uint64_t mask = 0; mask < (1ULL << num_atoms); ++mask) {
    auto in_m = [&](const GroundAtom& a) {
      return (mask >> a.predicate) & 1;
    };
    // Least model of the reduct: drop rules whose negative body intersects
    // M; iterate positive closure.
    std::vector<bool> least(num_atoms, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const GroundRule& rule : rules) {
        if (rule.is_constraint) continue;
        bool blocked = false;
        for (const GroundAtom& a : rule.negative) {
          if (in_m(a)) blocked = true;
        }
        if (blocked) continue;
        bool body_true = true;
        for (const GroundAtom& a : rule.positive) {
          if (!least[a.predicate]) body_true = false;
        }
        if (body_true && !least[rule.head.predicate]) {
          least[rule.head.predicate] = true;
          changed = true;
        }
      }
    }
    // Fixpoint check: least == M.
    bool stable = true;
    for (size_t a = 0; a < num_atoms; ++a) {
      if (least[a] != (((mask >> a) & 1) != 0)) stable = false;
    }
    if (!stable) continue;
    // Constraints.
    bool violated = false;
    for (const GroundRule& rule : rules) {
      if (!rule.is_constraint) continue;
      bool fires = true;
      for (const GroundAtom& a : rule.positive) {
        if (!in_m(a)) fires = false;
      }
      for (const GroundAtom& a : rule.negative) {
        if (in_m(a)) fires = false;
      }
      if (fires) violated = true;
    }
    if (violated) continue;
    std::vector<uint32_t> model;
    for (size_t a = 0; a < num_atoms; ++a) {
      if ((mask >> a) & 1) model.push_back(static_cast<uint32_t>(a));
    }
    models.insert(std::move(model));
  }
  return models;
}

/// Every model Enumerate reports, in report order, as sorted 0-ary
/// predicate ids.
std::vector<std::vector<uint32_t>> EnumerateModels(
    const NormalProgram& prog, StableModelEnumerator::Options options,
    uint64_t* nodes = nullptr) {
  StableModelEnumerator solver(prog, options);
  std::vector<std::vector<uint32_t>> got;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    EXPECT_TRUE(std::is_sorted(atoms.begin(), atoms.end()));
    // Translate dense solver ids back to the 0-ary predicate ids.
    std::vector<uint32_t> model;
    for (uint32_t a : atoms) model.push_back(prog.atoms().Get(a).predicate);
    std::sort(model.begin(), model.end());
    got.push_back(std::move(model));
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (nodes != nullptr) *nodes = solver.nodes_used();
  return got;
}

/// Node count of the reference search the solver must never exceed: the
/// same branching order (negative atoms by ascending id, true first), with
/// the well-founded model conditioned on the decisions recomputed to a
/// fixpoint at every node.
uint64_t WfsSearchNodes(const NormalProgram& prog,
                        std::vector<Truth>& external) {
  std::vector<uint32_t> assigned;
  auto undo = [&] {
    for (uint32_t b : assigned) external[b] = Truth::kUndefined;
  };
  for (bool changed = true; changed;) {
    WellFoundedModel wfm = ComputeWellFounded(prog, &external);
    uint32_t bot = prog.falsity_atom();
    if (bot != NormalProgram::kNoFalsity && wfm.truth[bot] == Truth::kTrue) {
      undo();
      return 1;
    }
    changed = false;
    for (uint32_t a : prog.negative_atoms()) {
      Truth w = wfm.truth[a];
      if (w == Truth::kUndefined) continue;
      if (external[a] == Truth::kUndefined) {
        external[a] = w;
        assigned.push_back(a);
        changed = true;
      } else if (external[a] != w) {
        undo();
        return 1;
      }
    }
  }
  uint64_t nodes = 1;
  for (uint32_t a : prog.negative_atoms()) {
    if (external[a] != Truth::kUndefined) continue;
    for (Truth guess : {Truth::kTrue, Truth::kFalse}) {
      external[a] = guess;
      nodes += WfsSearchNodes(prog, external);
    }
    external[a] = Truth::kUndefined;
    break;
  }
  undo();
  return nodes;
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramTest, SolverMatchesBruteForceOracle) {
  constexpr size_t kAtoms = 12;
  constexpr size_t kRules = 24;
  RandomProgram rp = MakeShapedProgram(GetParam(), kAtoms, kRules - 10);
  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  uint64_t nodes = 0;
  std::vector<std::vector<uint32_t>> all = EnumerateModels(prog, {}, &nodes);
  std::set<std::vector<uint32_t>> got(all.begin(), all.end());
  EXPECT_EQ(got.size(), all.size()) << "a model was reported twice";

  // Incremental propagation prunes at least as much as recomputing the
  // conditioned well-founded model at every node.
  std::vector<Truth> external(prog.atom_count(), Truth::kUndefined);
  EXPECT_LE(nodes, WfsSearchNodes(prog, external)) << "seed " << GetParam();

  // The solver only knows atoms that appear in the program; the oracle
  // enumerates all kAtoms. Atoms never mentioned can never be true, so
  // both sides agree on mentioned atoms — compare directly.
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);
  EXPECT_EQ(got, expected) << "seed " << GetParam();

  // Early stop: max_models = k reports the first k models of the full
  // enumeration, each one a brute-force stable model.
  for (uint64_t k : {1, 2}) {
    StableModelEnumerator::Options options;
    options.max_models = k;
    std::vector<std::vector<uint32_t>> prefix = EnumerateModels(prog, options);
    ASSERT_EQ(prefix.size(), std::min<size_t>(k, all.size()))
        << "seed " << GetParam() << " max_models " << k;
    for (size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i], all[i]) << "seed " << GetParam();
      EXPECT_EQ(expected.count(prefix[i]), 1u) << "seed " << GetParam();
    }
  }
}

TEST_P(RandomProgramTest, WfsBracketsAllStableModels) {
  constexpr size_t kAtoms = 7;
  constexpr size_t kRules = 12;
  RandomProgram rp = MakeRandomProgram(GetParam() + 1000, kAtoms, kRules,
                                       /*with_constraints=*/false);
  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);

  for (const std::vector<uint32_t>& model : expected) {
    for (uint32_t a = 0; a < prog.atom_count(); ++a) {
      uint32_t pred = prog.atoms().Get(a).predicate;
      bool in_model =
          std::binary_search(model.begin(), model.end(), pred);
      if (wfm.truth[a] == Truth::kTrue) {
        EXPECT_TRUE(in_model) << "WFS-true atom missing from a stable model";
      }
      if (wfm.truth[a] == Truth::kFalse) {
        EXPECT_FALSE(in_model) << "WFS-false atom present in a stable model";
      }
    }
  }
}

TEST_P(RandomProgramTest, TotalWfsImpliesUniqueStableModel) {
  constexpr size_t kAtoms = 7;
  constexpr size_t kRules = 12;
  RandomProgram rp = MakeRandomProgram(GetParam() + 2000, kAtoms, kRules,
                                       /*with_constraints=*/false);
  NormalProgram prog = NormalProgram::FromRules(rp.rule_ptrs);
  WellFoundedModel wfm = ComputeWellFounded(prog);
  if (!wfm.IsTotal()) return;  // property only applies to total WFS
  std::set<std::vector<uint32_t>> expected =
      BruteForceStableModels(rp.rules, kAtoms);
  ASSERT_EQ(expected.size(), 1u);
  // And the unique stable model is the WFS-true set.
  std::vector<uint32_t> wfs_true;
  for (uint32_t a = 0; a < prog.atom_count(); ++a) {
    if (wfm.truth[a] == Truth::kTrue) {
      wfs_true.push_back(prog.atoms().Get(a).predicate);
    }
  }
  std::sort(wfs_true.begin(), wfs_true.end());
  EXPECT_EQ(*expected.begin(), wfs_true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 241));

}  // namespace
}  // namespace gdlog
