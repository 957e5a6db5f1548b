// The magic-sets demand restriction of Σ_Π (gdatalog/demand.h): the
// backward closure it keeps (Active↔Result pairing, constraints and their
// support), its goal-marginal preservation and strict pruning through
// GDatalog::Options::demand_goals, and the registry's per-goal-signature
// demand-engine cache.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "ast/parser.h"
#include "gdatalog/demand.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/translation.h"
#include "server/registry.h"

namespace gdlog {
namespace {

// A goal subsystem plus an expensive irrelevant one. The irrelevant rule
// uses a different event arity than coin's flip so the translation mints a
// distinct Active/Result signature pair — demand must prune real rules,
// not share them with the goal's.
constexpr char kDemandProgram[] =
    "win :- coin(1).\n"
    "coin(flip<0.5>).\n"
    "buzz(X, Y, flip<0.5>[X, Y]) :- chatter(X), chatter(Y).\n";

constexpr char kDemandDb[] = "chatter(1).\nchatter(2).\n";

std::string SpaceJson(const GDatalog& engine) {
  auto space = engine.Infer();
  if (!space.ok()) {
    ADD_FAILURE() << space.status().ToString();
    return "";
  }
  JsonExportOptions options;
  options.include_outcomes = true;
  options.include_models = true;
  options.include_events = true;
  return OutcomeSpaceToJson(*space, engine.translated(),
                            engine.program().interner(), options);
}

GDatalog MustCreate(const std::string& program, const std::string& db,
                    GDatalog::Options options = {}) {
  auto engine = GDatalog::Create(program, db, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Translates program text into the Σ_Π the restriction tests filter
/// directly (the fixture keeps Π alive for the shared interner).
class DemandRestrictTest : public ::testing::Test {
 protected:
  TranslatedProgram& Translate(const std::string& text) {
    auto prog = ParseProgram(text);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    program_ = std::move(prog).value();
    Status valid = program_.Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    auto tp = TranslateToTgd(program_, registry_);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    translated_ = std::move(tp).value();
    return *translated_;
  }

  uint32_t Pred(const std::string& name) const {
    uint32_t id = program_.interner()->Lookup(name);
    EXPECT_NE(id, Interner::kNotFound) << name;
    return id;
  }

  DistributionRegistry registry_ = DistributionRegistry::Builtins();
  Program program_;
  std::optional<TranslatedProgram> translated_;
};

TEST_F(DemandRestrictTest, KeepsBackwardClosureWithActiveResultPairing) {
  TranslatedProgram& sigma = Translate(kDemandProgram);
  // Σ: win rule + coin Active/Result pair + buzz Active/Result pair.
  ASSERT_EQ(sigma.sigma().rules().size(), 5u);
  // Only buzz's two rules fall outside win's backward closure.
  EXPECT_EQ(RestrictToDemand(&sigma, {Pred("win")}), 2u);
  ASSERT_EQ(sigma.sigma().rules().size(), 3u);
  ASSERT_EQ(sigma.origin().size(), 3u);
  for (size_t i = 0; i < sigma.sigma().rules().size(); ++i) {
    EXPECT_NE(sigma.sigma().rules()[i].head.predicate, Pred("buzz"))
        << sigma.sigma().ToString();
    // Origins stay parallel to the kept rules: Π-rule 2 (buzz) is gone.
    EXPECT_LT(sigma.origin()[i], 2u);
  }
  // The Active rule survives via the Active↔Result pairing even though no
  // kept body literal mentions it.
  EXPECT_NE(sigma.sigma().ToString().find("__active_flip_1_0"),
            std::string::npos)
      << sigma.sigma().ToString();
}

TEST_F(DemandRestrictTest, KeepsConstraintsAndTheirSupport) {
  TranslatedProgram& sigma = Translate(
      std::string(kDemandProgram) + ":- buzz(X, Y, 1), buzz(Y, X, 1).\n");
  // The constraint pulls buzz (and everything under it) back into the
  // closure: nothing can be dropped, and the no-op leaves Σ_Π untouched.
  std::string before = sigma.sigma().ToString();
  EXPECT_EQ(RestrictToDemand(&sigma, {Pred("win")}), 0u);
  EXPECT_EQ(sigma.sigma().ToString(), before);
  EXPECT_EQ(RestrictToDemand(&sigma, {}), 0u);
  EXPECT_EQ(sigma.sigma().ToString(), before);
}

/// Demand coarsens the outcome space; what it must preserve exactly are
/// the goal marginals — and it must strictly shrink the explored space
/// when an irrelevant subsystem exists.
TEST(DemandEngineTest, PreservesGoalMarginalsWhileStrictlyPruning) {
  GDatalog full = MustCreate(kDemandProgram, kDemandDb);
  EXPECT_FALSE(full.opt_stats().demand_applied);
  GDatalog::Options options;
  options.demand_goals = {"win"};
  GDatalog demand = MustCreate(kDemandProgram, kDemandDb, std::move(options));
  ASSERT_TRUE(demand.opt_stats().demand_applied);
  EXPECT_EQ(demand.opt_stats().rules_in, 5u);
  EXPECT_EQ(demand.opt_stats().rules_out, 3u);

  auto full_space = full.Infer();
  auto demand_space = demand.Infer();
  ASSERT_TRUE(full_space.ok()) << full_space.status().ToString();
  ASSERT_TRUE(demand_space.ok()) << demand_space.status().ToString();
  // 4 chatter pairs × flip ⇒ 16 buzz outcomes per coin side in the full
  // space; demand collapses them to the coin flip alone.
  EXPECT_EQ(full_space->outcomes.size(), 32u);
  EXPECT_EQ(demand_space->outcomes.size(), 2u);

  auto full_atom = full.ParseGroundAtom("win");
  auto demand_atom = demand.ParseGroundAtom("win");
  ASSERT_TRUE(full_atom.ok() && demand_atom.ok());
  auto full_bounds = full_space->Marginal(*full_atom);
  auto demand_bounds = demand_space->Marginal(*demand_atom);
  EXPECT_EQ(full_bounds.lower.ToString(), demand_bounds.lower.ToString());
  EXPECT_EQ(full_bounds.upper.ToString(), demand_bounds.upper.ToString());
  EXPECT_EQ(demand_bounds.lower.ToString(), "1/2");
}

TEST(DemandEngineTest, UnknownGoalNamesLeaveDemandOff) {
  GDatalog::Options options;
  options.demand_goals = {"no_such_predicate"};
  GDatalog engine = MustCreate(kDemandProgram, kDemandDb, std::move(options));
  EXPECT_FALSE(engine.opt_stats().demand_applied);
  EXPECT_EQ(engine.opt_stats().rules_out, 5u);
  GDatalog full = MustCreate(kDemandProgram, kDemandDb);
  EXPECT_EQ(SpaceJson(engine), SpaceJson(full));
}

TEST(DemandRegistryTest, EnginesAreCachedPerGoalSignature) {
  EXPECT_EQ(ProgramRegistry::DemandSignature({"b", "a", "b"}), "a,b");

  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kDemandProgram;
  spec.db_text = kDemandDb;
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto entry = registry.Find(info->id);
  ASSERT_NE(entry, nullptr);

  auto first = registry.DemandEngine(*entry, {"win"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE((*first)->opt_stats().demand_applied);
  // Same signature, different order/duplicates: a cache hit, same engine.
  auto second = registry.DemandEngine(*entry, {"win", "win"});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(registry.opt_counters().demand_engines_built, 1u);
  EXPECT_EQ(registry.opt_counters().demand_cache_hits, 1u);

  auto swapped = registry.ReplaceDatabase(info->id, "chatter(9).\n");
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(registry.opt_counters().db_replacements, 1u);
  // The fresh entry starts with an empty demand cache (stale demand
  // engines must never serve the new database).
  auto fresh_entry = registry.Find(info->id);
  ASSERT_NE(fresh_entry, nullptr);
  EXPECT_TRUE(fresh_entry->demand_engines.empty());
}

}  // namespace
}  // namespace gdlog
