// The src/opt pass pipeline: per-pass unit tests over lifted IRs
// (specialization narrowing/splitting, dead-rule elimination, magic-sets
// demand closure, cross-rule subjoin sharing), golden --dump-ir snapshots
// for the paper's E1/E3 programs, randomized pass-on/pass-off outcome-space
// bit-identity (both grounders, exported JSON compared as strings), the
// demand pass's goal-marginal preservation + strict pruning, WithDatabase
// pipeline reuse, the registry's demand-engine cache and opt counters, and
// the GDLOG_NO_OPT escape hatch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "ast/parser.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/translation.h"
#include "ground/fact_store.h"
#include "opt/ir.h"
#include "opt/pass_manager.h"
#include "opt/passes.h"
#include "server/registry.h"
#include "util/rng.h"

namespace gdlog {
namespace {

// This suite tests the pipeline itself, so it must own the kill switch: a
// ctest run exported with GDLOG_NO_OPT=1 (CI does this to prove the rest
// of the tree is optimizer-agnostic) would otherwise vacuously disable
// everything asserted here. OptEnvTest re-sets the variable explicitly.
class OptEnvGuard : public ::testing::Environment {
 public:
  void SetUp() override { ::unsetenv("GDLOG_NO_OPT"); }
};
const ::testing::Environment* const kOptEnvGuard =
    ::testing::AddGlobalTestEnvironment(new OptEnvGuard);

// E1: the running network example (Examples 1.1/3.2 + the constraint).
constexpr char kNetworkProgram[] =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

std::string CliqueDb(int n) {
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
  db += "infected(1, 1).\n";
  return db;
}

// E3: the dime/quarter stratified program (Appendix E, Figure 1).
constexpr char kDimeQuarterProgram[] =
    "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
    "somedimetail :- dimetail(X, 1).\n"
    "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.\n";

constexpr char kDimeQuarterDb[] = "dime(1).\ndime(2).\nquarter(3).\n";

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

/// Lifts program/database text into a sigma ProgramIr the pass unit tests
/// mutate directly (the fixture keeps the AST and translation alive for
/// the IR's internal pointers).
class OptPassTest : public ::testing::Test {
 protected:
  ProgramIr Lift(const std::string& text, const std::string& db_text) {
    auto prog = ParseProgram(text);
    EXPECT_TRUE(prog.ok()) << prog.status().ToString();
    program_ = std::move(prog).value();
    Status valid = program_.Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    auto tp = TranslateToTgd(program_, registry_);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    translated_ = std::move(tp).value();
    auto db = ParseFacts(db_text, program_.interner());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    summary_ = SummarizeDb(db_);
    return ProgramIr::LiftSigma(program_, *translated_, program_.interner());
  }

  PassContext Context() {
    PassContext ctx;
    ctx.db = &summary_;
    return ctx;
  }

  uint32_t Pred(const std::string& name) const {
    uint32_t id = program_.interner()->Lookup(name);
    EXPECT_NE(id, Interner::kNotFound) << name;
    return id;
  }

  DistributionRegistry registry_ = DistributionRegistry::Builtins();
  Program program_;
  std::optional<TranslatedProgram> translated_;
  FactStore db_;
  DbSummary summary_;
};

TEST(ColumnDomainTest, JoinValueSaturatesToTopPastCap) {
  ColumnDomain d;
  EXPECT_TRUE(d.JoinValue(Value::Int(1), 2));
  EXPECT_FALSE(d.JoinValue(Value::Int(1), 2));  // already present
  EXPECT_TRUE(d.JoinValue(Value::Int(2), 2));
  EXPECT_FALSE(d.top);
  EXPECT_FALSE(d.Contains(Value::Int(3)));
  EXPECT_TRUE(d.JoinValue(Value::Int(3), 2));  // third value blows the cap
  EXPECT_TRUE(d.top);
  EXPECT_TRUE(d.Contains(Value::Int(99)));
  // Joining into ⊤ never changes anything again.
  EXPECT_FALSE(d.JoinValue(Value::Int(4), 2));
}

TEST_F(OptPassTest, SummarizeDbReportsRowsAndColumnDomains) {
  Lift("p(X) :- e(X, Y).\n", "e(1,2).\ne(1,3).\n");
  const auto& e = summary_.predicates.at(Pred("e"));
  EXPECT_EQ(e.rows, 2u);
  ASSERT_EQ(e.columns.size(), 2u);
  EXPECT_FALSE(e.columns[0].top);
  EXPECT_EQ(e.columns[0].values.size(), 1u);  // {1}
  EXPECT_EQ(e.columns[1].values.size(), 2u);  // {2, 3}
  EXPECT_TRUE(summary_.Present(Pred("e")));
  EXPECT_FALSE(summary_.Present(Pred("p")));
}

TEST_F(OptPassTest, AnalyzeDomainsPropagatesPresenceAndConstants) {
  ProgramIr ir =
      Lift("p(X) :- e(X).\nq(X) :- missing(X).\n", "e(5).\n");
  DomainAnalysis analysis = AnalyzeDomains(ir, summary_, /*max_domain=*/4);
  EXPECT_TRUE(analysis.present.count(Pred("e")));
  EXPECT_TRUE(analysis.present.count(Pred("p")));
  EXPECT_FALSE(analysis.present.count(Pred("q")));
  EXPECT_FALSE(analysis.present.count(Pred("missing")));
  const auto& p_cols = analysis.domains.at(Pred("p"));
  ASSERT_EQ(p_cols.size(), 1u);
  EXPECT_FALSE(p_cols[0].top);
  EXPECT_TRUE(p_cols[0].Contains(Value::Int(5)));
  EXPECT_EQ(p_cols[0].values.size(), 1u);
}

TEST_F(OptPassTest, SpecializationSubstitutesSingletonDomains) {
  ProgramIr ir = Lift("p(X) :- e(X).\n", "e(5).\n");
  OptCounters counters;
  size_t rewrites = SpecializationPass(&ir, Context(), &counters);
  EXPECT_EQ(rewrites, 1u);
  EXPECT_EQ(counters.rules_specialized, 1u);
  EXPECT_EQ(counters.predicates_specialized, 1u);
  // X's derived domain is the singleton {5}: the variable is gone.
  EXPECT_NE(ir.Dump().find("p(5) :- e(5)."), std::string::npos) << ir.Dump();
}

TEST_F(OptPassTest, SpecializationSplitsSmallJoinDomains) {
  // X joins a and b and meets the 2-element domain {1, 2}: the rule splits
  // into one copy per constant (never more than max_split).
  ProgramIr ir = Lift("p(X) :- a(X), b(X).\n",
                      "a(1).\na(2).\nb(1).\nb(2).\nb(3).\n");
  OptCounters counters;
  size_t rewrites = SpecializationPass(&ir, Context(), &counters);
  EXPECT_EQ(rewrites, 1u);
  EXPECT_EQ(counters.rules_specialized, 1u);
  ASSERT_EQ(ir.rules().size(), 2u) << ir.Dump();
  EXPECT_NE(ir.Dump().find("p(1) :- a(1), b(1)."), std::string::npos)
      << ir.Dump();
  EXPECT_NE(ir.Dump().find("p(2) :- a(2), b(2)."), std::string::npos)
      << ir.Dump();
}

TEST_F(OptPassTest, DeadRuleEliminationDropsUnfirableRules) {
  ProgramIr ir = Lift(
      "p(X) :- e(X).\n"
      "q(X) :- f(X).\n"  // f has no facts and no defining rule
      "s :- e(7).\n",    // 7 is outside e's column domain {1}
      "e(1).\n");
  OptCounters counters;
  size_t removed = DeadRuleEliminationPass(&ir, Context(), &counters);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(counters.rules_eliminated, 2u);
  ASSERT_EQ(ir.rules().size(), 1u);
  EXPECT_EQ(ir.rules()[0].rule.head.predicate, Pred("p"));

  // Regression: a no-op run must leave the surviving rules untouched (the
  // pass once gutted them by moving into a discarded candidate vector).
  std::string before = ir.Dump();
  EXPECT_EQ(DeadRuleEliminationPass(&ir, Context(), &counters), 0u);
  EXPECT_EQ(ir.Dump(), before);
}

TEST_F(OptPassTest, DemandKeepsBackwardClosureWithActiveResultPairing) {
  ProgramIr ir = Lift(kDemandProgram, kDemandDb);
  // Σ: win rule + coin Active/Result pair + buzz Active/Result pair.
  ASSERT_EQ(ir.rules().size(), 5u);
  OptCounters counters;
  size_t removed = DemandPass(&ir, {Pred("win")}, &counters);
  // Only buzz's two rules fall outside win's backward closure.
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(counters.demand_eliminated_rules, 2u);
  EXPECT_EQ(ir.rules().size(), 3u);
  for (const RuleIr& rule : ir.rules()) {
    EXPECT_NE(rule.rule.head.predicate, Pred("buzz")) << ir.Dump();
  }
  // The Active rule survives via the Active↔Result pairing even though no
  // kept body literal mentions it.
  EXPECT_NE(ir.Dump().find("__active_flip_1_0"), std::string::npos)
      << ir.Dump();
}

TEST_F(OptPassTest, DemandKeepsConstraintsAndTheirSupport) {
  ProgramIr ir = Lift(
      std::string(kDemandProgram) + ":- buzz(X, Y, 1), buzz(Y, X, 1).\n",
      kDemandDb);
  OptCounters counters;
  // The constraint pulls buzz (and everything under it) back into the
  // closure: nothing can be dropped...
  std::string before = ir.Dump();
  EXPECT_EQ(DemandPass(&ir, {Pred("win")}, &counters), 0u);
  // ...and the no-op run must leave the IR bit-identical (regression for
  // the same moved-from bug as the dead-rule pass).
  EXPECT_EQ(ir.Dump(), before);
}

TEST_F(OptPassTest, SubjoinSharingHoistsCommonLeadingJoin) {
  ProgramIr ir = Lift(kNetworkProgram, CliqueDb(4));
  ASSERT_EQ(ir.rules().size(), 4u);
  OptCounters counters;
  size_t shared = SubjoinSharingPass(&ir, &counters);
  EXPECT_EQ(shared, 1u);
  EXPECT_EQ(counters.subjoins_shared, 1u);
  ASSERT_EQ(ir.rules().size(), 5u);

  // Exactly one synthesized aux rule, matched but never emitted.
  size_t aux_count = 0;
  size_t emitters = 0;
  for (const RuleIr& rule : ir.rules()) {
    if (rule.aux_head) {
      ++aux_count;
      EXPECT_TRUE(rule.emit_body.empty());
      EXPECT_EQ(program_.interner()->Name(rule.rule.head.predicate),
                "__join_0");
    }
    if (!rule.emit_body.empty()) ++emitters;
  }
  EXPECT_EQ(aux_count, 1u);
  // Both consumers (the Active rule and the head rule) re-emit their
  // original bodies so G(Σ) stays byte-identical.
  EXPECT_EQ(emitters, 2u);
}

TEST(OptPipelineTest, RunsPassesInFixedOrderAndTimesThem) {
  GDatalog::Options options;
  options.record_ir_dumps = true;
  GDatalog engine = MustCreate(kNetworkProgram, CliqueDb(4),
                               std::move(options));
  const OptStats& stats = engine.opt_stats();
  ASSERT_TRUE(stats.enabled);
  EXPECT_FALSE(stats.demand_applied);
  ASSERT_EQ(stats.passes.size(), 3u);
  EXPECT_EQ(stats.passes[0].name, "specialize");
  EXPECT_EQ(stats.passes[1].name, "dead-rule");
  EXPECT_EQ(stats.passes[2].name, "subjoin-share");
  EXPECT_EQ(stats.rules_in, 4u);
  EXPECT_EQ(stats.rules_out, 5u);  // the shared __join_0 rule
  EXPECT_EQ(stats.counters.subjoins_shared, 1u);

  GDatalog::Options demand_options;
  demand_options.demand_goals = {"win"};
  GDatalog demand = MustCreate(kDemandProgram, kDemandDb,
                               std::move(demand_options));
  ASSERT_TRUE(demand.opt_stats().enabled);
  EXPECT_TRUE(demand.opt_stats().demand_applied);
  ASSERT_EQ(demand.opt_stats().passes.size(), 4u);
  EXPECT_EQ(demand.opt_stats().passes[0].name, "demand");
}

// Golden --dump-ir snapshots. These pin the whole surface at once: rule
// rendering, origin/stratum/aux annotations, adornments, emit bodies, and
// the synthesized-name and float formatting.
TEST(OptPipelineTest, GoldenIrDumpNetworkClique4) {
  GDatalog::Options options;
  options.record_ir_dumps = true;
  GDatalog engine = MustCreate(kNetworkProgram, CliqueDb(4),
                               std::move(options));
  const auto& dumps = engine.opt_stats().dumps;
  ASSERT_EQ(dumps.size(), 4u);
  EXPECT_EQ(dumps.front().first, "initial");
  EXPECT_EQ(dumps.back().first, "after subjoin-share");

  EXPECT_EQ(dumps.front().second,
            R"(ProgramIr: 4 rules
r0 [o0 s2] __active_flip_1_2(0.10000000000000001, X, Y) :- infected(X, 1), connected(X, Y).
    adorn: __active_flip_1_2/bbb <- infected/fb, connected/bf
r1 [o0 s2] infected(Y, __y0) :- __result_flip_1_2(0.10000000000000001, X, Y, __y0), infected(X, 1), connected(X, Y).
    adorn: infected/bb <- __result_flip_1_2/bfff, infected/bb, connected/bb
r2 [o1 s3] uninfected(X) :- router(X), not infected(X, 1).
    adorn: uninfected/b <- router/f, not infected/bb
r3 [o2 sC]  :- uninfected(X), uninfected(Y), connected(X, Y).
    adorn: <- uninfected/f, uninfected/f, connected/bb
)");

  EXPECT_EQ(dumps.back().second,
            R"(ProgramIr: 5 rules
r0 [o0 s2 aux] __join_0(X, Y) :- infected(X, 1), connected(X, Y).
    adorn: __join_0/bb <- infected/fb, connected/bf
r1 [o0 s2] __active_flip_1_2(0.10000000000000001, X, Y) :- __join_0(X, Y).
    adorn: __active_flip_1_2/bbb <- __join_0/ff
    emit: infected(X, 1) connected(X, Y)
r2 [o0 s2] infected(Y, __y0) :- __result_flip_1_2(0.10000000000000001, X, Y, __y0), __join_0(X, Y).
    adorn: infected/bb <- __result_flip_1_2/bfff, __join_0/bb
    emit: __result_flip_1_2(0.10000000000000001, X, Y, __y0) infected(X, 1) connected(X, Y)
r3 [o1 s3] uninfected(X) :- router(X), not infected(X, 1).
    adorn: uninfected/b <- router/f, not infected/bb
r4 [o2 sC]  :- uninfected(X), uninfected(Y), connected(X, Y).
    adorn: <- uninfected/f, uninfected/f, connected/bb
)");
}

TEST(OptPipelineTest, GoldenIrDumpDimeQuarter) {
  GDatalog::Options options;
  options.record_ir_dumps = true;
  GDatalog engine = MustCreate(kDimeQuarterProgram, kDimeQuarterDb,
                               std::move(options));
  const auto& dumps = engine.opt_stats().dumps;
  ASSERT_EQ(dumps.size(), 4u);
  // Specialization both narrows (quarter's X ↦ 3) and splits (dimetail's
  // head rule over dime's domain {1, 2}); nothing dies and nothing shares.
  EXPECT_EQ(dumps.back().second,
            R"(ProgramIr: 6 rules
r0 [o0 s2] __active_flip_1_1(0.5, X) :- dime(X).
    adorn: __active_flip_1_1/bb <- dime/f
r1 [o0 s2] dimetail(1, __y0) :- __result_flip_1_1(0.5, 1, __y0), dime(1).
    adorn: dimetail/bb <- __result_flip_1_1/bbf, dime/b
r2 [o0 s2] dimetail(2, __y0) :- __result_flip_1_1(0.5, 2, __y0), dime(2).
    adorn: dimetail/bb <- __result_flip_1_1/bbf, dime/b
r3 [o1 s3] somedimetail :- dimetail(X, 1).
    adorn: somedimetail/ <- dimetail/fb
r4 [o2 s4] __active_flip_1_1(0.5, 3) :- quarter(3), not somedimetail.
    adorn: __active_flip_1_1/bb <- quarter/b, not somedimetail/
r5 [o2 s4] quartertail(3, __y1) :- __result_flip_1_1(0.5, 3, __y1), quarter(3), not somedimetail.
    adorn: quartertail/bb <- __result_flip_1_1/bbf, quarter/b, not somedimetail/
)");
}

GDatalog::Options GrounderOptions(GrounderKind kind, bool optimize) {
  GDatalog::Options options;
  options.grounder = kind;
  options.optimize = optimize;
  return options;
}

/// The tentpole's core contract: specialization, dead-rule elimination and
/// subjoin sharing preserve the outcome space bit-for-bit — the exported
/// JSON (outcomes, models, events, exact rationals) must match as strings.
TEST(OptPropertyTest, RandomNetworksBitIdenticalWithAndWithoutPasses) {
  Rng rng(0x9e3779b97f4a7c15ull);
  for (int iter = 0; iter < 8; ++iter) {
    int n = 2 + static_cast<int>(rng.NextBounded(2));  // 2..3 routers
    std::string db;
    for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
    for (int i = 1; i <= n; ++i) {
      for (int j = 1; j <= n; ++j) {
        if (i != j && rng.NextBounded(2) == 0) {
          db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
                ").\n";
        }
      }
    }
    db += "infected(1, 1).\n";
    for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
      GDatalog opt = MustCreate(kNetworkProgram, db,
                                GrounderOptions(kind, /*optimize=*/true));
      GDatalog raw = MustCreate(kNetworkProgram, db,
                                GrounderOptions(kind, /*optimize=*/false));
      EXPECT_TRUE(opt.opt_stats().enabled);
      EXPECT_FALSE(raw.opt_stats().enabled);
      EXPECT_EQ(SpaceJson(opt), SpaceJson(raw))
          << "grounder=" << static_cast<int>(kind) << " db:\n" << db;
    }
  }
}

TEST(OptPropertyTest, RandomDimeQuarterBitIdenticalWithAndWithoutPasses) {
  Rng rng(0xda942042e4dd58b5ull);
  for (int iter = 0; iter < 6; ++iter) {
    int dimes = 1 + static_cast<int>(rng.NextBounded(3));
    std::string db;
    for (int i = 1; i <= dimes; ++i) db += "dime(" + std::to_string(i) + ").\n";
    db += "quarter(" + std::to_string(dimes + 1) + ").\n";
    for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
      GDatalog opt = MustCreate(kDimeQuarterProgram, db,
                                GrounderOptions(kind, /*optimize=*/true));
      GDatalog raw = MustCreate(kDimeQuarterProgram, db,
                                GrounderOptions(kind, /*optimize=*/false));
      EXPECT_EQ(SpaceJson(opt), SpaceJson(raw))
          << "grounder=" << static_cast<int>(kind) << " dimes=" << dimes;
    }
  }
}

/// Demand is the one pass that coarsens the outcome space; what it must
/// preserve exactly are the goal marginals — and it must strictly shrink
/// the explored space when an irrelevant subsystem exists.
TEST(OptDemandTest, PreservesGoalMarginalsWhileStrictlyPruning) {
  GDatalog full = MustCreate(kDemandProgram, kDemandDb);
  GDatalog::Options options;
  options.demand_goals = {"win"};
  GDatalog demand = MustCreate(kDemandProgram, kDemandDb, std::move(options));
  ASSERT_TRUE(demand.opt_stats().demand_applied);
  EXPECT_GT(demand.opt_stats().counters.demand_eliminated_rules, 0u);

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

TEST(OptDemandTest, UnknownGoalNamesLeaveDemandOff) {
  GDatalog::Options options;
  options.demand_goals = {"no_such_predicate"};
  GDatalog engine = MustCreate(kDemandProgram, kDemandDb, std::move(options));
  ASSERT_TRUE(engine.opt_stats().enabled);
  EXPECT_FALSE(engine.opt_stats().demand_applied);
  GDatalog full = MustCreate(kDemandProgram, kDemandDb);
  EXPECT_EQ(SpaceJson(engine), SpaceJson(full));
}

TEST(OptReuseTest, WithDatabaseAdoptsPipelineWhenSummaryMatches) {
  GDatalog base = MustCreate(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(base.opt_stats().enabled);
  EXPECT_FALSE(base.opt_stats().pipeline_reused);

  // Identical database ⇒ identical summary ⇒ the optimized Σ_Π is adopted.
  auto same = GDatalog::WithDatabase(base, kDimeQuarterDb);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(same->opt_stats().pipeline_reused);
  EXPECT_EQ(SpaceJson(*same), SpaceJson(base));

  // A database with different column domains forces a fresh pipeline run,
  // and the result must agree with an engine built from scratch.
  const std::string changed_db = "dime(1).\ndime(2).\ndime(3).\nquarter(4).\n";
  auto changed = GDatalog::WithDatabase(base, changed_db);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_FALSE(changed->opt_stats().pipeline_reused);
  EXPECT_TRUE(changed->opt_stats().enabled);
  GDatalog fresh = MustCreate(kDimeQuarterProgram, changed_db);
  EXPECT_EQ(SpaceJson(*changed), SpaceJson(fresh));
}

TEST(OptRegistryTest, DemandEnginesAreCachedPerGoalSignature) {
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

  // A same-summary database swap adopts the optimized program; swapping to
  // a summary-changing database does not.
  auto swapped = registry.ReplaceDatabase(info->id, kDemandDb);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(registry.opt_counters().db_replacements, 1u);
  EXPECT_EQ(registry.opt_counters().pipeline_reuses, 1u);
  auto widened = registry.ReplaceDatabase(info->id, "chatter(9).\n");
  ASSERT_TRUE(widened.ok());
  EXPECT_EQ(registry.opt_counters().db_replacements, 2u);
  EXPECT_EQ(registry.opt_counters().pipeline_reuses, 1u);
  // The fresh entry starts with an empty demand cache (stale demand
  // engines must never serve the new database).
  auto fresh_entry = registry.Find(info->id);
  ASSERT_NE(fresh_entry, nullptr);
  EXPECT_TRUE(fresh_entry->demand_engines.empty());
}

TEST(OptEnvTest, GdlogNoOptDisablesEveryPipeline) {
  ASSERT_EQ(::setenv("GDLOG_NO_OPT", "1", 1), 0);
  EXPECT_TRUE(OptDisabledByEnv());
  GDatalog disabled = MustCreate(kDemandProgram, kDemandDb);
  EXPECT_FALSE(disabled.opt_stats().enabled);

  // "0" and empty mean "not disabled".
  ASSERT_EQ(::setenv("GDLOG_NO_OPT", "0", 1), 0);
  EXPECT_FALSE(OptDisabledByEnv());
  ASSERT_EQ(::setenv("GDLOG_NO_OPT", "", 1), 0);
  EXPECT_FALSE(OptDisabledByEnv());

  ASSERT_EQ(::unsetenv("GDLOG_NO_OPT"), 0);
  EXPECT_FALSE(OptDisabledByEnv());
  GDatalog enabled = MustCreate(kDemandProgram, kDemandDb);
  EXPECT_TRUE(enabled.opt_stats().enabled);
}

}  // namespace
}  // namespace gdlog
