// The incremental-serving path: fact-delta parsing and append-only
// application (FactStore::ApplyDelta), delta-vs-rebuild bit-identity of
// GDatalog::WithDatabaseDelta across both grounders and thread counts —
// chains of deltas included, each extending the first engine's database
// prefix (a 64-delta chain folds it) — the rule-body check that gates
// revalidation, the revalidation overlay (AnswerIndex::WithAddedFacts)
// against the materialized space and a fresh engine, removal rejection,
// GDatalog::WithDatabase adopting the base's Σ_Π, and the serving layer's
// lineage chain with cache revalidation versus eviction and the demand
// engines a PATCH carries.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "ground/fact_store.h"
#include "server/cache.h"
#include "server/http.h"
#include "server/registry.h"
#include "server/service.h"
#include "util/json.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

constexpr const char* kDimeQuarterProgram =
    "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
    "somedimetail :- dimetail(X, 1).\n"
    "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.\n";

// `patched` occurs in a rule body only under `not`, and `banned` only in a
// constraint body: a delta on either changes what the groundings derive.
constexpr const char* kGuardProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "exposed(X) :- router(X), not patched(X).\n"
    ":- exposed(X), banned(X), infected(X, 1).\n";

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
  db += "infected(1, 1).\n";
  return db;
}

Result<GDatalog> MakeEngine(const std::string& program, const std::string& db,
                            GrounderKind kind) {
  GDatalog::Options options;
  options.grounder = kind;
  return GDatalog::Create(program, db, std::move(options));
}

std::string SpaceJson(const GDatalog& engine, const OutcomeSpace& space) {
  JsonExportOptions options;
  options.include_outcomes = true;
  options.include_models = true;
  options.include_events = true;
  return OutcomeSpaceToJson(space, engine.translated(),
                            engine.program().interner(), options);
}

/// The core correctness gate: the delta-applied engine must produce the
/// byte-identical outcome-space JSON as an engine built from scratch on
/// the merged database — per grounder, per thread count.
void ExpectDeltaByteIdentity(const std::string& program,
                             const std::string& base_db,
                             const std::string& delta) {
  for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
    auto full = MakeEngine(program, base_db + "\n" + delta, kind);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    auto base = MakeEngine(program, base_db, kind);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    auto inc = GDatalog::WithDatabaseDelta(*base, delta);
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_TRUE(inc->delta_stats().applied);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ChaseOptions chase;
      chase.num_threads = threads;
      auto want = full->Infer(chase);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = inc->Infer(chase);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(SpaceJson(*full, *want), SpaceJson(*inc, *got))
          << "grounder=" << (kind == GrounderKind::kSimple ? "simple"
                                                           : "perfect")
          << " threads=" << threads;
    }
  }
}

constexpr const char* kQuarantineProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y), "
    "not quarantined(X).\n"
    "quarantined(X) :- infected(X, 1), not free(X).\n"
    "free(X) :- infected(X, 1), not quarantined(X).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

// ---------------------------------------------------------------------------
// ParseFactDelta / FactStore::ApplyDelta
// ---------------------------------------------------------------------------

TEST(FactDelta, ParsesAdditionsAndRemovals) {
  Interner interner;
  auto delta = ParseFactDelta(
      "edge(1,2).\n"
      "  -edge(2,3).\n"
      "edge(3,4).\n",
      &interner);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->added.size(), 2u);
  EXPECT_EQ(delta->removed.size(), 1u);
  EXPECT_FALSE(delta->empty());
}

TEST(FactDelta, RejectsNonFactLines) {
  Interner interner;
  auto delta = ParseFactDelta("edge(X, Y) :- other(X, Y).\n", &interner);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
}

TEST(FactDelta, ApplyAppendsAndExtendsIndices) {
  Interner interner;
  auto store = ParseFacts("edge(1,2). edge(2,3).", &interner);
  ASSERT_TRUE(store.ok());
  uint32_t edge = interner.Lookup("edge");
  // Force the column index to exist before the delta, so the append path
  // must extend it in place rather than getting a fresh lazy build.
  const auto* pre = store->IndexLookup(edge, 0, Value::Int(1));
  ASSERT_NE(pre, nullptr);
  EXPECT_EQ(pre->size(), 1u);

  auto delta = ParseFactDelta("edge(1,4).\nedge(1,2).\n", &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(store->ApplyDelta(*delta, &ranges).ok());
  EXPECT_EQ(ranges.rows_appended, 1u);       // edge(1,4)
  EXPECT_EQ(ranges.duplicates_skipped, 1u);  // edge(1,2)
  ASSERT_EQ(ranges.ranges.count(edge), 1u);
  EXPECT_EQ(ranges.ranges.at(edge).begin, 2u);
  EXPECT_EQ(ranges.ranges.at(edge).end, 3u);

  const auto* post = store->IndexLookup(edge, 0, Value::Int(1));
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->size(), 2u);
  EXPECT_TRUE(store->Contains(edge, {Value::Int(1), Value::Int(4)}));
}

TEST(FactDelta, RemovalsAreRejectedAsUnsupported) {
  Interner interner;
  auto store = ParseFacts("edge(1,2).", &interner);
  ASSERT_TRUE(store.ok());
  auto delta = ParseFactDelta("-edge(1,2).\n", &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  Status status = store->ApplyDelta(*delta, &ranges);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  EXPECT_NE(status.message().find("removal"), std::string::npos);
  // Nothing was applied.
  EXPECT_TRUE(store->Contains(interner.Lookup("edge"),
                              {Value::Int(1), Value::Int(2)}));
}

// ---------------------------------------------------------------------------
// GDatalog::WithDatabaseDelta — bit-identity with a from-scratch rebuild
// ---------------------------------------------------------------------------

TEST(DeltaEngine, NetworkCliqueByteIdentity) {
  // E1: the clique-4 infection space; the delta carries rule-body
  // predicates (connected, infected), so the tail of the database prefix
  // feeds real derivations.
  std::string full_db = Clique(4);
  std::string base_db =
      full_db.substr(0, full_db.find("connected(4,2)."));
  std::string delta = full_db.substr(full_db.find("connected(4,2)."));
  ExpectDeltaByteIdentity(kNetworkProgram, base_db, delta);
}

TEST(DeltaEngine, DimeQuarterByteIdentity) {
  // E3: dime/quarter under negation (stalling in the perfect grounder).
  ExpectDeltaByteIdentity(kDimeQuarterProgram,
                          "dime(1). quarter(3).", "dime(2).\n");
}

TEST(DeltaEngine, RandomizedSplitsByteIdentity) {
  // Deterministic pseudo-random splits of the clique-3 database: every
  // k-th fact line becomes the delta.
  std::string full_db = Clique(3);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < full_db.size()) {
    size_t end = full_db.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(full_db.substr(start, end - start + 1));
    start = end + 1;
  }
  for (size_t k : {size_t{2}, size_t{3}}) {
    std::string base_db;
    std::string delta;
    for (size_t i = 0; i < lines.size(); ++i) {
      (i % k == k - 1 ? delta : base_db) += lines[i];
    }
    ExpectDeltaByteIdentity(kNetworkProgram, base_db, delta);
  }
}

TEST(DeltaEngine, BodyPredicateDeltaReportsCounts) {
  auto base = MakeEngine(kNetworkProgram, Clique(4), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(1,1).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  const DeltaStats& stats = inc->delta_stats();
  EXPECT_TRUE(stats.applied);
  EXPECT_EQ(stats.rows_appended, 1u);
  EXPECT_TRUE(stats.touches_rule_bodies);  // connected is a body predicate
}

TEST(DeltaEngine, NewConstantDeltaMatchesRebuild) {
  // connected's columns hold {1, 2, 3}; the delta brings the new constant
  // 4. Σ_Π depends on Π alone, so the delta engine adopts the base's rules.
  const std::string delta = "connected(3,4).\n";
  auto base = MakeEngine(kNetworkProgram, Clique(3), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base->Infer().ok());  // the base has grounded its root
  auto inc = GDatalog::WithDatabaseDelta(*base, delta);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_EQ(inc->translated().sigma().ToString(),
            base->translated().sigma().ToString());

  auto full = MakeEngine(kNetworkProgram, Clique(3) + delta,
                         GrounderKind::kSimple);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto want = full->Infer();
  auto got = inc->Infer();
  ASSERT_TRUE(want.ok() && got.ok());
  // The CLI's --json export, and the export with every section.
  EXPECT_EQ(OutcomeSpaceToJson(*want, full->translated(),
                               full->program().interner(),
                               JsonExportOptions{}),
            OutcomeSpaceToJson(*got, inc->translated(),
                               inc->program().interner(),
                               JsonExportOptions{}));
  EXPECT_EQ(SpaceJson(*full, *want), SpaceJson(*inc, *got));
}

TEST(DeltaEngine, ChainedDeltasAfterInferMatchRebuild) {
  // Three deltas in a row, each applied to an engine that has already run
  // Infer() — so its root grounding exists when the next delta arrives —
  // and every link of the chain must produce the space of a fresh engine
  // on the merged database. The first delta brings the new constant 4.
  const std::vector<std::string> deltas = {
      "router(4).\nconnected(3,4).\n", "connected(4,1).\n",
      "connected(2,4).\nmeta(7).\n"};
  for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
    const char* name = kind == GrounderKind::kSimple ? "simple" : "perfect";
    std::string merged = Clique(3);
    auto base = MakeEngine(kNetworkProgram, merged, kind);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    std::vector<GDatalog> chain;
    chain.push_back(std::move(*base));
    for (size_t link = 0; link < deltas.size(); ++link) {
      ASSERT_TRUE(chain.back().Infer().ok()) << name << " link " << link;
      auto next = GDatalog::WithDatabaseDelta(chain.back(), deltas[link]);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      EXPECT_TRUE(next->delta_stats().applied);
      // The grounder's prefix is the first engine's, shared, with every
      // fact the chain appended on its tail (these deltas are too small to
      // outgrow the base and fold it).
      const DatabasePrefix& prefix = next->grounder().prefix();
      EXPECT_EQ(prefix.base, chain.front().grounder().prefix().base);
      EXPECT_EQ(prefix.tail_size(),
                chain.back().grounder().prefix().tail_size() +
                    next->delta_stats().rows_appended);
      chain.push_back(std::move(*next));
      merged += deltas[link];
      auto fresh = MakeEngine(kNetworkProgram, merged, kind);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ChaseOptions chase;
        chase.num_threads = threads;
        auto want = fresh->Infer(chase);
        auto got = chain.back().Infer(chase);
        ASSERT_TRUE(want.ok() && got.ok());
        EXPECT_EQ(SpaceJson(*fresh, *want), SpaceJson(chain.back(), *got))
            << name << " link " << link << " threads=" << threads;
      }
    }
  }
}

TEST(DeltaEngine, SixtyFourDeltaChainMatchesRebuild) {
  // A long lineage: 64 one- or two-fact deltas, so the prefix's tail
  // outgrows the clique-3 base and is folded into a new base several
  // times. Every eighth link, and the last, must chase to a fresh engine's
  // space on the merged database.
  for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
    const char* name = kind == GrounderKind::kSimple ? "simple" : "perfect";
    std::string merged = Clique(3);
    auto base = MakeEngine(kNetworkProgram, merged, kind);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    std::vector<GDatalog> chain;
    chain.push_back(std::move(*base));
    size_t folds = 0;
    for (int link = 1; link <= 64; ++link) {
      std::string delta = "audit(" + std::to_string(link) + ").\n";
      if (link % 3 == 0) delta += "meta(" + std::to_string(link) + ").\n";
      if (link % 16 == 0) {
        delta += "connected(" + std::to_string(link) + ",1).\n";
      }
      if (link % 5 == 0) {
        ASSERT_TRUE(chain.back().Infer().ok());
      }
      auto next = GDatalog::WithDatabaseDelta(chain.back(), delta);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      const DatabasePrefix& before = chain.back().grounder().prefix();
      const DatabasePrefix& after = next->grounder().prefix();
      if (after.base != before.base) {
        // A fold: the old base, tail and delta are the new base.
        ++folds;
        EXPECT_EQ(after.tail_size(), 0u);
        EXPECT_EQ(after.base->size(), before.base->size() +
                                          before.tail_size() +
                                          next->delta_stats().rows_appended);
      } else {
        EXPECT_EQ(after.tail_size(), before.tail_size() +
                                         next->delta_stats().rows_appended);
      }
      EXPECT_LE(after.tail_size(), after.base->size());
      chain.push_back(std::move(*next));
      merged += delta;
      if (link % 8 != 0) continue;
      auto fresh = MakeEngine(kNetworkProgram, merged, kind);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      auto want = fresh->Infer();
      auto got = chain.back().Infer();
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(SpaceJson(*fresh, *want), SpaceJson(chain.back(), *got))
          << name << " link " << link;
    }
    EXPECT_GE(folds, 3u) << name;
  }
}

// ---------------------------------------------------------------------------
// The revalidation overlay (AnswerIndex::WithAddedFacts) along seeded delta
// chains, against the materialized OutcomeSpace::WithAddedFacts and against
// a fresh engine on the merged database.
// ---------------------------------------------------------------------------

std::string BoundsBits(const std::optional<OutcomeSpace::Bounds>& bounds) {
  if (!bounds) return "undefined";
  auto bits = [](const Prob& p) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", p.value());
    return std::string(buf) + (p.exact() ? "=" + p.ToString() : "~");
  };
  return "[" + bits(bounds->lower) + ", " + bits(bounds->upper) + "]";
}

/// Every answer a query can read off `index` (rendered by `engine`):
/// the outcomes+models and events bodies, then the plain and conditioned
/// marginals of each of `atoms` (surface syntax, resolved by `engine`).
std::string IndexAnswers(const AnswerIndex& index, const GDatalog& engine,
                         const std::vector<std::string>& atoms) {
  JsonExportOptions models;
  models.include_outcomes = true;
  models.include_models = true;
  JsonExportOptions events;
  events.include_events = true;
  std::string out =
      OutcomeSpaceToJson(index, engine.translated(),
                         engine.program().interner(), models) +
      "\n" +
      OutcomeSpaceToJson(index, engine.translated(),
                         engine.program().interner(), events) +
      "\n";
  for (const std::string& text : atoms) {
    auto atom = engine.LookupGroundAtom(text);
    out += text + " ";
    if (!atom.ok()) {
      out += "unknown\n";
      continue;
    }
    out += BoundsBits(index.Marginal(*atom)) + " " +
           BoundsBits(index.MarginalGivenConsistent(*atom)) + "\n";
  }
  return out;
}

struct OverlayCase {
  const char* name;
  std::string program;
  std::string db;
  std::vector<std::string> pool;  ///< Facts the deltas draw from.
  std::string first_delta;        ///< Leads every chain when non-empty.
  std::string absent;             ///< An atom no model holds.
};

std::vector<OverlayCase> OverlayCases() {
  std::string items;
  for (int i = 1; i <= 5; ++i) items += "item(" + std::to_string(i) + ").\n";
  return {
      {"E1 clique-3", kNetworkProgram, Clique(3),
       {"audit(1, 7).\n", "audit(2, 3).\n", "meta(5).\n", "meta(1).\n"},
       "",
       "infected(9, 1)"},
      // Several models per outcome (the quarantined/free even loop).
      {"quarantine clique-3", kQuarantineProgram, Clique(3),
       {"audit(1, 7).\n", "meta(2).\n", "meta(3).\n", "audit(4, 4).\n"},
       "",
       "quarantined(9)"},
      // lucky is a rule head no body reads: adding it reorders the events.
      {"lucky", "lucky :- coin(1).\ncoin(flip<0.3>).\n", "",
       {"lucky.\n", "seen(1).\n", "seen(2).\n"},
       "lucky.\n",
       "coin(7)"},
      // Inexact masses; hit is a head no body reads.
      {"inexact coins",
       "coin(X, flip<0.123456789012345>[X]) :- item(X).\n"
       ":- coin(1, 1).\nhit(X) :- coin(X, 1).\n",
       items,
       {"hit(2).\n", "hit(3).\n", "tag(1).\n", "tag(9).\n"},
       "",
       "hit(9)"},
  };
}

TEST(RevalidationOverlay, SeededChainsMatchMaterializedAndFreshSpaces) {
  for (const OverlayCase& c : OverlayCases()) {
    for (uint32_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      std::mt19937 rng(seed * 7919 + c.pool.size());
      auto base = GDatalog::Create(c.program, c.db);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      auto chased = base->Infer();
      ASSERT_TRUE(chased.ok());
      auto shared = std::make_shared<const OutcomeSpace>(std::move(*chased));
      auto root = std::make_shared<const AnswerIndex>(shared);
      root->events();  // the chased rows exist before the first overlay
      std::shared_ptr<const AnswerIndex> overlay = root;
      OutcomeSpace materialized = *shared;
      std::vector<GDatalog> engines;
      engines.push_back(std::move(*base));
      std::string merged = c.db;
      const size_t links = 1 + seed % 4;
      for (size_t link = 0; link < links; ++link) {
        std::string delta = link == 0 ? c.first_delta : "";
        const size_t facts = 1 + rng() % 2;
        for (size_t f = 0; f < facts; ++f) {
          delta += c.pool[rng() % c.pool.size()];
        }
        auto next = GDatalog::WithDatabaseDelta(engines.back(), delta);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        ASSERT_FALSE(next->delta_stats().touches_rule_bodies) << delta;
        const std::vector<GroundAtom>& added = next->delta_added_facts();
        overlay = overlay->WithAddedFacts(added);
        materialized = materialized.WithAddedFacts(added);
        engines.push_back(std::move(*next));
        merged += delta;
        EXPECT_EQ(&overlay->space(), shared.get()) << "no model is copied";

        // Every model atom, every added atom and one absent atom.
        const GDatalog& engine = engines.back();
        const Interner* names = engine.program().interner();
        std::set<std::string> atoms = {c.absent};
        for (const PossibleOutcome& outcome : materialized.outcomes) {
          for (const StableModel& model : outcome.models) {
            for (const GroundAtom& atom :
                 OutcomeSpace::StripAuxiliary(model, engine.translated())) {
              atoms.insert(atom.ToString(names));
            }
          }
        }
        for (const GroundAtom& atom : overlay->added_facts()) {
          atoms.insert(atom.ToString(names));
        }
        const std::vector<std::string> queries(atoms.begin(), atoms.end());

        const std::string got = IndexAnswers(*overlay, engine, queries);
        EXPECT_EQ(got, IndexAnswers(AnswerIndex(materialized), engine,
                                    queries))
            << "link " << link;
        auto fresh = GDatalog::Create(c.program, merged);
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        auto fresh_space = fresh->Infer();
        ASSERT_TRUE(fresh_space.ok());
        EXPECT_EQ(got, IndexAnswers(AnswerIndex(*fresh_space), *fresh,
                                    queries))
            << "link " << link;
      }
      if (std::string(c.name) == "E1 clique-3") {
        // Facts of predicates interned after every model atom reorder no
        // event: the overlay reads the chased rows in place.
        EXPECT_EQ(overlay->events().data(), root->events().data());
      }
      if (std::string(c.name) == "lucky") {
        EXPECT_NE(overlay->events().data(), root->events().data())
            << "adding lucky reorders the rows";
      }
    }
  }
}

TEST(DeltaEngine, NonBodyPredicateDeltaIsRevalidatable) {
  auto base = MakeEngine(kNetworkProgram, Clique(3) + "meta(1).\n",
                         GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  auto inc = GDatalog::WithDatabaseDelta(*base, "meta(2).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_FALSE(inc->delta_stats().touches_rule_bodies);
  ASSERT_EQ(inc->delta_added_facts().size(), 1u);
}

TEST(DeltaEngine, NegatedOrConstraintOnlyDeltaTouchesRuleBodies) {
  for (const char* delta : {"patched(2).\n", "banned(3).\n"}) {
    for (GrounderKind kind : {GrounderKind::kSimple, GrounderKind::kPerfect}) {
      auto base = MakeEngine(kGuardProgram, Clique(3), kind);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      auto inc = GDatalog::WithDatabaseDelta(*base, delta);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();
      EXPECT_TRUE(inc->delta_stats().touches_rule_bodies) << delta;
    }
    ExpectDeltaByteIdentity(kGuardProgram, Clique(3), delta);
  }
}

TEST(DeltaEngine, RemovalRejectedAtEngineLevel) {
  auto base = MakeEngine(kNetworkProgram, Clique(3), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  auto inc = GDatalog::WithDatabaseDelta(*base, "-infected(1, 1).\n");
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().code(), StatusCode::kUnsupported);
}

TEST(DeltaGrounder, PerfectExtendRefusesAnUnstalledGrounding) {
  // Both grounders are incremental, on base and delta engines alike. The
  // perfect grounder resumes where a grounding stalled, so a grounding
  // that never stalled is an error naming the grounder, never a silently
  // wrong extension.
  auto base = MakeEngine(kNetworkProgram, Clique(3), GrounderKind::kPerfect);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(1, 1).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  for (const GDatalog* engine : {&*base, &*inc}) {
    GroundRuleSet out;
    Status status =
        engine->grounder().Extend(ChoiceSet(), GroundAtom(), &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("perfect"), std::string::npos)
        << status.message();
    EXPECT_EQ(out.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// GDatalog::WithDatabase — the PUT path adopts the base's Σ_Π
// ---------------------------------------------------------------------------

TEST(WithDatabase, NewColumnDomainsKeepBaseSigmaRules) {
  // dime's column grows from {1, 2} to {1, 2, 3} and quarter's moves from
  // {3} to {4}: Σ_Π must not follow the database, with or without demand
  // goals, and the space must equal a from-scratch build's.
  const std::string changed_db = "dime(1).\ndime(2).\ndime(3).\nquarter(4).\n";
  for (bool demand : {false, true}) {
    GDatalog::Options options;
    if (demand) options.demand_goals = {"somedimetail"};
    auto base = GDatalog::Create(kDimeQuarterProgram,
                                 "dime(1).\ndime(2).\nquarter(3).\n",
                                 std::move(options));
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base->opt_stats().demand_applied, demand);
    auto changed = GDatalog::WithDatabase(*base, changed_db);
    ASSERT_TRUE(changed.ok()) << changed.status().ToString();
    EXPECT_EQ(changed->translated().sigma().ToString(),
              base->translated().sigma().ToString())
        << "demand=" << demand;
    EXPECT_EQ(changed->translated().origin(), base->translated().origin());
    EXPECT_EQ(changed->opt_stats().rules_out, base->opt_stats().rules_out);
  }
  auto base = MakeEngine(kDimeQuarterProgram, "dime(1).\nquarter(3).\n",
                         GrounderKind::kAuto);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto changed = GDatalog::WithDatabase(*base, changed_db);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  auto fresh = MakeEngine(kDimeQuarterProgram, changed_db, GrounderKind::kAuto);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto want = fresh->Infer();
  auto got = changed->Infer();
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(SpaceJson(*fresh, *want), SpaceJson(*changed, *got));
}

// ---------------------------------------------------------------------------
// Registry lineage + serving-layer revalidation vs eviction
// ---------------------------------------------------------------------------

TEST(DeltaRegistry, LineageChainsAndFullReplaceResets) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kNetworkProgram;
  spec.db_text = Clique(3) + "meta(1).\n";
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto first = registry.ApplyDatabaseDelta(info->id, "meta(2).\n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->info.revision, 1u);
  EXPECT_EQ(first->base_revision, 0u);
  EXPECT_TRUE(first->old_lineage_digest.empty());
  EXPECT_FALSE(first->new_lineage_digest.empty());
  EXPECT_FALSE(first->touches_rule_bodies);

  auto second = registry.ApplyDatabaseDelta(info->id, "meta(3).\n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->info.revision, 2u);
  EXPECT_EQ(second->old_lineage_digest, first->new_lineage_digest);
  EXPECT_NE(second->new_lineage_digest, first->new_lineage_digest);
  EXPECT_EQ(second->base_revision, 1u);
  auto chained = registry.Find(info->id);
  ASSERT_NE(chained, nullptr);
  EXPECT_EQ(chained->lineage_digest, second->new_lineage_digest);

  // A full replacement starts a fresh lineage.
  auto replaced = registry.ReplaceDatabase(info->id, Clique(3));
  ASSERT_TRUE(replaced.ok());
  auto entry = registry.Find(info->id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->revision, 3u);
  EXPECT_TRUE(entry->lineage_digest.empty());
  // The next delta chains from the empty digest; the same delta text on
  // another base revision names another history.
  auto restarted = registry.ApplyDatabaseDelta(info->id, "meta(2).\n");
  ASSERT_TRUE(restarted.ok());
  EXPECT_TRUE(restarted->old_lineage_digest.empty());
  EXPECT_NE(restarted->new_lineage_digest, first->new_lineage_digest);

  auto counters = registry.delta_counters();
  EXPECT_EQ(counters.deltas_applied, 3u);
  EXPECT_EQ(counters.rows_appended, 3u);
}

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

std::string RegisterProgram(InferenceService& service,
                            const std::string& program,
                            const std::string& db) {
  JsonWriter reg;
  reg.BeginObject().KV("program", program).KV("db", db).EndObject();
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/programs", reg.str()));
  EXPECT_EQ(response.status, 201) << response.body;
  auto doc = JsonValue::Parse(response.body);
  EXPECT_TRUE(doc.ok());
  return doc->Find("id")->string_value();
}

std::string PatchBody(const std::string& delta) {
  JsonWriter body;
  body.BeginObject().KV("delta", delta).EndObject();
  return body.str();
}

long long DeltaField(const HttpResponse& response, const char* field) {
  auto doc = JsonValue::Parse(response.body);
  if (!doc.ok()) return -1;
  const JsonValue* delta = doc->Find("delta");
  if (delta == nullptr) return -1;
  const JsonValue* value = delta->Find(field);
  if (value == nullptr || !value->is_number()) return -1;
  auto n = value->NumberAsInt();
  return n.ok() ? *n : -1;
}

TEST(DeltaService, UntouchedPredicateDeltaRevalidatesCache) {
  // meta occurs in no rule body -> revalidation path.
  std::string db = Clique(3);
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, db);

  std::string query = "{\"program_id\":\"" + id +
                      "\",\"include_outcomes\":true,"
                      "\"include_models\":true}";
  HttpResponse warm = service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_EQ(service.cache().stats().misses, 1u);

  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("meta(99).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), 1);
  EXPECT_EQ(DeltaField(patched, "spaces_evicted"), 0);
  EXPECT_EQ(DeltaField(patched, "rows_appended"), 1);

  // The next identical query is served from the revalidated entry: no new
  // chase (misses unchanged), and its document equals what a from-scratch
  // engine on the merged database produces.
  HttpResponse after = service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(service.cache().stats().misses, 1u);
  EXPECT_EQ(service.cache().stats().revalidated, 1u);

  InferenceService fresh_service(options);
  std::string fresh_id =
      RegisterProgram(fresh_service, kNetworkProgram, db + "meta(99).\n");
  std::string fresh_query = "{\"program_id\":\"" + fresh_id +
                            "\",\"include_outcomes\":true,"
                            "\"include_models\":true}";
  HttpResponse fresh =
      fresh_service.Handle(MakeRequest("POST", "/v1/query", fresh_query));
  ASSERT_EQ(fresh.status, 200);
  EXPECT_EQ(after.body, fresh.body);
}

TEST(DeltaService, RevalidatedEventRowsAreRebuiltNotCopied) {
  // `lucky` is a rule head and in no rule body, so a PATCH adding it
  // revalidates. It is already in the coin(1) models, so adding it to
  // every model reorders the model sets: before, [lucky, coin(1)] sorts
  // first; after, [lucky, coin(0)] does. Event rows copied from the old
  // index would keep the old order.
  constexpr const char* kProgram = "lucky :- coin(1).\ncoin(flip<0.3>).\n";
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kProgram, "");
  std::string query = "{\"program_id\":\"" + id +
                      "\",\"include_events\":true}";
  HttpResponse before = service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(before.status, 200) << before.body;

  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("lucky.\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), 1);

  HttpResponse after = service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(service.cache().stats().misses, 1u);  // served revalidated

  InferenceService fresh_service(options);
  std::string fresh_id = RegisterProgram(fresh_service, kProgram, "lucky.\n");
  HttpResponse fresh = fresh_service.Handle(MakeRequest(
      "POST", "/v1/query",
      "{\"program_id\":\"" + fresh_id + "\",\"include_events\":true}"));
  ASSERT_EQ(fresh.status, 200);
  EXPECT_EQ(after.body, fresh.body);
  auto events = [](const std::string& body) {
    return body.substr(body.find("\"events\""));
  };
  EXPECT_NE(events(before.body), events(after.body))
      << "the delta must reorder the rows for this case to bite";
}

TEST(DeltaService, DemandEnginesSurviveAPatch) {
  // A marginal query builds a demand engine; a revalidating PATCH extends
  // it into the new entry, so the next marginal query of the same goals
  // reuses it (a demand cache hit, no build) and reads the revalidated
  // space, with a fresh registry's answer on the merged database.
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, Clique(3));
  auto marginal = [](const std::string& program_id) {
    return "{\"program_id\":\"" + program_id +
           "\",\"queries\":[\"infected(2, 1)\",\"uninfected(3)\"]}";
  };
  ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", marginal(id)))
                .status,
            200);
  const auto before = service.registry().opt_counters();
  EXPECT_EQ(before.demand_engines_built, 1u);

  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("meta(7).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), 1);
  auto entry = service.registry().Find(id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->demand_engines.size(), 1u) << "carried to the new entry";

  HttpResponse after =
      service.Handle(MakeRequest("POST", "/v1/query", marginal(id)));
  ASSERT_EQ(after.status, 200) << after.body;
  const auto counters = service.registry().opt_counters();
  EXPECT_EQ(counters.demand_engines_built, 1u);
  EXPECT_EQ(counters.demand_cache_hits, before.demand_cache_hits + 1);
  EXPECT_EQ(service.cache().stats().misses, 1u) << "served revalidated";

  InferenceService fresh_service(options);
  std::string fresh_id =
      RegisterProgram(fresh_service, kNetworkProgram, Clique(3) + "meta(7).\n");
  HttpResponse fresh = fresh_service.Handle(
      MakeRequest("POST", "/v1/query", marginal(fresh_id)));
  ASSERT_EQ(fresh.status, 200);
  auto answers = [](const std::string& body) {
    return body.substr(body.find("\"complete\""));
  };
  EXPECT_EQ(answers(after.body), answers(fresh.body));
}

TEST(DeltaService, BodyPredicateDeltaEvictsCache) {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, Clique(3));

  std::string query = "{\"program_id\":\"" + id + "\"}";
  ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", query)).status,
            200);
  EXPECT_EQ(service.cache().stats().misses, 1u);

  // connected occurs in rule bodies: the cached space may be stale.
  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("connected(1,1).\n")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), 0);
  EXPECT_EQ(DeltaField(patched, "spaces_evicted"), 1);

  ASSERT_EQ(service.Handle(MakeRequest("POST", "/v1/query", query)).status,
            200);
  EXPECT_EQ(service.cache().stats().misses, 2u);  // had to re-chase
}

TEST(DeltaService, NegatedOrConstraintOnlyDeltaEvictsCache) {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  for (const char* delta : {"patched(2).\n", "banned(3).\n"}) {
    InferenceService service(options);
    std::string id = RegisterProgram(service, kGuardProgram, Clique(3));
    std::string query = "{\"program_id\":\"" + id +
                        "\",\"include_outcomes\":true,"
                        "\"include_models\":true}";
    HttpResponse before =
        service.Handle(MakeRequest("POST", "/v1/query", query));
    ASSERT_EQ(before.status, 200) << before.body;

    HttpResponse patched = service.Handle(MakeRequest(
        "PATCH", "/v1/programs/" + id + "/db", PatchBody(delta)));
    ASSERT_EQ(patched.status, 200) << patched.body;
    EXPECT_EQ(DeltaField(patched, "spaces_revalidated"), 0) << delta;
    EXPECT_EQ(DeltaField(patched, "spaces_evicted"), 1) << delta;

    // The re-chased document is a fresh engine's on the merged database,
    // and differs from the pre-delta one: revalidating would have served a
    // stale space.
    HttpResponse after = service.Handle(MakeRequest("POST", "/v1/query", query));
    ASSERT_EQ(after.status, 200);
    EXPECT_EQ(service.cache().stats().misses, 2u);
    InferenceService fresh_service(options);
    std::string fresh_id =
        RegisterProgram(fresh_service, kGuardProgram, Clique(3) + delta);
    HttpResponse fresh = fresh_service.Handle(MakeRequest(
        "POST", "/v1/query",
        "{\"program_id\":\"" + fresh_id +
            "\",\"include_outcomes\":true,\"include_models\":true}"));
    ASSERT_EQ(fresh.status, 200);
    EXPECT_EQ(after.body, fresh.body) << delta;
    EXPECT_NE(before.body, after.body) << delta;
  }
}

TEST(DeltaService, RemovalDeltaReturns501) {
  InferenceService::Options options;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram, Clique(3));
  HttpResponse response = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", PatchBody("-infected(1, 1).\n")));
  EXPECT_EQ(response.status, 501) << response.body;
}

TEST(DeltaService, StatsExposeDeltaCounters) {
  InferenceService::Options options;
  InferenceService service(options);
  std::string id = RegisterProgram(service, kNetworkProgram,
                                   Clique(3) + "meta(1).\n");
  ASSERT_EQ(service
                .Handle(MakeRequest("PATCH", "/v1/programs/" + id + "/db",
                                    PatchBody("meta(2).\n")))
                .status,
            200);
  HttpResponse stats = service.Handle(MakeRequest("GET", "/v1/stats"));
  ASSERT_EQ(stats.status, 200);
  auto doc = JsonValue::Parse(stats.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* delta = doc->Find("delta");
  ASSERT_NE(delta, nullptr);
  ASSERT_NE(delta->Find("patches"), nullptr);
  auto patches = delta->Find("patches")->NumberAsInt();
  ASSERT_TRUE(patches.ok());
  EXPECT_EQ(*patches, 1);
  const JsonValue* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("revalidated"), nullptr);
}

}  // namespace
}  // namespace gdlog
