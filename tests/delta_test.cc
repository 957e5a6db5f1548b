// The PR 7 incremental-serving path: fact-delta parsing and append-only
// application (FactStore::ApplyDelta), incremental summary maintenance,
// delta-vs-rebuild bit-identity of GDatalog::WithDatabaseDelta across both
// grounders and thread counts, the rule-body check that gates revalidation,
// removal rejection, and the serving layer's lineage chain with cache
// revalidation versus eviction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "ground/fact_store.h"
#include "opt/ir.h"
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
// Incremental DB-summary maintenance
// ---------------------------------------------------------------------------

void ExpectIncrementalSummaryMatches(const std::string& base_text,
                                     const std::string& delta_text) {
  Interner interner;
  auto store = ParseFacts(base_text, &interner);
  ASSERT_TRUE(store.ok());
  DbSummary summary = SummarizeDb(*store);
  auto delta = ParseFactDelta(delta_text, &interner);
  ASSERT_TRUE(delta.ok());
  DeltaRanges ranges;
  ASSERT_TRUE(store->ApplyDelta(*delta, &ranges).ok());
  UpdateSummaryForDelta(&summary, *store, ranges);
  EXPECT_TRUE(summary == SummarizeDb(*store))
      << "base: " << base_text << " delta: " << delta_text;
}

TEST(DeltaSummary, IncrementalUpdateEqualsFromScratch) {
  // New rows inside existing domains.
  ExpectIncrementalSummaryMatches("edge(1,2). edge(2,3).", "edge(2,1).\n");
  // Domain saturation crossing (4 -> 5 distinct values).
  ExpectIncrementalSummaryMatches(
      "n(1). n(2). n(3). n(4).", "n(5).\nn(6).\n");
  // A predicate the base never mentioned.
  ExpectIncrementalSummaryMatches("edge(1,2).", "meta(7).\n");
  // Duplicates only: the summary must be untouched.
  ExpectIncrementalSummaryMatches("edge(1,2).", "edge(1,2).\n");
  // Mixed batch across several predicates.
  ExpectIncrementalSummaryMatches(
      "edge(1,2). n(1). n(2).",
      "edge(3,4).\nn(3).\nn(4).\nn(5).\nmeta(1).\n");
}

// ---------------------------------------------------------------------------
// GDatalog::WithDatabaseDelta — bit-identity with a from-scratch rebuild
// ---------------------------------------------------------------------------

TEST(DeltaEngine, NetworkCliqueByteIdentity) {
  // E1: the clique-4 infection space; the delta carries rule-body
  // predicates (connected, infected), so the semi-naive resume has real
  // work to do.
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

TEST(DeltaEngine, SummaryStableDeltaReusesPipeline) {
  auto base = MakeEngine(kNetworkProgram, Clique(4), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  // connected's columns already hold {1..4}; a self-loop adds rows without
  // widening any domain, so the summary stays pipeline-equivalent.
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(1,1).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  const DeltaStats& stats = inc->delta_stats();
  EXPECT_TRUE(stats.applied);
  EXPECT_EQ(stats.rows_appended, 1u);
  EXPECT_FALSE(stats.summary_changed);
  EXPECT_TRUE(stats.touches_rule_bodies);  // connected is a body predicate
  if (base->opt_stats().enabled) {
    EXPECT_TRUE(stats.pipeline_reused);
  }
}

TEST(DeltaEngine, SummaryChangingDeltaRerunsPipeline) {
  auto base = MakeEngine(kNetworkProgram, Clique(4), GrounderKind::kSimple);
  ASSERT_TRUE(base.ok());
  // A fifth distinct constant saturates connected's column domains to Top:
  // the pass pipeline could now specialize differently, so it must re-run.
  auto inc = GDatalog::WithDatabaseDelta(*base, "connected(7,8).\n");
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(inc->delta_stats().summary_changed);
  if (base->opt_stats().enabled) {
    EXPECT_FALSE(inc->delta_stats().pipeline_reused);
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
  auto chained = registry.Find(info->id);
  ASSERT_NE(chained, nullptr);
  EXPECT_EQ(chained->lineage.size(), 2u);
  EXPECT_EQ(chained->lineage[0].base_revision, 0u);
  EXPECT_EQ(chained->lineage[1].base_revision, 1u);

  // A full replacement starts a fresh lineage.
  auto replaced = registry.ReplaceDatabase(info->id, Clique(3));
  ASSERT_TRUE(replaced.ok());
  auto entry = registry.Find(info->id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->revision, 3u);
  EXPECT_TRUE(entry->lineage.empty());
  EXPECT_TRUE(entry->lineage_digest.empty());

  auto counters = registry.delta_counters();
  EXPECT_EQ(counters.deltas_applied, 2u);
  EXPECT_EQ(counters.rows_appended, 2u);
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
  // meta is pre-seeded past the domain cap so meta deltas stay
  // pipeline-equivalent AND occur in no rule body -> revalidation path.
  std::string db = Clique(3) +
                   "meta(1).\nmeta(2).\nmeta(3).\nmeta(4).\nmeta(5).\n";
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
