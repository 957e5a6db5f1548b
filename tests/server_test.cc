// The serving subsystem: ProgramRegistry lifecycle, InferenceCache
// hit/miss/single-flight/eviction semantics, the InferenceService endpoint
// surface (including its byte-identity contract with `gdlog_cli --json`),
// and the HTTP layer over real loopback sockets — keep-alive, 4xx paths,
// request limits, concurrent clients, graceful shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gdatalog/export.h"
#include "server/cache.h"
#include "server/http.h"
#include "server/registry.h"
#include "server/service.h"
#include "util/json.h"
#include "util/socket.h"

namespace gdlog {
namespace {

constexpr const char* kCoinProgram =
    "coin(flip<0.5>). win :- coin(1).\n";

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

constexpr const char* kClique3Db =
    "router(1). router(2). router(3).\n"
    "connected(1,2). connected(2,1). connected(1,3). connected(3,1).\n"
    "connected(2,3). connected(3,2).\n"
    "infected(1, 1).\n";

// ---------------------------------------------------------------------------
// ProgramRegistry
// ---------------------------------------------------------------------------

TEST(ProgramRegistry, RegisterFindRemove) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kCoinProgram;
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->created);
  EXPECT_EQ(info->revision, 0u);
  EXPECT_EQ(registry.size(), 1u);

  auto entry = registry.Find(info->id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->spec.program_text, kCoinProgram);

  ASSERT_TRUE(registry.Remove(info->id).ok());
  EXPECT_EQ(registry.Find(info->id), nullptr);
  EXPECT_EQ(registry.Remove(info->id).code(), StatusCode::kNotFound);
}

TEST(ProgramRegistry, RegistrationIsIdempotentPerSpec) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kCoinProgram;
  auto first = registry.Register(spec);
  ASSERT_TRUE(first.ok());
  auto second = registry.Register(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->id, second->id);
  EXPECT_FALSE(second->created);
  EXPECT_EQ(registry.size(), 1u);

  // A different grounder is a different spec and gets its own entry.
  spec.grounder = GrounderKind::kSimple;
  auto third = registry.Register(spec);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->created);
  EXPECT_NE(third->id, first->id);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ProgramRegistry, RegisterRejectsBadPrograms) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = "this is not a program";
  auto info = registry.Register(spec);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ProgramRegistry, ReplaceDatabaseBumpsRevisionAndKeepsId) {
  ProgramRegistry registry;
  ProgramSpec spec;
  spec.program_text = kCoinProgram;
  auto info = registry.Register(spec);
  ASSERT_TRUE(info.ok());

  auto old_entry = registry.Find(info->id);
  auto replaced = registry.ReplaceDatabase(info->id, "");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->id, info->id);
  EXPECT_EQ(replaced->revision, 1u);

  // The old entry stays alive for holders; the registry serves the new one.
  EXPECT_EQ(old_entry->revision, 0u);
  EXPECT_EQ(registry.Find(info->id)->revision, 1u);
  EXPECT_EQ(registry.ReplaceDatabase("nope", "").status().code(),
            StatusCode::kNotFound);
}

// Two ids can come to hold the same spec through a PATCH or PUT. Each keeps
// its own slot in the idempotent-registration index, so whichever of them
// later moves away, a re-POST of the shared spec still finds the other
// instead of minting a third id.
TEST(ProgramRegistry, RePostFindsASpecTwoIdsShared) {
  const std::string db = kClique3Db;
  const std::string delta = "router(4).\n";
  auto spec_with = [](const std::string& db_text) {
    ProgramSpec spec;
    spec.program_text = kNetworkProgram;
    spec.db_text = db_text;
    return spec;
  };

  // A, with D, is patched to D+δ, the spec B was registered with; then B
  // moves on (a PUT), which must not erase A's slot.
  {
    ProgramRegistry registry;
    auto b = registry.Register(spec_with(db + delta));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    auto a = registry.Register(spec_with(db));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_NE(a->id, b->id);
    ASSERT_TRUE(registry.ApplyDatabaseDelta(a->id, delta).ok());
    ASSERT_EQ(registry.Find(a->id)->spec.db_text, db + delta);
    ASSERT_TRUE(registry.ReplaceDatabase(b->id, db + "router(5).\n").ok());
    auto again = registry.Register(spec_with(db + delta));
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->created);
    EXPECT_EQ(again->id, a->id);
    EXPECT_EQ(registry.size(), 2u);
  }

  // The same, but A (which took the slot last) moves on with a PATCH: B
  // still holds the spec and must be found.
  {
    ProgramRegistry registry;
    auto b = registry.Register(spec_with(db + delta));
    ASSERT_TRUE(b.ok());
    auto a = registry.Register(spec_with(db));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(registry.ReplaceDatabase(a->id, db + delta).ok());
    ASSERT_TRUE(registry.ApplyDatabaseDelta(a->id, "router(5).\n").ok());
    auto again = registry.Register(spec_with(db + delta));
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->created);
    EXPECT_EQ(again->id, b->id);
    // Removing B leaves no slot behind that could name it.
    ASSERT_TRUE(registry.Remove(b->id).ok());
    auto fresh = registry.Register(spec_with(db + delta));
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(fresh->created);
    EXPECT_EQ(registry.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// ByteLru
// ---------------------------------------------------------------------------

TEST(ByteLru, FindMarksTheEntryMostRecent) {
  ByteLru<int> lru(30);
  EXPECT_EQ(lru.Insert("a", 1, 10), 0u);
  EXPECT_EQ(lru.Insert("b", 2, 10), 0u);
  EXPECT_EQ(lru.Insert("c", 3, 10), 0u);
  ASSERT_NE(lru.Find("a"), nullptr);
  EXPECT_EQ(*lru.Find("a"), 1);
  EXPECT_EQ(lru.Find("z"), nullptr);
  // "b" is now the least recent, so it is the one a fourth entry drops.
  EXPECT_EQ(lru.Insert("d", 4, 10), 1u);
  EXPECT_FALSE(lru.Contains("b"));
  EXPECT_TRUE(lru.Contains("a"));
  EXPECT_TRUE(lru.Contains("c"));
  EXPECT_TRUE(lru.Contains("d"));
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.bytes(), 30u);
}

TEST(ByteLru, ReinsertReplacesAndRecharges) {
  ByteLru<int> lru(30);
  lru.Insert("a", 1, 10);
  lru.Insert("b", 2, 10);
  // Re-inserting "a" replaces its value and its charge, and makes it the
  // most recent: growing it to 25 bytes drops "b", not "a".
  EXPECT_EQ(lru.Insert("a", 7, 25), 1u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 25u);
  ASSERT_NE(lru.Find("a"), nullptr);
  EXPECT_EQ(*lru.Find("a"), 7);
  // Shrinking it gives the bytes back.
  EXPECT_EQ(lru.Insert("a", 8, 5), 0u);
  EXPECT_EQ(lru.bytes(), 5u);
}

TEST(ByteLru, OversizedValueIsNotStored) {
  ByteLru<int> lru(30);
  lru.Insert("a", 1, 10);
  EXPECT_EQ(lru.Insert("big", 2, 31), 0u);
  EXPECT_FALSE(lru.Contains("big"));
  EXPECT_TRUE(lru.Contains("a"));
  EXPECT_EQ(lru.bytes(), 10u);
  // A zero capacity stores nothing that is charged at all.
  ByteLru<int> off(0);
  EXPECT_EQ(off.Insert("a", 1, 1), 0u);
  EXPECT_EQ(off.size(), 0u);
}

TEST(ByteLru, ErasePrefixCountsAndVisitsWhatItDrops) {
  ByteLru<int> lru(100);
  lru.Insert("p1|x", 1, 10);
  lru.Insert("p2|x", 2, 20);
  lru.Insert("p1|y", 3, 30);
  std::vector<std::pair<std::string, int>> seen;
  size_t seen_bytes = 0;
  EXPECT_EQ(lru.ErasePrefix("p1|",
                            [&](const std::string& key, int& value,
                                size_t bytes) {
                              seen.emplace_back(key, value);
                              seen_bytes += bytes;
                            }),
            2u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, int>>{{"p1|x", 1},
                                                            {"p1|y", 3}}));
  EXPECT_EQ(seen_bytes, 40u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 20u);
  EXPECT_TRUE(lru.Contains("p2|x"));
  EXPECT_EQ(lru.ErasePrefix("p3|"), 0u);
  EXPECT_EQ(lru.ErasePrefix(""), 1u);
  EXPECT_EQ(lru.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// InferenceCache
// ---------------------------------------------------------------------------

OutcomeSpace SpaceWithOutcomes(size_t n) {
  OutcomeSpace space;
  space.outcomes.resize(n);
  return space;
}

TEST(InferenceCache, HitAfterMiss) {
  InferenceCache cache(1 << 20);
  std::atomic<int> computes{0};
  auto compute = [&]() -> Result<OutcomeSpace> {
    ++computes;
    return SpaceWithOutcomes(2);
  };
  auto a = cache.LookupOrCompute("k1", compute);
  ASSERT_TRUE(a.ok());
  auto b = cache.LookupOrCompute("k1", compute);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // the same shared space, not a copy
  EXPECT_EQ(computes.load(), 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(InferenceCache, SingleFlightCoalescesConcurrentIdenticalLookups) {
  InferenceCache cache(1 << 20);
  std::atomic<int> computes{0};
  auto slow_compute = [&]() -> Result<OutcomeSpace> {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return SpaceWithOutcomes(1);
  };
  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto space = cache.LookupOrCompute("same-key", slow_compute);
      if (space.ok() && (*space)->space().outcomes.size() == 1) ++ok;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(computes.load(), 1) << "N identical lookups must run one chase";
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, uint64_t(kThreads - 1));
}

TEST(InferenceCache, FailedComputeIsSharedButNeverCached) {
  InferenceCache cache(1 << 20);
  std::atomic<int> computes{0};
  auto failing = [&]() -> Result<OutcomeSpace> {
    ++computes;
    return Status::Internal("chase exploded");
  };
  EXPECT_FALSE(cache.LookupOrCompute("k", failing).ok());
  EXPECT_FALSE(cache.LookupOrCompute("k", failing).ok());
  // Each sequential failure recomputes (errors are not negative-cached)...
  EXPECT_EQ(computes.load(), 2);
  // ...and nothing was stored.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST(InferenceCache, EvictsLeastRecentlyUsedToHoldTheMemoryBound) {
  // Each 4-outcome space costs a few hundred bytes; a ~3-entry budget
  // forces LRU eviction on the fourth insert.
  size_t unit = InferenceCache::ApproxBytes(SpaceWithOutcomes(4));
  InferenceCache cache(3 * unit + unit / 2);
  auto compute = []() -> Result<OutcomeSpace> {
    return SpaceWithOutcomes(4);
  };
  ASSERT_TRUE(cache.LookupOrCompute("a", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("b", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("c", compute).ok());
  // Touch "a" so "b" is the least recently used.
  ASSERT_TRUE(cache.LookupOrCompute("a", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("d", compute).ok());
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
  // "b" was evicted; "a" survived its touch.
  ASSERT_TRUE(cache.LookupOrCompute("a", compute).ok());
  EXPECT_EQ(cache.stats().misses, 4u);  // a, b, c, d — not the re-touches
  ASSERT_TRUE(cache.LookupOrCompute("b", compute).ok());
  EXPECT_EQ(cache.stats().misses, 5u);  // b again: it was gone
}

TEST(InferenceCache, OversizedSpacesAreServedButNotCached) {
  InferenceCache cache(64);  // smaller than any real space
  std::atomic<int> computes{0};
  auto compute = [&]() -> Result<OutcomeSpace> {
    ++computes;
    return SpaceWithOutcomes(8);
  };
  ASSERT_TRUE(cache.LookupOrCompute("k", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("k", compute).ok());
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(InferenceCache, ErasePrefixDropsOneProgramsLines) {
  InferenceCache cache(1 << 20);
  auto compute = []() -> Result<OutcomeSpace> {
    return SpaceWithOutcomes(1);
  };
  ASSERT_TRUE(cache.LookupOrCompute("p1|rev=0|x", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("p1|rev=1|x", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("p2|rev=0|x", compute).ok());
  EXPECT_EQ(cache.ErasePrefix("p1|"), 2u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(InferenceCache, RevalidationPatchesOutsideTheLock) {
  InferenceCache cache(1 << 20);
  auto compute = []() -> Result<OutcomeSpace> {
    return SpaceWithOutcomes(1);
  };
  auto never = []() -> Result<OutcomeSpace> {
    ADD_FAILURE() << "no lookup here may start a chase";
    return Status::Internal("unexpected compute");
  };
  ASSERT_TRUE(cache.LookupOrCompute("p1|rev=0|lin=|k", compute).ok());
  ASSERT_TRUE(cache.LookupOrCompute("p2|rev=0|lin=|k", compute).ok());

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocking_patch = [&](const AnswerIndex& index) {
    entered.set_value();
    released.wait();
    return index.WithAddedFacts({});
  };
  InferenceCache::Revalidation revalidation =
      cache.BeginRevalidate("p1|", "p1|rev=0|lin=|", "p1|rev=1|lin=x|");
  std::thread patcher([&] {
    EXPECT_EQ(cache.FinishRevalidate(std::move(revalidation), blocking_patch),
              1u);
  });
  entered.get_future().wait();

  // Another program's entry is served while the patch is blocked.
  auto other = std::async(std::launch::async, [&] {
    return cache.LookupOrCompute("p2|rev=0|lin=|k", never).ok();
  });
  if (other.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << "a blocked patch stalled an unrelated lookup";
    release.set_value();  // the patch holds the cache lock: free it
    patcher.join();
    return;
  }

  // A lookup of the new lineage waits on the patch instead of chasing.
  auto renewed = std::async(std::launch::async, [&] {
    auto index = cache.LookupOrCompute("p1|rev=1|lin=x|k", never);
    return index.ok() && (*index)->space().outcomes.size() == 1;
  });
  for (int i = 0; i < 1000 && cache.stats().coalesced == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  release.set_value();
  patcher.join();
  EXPECT_TRUE(other.get());
  EXPECT_TRUE(renewed.get());

  InferenceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the two seeding computes only
  EXPECT_EQ(stats.revalidated, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(InferenceCache, SupersededSnapshotComputesNothing) {
  InferenceCache cache(1 << 20);
  auto never = []() -> Result<OutcomeSpace> {
    ADD_FAILURE() << "a superseded snapshot must not chase";
    return Status::Internal("unexpected compute");
  };
  auto compute = []() -> Result<OutcomeSpace> {
    return SpaceWithOutcomes(1);
  };
  // A miss whose snapshot is no longer current returns nullptr, computes
  // nothing and counts nothing.
  auto stale = cache.LookupOrCompute("k", never, [] { return false; });
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // A current one computes as before, and a hit never asks.
  auto live = cache.LookupOrCompute("k", compute, [] { return true; });
  ASSERT_TRUE(live.ok());
  ASSERT_NE(*live, nullptr);
  auto hit = cache.LookupOrCompute("k", never, [] {
    ADD_FAILURE() << "a hit needs no snapshot check";
    return false;
  });
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *live);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(InferenceCache, RevalidationChargesTheSourcePlusTheAddedFacts) {
  InferenceCache cache(1 << 20);
  auto compute = []() -> Result<OutcomeSpace> {
    return SpaceWithOutcomes(3);
  };
  ASSERT_TRUE(cache.LookupOrCompute("p1|rev=0|lin=|k", compute).ok());
  const size_t chased = cache.stats().bytes;
  EXPECT_EQ(chased, InferenceCache::ApproxBytes(SpaceWithOutcomes(3)));
  const std::vector<GroundAtom> facts = {GroundAtom{7, {Value::Int(1)}},
                                         GroundAtom{7, {Value::Int(2)}}};
  auto patch = [&](const AnswerIndex& index) {
    return index.WithAddedFacts(facts);
  };
  InferenceCache::Revalidation revalidation =
      cache.BeginRevalidate("p1|", "p1|rev=0|lin=|", "p1|rev=1|lin=x|");
  EXPECT_EQ(cache.FinishRevalidate(std::move(revalidation), patch), 1u);
  auto index = cache.LookupOrCompute("p1|rev=1|lin=x|k", compute);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(cache.stats().bytes,
            chased + InferenceCache::ApproxAddedBytes(**index));
  EXPECT_GT(cache.stats().bytes, chased);
}

TEST(InferenceCache, FingerprintSeparatesSemanticOptions) {
  ChaseOptions base;
  std::string key = InferenceCache::Fingerprint("p1", 0, base);
  // Result-affecting knobs change the key...
  for (auto mutate : std::vector<void (*)(ChaseOptions&)>{
           [](ChaseOptions& o) { o.max_outcomes = 7; },
           [](ChaseOptions& o) { o.max_depth = 7; },
           [](ChaseOptions& o) { o.support_limit = 7; },
           [](ChaseOptions& o) { o.min_path_prob = 1e-9; },
           [](ChaseOptions& o) { o.trigger_shuffle_seed = 7; },
           [](ChaseOptions& o) { o.solver_max_nodes = 7; },
       }) {
    ChaseOptions options = base;
    mutate(options);
    EXPECT_NE(InferenceCache::Fingerprint("p1", 0, options), key);
  }
  // ...revision and id too...
  EXPECT_NE(InferenceCache::Fingerprint("p1", 1, base), key);
  EXPECT_NE(InferenceCache::Fingerprint("p2", 0, base), key);
  // ...while purely operational knobs do not.
  ChaseOptions threads = base;
  threads.num_threads = 16;
  threads.profile = true;
  EXPECT_EQ(InferenceCache::Fingerprint("p1", 0, threads), key);
}

// ---------------------------------------------------------------------------
// InferenceService (no sockets)
// ---------------------------------------------------------------------------

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

InferenceService::Options ServiceOptions() {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  return options;
}

/// Registers a program and returns its id.
std::string MustRegister(InferenceService& service, const char* program,
                         const char* db = "") {
  JsonWriter body;
  body.BeginObject().KV("program", program).KV("db", db).EndObject();
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/programs", body.str()));
  EXPECT_EQ(response.status, 201) << response.body;
  auto doc = JsonValue::Parse(response.body);
  EXPECT_TRUE(doc.ok());
  const JsonValue* id = doc->Find("id");
  EXPECT_NE(id, nullptr);
  return id->string_value();
}

TEST(InferenceService, QueryBodyIsByteIdenticalToCliJsonExport) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kNetworkProgram, kClique3Db);

  // What gdlog_cli --json prints for the same program/DB/default budgets
  // (RunExact → OutcomeSpaceToJson + "\n", include flags all false).
  auto engine = GDatalog::Create(kNetworkProgram, kClique3Db);
  ASSERT_TRUE(engine.ok());
  ChaseOptions chase;
  chase.num_threads = 1;
  auto space = engine->Infer(chase);
  ASSERT_TRUE(space.ok());
  JsonExportOptions bare;
  bare.include_outcomes = false;
  bare.include_models = false;
  bare.include_events = false;
  std::string cli_bare =
      OutcomeSpaceToJson(*space, engine->translated(),
                         engine->program().interner(), bare) +
      "\n";
  JsonExportOptions full;
  full.include_outcomes = true;
  full.include_models = true;
  full.include_events = true;
  std::string cli_full =
      OutcomeSpaceToJson(*space, engine->translated(),
                         engine->program().interner(), full) +
      "\n";

  HttpResponse bare_response = service.Handle(MakeRequest(
      "POST", "/v1/query", std::string(R"({"program_id":")") + id + "\"}"));
  ASSERT_EQ(bare_response.status, 200) << bare_response.body;
  EXPECT_EQ(bare_response.body, cli_bare);

  HttpResponse full_response = service.Handle(MakeRequest(
      "POST", "/v1/query",
      std::string(R"({"program_id":")") + id +
          R"(","include_outcomes":true,"include_models":true,)"
          R"("include_events":true})"));
  ASSERT_EQ(full_response.status, 200) << full_response.body;
  EXPECT_EQ(full_response.body, cli_full);
}

TEST(InferenceService, RepeatedQueryIsServedFromTheCache) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kCoinProgram);
  std::string body = std::string(R"({"program_id":")") + id + "\"}";
  HttpResponse first = service.Handle(MakeRequest("POST", "/v1/query", body));
  HttpResponse second = service.Handle(MakeRequest("POST", "/v1/query", body));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(first.body, second.body);
  auto stats = service.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // Different budgets are a different space: a fresh chase.
  HttpResponse other = service.Handle(MakeRequest(
      "POST", "/v1/query",
      std::string(R"({"program_id":")") + id +
          R"(","options":{"support_limit":32}})"));
  ASSERT_EQ(other.status, 200);
  EXPECT_EQ(service.cache().stats().misses, 2u);
}

TEST(InferenceService, MarginalQueriesMatchOutcomeSpaceBounds) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kCoinProgram);
  HttpResponse response = service.Handle(MakeRequest(
      "POST", "/v1/query",
      std::string(R"({"program_id":")") + id +
          R"x(","queries":["win","never_mentioned(3)"]})x"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* marginals = doc->Find("marginals");
  ASSERT_NE(marginals, nullptr);
  ASSERT_EQ(marginals->array().size(), 2u);
  const JsonValue& win = marginals->array()[0];
  EXPECT_EQ(win.Find("lower")->Find("rational")->string_value(), "1/2");
  EXPECT_EQ(win.Find("upper")->Find("rational")->string_value(), "1/2");
  // An atom over names the program never interned has marginal [0, 0].
  const JsonValue& unknown = marginals->array()[1];
  EXPECT_EQ(unknown.Find("lower")->Find("rational")->string_value(), "0");
  EXPECT_EQ(unknown.Find("upper")->Find("rational")->string_value(), "0");
}

std::string MarginalQuery(const std::string& id, const std::string& atom) {
  return R"({"program_id":")" + id + R"(","queries":[")" + atom + R"("]})";
}

std::string LowerBound(const HttpResponse& response) {
  auto doc = JsonValue::Parse(response.body);
  if (!doc.ok()) return "";
  const JsonValue* marginals = doc->Find("marginals");
  if (marginals == nullptr || marginals->array().empty()) return "";
  return marginals->array()[0].Find("lower")->Find("rational")->string_value();
}

TEST(InferenceService, UnresolvedQueryNamesBuildNoDemandEngine) {
  // Names the program never interned demand nothing: each such marginal
  // query runs on the base engine, all four share its cache entry, and no
  // demand engine is built.
  std::string db;
  for (int i = 1; i <= 4; ++i) {
    db += "router(" + std::to_string(i) + ").\n";
    for (int j = 1; j <= 4; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
              ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kNetworkProgram, db.c_str());
  for (int i = 1; i <= 4; ++i) {
    std::string atom = "zz" + std::to_string(i) + "(1)";
    HttpResponse response =
        service.Handle(MakeRequest("POST", "/v1/query", MarginalQuery(id, atom)));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(LowerBound(response), "0") << atom;
  }
  EXPECT_EQ(service.registry().opt_counters().demand_engines_built, 0u);
  auto stats = service.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(InferenceService, DemandEnginesPerProgramAreCapped) {
  // One goal signature per query, two past the cap: the first
  // kMaxDemandEngines signatures get demand engines, the rest run on the
  // base engine under one cache entry, with the same marginals.
  const size_t n = ProgramRegistry::kMaxDemandEngines + 2;
  std::string program = "coin(flip<0.5>).\n";
  for (size_t i = 0; i < n; ++i) {
    program += "p" + std::to_string(i) + " :- coin(1).\n";
  }
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, program.c_str());
  for (size_t i = 0; i < n; ++i) {
    HttpResponse response = service.Handle(MakeRequest(
        "POST", "/v1/query", MarginalQuery(id, "p" + std::to_string(i))));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(LowerBound(response), "1/2") << "p" << i;
  }
  EXPECT_EQ(service.registry().opt_counters().demand_engines_built,
            ProgramRegistry::kMaxDemandEngines);
  auto stats = service.cache().stats();
  EXPECT_EQ(stats.misses, ProgramRegistry::kMaxDemandEngines + 1);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(InferenceService, PatchStormWithConcurrentQueries) {
  // One writer applies a chain of revalidating PATCHes while three readers
  // query the program: every body must be a fresh engine's on the database
  // of a revision the query could have seen, and no query may fail.
  constexpr int kPatches = 12;
  std::vector<std::string> deltas;
  for (int i = 0; i < kPatches; ++i) {
    deltas.push_back(i % 2 == 0 ? "meta(" + std::to_string(i) + ").\n"
                                : "audit(" + std::to_string(i) + ", " +
                                      std::to_string(7 * i) + ").\n");
  }
  const std::string full_query_tail =
      R"(","include_outcomes":true,"include_models":true})";
  const std::string events_query_tail = R"(","include_events":true})";
  const std::string marginal_query_tail =
      R"x(","queries":["infected(2, 1)","meta(2)","uninfected(3)"]})x";
  // Bodies that name no revision (full, events) and the marginal answers
  // after the "complete" field, per revision, from fresh services.
  std::vector<std::string> want_full, want_events, want_marginals;
  std::string db = kClique3Db;
  for (int r = 0; r <= kPatches; ++r) {
    if (r > 0) db += deltas[r - 1];
    InferenceService fresh(ServiceOptions());
    std::string fid = MustRegister(fresh, kNetworkProgram, db.c_str());
    auto ask = [&](const std::string& tail) {
      HttpResponse response = fresh.Handle(MakeRequest(
          "POST", "/v1/query", R"({"program_id":")" + fid + tail));
      EXPECT_EQ(response.status, 200) << response.body;
      return response.body;
    };
    want_full.push_back(ask(full_query_tail));
    want_events.push_back(ask(events_query_tail));
    std::string marginals = ask(marginal_query_tail);
    want_marginals.push_back(marginals.substr(marginals.find("\"complete\"")));
  }

  InferenceService service(ServiceOptions());
  const std::string id = MustRegister(service, kNetworkProgram, kClique3Db);
  std::atomic<int> published{0};
  std::atomic<bool> writing{true};
  std::atomic<int> failures{0};
  std::atomic<int> answered{0};
  std::thread writer([&] {
    for (int i = 0; i < kPatches; ++i) {
      // Let the readers get ahead (and fill the cache) between PATCHes,
      // however slow the build makes them.
      for (int wait = 0; answered.load() < 3 * i + 3 && wait < 10000; ++wait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      JsonWriter body;
      body.BeginObject().KV("delta", deltas[i]).EndObject();
      HttpResponse response = service.Handle(
          MakeRequest("PATCH", "/v1/programs/" + id + "/db", body.str()));
      EXPECT_EQ(response.status, 200) << response.body;
      published.store(i + 1);
    }
    writing.store(false);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int n = 0; writing.load() || n < 6; ++n) {
        const int kind = (n + t) % 3;
        const std::string& tail = kind == 0   ? full_query_tail
                                  : kind == 1 ? events_query_tail
                                              : marginal_query_tail;
        const int low = published.load();
        HttpResponse response = service.Handle(MakeRequest(
            "POST", "/v1/query", R"({"program_id":")" + id + tail));
        const int high = std::min(published.load() + 1, kPatches);
        ++answered;
        if (response.status != 200) {
          ++failures;
          ADD_FAILURE() << response.body;
          continue;
        }
        bool matched = false;
        if (kind == 2) {
          auto doc = JsonValue::Parse(response.body);
          long long r = -1;
          if (doc.ok() && doc->Find("revision") != nullptr) {
            auto value = doc->Find("revision")->NumberAsInt();
            if (value.ok()) r = *value;
          }
          matched = r >= low && r <= high &&
                    response.body.substr(response.body.find("\"complete\"")) ==
                        want_marginals[r];
        } else {
          const auto& want = kind == 0 ? want_full : want_events;
          for (int r = low; r <= high && !matched; ++r) {
            matched = response.body == want[r];
          }
        }
        if (!matched) {
          ++failures;
          ADD_FAILURE() << "kind " << kind << " revisions [" << low << ", "
                        << high << "]: " << response.body.substr(0, 300);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(answered.load(), 18);
  EXPECT_GT(service.cache().stats().revalidated, 0u);
}

TEST(InferenceService, SampleEndpointEstimatesAndNeverCaches) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kCoinProgram);
  std::string body = std::string(R"({"program_id":")") + id +
                     R"(","samples":400,"seed":11,"queries":["win"]})";
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/sample", body));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->Find("prob_consistent")->Find("mean")->
                       NumberAsDouble(),
                   1.0);
  double win = doc->Find("marginals")->array()[0].Find("lower")->
               Find("mean")->NumberAsDouble();
  EXPECT_NEAR(win, 0.5, 0.15);
  // Monte-Carlo runs bypass the cache entirely.
  EXPECT_EQ(service.cache().stats().misses, 0u);
  EXPECT_EQ(service.cache().stats().hits, 0u);
  // Sample counts above the server cap are rejected.
  HttpResponse too_many = service.Handle(MakeRequest(
      "POST", "/v1/sample",
      std::string(R"({"program_id":")") + id +
          R"(","samples":99000000000})"));
  EXPECT_EQ(too_many.status, 400);
}

TEST(InferenceService, DatabaseReplacementInvalidatesCachedSpaces) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kNetworkProgram, kClique3Db);
  std::string query = std::string(R"({"program_id":")") + id + "\"}";
  HttpResponse before =
      service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(before.status, 200);
  // Shrink the network to two routers: a different outcome space.
  HttpResponse replaced = service.Handle(MakeRequest(
      "PUT", "/v1/programs/" + id + "/db",
      R"({"db":"router(1). router(2). connected(1,2). connected(2,1). )"
      R"(infected(1, 1)."})"));
  ASSERT_EQ(replaced.status, 200) << replaced.body;
  EXPECT_EQ(service.cache().stats().entries, 0u);
  HttpResponse after = service.Handle(MakeRequest("POST", "/v1/query", query));
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body, before.body);
  EXPECT_EQ(service.cache().stats().misses, 2u);
}

TEST(InferenceService, MalformedRequestsGetFourHundreds) {
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kCoinProgram);
  struct Case {
    const char* name;
    HttpRequest request;
    int status;
  };
  std::vector<Case> cases;
  cases.push_back({"query body is not json",
                   MakeRequest("POST", "/v1/query", "not json"), 400});
  cases.push_back({"query body is not an object",
                   MakeRequest("POST", "/v1/query", "[1,2]"), 400});
  cases.push_back({"missing program_id",
                   MakeRequest("POST", "/v1/query", "{}"), 400});
  cases.push_back({"unknown program id",
                   MakeRequest("POST", "/v1/query",
                               R"({"program_id":"p999"})"), 404});
  cases.push_back({"bad options type",
                   MakeRequest("POST", "/v1/query",
                               std::string(R"({"program_id":")") + id +
                                   R"(","options":{"max_depth":"x"}})"),
                   400});
  cases.push_back({"queries not an array",
                   MakeRequest("POST", "/v1/query",
                               std::string(R"({"program_id":")") + id +
                                   R"(","queries":"win"})"),
                   400});
  cases.push_back({"query atom is not an atom",
                   MakeRequest("POST", "/v1/query",
                               std::string(R"({"program_id":")") + id +
                                   R"(","queries":["not an atom ("]})"),
                   400});
  cases.push_back({"register without program",
                   MakeRequest("POST", "/v1/programs", R"({"db":""})"), 400});
  cases.push_back({"register with parse error",
                   MakeRequest("POST", "/v1/programs",
                               R"({"program":"syntax error here"})"),
                   400});
  cases.push_back({"register with bad grounder",
                   MakeRequest("POST", "/v1/programs",
                               R"({"program":"a.","grounder":"quantum"})"),
                   400});
  cases.push_back({"unknown path",
                   MakeRequest("GET", "/nothing"), 404});
  cases.push_back({"unknown program subresource",
                   MakeRequest("GET", "/v1/programs/p1/tea"), 404});
  cases.push_back({"wrong method on /query",
                   MakeRequest("GET", "/v1/query"), 405});
  cases.push_back({"wrong method on /healthz",
                   MakeRequest("POST", "/v1/healthz", "{}"), 405});
  cases.push_back({"delete unknown program",
                   MakeRequest("DELETE", "/v1/programs/p999"), 404});
  cases.push_back({"sample without samples",
                   MakeRequest("POST", "/v1/sample",
                               std::string(R"({"program_id":")") + id +
                                   "\"}"),
                   400});
  for (const Case& c : cases) {
    HttpResponse response = service.Handle(c.request);
    EXPECT_EQ(response.status, c.status)
        << c.name << ": " << response.body;
    if (response.status >= 400) {
      auto doc = JsonValue::Parse(response.body);
      ASSERT_TRUE(doc.ok()) << c.name;
      EXPECT_NE(doc->Find("error"), nullptr) << c.name;
    }
  }
}

// ---------------------------------------------------------------------------
// HTTP server over real sockets
// ---------------------------------------------------------------------------

/// An HttpServer + InferenceService running Serve() on a background
/// thread; shuts down and joins on destruction.
class LiveServer {
 public:
  explicit LiveServer(HttpServerOptions options = {}) {
    service_ = std::make_unique<InferenceService>(ServiceOptions());
    options.workers = options.workers != 0 ? options.workers : 8;
    auto server = HttpServer::Create(
        options,
        [this](const HttpRequest& request) {
          return service_->Handle(request);
        });
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::make_unique<HttpServer>(std::move(*server));
    thread_ = std::thread([this] {
      Status status = server_->Serve();
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  ~LiveServer() {
    server_->Shutdown();
    thread_.join();
  }

  int port() const { return server_->port(); }
  InferenceService& service() { return *service_; }

 private:
  std::unique_ptr<InferenceService> service_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

TEST(HttpServer, HealthzAndKeepAliveOnOneConnection) {
  LiveServer server;
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Two requests over the same connection exercise keep-alive framing.
  auto first = client->Request("GET", "/v1/healthz");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  auto health = JsonValue::Parse(first->body);
  ASSERT_TRUE(health.ok());
  const JsonValue* health_status = health->Find("status");
  ASSERT_NE(health_status, nullptr);
  EXPECT_EQ(health_status->string_value(), "ok");
  EXPECT_NE(health->Find("version"), nullptr);
  EXPECT_NE(health->Find("uptime_s"), nullptr);
  EXPECT_NE(health->Find("pid"), nullptr);
  auto second = client->Request("GET", "/v1/stats");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  auto doc = JsonValue::Parse(second->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("cache"), nullptr);
}

TEST(HttpServer, ConcurrentIdenticalQueriesRunOneChase) {
  LiveServer server;
  auto setup = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(setup.ok());
  JsonWriter reg;
  reg.BeginObject().KV("program", kNetworkProgram).KV("db", kClique3Db)
      .EndObject();
  auto registered = setup->Request("POST", "/v1/programs", reg.str());
  ASSERT_TRUE(registered.ok());
  ASSERT_EQ(registered->status, 201) << registered->body;
  auto doc = JsonValue::Parse(registered->body);
  ASSERT_TRUE(doc.ok());
  std::string body = std::string(R"({"program_id":")") +
                     doc->Find("id")->string_value() + "\"}";

  constexpr int kClients = 6;
  constexpr int kRequestsEach = 4;
  std::atomic<int> ok{0};
  std::atomic<int> mismatches{0};
  std::string reference;
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      auto client = HttpClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int r = 0; r < kRequestsEach; ++r) {
        auto response = client->Request("POST", "/v1/query", body);
        if (!response.ok() || response->status != 200) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (reference.empty()) {
          reference = response->body;
        } else if (response->body != reference) {
          ++mismatches;
        }
        ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(mismatches.load(), 0);
  auto stats = server.service().cache().stats();
  EXPECT_EQ(stats.misses, 1u) << "identical concurrent queries must "
                                 "coalesce onto one chase";
  EXPECT_EQ(stats.hits + stats.coalesced,
            uint64_t(kClients * kRequestsEach - 1));
}

TEST(InferenceService, V1PathsServeWithoutDeprecationHeaders) {
  InferenceService service(ServiceOptions());
  HttpResponse response = service.Handle(MakeRequest("GET", "/v1/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.FindHeader("Deprecation"), nullptr);
  // /v1 prefixes every endpoint, not just the fixed-path ones.
  std::string id = MustRegister(service, kCoinProgram);
  HttpResponse query = service.Handle(MakeRequest(
      "POST", "/v1/query",
      std::string(R"({"program_id":")") + id + "\"}"));
  EXPECT_EQ(query.status, 200) << query.body;
  EXPECT_EQ(query.FindHeader("Deprecation"), nullptr);
}

TEST(InferenceService, UnversionedPathsAreNotFound) {
  InferenceService service(ServiceOptions());
  for (const char* target : {"/healthz", "/stats", "/query", "/v2/healthz"}) {
    HttpResponse response = service.Handle(MakeRequest("GET", target));
    EXPECT_EQ(response.status, 404) << target;
    EXPECT_EQ(response.FindHeader("Deprecation"), nullptr) << target;
    EXPECT_EQ(response.FindHeader("Link"), nullptr) << target;
    auto doc = JsonValue::Parse(response.body);
    ASSERT_TRUE(doc.ok()) << target;
    const JsonValue* error = doc->Find("error");
    ASSERT_NE(error, nullptr) << target;
    const JsonValue* code = error->Find("code");
    ASSERT_NE(code, nullptr) << target;
    EXPECT_EQ(code->string_value(), "NotFound") << target;
  }
  EXPECT_EQ(service.Handle(MakeRequest("GET", "/v1/healthz")).status, 200);
}

TEST(InferenceService, StatsAreNestedPerSubsystem) {
  InferenceService service(ServiceOptions());
  HttpResponse response = service.Handle(MakeRequest("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* server = doc->Find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* requests = server->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_NE(requests->Find("total"), nullptr);
  const JsonValue* registry = doc->Find("registry");
  ASSERT_NE(registry, nullptr);
  EXPECT_NE(registry->Find("programs"), nullptr);
  const JsonValue* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->Find("hits"), nullptr);
  EXPECT_NE(cache->Find("revalidated"), nullptr);
  const JsonValue* opt = doc->Find("opt");
  ASSERT_NE(opt, nullptr);
  EXPECT_NE(opt->Find("demand_engines_built"), nullptr);
  const JsonValue* delta = doc->Find("delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_NE(delta->Find("spaces_revalidated"), nullptr);
  const JsonValue* fleet = doc->Find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_NE(fleet->Find("jobs"), nullptr);
  EXPECT_NE(fleet->Find("shard_requests"), nullptr);
}

TEST(HttpServer, RejectsOversizedBodiesWith413) {
  HttpServerOptions options;
  options.max_body_bytes = 512;
  LiveServer server(options);
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  std::string big(2048, 'x');
  auto response = client->Request("POST", "/v1/query", big);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
  // Framing-layer rejections use the same error envelope as the service.
  auto doc = JsonValue::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->Find("code"), nullptr);
  EXPECT_NE(error->Find("message"), nullptr);
}

TEST(HttpServer, RejectsOversizedHeadersWith431) {
  LiveServer server;
  auto conn = Connection::ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(conn.ok());
  std::string request = "GET /healthz HTTP/1.1\r\nX-Big: ";
  request += std::string(128 * 1024, 'a');
  ASSERT_TRUE(conn->WriteAll(request, 5000).ok());
  // Status line and error envelope may arrive in separate TCP segments;
  // keep reading until the body shows up (EOF or timeout otherwise).
  char buf[1024];
  std::string head;
  while (head.find("\"error\"") == std::string::npos) {
    auto n = conn->ReadSome(buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    head.append(buf, *n);
  }
  EXPECT_NE(head.find("431"), std::string::npos);
  EXPECT_NE(head.find("\"error\""), std::string::npos);
}

TEST(HttpServer, RejectsMalformedRequestLinesWith400) {
  for (const char* raw : {
           "GARBAGE\r\n\r\n",
           "GET /healthz HTTP/2.0\r\n\r\n",
           "GET nothing HTTP/1.1\r\n\r\n",
           "GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
           "GET /healthz HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
       }) {
    LiveServer server;
    auto conn = Connection::ConnectTcp("127.0.0.1", server.port(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->WriteAll(raw, 5000).ok());
    char buf[256];
    auto n = conn->ReadSome(buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << raw;
    std::string head(buf, *n);
    EXPECT_NE(head.find("HTTP/1.1 400"), std::string::npos) << raw;
  }
}

TEST(HttpServer, RejectsDuplicateContentLength) {
  // Duplicate Content-Length is the classic request-smuggling shape; the
  // server must refuse rather than pick one copy.
  LiveServer server;
  auto conn = Connection::ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("POST /query HTTP/1.1\r\n"
                             "Content-Length: 2\r\n"
                             "Content-Length: 4\r\n\r\n{}",
                             5000)
                  .ok());
  char buf[256];
  auto n = conn->ReadSome(buf, sizeof(buf), 5000);
  ASSERT_TRUE(n.ok());
  EXPECT_NE(std::string(buf, *n).find("HTTP/1.1 400"), std::string::npos);
}

TEST(InferenceService, ClampsClientThreadCounts) {
  // options.num_threads sizes a real thread pool; an absurd client value
  // must be clamped to the hardware, not honored (std::thread would
  // abort the daemon).
  InferenceService service(ServiceOptions());
  std::string id = MustRegister(service, kCoinProgram);
  HttpResponse response = service.Handle(MakeRequest(
      "POST", "/v1/query",
      std::string(R"({"program_id":")") + id +
          R"(","options":{"num_threads":1000000000}})"));
  EXPECT_EQ(response.status, 200) << response.body;
}

TEST(HttpServer, TransferEncodingIsNotImplemented) {
  LiveServer server;
  auto conn = Connection::ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("POST /query HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n",
                             5000)
                  .ok());
  // Status line and error envelope may arrive in separate TCP segments;
  // keep reading until the body shows up (EOF or timeout otherwise).
  char buf[1024];
  std::string head;
  while (head.find("\"error\"") == std::string::npos) {
    auto n = conn->ReadSome(buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    head.append(buf, *n);
  }
  EXPECT_NE(head.find("501"), std::string::npos);
  EXPECT_NE(head.find("\"error\""), std::string::npos);
}

TEST(HttpServer, ChunkedStreamingResponseDeliversLinesIncrementally) {
  // A handler that streams three NDJSON lines chunk by chunk.
  HttpServerOptions options;
  options.workers = 2;
  auto server = HttpServer::Create(
      options, [](const HttpRequest& request) {
        HttpResponse response;
        if (request.target == "/boom") {
          response.status = 500;
          response.body = HttpErrorBody("internal", "nope");
          return response;
        }
        response.content_type = "application/x-ndjson";
        response.stream =
            [](const HttpResponse::ChunkSink& emit) -> Status {
          for (const char* line : {"one\n", "two\n", "three\n"}) {
            GDLOG_RETURN_IF_ERROR(emit(line));
          }
          return Status::OK();
        };
        return response;
      });
  ASSERT_TRUE(server.ok());
  std::thread serving([&server] { EXPECT_TRUE(server->Serve().ok()); });

  auto client = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  std::vector<std::string> lines;
  auto streamed = client->RequestStreamingLines(
      "GET", "/stream", "", /*deadline_ms=*/5000, {},
      [&](std::string_view line) {
        lines.emplace_back(line);
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->status, 200);
  EXPECT_TRUE(streamed->body.empty());
  EXPECT_EQ(lines, (std::vector<std::string>{"one", "two", "three"}));

  // The buffering client decodes the same chunked response whole, and the
  // connection stays keep-alive across both framings.
  auto buffered = client->Request("GET", "/stream");
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ(buffered->body, "one\ntwo\nthree\n");

  // Non-200s are never delivered line-by-line: the error envelope arrives
  // intact in body and the sink stays silent.
  size_t error_lines = 0;
  auto error = client->RequestStreamingLines(
      "GET", "/boom", "", /*deadline_ms=*/5000, {},
      [&](std::string_view) {
        ++error_lines;
        return Status::OK();
      });
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->status, 500);
  EXPECT_EQ(error_lines, 0u);
  EXPECT_NE(error->body.find("\"error\""), std::string::npos);

  server->Shutdown();
  serving.join();
}

TEST(HttpServer, TruncatedChunkedResponseIsBudgetExhausted) {
  // A raw fake server: well-formed chunked head, one complete line, one
  // declared-but-unfinished chunk, then EOF before the terminal chunk.
  auto listener = ListenSocket::BindTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread peer([&listener] {
    auto conn = listener->Accept(-1);
    ASSERT_TRUE(conn.ok() && conn->has_value());
    char buf[4096];
    (void)(*conn)->ReadSome(buf, sizeof buf, 1000);
    const std::string response =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Transfer-Encoding: chunked\r\n\r\n"
        "9\r\ndelivered\r\n"
        "40\r\ncut";
    ASSERT_TRUE((*conn)->WriteAll(response, 1000).ok());
  });

  auto client = HttpClient::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  std::vector<std::string> lines;
  auto result = client->RequestStreamingLines(
      "GET", "/stream", "", /*deadline_ms=*/5000, {},
      [&](std::string_view line) {
        lines.emplace_back(line);
        return Status::OK();
      });
  peer.join();
  // The truncation is a retryable failure — the same code a deadline
  // expiry uses — never a complete-looking short response.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(result.status().message().find("truncated"), std::string::npos);
  // Nothing was delivered: no newline ever completed a line before EOF.
  EXPECT_TRUE(lines.empty());
}

TEST(HttpServer, ShutdownDrainsAndServeReturns) {
  auto service = std::make_unique<InferenceService>(ServiceOptions());
  HttpServerOptions options;
  options.workers = 2;
  auto server = HttpServer::Create(
      options, [&service](const HttpRequest& request) {
        return service->Handle(request);
      });
  ASSERT_TRUE(server.ok());
  std::thread serving([&server] {
    EXPECT_TRUE(server->Serve().ok());
  });
  // An idle keep-alive connection must not block the drain.
  auto idle = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(idle->Request("GET", "/v1/healthz").ok());
  auto start = std::chrono::steady_clock::now();
  server->Shutdown();
  serving.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 5.0) << "drain must beat the idle timeout";
}

}  // namespace
}  // namespace gdlog