// E11 — incremental grounding and incremental serving. The chase extends
// each child from its parent's grounding (monotonicity, Definition 3.3);
// the Explore/Sample rows time exact inference and path sampling on that
// path (tests/incremental_test.cc checks it against a from-scratch
// reference).
//
// The delta-serving section drives the PR 7 incremental-update path
// against a live in-process registry: PATCH /db with a 1%-sized fact
// delta versus PUT /db full rebuild (gate: the delta update must be at
// least 10x faster), plus the cache-revalidation regime — a delta on a
// predicate outside every rule body must leave the next identical /query
// a pure cache hit (gate: zero additional chases).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench/bench_common.h"
#include "gdatalog/sampler.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using namespace gdlog_bench;

bool g_gate_failed = false;

// ---------------------------------------------------------------------------
// Delta-serving workload: the E1 clique-3 chase (small enough to query
// exactly) embedded in a large database. The bulk is `observed` event-log
// facts that no rule body mentions — they make a PUT rebuild re-parse and
// re-index the whole store, while a PATCH never touches their relation at
// all. The 1% delta lands on `connected` — a real rule-body predicate, so
// the update must re-ground semi-naively and evict cached spaces — but its
// facts connect non-router nodes with no infected partner, so they are
// chase-inert and the outcome space stays small enough to cache. This is
// the regime the delta path is built for: update cost proportional to the
// delta plus one copy-on-write detach of each *touched* relation, never
// O(|DB|). `meta` facts live in no rule body either: deltas on them are
// the cache-revalidation case.
// ---------------------------------------------------------------------------

constexpr int kPaddingFacts = 4000;
constexpr int kDeltaFacts = kPaddingFacts / 100;  // the "1% delta"

std::string DeltaServingDb() {
  std::string db = Clique(3);
  for (int i = 0; i < kPaddingFacts; ++i) {
    int a = 1000 + 2 * i;
    db += "observed(" + std::to_string(a) + "," + std::to_string(a + 1) +
          ").\n";
  }
  // Pre-seed meta so its column domain is already saturated (Top): later
  // meta deltas keep the DB summary pipeline-equivalent.
  for (int i = 1; i <= 8; ++i) {
    db += "meta(" + std::to_string(i) + ").\n";
  }
  return db;
}

/// A fresh 1%-sized batch of chase-inert `connected` facts; `round` keeps
/// batches disjoint so repeated PATCHes append real rows.
std::string ConnectedDelta(int round) {
  std::string delta;
  int base = 1'000'000 + round * 2 * kDeltaFacts;
  for (int i = 0; i < kDeltaFacts; ++i) {
    int a = base + 2 * i;
    delta += "connected(" + std::to_string(a) + "," + std::to_string(a + 1) +
             ").\n";
  }
  return delta;
}

std::string MetaDelta(int round) {
  return "meta(" + std::to_string(1'000'000 + round) + ").\n";
}

gdlog::HttpResponse MustHandle(gdlog::InferenceService& service,
                               const char* method, const std::string& target,
                               const std::string& body, int expect_status) {
  gdlog::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  gdlog::HttpResponse response = service.Handle(request);
  if (response.status != expect_status) {
    std::fprintf(stderr, "bench setup: %s %s -> %d: %s\n", method,
                 target.c_str(), response.status, response.body.c_str());
    std::abort();
  }
  return response;
}

std::string RegisterDeltaServingProgram(gdlog::InferenceService& service) {
  gdlog::JsonWriter reg;
  reg.BeginObject()
      .KV("program", NetworkProgram(0.1))
      .KV("db", DeltaServingDb())
      .KV("grounder", "simple")
      .EndObject();
  gdlog::HttpResponse registered =
      MustHandle(service, "POST", "/v1/programs", reg.str(), 201);
  auto doc = gdlog::JsonValue::Parse(registered.body);
  if (!doc.ok() || doc->Find("id") == nullptr) std::abort();
  return doc->Find("id")->string_value();
}

std::string PatchBody(const std::string& delta) {
  gdlog::JsonWriter body;
  body.BeginObject().KV("delta", delta).EndObject();
  return body.str();
}

std::string PutBody(const std::string& db) {
  gdlog::JsonWriter body;
  body.BeginObject().KV("db", db).EndObject();
  return body.str();
}

long long JsonCounter(const gdlog::JsonValue& doc, const char* object,
                      const char* field) {
  const gdlog::JsonValue* obj = doc.Find(object);
  if (obj == nullptr) return -1;
  const gdlog::JsonValue* value = obj->Find(field);
  if (value == nullptr || !value->is_number()) return -1;
  auto n = value->NumberAsInt();
  return n.ok() ? *n : -1;
}

void DeltaServingTable() {
  std::printf(
      "=== E11 delta serving: PATCH /db vs full rebuild "
      "(clique3 + %d event-log facts, %d-fact delta) ===\n",
      kPaddingFacts, kDeltaFacts);

  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  gdlog::InferenceService service(options);
  std::string id = RegisterDeltaServingProgram(service);
  std::string db_target = "/v1/programs/" + id + "/db";
  std::string query_body = "{\"program_id\":\"" + id + "\"}";

  using clock = std::chrono::steady_clock;
  auto ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start)
        .count();
  };

  // Delta updates: PATCH a fresh 1% batch each round, average the cost.
  constexpr int kPatchRounds = 8;
  auto patch_start = clock::now();
  for (int round = 0; round < kPatchRounds; ++round) {
    MustHandle(service, "PATCH", db_target,
               PatchBody(ConnectedDelta(round)), 200);
  }
  double patch_ms = ms_since(patch_start) / kPatchRounds;

  // Full rebuilds: PUT the whole (original) database text.
  constexpr int kPutRounds = 3;
  std::string full_db = PutBody(DeltaServingDb());
  auto put_start = clock::now();
  for (int round = 0; round < kPutRounds; ++round) {
    MustHandle(service, "PUT", db_target, full_db, 200);
  }
  double put_ms = ms_since(put_start) / kPutRounds;

  double speedup = patch_ms > 0 ? put_ms / patch_ms : 0.0;
  bool update_gate = speedup >= 10.0;
  std::printf("%-28s %10.3f ms/op\n", "PATCH 1% delta", patch_ms);
  std::printf("%-28s %10.3f ms/op\n", "PUT full rebuild", put_ms);
  std::printf("%-28s %10.1fx (gate: >= 10x) %s\n", "update speedup", speedup,
              update_gate ? "PASS" : "FAIL (BUG)");
  if (!update_gate) g_gate_failed = true;

  // Revalidation regime: warm the cache, PATCH a meta-only delta, and the
  // next identical query must be served from the revalidated entry.
  MustHandle(service, "POST", "/v1/query", query_body, 200);
  gdlog::HttpResponse patched = MustHandle(
      service, "PATCH", db_target, PatchBody(MetaDelta(/*round=*/0)), 200);
  auto patch_doc = gdlog::JsonValue::Parse(patched.body);
  long long revalidated =
      patch_doc.ok() ? JsonCounter(*patch_doc, "delta", "spaces_revalidated")
                     : -1;
  gdlog::InferenceCache::Stats before = service.cache().stats();
  MustHandle(service, "POST", "/v1/query", query_body, 200);
  gdlog::InferenceCache::Stats after = service.cache().stats();
  bool zero_chase = after.misses == before.misses && revalidated >= 1;
  std::printf("%-28s revalidated=%lld, post-delta misses=+%llu "
              "(gate: >= 1 and +0) %s\n",
              "meta delta + /query", revalidated,
              static_cast<unsigned long long>(after.misses - before.misses),
              zero_chase ? "PASS" : "FAIL (BUG)");
  if (!zero_chase) g_gate_failed = true;
  std::printf("\n");
}

void BM_Explore_Incremental(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = MustCreate(kNetworkProgram, Ring(n), gdlog::GrounderKind::kSimple);
  gdlog::ChaseOptions options;
  options.compute_models = false;  // isolate grounding cost
  for (auto _ : state) {
    auto space = MustInfer(engine, options);
    benchmark::DoNotOptimize(space.finite_mass);
  }
}
BENCHMARK(BM_Explore_Incremental)->Arg(4)->Arg(5)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_Sample_Incremental(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto engine = MustCreate(NetworkProgram(0.3), RandomNetwork(n, 0.3, 99),
                           gdlog::GrounderKind::kSimple);
  gdlog::ChaseOptions options;
  options.compute_models = false;
  options.max_depth = 100000;
  gdlog::Rng rng(5);
  for (auto _ : state) {
    auto s = engine.chase().SamplePath(&rng, options);
    benchmark::DoNotOptimize(s->prob);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sample_Incremental)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

/// PATCH /db with a fresh 1%-sized delta per iteration — the serving-layer
/// incremental update (parse delta, append rows extending indices, resume
/// semi-naive re-grounding, lineage bump). Fixed iteration count: every
/// iteration appends real rows, so unbounded adaptive runs would grow the
/// database (and the published spec) quadratically.
void BM_DeltaUpdate_Patch1Pct(benchmark::State& state) {
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  gdlog::InferenceService service(options);
  std::string id = RegisterDeltaServingProgram(service);
  std::string db_target = "/v1/programs/" + id + "/db";
  gdlog::HttpRequest request;
  request.method = "PATCH";
  request.target = db_target;
  int round = 100;  // disjoint from the verification table's batches
  for (auto _ : state) {
    request.body = PatchBody(ConnectedDelta(round++));
    gdlog::HttpResponse response = service.Handle(request);
    if (response.status != 200) std::abort();
    benchmark::DoNotOptimize(response.body);
  }
  state.counters["rows/delta"] = kDeltaFacts;
}
BENCHMARK(BM_DeltaUpdate_Patch1Pct)
    ->Iterations(64)
    ->Unit(benchmark::kMillisecond);

/// PUT /db with the full database text — the rebuild every delta update
/// replaces: re-parse the whole store, re-summarize, re-ground.
void BM_DeltaUpdate_FullRebuild(benchmark::State& state) {
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  gdlog::InferenceService service(options);
  std::string id = RegisterDeltaServingProgram(service);
  gdlog::HttpRequest request;
  request.method = "PUT";
  request.target = "/v1/programs/" + id + "/db";
  request.body = PutBody(DeltaServingDb());
  for (auto _ : state) {
    gdlog::HttpResponse response = service.Handle(request);
    if (response.status != 200) std::abort();
    benchmark::DoNotOptimize(response.body);
  }
  state.counters["db_facts"] = kPaddingFacts;
}
BENCHMARK(BM_DeltaUpdate_FullRebuild)
    ->Iterations(8)
    ->Unit(benchmark::kMillisecond);

/// A meta-only delta followed by the query it must not invalidate: PATCH
/// revalidates the cached space under the new lineage, so the /query half
/// is a pure fingerprint hit — no chase, any iteration.
void BM_DeltaQuery_Revalidated(benchmark::State& state) {
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  gdlog::InferenceService service(options);
  std::string id = RegisterDeltaServingProgram(service);
  std::string db_target = "/v1/programs/" + id + "/db";
  gdlog::HttpRequest query;
  query.method = "POST";
  query.target = "/v1/query";
  query.body = "{\"program_id\":\"" + id + "\"}";
  if (service.Handle(query).status != 200) std::abort();  // warm the cache
  gdlog::HttpRequest patch;
  patch.method = "PATCH";
  patch.target = db_target;
  int round = 100;
  for (auto _ : state) {
    patch.body = PatchBody(MetaDelta(round++));
    if (service.Handle(patch).status != 200) std::abort();
    gdlog::HttpResponse response = service.Handle(query);
    if (response.status != 200) std::abort();
    benchmark::DoNotOptimize(response.body);
  }
  gdlog::InferenceCache::Stats stats = service.cache().stats();
  if (stats.misses != 1) {  // only the warm-up may ever chase
    std::fprintf(stderr,
                 "BM_DeltaQuery_Revalidated: %llu chases (expected 1) — "
                 "revalidation failed to carry the cached space\n",
                 static_cast<unsigned long long>(stats.misses));
    std::abort();
  }
  state.counters["chases"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_DeltaQuery_Revalidated)
    ->Iterations(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  DeltaServingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return g_gate_failed ? 1 : 0;
}
