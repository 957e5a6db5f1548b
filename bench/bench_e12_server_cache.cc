// E12 — serving-layer cache: cold chase vs. fingerprint hit on the E1
// clique-4 outcome space (2^12 leaves). The cold row is what every request
// costs without gdlogd's InferenceCache; the hit row is what a repeated
// identical query costs with it — the gap is the whole point of the
// serving subsystem. The end-to-end row adds the service layer's JSON
// work on top of a hit (what a warmed /query actually pays in-process).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "server/cache.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using namespace gdlog_bench;

gdlog::ChaseOptions ServingChase() {
  gdlog::ChaseOptions options;
  options.num_threads = 1;  // gdlogd parallelizes across requests
  return options;
}

void VerificationTable() {
  std::printf("=== E12: server cache (clique n=4, rate 0.1) ===\n");
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  auto compute = [&]() { return engine.Infer(chase); };
  auto cold = cache.LookupOrCompute(key, compute);
  auto warm = cache.LookupOrCompute(key, compute);
  auto stats = cache.stats();
  std::string outcomes =
      cold.ok() ? std::to_string((*cold)->space().outcomes.size()) : "ERROR";
  std::printf("%-28s %s\n", "outcomes", outcomes.c_str());
  std::printf("%-28s %llu/%llu (expected 1/1)\n", "misses/hits",
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.hits));
  std::printf("%-28s %s\n", "same shared space",
              cold.ok() && warm.ok() && *cold == *warm ? "yes" : "NO");
  std::printf("%-28s %zu\n", "approx bytes cached", stats.bytes);
  std::printf("\n");
}

/// The price of ignoring the cache: every iteration chases from scratch
/// (Clear() first, so LookupOrCompute always computes).
void BM_ServerCache_ColdChase(benchmark::State& state) {
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  size_t outcomes = 0;
  for (auto _ : state) {
    cache.Clear();
    auto space = cache.LookupOrCompute(
        key, [&]() { return engine.Infer(chase); });
    if (!space.ok()) std::abort();
    outcomes = (*space)->space().outcomes.size();
    benchmark::DoNotOptimize(space);
  }
  state.counters["outcomes"] = static_cast<double>(outcomes);
}
BENCHMARK(BM_ServerCache_ColdChase)->Unit(benchmark::kMillisecond);

/// A repeated identical query: one fingerprint lookup under the cache
/// mutex, no chase.
void BM_ServerCache_Hit(benchmark::State& state) {
  auto engine = MustCreate(NetworkProgram(0.1), Clique(4));
  gdlog::ChaseOptions chase = ServingChase();
  gdlog::InferenceCache cache(256ull * 1024 * 1024);
  std::string key = gdlog::InferenceCache::Fingerprint("p1", 0, chase);
  auto warm = cache.LookupOrCompute(
      key, [&]() { return engine.Infer(chase); });
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    auto space = cache.LookupOrCompute(key, [&]() -> gdlog::Result<gdlog::OutcomeSpace> {
      std::abort();  // a warm cache must never recompute
    });
    benchmark::DoNotOptimize(space);
  }
  state.counters["outcomes"] =
      static_cast<double>((*warm)->space().outcomes.size());
}
BENCHMARK(BM_ServerCache_Hit)->Unit(benchmark::kMicrosecond);

/// Registers the E1 clique-4 program on `service` and returns a /query
/// request for it with `extra` fields appended, already run once so the
/// space is cached.
gdlog::HttpRequest WarmQuery(gdlog::InferenceService& service,
                             const std::string& extra) {
  gdlog::JsonWriter reg;
  reg.BeginObject()
      .KV("program", NetworkProgram(0.1))
      .KV("db", Clique(4))
      .EndObject();
  gdlog::HttpRequest register_request;
  register_request.method = "POST";
  register_request.target = "/v1/programs";
  register_request.body = reg.str();
  gdlog::HttpResponse registered = service.Handle(register_request);
  if (registered.status != 201) std::abort();
  auto doc = gdlog::JsonValue::Parse(registered.body);
  if (!doc.ok() || doc->Find("id") == nullptr) std::abort();
  gdlog::HttpRequest query;
  query.method = "POST";
  query.target = "/v1/query";
  query.body = "{\"program_id\":\"" + doc->Find("id")->string_value() +
               "\"" + extra + "}";
  if (service.Handle(query).status != 200) std::abort();
  return query;
}

void RunWarmQuery(benchmark::State& state, const std::string& extra) {
  gdlog::InferenceService::Options options;
  options.default_chase = ServingChase();
  gdlog::InferenceService service(options);
  gdlog::HttpRequest query = WarmQuery(service, extra);
  size_t body_bytes = 0;
  for (auto _ : state) {
    gdlog::HttpResponse response = service.Handle(query);
    if (response.status != 200) std::abort();
    body_bytes = response.body.size();
    benchmark::DoNotOptimize(response.body);
  }
  state.counters["body_bytes"] = static_cast<double>(body_bytes);
}

/// A warmed /query through the full service layer — routing, body parse,
/// cache hit, summary-JSON render (no outcomes section) — i.e. the
/// in-process cost of what gdlogd serves once the space is cached. The
/// summary masses come precomputed from the entry's answer index.
void BM_ServerQuery_WarmEndToEnd(benchmark::State& state) {
  RunWarmQuery(state, "");
}
BENCHMARK(BM_ServerQuery_WarmEndToEnd)->Unit(benchmark::kMicrosecond);

/// The same with the event table: the warm-up query builds the index's
/// event rows, so every timed request only renders them.
void BM_ServerQuery_WarmEvents(benchmark::State& state) {
  RunWarmQuery(state, ",\"include_events\":true");
}
BENCHMARK(BM_ServerQuery_WarmEvents)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
