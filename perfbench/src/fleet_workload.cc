// fleet: a gdlogd coordinator and two gdlogd workers (--chase-threads 1)
// over loopback, running /v1/jobs on the E14 skewed tree with 4 shards
// from one closed-loop client connection. Jobs alternate: a cold job under
// a fresh shuffle seed, then the same job again. The coordinator runs with
// --cache-mb 0, so only the workers' partial caches can answer a repeat.
#include <memory>
#include <optional>

#include "gdatalog/engine.h"
#include "inputs.h"
#include "process.h"
#include "requests.h"
#include "server/http.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kShards = 4;
constexpr int kWorkers = 2;

struct Fleet {
  std::vector<std::unique_ptr<Daemon>> workers;
  Daemon coordinator;
  std::string id;

  double PeakRssMb() const {
    double total = coordinator.PeakRssMb();
    for (const auto& w : workers) total += w->PeakRssMb();
    return total;
  }
  void Stop() {
    coordinator.Stop();
    for (auto& w : workers) w->Stop();
    workers.clear();
  }
};

/// Runs one job and checks its body against the single-process export.
bool RunJob(gdlog::HttpClient& client, const std::string& id, uint64_t seed,
            const std::string& expected, uint64_t* ns, std::string* error) {
  const std::string body = JobBody(id, kShards, seed);
  const uint64_t t0 = NowNs();
  auto response = client.Request("POST", "/v1/jobs", body);
  *ns = NowNs() - t0;
  if (!response.ok()) {
    *error = response.status().ToString();
    return false;
  }
  if (response->status != 200 || response->body != expected) {
    *error = "status " + std::to_string(response->status) + " body " +
             response->body.substr(0, 200);
    return false;
  }
  return true;
}

bool StartFleet(const Config& config, const SkewedTree& tree,
                const std::string& expected, SeededRng& rng, Fleet* fleet,
                Result* result) {
  std::string list;
  for (int w = 0; w < kWorkers; ++w) {
    auto daemon = std::make_unique<Daemon>();
    if (!daemon->Start(config.gdlogd,
                       {"--port", "0", "--chase-threads", "1"},
                       config.out_dir + "/gdlogd-worker" + std::to_string(w) +
                           ".log")) {
      result->Check(false, "gdlogd worker did not start");
      return false;
    }
    list += (w > 0 ? "," : "") + daemon->address();
    fleet->workers.push_back(std::move(daemon));
  }
  if (!fleet->coordinator.Start(
          config.gdlogd,
          {"--port", "0", "--chase-threads", "1", "--cache-mb", "0",
           "--fleet-workers", list},
          config.out_dir + "/gdlogd-coordinator.log")) {
    result->Check(false, "gdlogd coordinator did not start");
    return false;
  }
  auto client = gdlog::HttpClient::Connect("127.0.0.1",
                                           fleet->coordinator.port(), 60'000);
  if (!client.ok()) {
    result->Check(false, "connect failed");
    return false;
  }
  auto registered = client->Request("POST", "/v1/programs",
                                    RegisterBody(tree.program, tree.db));
  fleet->id = registered.ok() ? ProgramId(registered->body) : "";
  result->Check(!fleet->id.empty(), "registration failed");
  // Warm-up: one job ships the program to both workers and builds every
  // lazily constructed structure on all three processes.
  uint64_t ns = 0;
  std::string error;
  bool ok = RunJob(*client, fleet->id, rng.ShuffleSeed(), expected, &ns,
                   &error);
  result->Check(ok, "warm-up job: " + error);
  return ok;
}

struct Loop {
  Samples cold, repeat;
  uint64_t ops = 0;
  double elapsed_s = 0;

  void Append(const Loop& other) {
    cold.ms.insert(cold.ms.end(), other.cold.ms.begin(), other.cold.ms.end());
    repeat.ms.insert(repeat.ms.end(), other.repeat.ms.begin(),
                     other.repeat.ms.end());
  }
};

Loop RunLoop(const Fleet& fleet, const std::string& expected, double seconds,
             SeededRng& rng, Tracer* tracer, Result* result) {
  Loop loop;
  auto client = gdlog::HttpClient::Connect("127.0.0.1",
                                           fleet.coordinator.port(), 120'000);
  if (!client.ok()) {
    result->Check(false, "connect failed");
    return loop;
  }
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t seed = 0;
  for (uint64_t i = 0; NowNs() < stop; ++i) {
    const bool cold = i % 2 == 0;
    if (cold) seed = rng.ShuffleSeed();
    ScopedSpan span(tracer, cold ? "server.http.request.job_cold"
                                 : "server.http.request.job_repeat",
                    0, tracer != nullptr ? tracer->NewRequest() : 0);
    uint64_t ns = 0;
    std::string error;
    bool ok = RunJob(*client, fleet.id, seed, expected, &ns, &error);
    span.End();
    result->Check(ok, std::string(cold ? "cold" : "repeat") + " job: " +
                          error);
    if (!ok) return loop;
    (cold ? loop.cold : loop.repeat).Add(ns);
    ++loop.ops;
  }
  loop.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return loop;
}

}  // namespace

Result RunFleetWorkload(const Config& config) {
  Result result;
  SeededRng rng(config.seed * 8 + 4);
  SkewedTree tree = SkewedTreeInputs(rng);

  // The single-process export every job body must equal.
  auto engine = gdlog::GDatalog::Create(tree.program, tree.db);
  if (!engine.ok()) {
    result.Check(false, "Create failed: " + engine.status().ToString());
    return result;
  }
  gdlog::ChaseOptions parallel;
  parallel.num_threads = 4;
  auto space = engine->Infer(parallel);
  if (!space.ok()) {
    result.Check(false, "Infer failed: " + space.status().ToString());
    return result;
  }
  const std::string expected = ExpectedQueryBody(*engine, *space, false);

  std::vector<double> setup_s;
  Fleet fleet;
  for (int i = 0; i < 5; ++i) {
    if (i > 0) fleet.Stop();
    const uint64_t t0 = NowNs();
    if (!StartFleet(config, tree, expected, rng, &fleet, &result)) {
      return result;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  if (!config.trace) {
    Loop loop = RunLoop(fleet, expected, config.seconds, rng, nullptr,
                        &result);
    PrintSamples("job_cold", loop.cold);
    PrintSamples("job_repeat", loop.repeat);
    const double rss = fleet.PeakRssMb();
    fleet.Stop();
    AddEndToEnd(&result, setup_s, loop.cold, loop.repeat, loop.ops,
                loop.elapsed_s, rss);
    return result;
  }

  Tracer tracer;
  std::vector<std::optional<gdlog::JsonValue>> before, after;
  before.push_back(FetchStats(fleet.coordinator.port()));
  for (const auto& w : fleet.workers) before.push_back(FetchStats(w->port()));
  Loop plain, traced;
  for (bool on : kAbbaTraced) {
    Loop part = RunLoop(fleet, expected, config.seconds / 4, rng,
                        on ? &tracer : nullptr, &result);
    (on ? traced : plain).Append(part);
  }
  after.push_back(FetchStats(fleet.coordinator.port()));
  for (const auto& w : fleet.workers) after.push_back(FetchStats(w->port()));
  fleet.Stop();
  LayerOverrides overrides;
  bool have_stats = true;
  for (size_t i = 0; i < before.size(); ++i) {
    have_stats = have_stats && before[i] && after[i];
  }
  result.Check(have_stats, "GET /v1/stats failed");
  if (have_stats) {
    auto delta = [&](size_t process, const char* key) {
      return StatsCounter(*after[process], "fleet", key) -
             StatsCounter(*before[process], "fleet", key);
    };
    double hits = 0, lookups = 0;
    for (size_t w = 1; w < before.size(); ++w) {
      hits += delta(w, "partial_cache_hits");
      lookups += delta(w, "partial_cache_hits") +
                 delta(w, "partial_cache_misses");
    }
    overrides.have_fleet = true;
    overrides.steals = delta(0, "steals");
    overrides.retries = delta(0, "retries");
    overrides.duplicate_partials = delta(0, "duplicate_partials");
    overrides.partial_cache_hit_ratio = lookups > 0 ? hits / lookups : 0;
  }
  result.Add("perfbench.trace.overhead_ms",
             Median(traced.cold.ms) - Median(plain.cold.ms), "ms");
  RunLayerProbes(tree.program, tree.db, config.seed, overrides, &tracer,
                 &result);
  WriteSpans(tracer, config);
  return result;
}

}  // namespace perfbench
