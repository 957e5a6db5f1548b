// E14 — Fleet partitioning: the probability-mass-weighted shard
// assignment on a deliberately skewed chase tree. The first choice picks
// a branch whose probability is proportional to its subtree leaf count
// (branch i unlocks log2(leaves(i)) independent fair flips), so path mass
// is a perfect work proxy. Every fourth branch is heavy — a stride-aligned
// skew that would put all heavy branches on one shard under a task-index
// stride with four shards. The weighted greedy (largest mass onto the
// lightest shard) spreads them and lands within one light task of the
// ideal quarter; the fleet's wall-clock (the makespan, its slowest shard)
// follows. The assignment is part of the pure plan function, so it stays
// zero-coordination: every worker recomputes the same partition from the
// same coordinates.
// Two live-fleet scenarios ride along (printed before the benchmark
// table): a SLEEPING STRAGGLER worker, where mid-job shard stealing must
// beat a job whose steal threshold outlasts the straggler by well over
// 1.5x, and a REPEATED JOB, where
// the worker-side partial cache must serve the second coordinator's whole
// job with zero additional chases.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gdatalog/shard.h"
#include "server/http.h"
#include "server/service.h"
#include "util/json.h"

namespace {

using namespace gdlog_bench;

constexpr int kBranches = 12;
constexpr size_t kShards = 4;

/// Branch i's flip count: heavy (2^9 leaves) on every fourth branch,
/// light (2^6) elsewhere. Shard plans order tasks canonically (ascending
/// branch value), so the heavy branches sit at task indices 3, 7, 11 —
/// all congruent mod kShards.
int FlipsFor(int branch) { return branch % 4 == 0 ? 9 : 6; }

/// pick(discrete<1, leaves(1), ..., k, leaves(k)>), branch i unlocking
/// FlipsFor(i) flips: subtree mass ∝ subtree leaf count (masses
/// renormalize).
std::string SkewedProgram() {
  std::string params;
  for (int i = 1; i <= kBranches; ++i) {
    if (i > 1) params += ", ";
    params += std::to_string(i) + ", " +
              std::to_string(double(1 << FlipsFor(i)));
  }
  return "pick(discrete<" + params + ">).\n"
         "coin(J, flip<0.5>[J]) :- pick(I), unlocks(I, J).\n";
}

std::string SkewedDb() {
  std::string db;
  for (int i = 1; i <= kBranches; ++i) {
    for (int j = 1; j <= FlipsFor(i); ++j) {
      db += "unlocks(" + std::to_string(i) + "," + std::to_string(j) + ").\n";
    }
  }
  return db;
}

gdlog::ShardPlan MustPlan(const gdlog::GDatalog& engine) {
  gdlog::ChaseOptions options;
  // Depth 1 = one task per discrete branch: the cleanest skew exhibit.
  auto plan = engine.chase().PlanShards(options, kShards,
                                        /*prefix_depth=*/1);
  if (!plan.ok()) {
    std::fprintf(stderr, "bench plan failed: %s\n",
                 plan.status().ToString().c_str());
    std::abort();
  }
  return std::move(plan).value();
}

std::vector<double> ShardMasses(const gdlog::ShardPlan& plan) {
  std::vector<double> mass(plan.num_shards, 0.0);
  for (size_t i = 0; i < plan.tasks.size(); ++i) {
    mass[plan.shard_of[i]] += plan.tasks[i].path_prob.value();
  }
  return mass;
}

size_t HeaviestShard(const gdlog::ShardPlan& plan) {
  std::vector<double> mass = ShardMasses(plan);
  return static_cast<size_t>(
      std::max_element(mass.begin(), mass.end()) - mass.begin());
}

void VerificationTable() {
  auto engine = MustCreate(SkewedProgram(), SkewedDb());
  gdlog::ChaseOptions options;
  std::printf("=== E14: weighted shard partitioning ===\n");
  std::printf("skewed tree: %d branches, P(branch i) = leaves(i)/total "
              "(mass == work)\n\n",
              kBranches);
  gdlog::ShardPlan plan = MustPlan(engine);
  std::vector<double> mass = ShardMasses(plan);
  double worst = 0.0;
  double makespan_ms = 0.0;
  size_t outcomes = 0;
  std::printf("%-12s", "weighted");
  for (size_t shard = 0; shard < plan.num_shards; ++shard) {
    auto start = std::chrono::steady_clock::now();
    auto partial = engine.chase().ExploreShard(plan, shard, options);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!partial.ok()) {
      std::fprintf(stderr, "bench explore failed: %s\n",
                   partial.status().ToString().c_str());
      std::abort();
    }
    outcomes += partial->outcomes.size();
    worst = std::max(worst, mass[shard]);
    makespan_ms = std::max(makespan_ms, ms);
    std::printf("  shard%zu: mass=%.3f %7.2fms", shard, mass[shard], ms);
  }
  std::printf("\n%-12s  worst-shard mass=%.3f (ideal %.3f), "
              "makespan=%.2fms, outcomes=%zu\n\n",
              "", worst, 1.0 / double(kShards), makespan_ms, outcomes);
}

// ---------------------------------------------------------------------------
// Live-fleet scenarios: straggler stealing and the worker partial cache
// ---------------------------------------------------------------------------

/// A real gdlogd worker on a loopback port; `shard_delay_ms` > 0 turns it
/// into a straggler that sleeps before serving each /v1/shards request.
class BenchWorker {
 public:
  explicit BenchWorker(int shard_delay_ms = 0) {
    gdlog::InferenceService::Options options;
    options.default_chase.num_threads = 1;
    service_ = std::make_unique<gdlog::InferenceService>(options);
    gdlog::HttpServerOptions http;
    http.workers = 4;
    auto server = gdlog::HttpServer::Create(
        http, [this, shard_delay_ms](const gdlog::HttpRequest& request) {
          if (shard_delay_ms > 0 && request.target == "/v1/shards") {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(shard_delay_ms));
          }
          return service_->Handle(request);
        });
    if (!server.ok()) std::abort();
    server_ = std::make_unique<gdlog::HttpServer>(std::move(*server));
    thread_ = std::thread([this] { (void)server_->Serve(); });
  }

  ~BenchWorker() {
    server_->Shutdown();
    thread_.join();
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server_->port());
  }
  gdlog::InferenceService& service() { return *service_; }

 private:
  std::unique_ptr<gdlog::InferenceService> service_;
  std::unique_ptr<gdlog::HttpServer> server_;
  std::thread thread_;
};

/// Registers the skewed program on `coordinator` and runs one /v1/jobs
/// against `workers`, returning the job wall time in ms.
double RunFleetJob(gdlog::InferenceService& coordinator,
                   const std::vector<std::string>& workers,
                   int steal_after_ms, size_t shards) {
  gdlog::JsonWriter reg;
  reg.BeginObject().KV("program", SkewedProgram()).KV("db", SkewedDb())
      .EndObject();
  gdlog::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/programs";
  request.body = reg.str();
  gdlog::HttpResponse registered = coordinator.Handle(request);
  if (registered.status != 200 && registered.status != 201) std::abort();
  auto doc = gdlog::JsonValue::Parse(registered.body);
  const gdlog::JsonValue* id = doc.ok() ? doc->Find("id") : nullptr;
  if (id == nullptr) std::abort();

  gdlog::JsonWriter job;
  job.BeginObject();
  job.KV("program_id", id->string_value());
  job.KV("shards", static_cast<long long>(shards));
  job.KV("steal_after_ms", static_cast<long long>(steal_after_ms));
  job.Key("workers").BeginArray();
  for (const std::string& worker : workers) job.String(worker);
  job.EndArray();
  job.EndObject();
  request.target = "/v1/jobs";
  request.body = job.str();
  auto start = std::chrono::steady_clock::now();
  gdlog::HttpResponse response = coordinator.Handle(request);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  if (response.status != 200) {
    std::fprintf(stderr, "bench job failed: %s\n", response.body.c_str());
    std::abort();
  }
  return ms;
}

void StragglerScenario() {
  std::printf("=== straggler: mid-job stealing vs waiting ===\n");
  // One worker sleeps 900 ms before every shard exchange; the other is
  // healthy. Waiting means a steal threshold past the default 60 s
  // deadline, so no flight ever becomes stealable. Fresh coordinators per
  // run (the job cache would otherwise serve the second run for free).
  BenchWorker straggler(/*shard_delay_ms=*/900);
  BenchWorker healthy;
  std::vector<std::string> workers = {straggler.address(),
                                      healthy.address()};
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;

  gdlog::InferenceService no_steal_coord(options);
  double no_steal_ms = RunFleetJob(no_steal_coord, workers,
                                   /*steal_after_ms=*/120'000, kShards);
  gdlog::InferenceService steal_coord(options);
  double steal_ms = RunFleetJob(steal_coord, workers,
                                /*steal_after_ms=*/100, kShards);
  uint64_t steals = steal_coord.fleet().counters().steals;
  double ratio = steal_ms > 0 ? no_steal_ms / steal_ms : 0;
  std::printf("no-steal makespan=%.1fms  steal makespan=%.1fms  "
              "speedup=%.2fx (target >= 1.5x)  steals=%llu  %s\n\n",
              no_steal_ms, steal_ms, ratio,
              static_cast<unsigned long long>(steals),
              ratio >= 1.5 && steals >= 1 ? "OK" : "MISS");
}

void RepeatedJobScenario() {
  std::printf("=== repeated job: worker partial cache ===\n");
  // The same job from two fresh coordinators: the second is served wholly
  // out of the worker's partial cache — zero additional chases.
  BenchWorker worker;
  std::vector<std::string> workers = {worker.address()};
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;

  gdlog::InferenceService cold_coord(options);
  double cold_ms = RunFleetJob(cold_coord, workers,
                               /*steal_after_ms=*/250, kShards);
  uint64_t explored_after_cold =
      worker.service().fleet().counters().shards_explored;
  gdlog::InferenceService warm_coord(options);
  double warm_ms = RunFleetJob(warm_coord, workers,
                               /*steal_after_ms=*/250, kShards);
  gdlog::FleetService::Counters after =
      worker.service().fleet().counters();
  uint64_t extra_chases = after.shards_explored - explored_after_cold;
  std::printf("cold=%.1fms warm=%.1fms  partial_cache_hits=%llu  "
              "extra_chases=%llu (target 0)  %s\n\n",
              cold_ms, warm_ms,
              static_cast<unsigned long long>(after.partial_cache_hits),
              static_cast<unsigned long long>(extra_chases),
              extra_chases == 0 ? "OK" : "MISS");
}

/// The fleet wall-clock proxy: exploring the heaviest shard of the plan,
/// which the weighted assignment keeps near total/kShards.
void BM_Fleet_WorstShard(benchmark::State& state) {
  auto engine = MustCreate(SkewedProgram(), SkewedDb());
  gdlog::ShardPlan plan = MustPlan(engine);
  size_t shard = HeaviestShard(plan);
  gdlog::ChaseOptions options;
  for (auto _ : state) {
    auto partial = engine.chase().ExploreShard(plan, shard, options);
    if (!partial.ok()) std::abort();
    benchmark::DoNotOptimize(partial->outcomes);
  }
  state.counters["worst_mass"] = ShardMasses(plan)[shard];
  state.SetLabel("weighted");
}
BENCHMARK(BM_Fleet_WorstShard)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  VerificationTable();
  StragglerScenario();
  RepeatedJobScenario();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
