// The traced run's layer probes. Every call into a gdlog module's public
// API below runs under a span named after the module and the function, so
// the per-layer numbers are read back from the spans (durations and self
// times), not from separate stopwatches.
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/grounder.h"
#include "gdatalog/shard.h"
#include "inputs.h"
#include "obs/profile.h"
#include "requests.h"
#include "server/http.h"
#include "server/service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kChaseThreads = 4;
constexpr size_t kShards = 4;
constexpr size_t kInferRounds = 5;  // odd: the median is one of the runs
constexpr int kServiceRounds = 12;
constexpr int kEventRounds = 3;
constexpr const char* kSpanHeader = "X-Perfbench-Span";
constexpr const char* kSetupSpan = "server.InferenceService.Handle.setup";

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Median duration (ms) of the spans named `name`, 0 when there are none.
double MedianMs(const std::map<std::string, SpanSummary>& summary,
                const std::string& name) {
  auto it = summary.find(name);
  return it == summary.end() ? 0.0 : Median(it->second.durations_ms);
}

/// An in-process gdlogd: an InferenceService behind an HttpServer on a
/// loopback port. Every request it handles runs under a
/// "server.InferenceService.Handle" span whose parent and request ids come
/// from the X-Perfbench-Span header, so a client span's self time is the
/// HTTP layer's overhead.
class LocalServer {
 public:
  LocalServer(const gdlog::InferenceService::Options& options, Tracer* tracer)
      : service_(options), tracer_(tracer) {
    gdlog::HttpServerOptions http;
    http.workers = 4;
    auto server = gdlog::HttpServer::Create(
        http, [this](const gdlog::HttpRequest& r) { return Handle(r); });
    if (!server.ok()) return;
    server_.emplace(std::move(*server));
    thread_ = std::thread([this] { (void)server_->Serve(); });
  }
  ~LocalServer() {
    if (!server_) return;
    server_->Shutdown();
    thread_.join();
  }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  bool ok() const { return server_.has_value(); }
  int port() const { return server_->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  gdlog::InferenceService& service() { return service_; }

 private:
  gdlog::HttpResponse Handle(const gdlog::HttpRequest& request) {
    unsigned long long parent = 0, id = 0;
    if (const std::string* h = request.FindHeader(kSpanHeader)) {
      std::sscanf(h->c_str(), "%llu:%llu", &parent, &id);
    }
    ScopedSpan span(tracer_, "server.InferenceService.Handle", parent, id);
    return service_.Handle(request);
  }

  gdlog::InferenceService service_;
  Tracer* tracer_;
  std::optional<gdlog::HttpServer> server_;
  std::thread thread_;
};

gdlog::HttpResponse CallDirect(gdlog::InferenceService& service,
                               const char* method, const std::string& target,
                               const std::string& body, Tracer* tracer,
                               const char* span_name) {
  gdlog::HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  ScopedSpan span(tracer, span_name, 0, tracer->NewRequest());
  return service.Handle(request);
}

gdlog::InferenceService::Options ServiceOptions() {
  gdlog::InferenceService::Options options;
  options.default_chase.num_threads = 1;
  return options;
}

/// One node of the replayed chase tree: its choice set, the grounding of
/// its parent (null at the root) with the choice added since, and the
/// outcomes (indices into the space) below it.
struct ReplayNode {
  gdlog::ChoiceSet choices;
  std::shared_ptr<const gdlog::GroundRuleSet> parent;
  gdlog::GroundAtom new_active;
  std::vector<size_t> outcomes;
};

struct ReplayCounts {
  uint64_t nodes = 0, leaves = 0, rules = 0, models = 0;
};

/// Walks the chase tree behind `space` (the canonical trigger order)
/// serially, with the operations the chase runs at each node: the
/// grounding -- Ground at the root and wherever the grounder is not
/// incremental (the perfect grounder), else Extend of a clone of the
/// parent's grounding (the simple grounder) -- then FindTriggers, and at
/// a leaf the stable-model solve. The tree is rebuilt from the outcomes:
/// the chase expands a node's first trigger, and its children are the
/// values the outcomes below it chose for that trigger. Every step is
/// checked against the space.
ReplayCounts ReplayChase(const gdlog::GDatalog& engine,
                         const gdlog::OutcomeSpace& space, Tracer* tracer,
                         uint64_t parent_span, uint64_t request,
                         Result* result) {
  const bool incremental = engine.grounder().SupportsIncremental();
  const auto max_nodes = gdlog::ChaseOptions{}.solver_max_nodes;
  ReplayCounts counts;
  bool ok = true;
  std::vector<ReplayNode> stack(1);
  for (size_t i = 0; i < space.outcomes.size(); ++i) {
    stack[0].outcomes.push_back(i);
  }
  while (ok && !stack.empty()) {
    ReplayNode node = std::move(stack.back());
    stack.pop_back();
    ++counts.nodes;
    const gdlog::PossibleOutcome& first = space.outcomes[node.outcomes[0]];
    const bool leaf = node.outcomes.size() == 1 &&
                      first.choices.size() == node.choices.size();
    const bool extend = incremental && node.parent != nullptr;
    auto grounding = std::make_shared<gdlog::GroundRuleSet>();
    {
      ScopedSpan span(tracer,
                      extend ? (leaf ? "gdatalog.Grounder.Extend.leaf"
                                     : "gdatalog.Grounder.Extend.inner")
                             : (leaf ? "gdatalog.Grounder.Ground.leaf"
                                     : "gdatalog.Grounder.Ground.inner"),
                      parent_span, request);
      gdlog::Status status;
      if (extend) {
        *grounding = node.parent->Clone();
        status = engine.grounder().Extend(node.choices, node.new_active,
                                          grounding.get());
      } else {
        status = engine.grounder().Ground(node.choices, grounding.get());
      }
      ok = status.ok();
    }
    std::vector<gdlog::GroundAtom> triggers;
    if (ok) {
      ScopedSpan span(tracer, "gdatalog.FindTriggers", parent_span, request);
      triggers = gdlog::FindTriggers(engine.translated(), *grounding,
                                     node.choices);
    }
    ok = ok && triggers.empty() == leaf;
    if (!ok) break;
    if (leaf) {
      ScopedSpan span(tracer, "stable.ChaseEngine.SolveOutcome", parent_span,
                      request);
      auto solved =
          engine.chase().SolveOutcome(node.choices, *grounding, max_nodes);
      span.End();
      ok = solved.ok() && *solved == first.models &&
           node.choices == first.choices;
      ++counts.leaves;
      counts.rules += grounding->rules().size();
      counts.models += first.models.size();
      continue;
    }
    // One child per value the outcomes below chose for the first trigger.
    const gdlog::GroundAtom& trigger = triggers[0];
    std::vector<ReplayNode> children;
    for (size_t index : node.outcomes) {
      std::optional<gdlog::Value> value =
          space.outcomes[index].choices.Lookup(trigger);
      if (!value) {
        ok = false;
        break;
      }
      auto child = std::find_if(
          children.begin(), children.end(), [&](const ReplayNode& c) {
            return c.choices.Lookup(trigger) == value;
          });
      if (child == children.end()) {
        children.emplace_back();
        child = children.end() - 1;
        child->choices = node.choices;
        child->choices.Assign(trigger, *value);
        if (incremental) child->parent = grounding;
        child->new_active = trigger;
      }
      child->outcomes.push_back(index);
    }
    for (ReplayNode& child : children) stack.push_back(std::move(child));
  }
  result->Check(ok && counts.leaves == space.outcomes.size(),
                "the replayed chase tree differs from the space");
  return counts;
}

/// ast, opt, gdatalog (chase, grounder), ground, stable, util: the exact
/// chase, profiled, at one thread and at kChaseThreads threads, and a
/// serial replay of its tree.
void ChaseProbes(const gdlog::GDatalog& engine,
                 const gdlog::OutcomeSpace& serial_space, Tracer* tracer,
                 Result* result) {
  const uint64_t request = tracer->NewRequest();
  // Profiled Infer: the chase times its own grounding (Ground or Extend,
  // every node) and solving (every leaf) inside the call, so one run's
  // wall time splits into those and the rest.
  struct Run {
    double wall_ms = 0;
    gdlog::ChaseProfile profile;
  };
  auto infer = [&](size_t threads) {
    std::vector<Run> runs(kInferRounds);
    gdlog::ChaseOptions options;
    options.num_threads = threads;
    options.profile = true;
    for (Run& run : runs) {
      ScopedSpan span(tracer,
                      threads == 1 ? "gdatalog.GDatalog.Infer.serial"
                                   : "gdatalog.GDatalog.Infer.threads4",
                      0, request);
      auto space = engine.Infer(options, &run.profile);
      run.wall_ms = Ms(span.End());
      result->Check(space.ok() && SameOutcomeSpace(*space, serial_space),
                    "profiled Infer differs from the serial one");
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.wall_ms < b.wall_ms;
    });
    return runs;
  };
  const std::vector<Run> serial = infer(1);
  const std::vector<Run> parallel = infer(kChaseThreads);
  const Run& median = serial[kInferRounds / 2];
  const gdlog::ChaseProfile& profile = median.profile;
  uint64_t bindings = 0;
  for (const gdlog::RuleProfile& rule : profile.rules) {
    bindings += rule.bindings;
  }
  // Node and binding counts do not depend on the schedule.
  bool same_counts = true;
  for (const std::vector<Run>* runs : {&serial, &parallel}) {
    for (const Run& run : *runs) {
      uint64_t b = 0;
      for (const gdlog::RuleProfile& rule : run.profile.rules) {
        b += rule.bindings;
      }
      same_counts = same_counts && run.profile.nodes == profile.nodes &&
                    run.profile.solve_calls == serial_space.outcomes.size() &&
                    b == bindings;
    }
  }
  result->Check(same_counts, "profiled Infer counts differ between runs");
  const double ground_ms = Ms(profile.ground_time_ns);
  const double solve_ms = Ms(profile.solve_time_ns);
  const double unattributed_ms = median.wall_ms - ground_ms - solve_ms;
  result->Check(unattributed_ms >= 0,
                "a serial Infer's grounding and solving exceed its wall time");

  // The per-leaf rows: the chase's own leaf operations, again, serially.
  ScopedSpan replay(tracer, "perfbench.replay", 0, request);
  const ReplayCounts counts =
      ReplayChase(engine, serial_space, tracer, replay.id(), request, result);
  replay.End();
  result->Check(counts.nodes == profile.nodes,
                "the replay visited " + std::to_string(counts.nodes) +
                    " nodes, the chase " + std::to_string(profile.nodes));

  std::map<std::string, SpanSummary> spans = Summarize(tracer->Snapshot());
  const double leaves = static_cast<double>(counts.leaves);
  const double leaf_ground_ms = spans["gdatalog.Grounder.Ground.leaf"].total_ms +
                                spans["gdatalog.Grounder.Extend.leaf"].total_ms;
  result->Add("gdatalog.chase.serial_ms", median.wall_ms, "ms");
  result->Add("gdatalog.grounder.ground_total_ms", ground_ms, "ms");
  result->Add("stable.solve_total_ms", solve_ms, "ms");
  result->Add("gdatalog.chase.unattributed_ms", unattributed_ms, "ms");
  result->Add("gdatalog.grounder.ground_leaf_us",
              leaf_ground_ms * 1000 / leaves, "us");
  result->Add("gdatalog.grounder.rules_per_leaf",
              static_cast<double>(counts.rules) / leaves, "count");
  result->Add("stable.solve_leaf_us",
              spans["stable.ChaseEngine.SolveOutcome"].total_ms * 1000 /
                  leaves,
              "us");
  result->Add("stable.models_per_leaf",
              static_cast<double>(counts.models) / leaves, "count");
  result->Add("gdatalog.chase.nodes", static_cast<double>(profile.nodes),
              "count");
  result->Add("ground.join.bindings", static_cast<double>(bindings), "count");
  result->Add("util.thread_pool.speedup",
              median.wall_ms / parallel[kInferRounds / 2].wall_ms, "ratio");
}

/// gdatalog outcome, export and engine-delta entry points.
void OutcomeProbes(const gdlog::GDatalog& engine,
                   const gdlog::OutcomeSpace& space, SeededRng& rng,
                   Tracer* tracer, Result* result) {
  const uint64_t request = tracer->NewRequest();
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "gdatalog.OutcomeSpace.Events", 0, request);
    (void)space.Events();
  }
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(tracer, "gdatalog.OutcomeSpace.ProbConsistent", 0,
                    request);
    (void)space.ProbConsistent();
  }
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "gdatalog.OutcomeSpaceToJson", 0, request);
    (void)ExpectedQueryBody(engine, space, /*include_events=*/true);
  }

  std::optional<gdlog::GDatalog> patched;
  for (int i = 0; i < 5; ++i) {
    const std::string fact = "audit(" + std::to_string(i) + ", " +
                             std::to_string(rng.Below(1'000'000)) + ").\n";
    ScopedSpan span(tracer, "gdatalog.GDatalog.WithDatabaseDelta", 0,
                    request);
    auto delta = gdlog::GDatalog::WithDatabaseDelta(engine, fact);
    span.End();
    result->Check(delta.ok(), "WithDatabaseDelta failed");
    if (delta.ok()) patched.emplace(std::move(*delta));
  }
  if (patched) {
    std::optional<gdlog::OutcomeSpace> revalidated;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(tracer, "gdatalog.OutcomeSpace.WithAddedFacts", 0,
                      request);
      revalidated.emplace(space.WithAddedFacts(patched->delta_added_facts()));
    }
    // Revalidation must give what a fresh chase of the patched database
    // gives.
    gdlog::ChaseOptions parallel;
    parallel.num_threads = kChaseThreads;
    auto fresh = patched->Infer(parallel);
    result->Check(fresh.ok() && SameOutcomeSpace(*fresh, *revalidated),
                  "WithAddedFacts differs from a fresh chase");
  }

  std::map<std::string, SpanSummary> spans = Summarize(tracer->Snapshot());
  result->Add("gdatalog.outcome.events_ms",
              MedianMs(spans, "gdatalog.OutcomeSpace.Events"), "ms");
  result->Add("gdatalog.outcome.prob_consistent_ms",
              MedianMs(spans, "gdatalog.OutcomeSpace.ProbConsistent"), "ms");
  result->Add("gdatalog.export.render_ms",
              MedianMs(spans, "gdatalog.OutcomeSpaceToJson"), "ms");
  result->Add("gdatalog.engine.delta_apply_ms",
              MedianMs(spans, "gdatalog.GDatalog.WithDatabaseDelta"), "ms");
  result->Add("gdatalog.outcome.with_added_facts_ms",
              MedianMs(spans, "gdatalog.OutcomeSpace.WithAddedFacts"), "ms");
}

/// The shard plan, one serial exploration per shard, the partial wire
/// format both ways, and the merge.
void ShardProbes(const gdlog::GDatalog& engine,
                 const gdlog::OutcomeSpace& serial_space, Tracer* tracer,
                 Result* result) {
  const uint64_t request = tracer->NewRequest();
  gdlog::ChaseOptions serial;
  serial.num_threads = 1;
  std::optional<gdlog::ShardPlan> plan;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "gdatalog.ChaseEngine.PlanShards", 0, request);
    auto planned = engine.chase().PlanShards(serial, kShards);
    span.End();
    if (!planned.ok()) {
      result->Check(false, "PlanShards failed");
      return;
    }
    plan.emplace(std::move(*planned));
  }
  const gdlog::Interner& interner = *engine.program().interner();
  double makespan_ms = 0;
  double bytes = 0;
  std::vector<gdlog::PartialSpace> parsed;
  for (size_t shard = 0; shard < kShards; ++shard) {
    ScopedSpan explore(tracer, "gdatalog.ChaseEngine.ExploreShard", 0,
                       request);
    auto partial = engine.chase().ExploreShard(*plan, shard, serial);
    makespan_ms = std::max(makespan_ms, Ms(explore.End()));
    if (!partial.ok()) {
      result->Check(false, "ExploreShard failed");
      return;
    }
    std::string line;
    {
      ScopedSpan span(tracer, "gdatalog.PartialSpaceToJson", 0, request);
      line = gdlog::PartialSpaceToJson(
          *partial, gdlog::MakeShardPartialMeta(*plan, shard, serial),
          engine.program().interner());
    }
    bytes += static_cast<double>(line.size());
    gdlog::ShardPartialMeta meta;
    ScopedSpan span(tracer, "gdatalog.PartialSpaceFromJson", 0, request);
    auto back = gdlog::PartialSpaceFromJson(line, interner, &meta);
    span.End();
    if (!back.ok()) {
      result->Check(false, "PartialSpaceFromJson failed");
      return;
    }
    parsed.push_back(std::move(*back));
  }
  ScopedSpan merge(tracer, "gdatalog.MergePartialSpaces", 0, request);
  gdlog::OutcomeSpace merged =
      gdlog::MergePartialSpaces(std::move(parsed), serial.max_outcomes);
  merge.End();
  result->Check(SameOutcomeSpace(merged, serial_space),
                "merged shards differ from the single-process space");

  std::map<std::string, SpanSummary> spans = Summarize(tracer->Snapshot());
  result->Add("gdatalog.shard.plan_ms",
              MedianMs(spans, "gdatalog.ChaseEngine.PlanShards"), "ms");
  result->Add("gdatalog.shard.explore_makespan_ms", makespan_ms, "ms");
  result->Add("gdatalog.export.partial_bytes", bytes / kShards, "bytes");
  result->Add("gdatalog.export.partial_parse_ms",
              spans["gdatalog.PartialSpaceFromJson"].total_ms, "ms");
  result->Add("gdatalog.shard.merge_ms",
              MedianMs(spans, "gdatalog.MergePartialSpaces"), "ms");
}

/// server: InferenceService::Handle per op type in process, the same warm
/// query over loopback, and the cache counters of that mix.
void ServiceProbes(const std::string& program, const std::string& db,
                   const gdlog::GDatalog& engine,
                   const gdlog::OutcomeSpace& space, SeededRng& rng,
                   const LayerOverrides& overrides, Tracer* tracer,
                   Result* result) {
  LocalServer local(ServiceOptions(), tracer);
  if (!local.ok()) {
    result->Check(false, "in-process server did not start");
    return;
  }
  gdlog::InferenceService& service = local.service();
  const std::string dq_db = DimeQuarterDb(6, rng);
  auto dq = gdlog::GDatalog::Create(kDimeQuarterProgram, dq_db);
  auto dq_space = dq.ok() ? dq->Infer() : dq.status();
  if (!dq_space.ok()) {
    result->Check(false, "dime/quarter reference failed");
    return;
  }
  const std::string warm = ExpectedQueryBody(engine, space, false);
  const std::string events = ExpectedQueryBody(engine, space, true);
  const std::string cold = ExpectedQueryBody(*dq, *dq_space, false);
  const MarginalsExpectation marginals =
      ExpectMarginals(engine, space, QueryAtoms(engine, space, 3));

  auto call = [&](const char* method, const std::string& target,
                  const std::string& body, const char* span) {
    return CallDirect(service, method, target, body, tracer, span);
  };
  const std::string id = ProgramId(
      call("POST", "/v1/programs", RegisterBody(program, db), kSetupSpan).body);
  const std::string dq_id = ProgramId(
      call("POST", "/v1/programs", RegisterBody(kDimeQuarterProgram, dq_db),
           kSetupSpan)
          .body);
  const std::string warm_body = QueryBody(id, 0, false);
  const std::string marginals_body = QueryBody(id, 0, false, marginals.queries);
  result->Check(call("POST", "/v1/query", warm_body, kSetupSpan).body == warm,
                "in-process warm query differs");
  result->Check(MarginalsMatch(call("POST", "/v1/query", marginals_body,
                                    kSetupSpan)
                                   .body,
                               marginals),
                "in-process marginals differ");

  auto client = gdlog::HttpClient::Connect("127.0.0.1", local.port(), 60'000);
  if (!client.ok()) {
    result->Check(false, "loopback connect failed");
    return;
  }
  const gdlog::InferenceCache::Stats before = service.cache().stats();
  for (int round = 0; round < kServiceRounds; ++round) {
    result->Check(call("POST", "/v1/query", warm_body,
                       "server.InferenceService.Handle.query_warm")
                          .body == warm,
                  "in-process warm query differs");
    {
      ScopedSpan span(tracer, "server.HttpClient.Request.query_warm", 0,
                      tracer->NewRequest());
      auto response = client->Request(
          "POST", "/v1/query", warm_body, "application/json",
          {{kSpanHeader, std::to_string(span.id()) + ":" +
                             std::to_string(span.request())}});
      span.End();
      result->Check(response.ok() && response->body == warm,
                    "loopback warm query differs");
    }
    result->Check(MarginalsMatch(
                      call("POST", "/v1/query", marginals_body,
                           "server.InferenceService.Handle.query_marginals")
                          .body,
                      marginals),
                  "in-process marginals differ");
    result->Check(call("POST", "/v1/query",
                       QueryBody(dq_id, rng.ShuffleSeed(), false),
                       "server.InferenceService.Handle.query_cold")
                          .body == cold,
                  "in-process cold query differs");
    const std::string fact = "audit(" + std::to_string(round) + ", " +
                             std::to_string(rng.Below(1'000'000)) + ").\n";
    gdlog::HttpResponse patched =
        call("PATCH", "/v1/programs/" + id + "/db", PatchBody(fact),
             "server.InferenceService.Handle.patch");
    result->Check(patched.status == 200 &&
                      patched.body.find("\"touches_rule_bodies\":false") !=
                          std::string::npos,
                  "in-process PATCH failed");
    if (round < kEventRounds) {
      result->Check(call("POST", "/v1/query", QueryBody(id, 0, true),
                         "server.InferenceService.Handle.query_events")
                            .body == events,
                    "in-process events query differs");
    }
  }
  const gdlog::InferenceCache::Stats after = service.cache().stats();

  std::vector<Span> all = tracer->Snapshot();
  std::vector<uint64_t> self = SelfTimesNs(all);
  std::vector<double> overhead_us;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == "server.HttpClient.Request.query_warm") {
      overhead_us.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  std::map<std::string, SpanSummary> spans = Summarize(all);
  for (const char* op : {"query_warm", "query_marginals", "query_events",
                         "query_cold", "patch"}) {
    result->Add(std::string("server.service.handle_us.") + op,
                MedianMs(spans,
                         std::string("server.InferenceService.Handle.") + op) *
                    1000,
                "us");
  }
  result->Add("server.http.overhead_us", Median(overhead_us), "us");
  if (overrides.have_cache) {
    result->Add("server.cache.hit_ratio", overrides.cache_hit_ratio, "ratio");
    result->Add("server.cache.evictions", overrides.cache_evictions, "count");
    result->Add("server.cache.spaces_revalidated",
                overrides.spaces_revalidated, "count");
  } else {
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses) +
        static_cast<double>(after.coalesced - before.coalesced);
    result->Add("server.cache.hit_ratio", lookups > 0 ? hits / lookups : 0,
                "ratio");
    result->Add("server.cache.evictions",
                static_cast<double>(after.evictions - before.evictions),
                "count");
    result->Add("server.cache.spaces_revalidated",
                static_cast<double>(after.revalidated - before.revalidated),
                "count");
  }
}

/// server fleet counters from a cold and a repeated /v1/jobs over two
/// in-process workers, for the workloads that run no fleet of their own.
void FleetProbes(const std::string& program, const std::string& db,
                 const std::string& expected, SeededRng& rng,
                 const LayerOverrides& overrides, Tracer* tracer,
                 Result* result) {
  if (overrides.have_fleet) {
    result->Add("server.fleet.steals", overrides.steals, "count");
    result->Add("server.fleet.retries", overrides.retries, "count");
    result->Add("server.fleet.duplicate_partials",
                overrides.duplicate_partials, "count");
    result->Add("server.fleet.partial_cache_hit_ratio",
                overrides.partial_cache_hit_ratio, "ratio");
    return;
  }
  LocalServer w0(ServiceOptions(), tracer);
  LocalServer w1(ServiceOptions(), tracer);
  if (!w0.ok() || !w1.ok()) {
    result->Check(false, "in-process fleet workers did not start");
    return;
  }
  gdlog::InferenceService::Options options = ServiceOptions();
  options.cache_bytes = 0;
  options.fleet_workers = {w0.address(), w1.address()};
  gdlog::InferenceService coordinator(options);
  const std::string id = ProgramId(
      CallDirect(coordinator, "POST", "/v1/programs",
                 RegisterBody(program, db), tracer, kSetupSpan)
          .body);
  const uint64_t seed = rng.ShuffleSeed();
  for (const char* span : {"server.FleetService.HandleJobs.cold",
                           "server.FleetService.HandleJobs.repeat"}) {
    result->Check(CallDirect(coordinator, "POST", "/v1/jobs",
                             JobBody(id, kShards, seed), tracer, span)
                          .body == expected,
                  "in-process fleet job differs from the export");
  }
  const gdlog::FleetService::Counters c = coordinator.fleet().counters();
  double hits = 0, lookups = 0;
  for (LocalServer* w : {&w0, &w1}) {
    const gdlog::FleetService::Counters wc = w->service().fleet().counters();
    hits += static_cast<double>(wc.partial_cache_hits);
    lookups += static_cast<double>(wc.partial_cache_hits +
                                   wc.partial_cache_misses);
  }
  result->Add("server.fleet.steals", static_cast<double>(c.steals), "count");
  result->Add("server.fleet.retries", static_cast<double>(c.retries),
              "count");
  result->Add("server.fleet.duplicate_partials",
              static_cast<double>(c.duplicate_partials), "count");
  result->Add("server.fleet.partial_cache_hit_ratio",
              lookups > 0 ? hits / lookups : 0, "ratio");
}

}  // namespace

void RunLayerProbes(const std::string& program, const std::string& db,
                    uint64_t seed, const LayerOverrides& overrides,
                    Tracer* tracer, Result* result) {
  SeededRng rng(seed * 8 + 6);
  const uint64_t request = tracer->NewRequest();
  std::optional<gdlog::GDatalog> engine;
  std::vector<double> pipeline_ms;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(tracer, "ast.GDatalog.Create", 0, request);
    auto created = gdlog::GDatalog::Create(program, db);
    span.End();
    if (!created.ok()) {
      result->Check(false, "Create failed: " + created.status().ToString());
      return;
    }
    pipeline_ms.push_back(Ms(created->opt_stats().total_wall_ns));
    engine.emplace(std::move(*created));
  }
  gdlog::ChaseOptions serial;
  serial.num_threads = 1;
  auto space = engine->Infer(serial);
  if (!space.ok()) {
    result->Check(false, "Infer failed: " + space.status().ToString());
    return;
  }
  result->Add("ast.create_ms",
              MedianMs(Summarize(tracer->Snapshot()), "ast.GDatalog.Create"),
              "ms");
  result->Add("opt.pipeline_ms", Median(pipeline_ms), "ms");

  ChaseProbes(*engine, *space, tracer, result);
  OutcomeProbes(*engine, *space, rng, tracer, result);
  ShardProbes(*engine, *space, tracer, result);
  ServiceProbes(program, db, *engine, *space, rng, overrides, tracer, result);
  FleetProbes(program, db, ExpectedQueryBody(*engine, *space, false), rng,
              overrides, tracer, result);
}

}  // namespace perfbench
