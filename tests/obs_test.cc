// The observability surfaces: histogram bucket arithmetic at the
// boundaries, per-rule chase-profile counts reproducible across thread
// counts, the /v1/metrics Prometheus exposition (grammar, no duplicate
// series, the ≥30-series floor), and X-Gdlog-Trace propagation end to end
// across a real-socket fleet job — including a re-dispatch after a worker
// failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/shard.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/version.h"
#include "server/http.h"
#include "server/service.h"
#include "util/json.h"
#include "util/socket.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

constexpr const char* kClique3Db =
    "router(1). router(2). router(3).\n"
    "connected(1,2). connected(2,1). connected(1,3). connected(3,1).\n"
    "connected(2,3). connected(3,2).\n"
    "infected(1, 1).\n";

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

std::string RegisterNetwork(InferenceService& service) {
  JsonWriter reg;
  reg.BeginObject().KV("program", kNetworkProgram).KV("db", kClique3Db)
      .EndObject();
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/programs", reg.str()));
  EXPECT_TRUE(response.status == 200 || response.status == 201)
      << response.body;
  auto doc = JsonValue::Parse(response.body);
  EXPECT_TRUE(doc.ok());
  const JsonValue* id = doc.ok() ? doc->Find("id") : nullptr;
  EXPECT_NE(id, nullptr);
  return id != nullptr && id->is_string() ? id->string_value() : "";
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundsDoubleFromHundredMicros) {
  EXPECT_EQ(LatencyHistogram::UpperBoundNanos(0), 100'000u);
  for (size_t i = 1; i < LatencyHistogram::kFiniteBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::UpperBoundNanos(i),
              2 * LatencyHistogram::UpperBoundNanos(i - 1))
        << i;
  }
}

TEST(Histogram, BucketIndexBoundariesAreInclusive) {
  // Prometheus `le` is inclusive: a duration exactly on a bound lands in
  // that bucket; one nanosecond more lands in the next.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 0u);
  for (size_t i = 0; i < LatencyHistogram::kFiniteBuckets; ++i) {
    const uint64_t bound = LatencyHistogram::UpperBoundNanos(i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(bound), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(bound + 1),
              i + 1 < LatencyHistogram::kFiniteBuckets
                  ? i + 1
                  : LatencyHistogram::kFiniteBuckets);
  }
  // Far past the last finite bound: the +Inf overflow bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(~0ull),
            LatencyHistogram::kFiniteBuckets);
}

TEST(Histogram, RecordAccumulatesBucketsCountAndSum) {
  LatencyHistogram hist;
  hist.RecordNanos(50'000);                                   // bucket 0
  hist.RecordNanos(100'000);                                  // bucket 0
  hist.RecordNanos(100'001);                                  // bucket 1
  hist.RecordNanos(LatencyHistogram::UpperBoundNanos(21) + 1);  // +Inf
  LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kFiniteBuckets], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns,
            50'000u + 100'000u + 100'001u +
                (LatencyHistogram::UpperBoundNanos(21) + 1));
}

TEST(Histogram, RecordSecondsClampsNegativeDurations) {
  LatencyHistogram hist;
  hist.RecordSeconds(-1.0);   // a clock hiccup: clamps to zero
  hist.RecordSeconds(0.0005);  // 500µs → bucket 3 (le=0.0008)
  LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum_ns, 500'000u);
}

// ---------------------------------------------------------------------------
// Exposition primitives
// ---------------------------------------------------------------------------

TEST(Metrics, FormatSecondsFromNanosIsExact) {
  EXPECT_EQ(FormatSecondsFromNanos(0), "0.0");
  EXPECT_EQ(FormatSecondsFromNanos(100'000), "0.0001");
  EXPECT_EQ(FormatSecondsFromNanos(1'000'000'000), "1.0");
  EXPECT_EQ(FormatSecondsFromNanos(1'500'000'000), "1.5");
  EXPECT_EQ(FormatSecondsFromNanos(209'715'200'000), "209.7152");
  EXPECT_EQ(FormatSecondsFromNanos(1), "0.000000001");
}

TEST(Metrics, EscapeLabelValueQuotesSpecials) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Metrics, HelpTypePairEmittedOncePerFamily) {
  MetricsWriter writer;
  writer.Counter("gdlog_x_total", "Help.", "a=\"1\"", 1);
  writer.Counter("gdlog_x_total", "Help.", "a=\"2\"", 2);
  EXPECT_EQ(writer.text(),
            "# HELP gdlog_x_total Help.\n"
            "# TYPE gdlog_x_total counter\n"
            "gdlog_x_total{a=\"1\"} 1\n"
            "gdlog_x_total{a=\"2\"} 2\n");
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

TEST(Trace, GeneratedIdsAreValidAndDistinct) {
  std::set<std::string> ids;
  for (int i = 0; i < 64; ++i) {
    std::string id = GenerateTraceId();
    EXPECT_EQ(id.size(), 16u);
    EXPECT_TRUE(IsValidTraceId(id)) << id;
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 64u);
}

TEST(Trace, ValidationRejectsInjectionAndJunk) {
  EXPECT_TRUE(IsValidTraceId("abc-DEF_012"));
  EXPECT_TRUE(IsValidTraceId(std::string(64, 'a')));
  EXPECT_FALSE(IsValidTraceId(""));
  EXPECT_FALSE(IsValidTraceId(std::string(65, 'a')));
  EXPECT_FALSE(IsValidTraceId("evil\r\nX-Other: 1"));
  EXPECT_FALSE(IsValidTraceId("has space"));
  EXPECT_FALSE(IsValidTraceId("dot.dot"));
}

// ---------------------------------------------------------------------------
// Per-rule chase profile: counts are schedule-independent
// ---------------------------------------------------------------------------

ChaseProfile ProfileAt(size_t threads) {
  auto engine = GDatalog::Create(kNetworkProgram, kClique3Db);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions chase;
  chase.num_threads = threads;
  chase.profile = true;
  ChaseProfile profile;
  auto space = engine->Infer(chase, &profile);
  EXPECT_TRUE(space.ok()) << space.status().ToString();
  return profile;
}

TEST(ChaseProfileCounts, IdenticalAcrossThreadCounts) {
  ChaseProfile serial = ProfileAt(1);
  ChaseProfile parallel = ProfileAt(8);

  EXPECT_GT(serial.nodes, 0u);
  EXPECT_EQ(serial.nodes, parallel.nodes);
  EXPECT_EQ(serial.ground_calls, parallel.ground_calls);
  EXPECT_EQ(serial.solve_calls, parallel.solve_calls);

  ASSERT_EQ(serial.rules.size(), parallel.rules.size());
  for (size_t i = 0; i < serial.rules.size(); ++i) {
    EXPECT_EQ(serial.rules[i].calls, parallel.rules[i].calls) << "rule " << i;
    EXPECT_EQ(serial.rules[i].bindings, parallel.rules[i].bindings)
        << "rule " << i;
    EXPECT_EQ(serial.rules[i].derivations, parallel.rules[i].derivations)
        << "rule " << i;
    EXPECT_EQ(serial.rules[i].stratum, parallel.rules[i].stratum)
        << "rule " << i;
  }
  ASSERT_EQ(serial.depths.size(), parallel.depths.size());
  for (size_t d = 0; d < serial.depths.size(); ++d) {
    EXPECT_EQ(serial.depths[d].nodes, parallel.depths[d].nodes)
        << "depth " << d;
  }
  // Some rule actually did work, or the test proves nothing.
  uint64_t derivations = 0;
  for (const RuleProfile& rule : serial.rules) derivations += rule.derivations;
  EXPECT_GT(derivations, 0u);
}

// The network program with a quarantined/free even negation loop on the
// 4-router clique: not stratified, so every one of its 2,535 leaves runs
// the general stable-model solver.
constexpr const char* kQuarantineProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y), "
    "not quarantined(X).\n"
    "quarantined(X) :- infected(X, 1), not free(X).\n"
    "free(X) :- infected(X, 1), not quarantined(X).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

std::string Clique4Db() {
  std::string db;
  for (int i = 1; i <= 4; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= 4; ++i) {
    for (int j = 1; j <= 4; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
              ").\n";
      }
    }
  }
  return db + "infected(1, 1).\n";
}

TEST(ChaseProfileCounts, SolveNodesIdenticalAcrossSchedules) {
  auto engine = GDatalog::Create(kQuarantineProgram, Clique4Db());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::set<uint64_t> totals;
  for (size_t threads : {1, 4}) {
    for (uint64_t shuffle : {0, 99}) {
      ChaseOptions chase;
      chase.num_threads = threads;
      chase.trigger_shuffle_seed = shuffle;
      chase.profile = true;
      ChaseProfile profile;
      auto space = engine->Infer(chase, &profile);
      ASSERT_TRUE(space.ok()) << space.status().ToString();
      EXPECT_EQ(profile.solve_calls, 2535u);
      totals.insert(profile.solve_nodes);
    }
  }
  ASSERT_EQ(totals.size(), 1u) << "solve_nodes depends on the schedule";
  EXPECT_GT(*totals.begin(), 2535u);
  // The solver that recomputed the well-founded model at every search node
  // used 48,359 nodes here; incremental propagation must prune at least as
  // much.
  EXPECT_LE(*totals.begin(), 48359u);
}

TEST(ChaseProfileCounts, TableLabelsRulesAndFlagsTimes) {
  ChaseProfile profile = ProfileAt(1);
  auto engine = GDatalog::Create(kNetworkProgram, kClique3Db);
  ASSERT_TRUE(engine.ok());
  std::string table =
      FormatChaseProfileTable(profile, engine->SigmaRuleLabels());
  EXPECT_NE(table.find("chase profile"), std::string::npos);
  EXPECT_NE(table.find("non-deterministic"), std::string::npos);
  EXPECT_NE(table.find("(branch "), std::string::npos);
  EXPECT_NE(table.find("release "), std::string::npos);
  EXPECT_NE(table.find("r0:"), std::string::npos);
}

TEST(ChaseProfileCounts, BranchAndReleaseTotalsMergeAndStayZeroWhenOff) {
  ChaseProfile a;
  a.branch_time_ns = 3;
  a.release_time_ns = 5;
  ChaseProfile b;
  b.branch_time_ns = 7;
  b.release_time_ns = 11;
  a.Merge(b);
  EXPECT_EQ(a.branch_time_ns, 10u);
  EXPECT_EQ(a.release_time_ns, 16u);

  // Every child node branches and every node is released; branching is a
  // part of grounding.
  for (size_t threads : {1, 4}) {
    ChaseProfile on = ProfileAt(threads);
    EXPECT_GT(on.branch_time_ns, 0u) << threads << " threads";
    EXPECT_LE(on.branch_time_ns, on.ground_time_ns) << threads << " threads";
    EXPECT_GT(on.release_time_ns, 0u) << threads << " threads";
  }

  auto engine = GDatalog::Create(kNetworkProgram, kClique3Db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions chase;
  chase.num_threads = 4;
  ChaseProfile off;
  ASSERT_TRUE(engine->Infer(chase, &off).ok());
  EXPECT_EQ(off.branch_time_ns, 0u);
  EXPECT_EQ(off.release_time_ns, 0u);
  EXPECT_EQ(off.ground_time_ns, 0u);
  EXPECT_TRUE(off.empty());
}

TEST(ChaseProfileCounts, MergePhaseMergesAndStaysZeroWhenOff) {
  ChaseProfile a;
  a.merge_time_ns = 13;
  ChaseProfile b;
  b.merge_time_ns = 17;
  a.Merge(b);
  EXPECT_EQ(a.merge_time_ns, 30u);

  // The serial drain sorts its one partial; a pooled drain sorts one run
  // per worker and k-way merges them. Both are timed.
  for (size_t threads : {1, 4}) {
    ChaseProfile on = ProfileAt(threads);
    EXPECT_GT(on.merge_time_ns, 0u) << threads << " threads";
  }
  auto engine = GDatalog::Create(kNetworkProgram, kClique3Db);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions chase;
  chase.num_threads = 4;
  chase.profile = true;
  ChaseProfile sharded;
  ASSERT_TRUE(ShardedExplore(engine->chase(), chase, 3, 0, &sharded).ok());
  EXPECT_GT(sharded.merge_time_ns, 0u);
  EXPECT_NE(FormatChaseProfileTable(sharded, engine->SigmaRuleLabels())
                .find(", merge "),
            std::string::npos);

  chase.profile = false;
  ChaseProfile off;
  ASSERT_TRUE(engine->Infer(chase, &off).ok());
  ASSERT_TRUE(ShardedExplore(engine->chase(), chase, 3, 0, &off).ok());
  EXPECT_EQ(off.merge_time_ns, 0u);
}

// ---------------------------------------------------------------------------
// /v1/metrics exposition
// ---------------------------------------------------------------------------

// One pass over the exposition body validating the text-format grammar
// line by line and collecting each sample's full series key
// (name + label set).
void ParseExposition(const std::string& body,
                     std::vector<std::string>* series) {
  auto is_name = [](const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')) {
        return false;
      }
    }
    return !std::isdigit(static_cast<unsigned char>(s[0]));
  };
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated last line";
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    ASSERT_NE(line.find(' '), std::string::npos) << line;
    size_t value_at = line.rfind(' ');
    std::string key = line.substr(0, value_at);
    std::string value = line.substr(value_at + 1);
    EXPECT_FALSE(value.empty()) << line;
    std::string name = key;
    if (size_t brace = key.find('{'); brace != std::string::npos) {
      EXPECT_EQ(key.back(), '}') << line;
      name = key.substr(0, brace);
    }
    EXPECT_TRUE(is_name(name)) << line;
    series->push_back(key);
  }
}

TEST(MetricsEndpoint, ExpositionParsesWithNoDuplicateSeries) {
  InferenceService service(ServiceOptions());
  std::string id = RegisterNetwork(service);
  // Exercise the counters: a profiled query (per-rule series), a sample,
  // and a cache hit.
  HttpResponse query = service.Handle(MakeRequest(
      "POST", "/v1/query",
      "{\"program_id\":\"" + id + "\",\"options\":{\"profile\":true}}"));
  ASSERT_EQ(query.status, 200) << query.body;
  HttpResponse again = service.Handle(MakeRequest(
      "POST", "/v1/query",
      "{\"program_id\":\"" + id + "\",\"options\":{\"profile\":true}}"));
  ASSERT_EQ(again.status, 200);
  HttpResponse sample = service.Handle(MakeRequest(
      "POST", "/v1/sample",
      "{\"program_id\":\"" + id + "\",\"samples\":4,\"seed\":7}"));
  ASSERT_EQ(sample.status, 200) << sample.body;

  HttpResponse metrics = service.Handle(MakeRequest("GET", "/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, kMetricsContentType);

  std::vector<std::string> series;
  ParseExposition(metrics.body, &series);
  std::set<std::string> unique(series.begin(), series.end());
  EXPECT_EQ(unique.size(), series.size()) << "duplicate series in exposition";
  // The acceptance floor, counting full histogram families.
  EXPECT_GE(series.size(), 30u);

  // Spot checks: build info, a counter that moved, per-rule series from the
  // profiled query, and a request-latency histogram family.
  EXPECT_NE(metrics.body.find("gdlog_build_info{version="),
            std::string::npos);
  EXPECT_NE(metrics.body.find("\ngdlog_queries_total 2\n"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gdlog_cache_hits_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gdlog_rule_derivations_total{program=\"" + id +
                              "\",rule=\"r0:"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gdlog_request_duration_seconds_bucket{"
                              "endpoint=\"query\",le=\"0.0001\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gdlog_chase_duration_seconds_count 1"),
            std::string::npos);
}

TEST(MetricsEndpoint, ProfiledRuleTotalsAccumulateAcrossQueries) {
  InferenceService service(ServiceOptions());
  std::string id = RegisterNetwork(service);
  auto profiled_query = [&](size_t max_depth) {
    return service.Handle(MakeRequest(
        "POST", "/v1/query",
        "{\"program_id\":\"" + id + "\",\"options\":{\"profile\":true" +
            ",\"max_depth\":" + std::to_string(max_depth) + "}}"));
  };
  // Two distinct cache fingerprints (max_depth differs, but both bounds
  // are far above the chase's actual depth) so both queries compute the
  // same work; the per-rule totals must then be exactly double one run's
  // counts.
  ASSERT_EQ(profiled_query(512).status, 200);
  ASSERT_EQ(profiled_query(513).status, 200);

  HttpResponse metrics = service.Handle(MakeRequest("GET", "/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  ChaseProfile one = ProfileAt(1);
  uint64_t r0_derivations = 0;
  for (size_t i = 0; i < one.rules.size(); ++i) {
    if (one.rules[i].derivations != 0) {
      r0_derivations = one.rules[i].derivations;
      break;
    }
  }
  ASSERT_GT(r0_derivations, 0u);
  std::string needle = "\",rule=\"r0:";
  size_t at = metrics.body.find("gdlog_rule_derivations_total{program=");
  ASSERT_NE(at, std::string::npos);
  size_t line_end = metrics.body.find('\n', at);
  std::string line = metrics.body.substr(at, line_end - at);
  EXPECT_NE(line.find(needle), std::string::npos) << line;
  EXPECT_EQ(line.substr(line.rfind(' ') + 1),
            std::to_string(2 * r0_derivations))
      << line;
}

// ---------------------------------------------------------------------------
// Healthz enrichment
// ---------------------------------------------------------------------------

TEST(Healthz, ReportsVersionUptimeAndPid) {
  InferenceService service(ServiceOptions());
  HttpResponse response = service.Handle(MakeRequest("GET", "/v1/healthz"));
  ASSERT_EQ(response.status, 200);
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  const JsonValue* status = doc->Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->string_value(), "ok");
  const JsonValue* version = doc->Find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->string_value(), GdlogVersion());
  EXPECT_NE(std::string(GdlogVersion()), "");
  const JsonValue* uptime = doc->Find("uptime_s");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->NumberAsDouble(), 0.0);
  const JsonValue* pid = doc->Find("pid");
  ASSERT_NE(pid, nullptr);
  auto pid_value = pid->NumberAsInt();
  ASSERT_TRUE(pid_value.ok());
  EXPECT_EQ(static_cast<pid_t>(*pid_value), getpid());
}

// ---------------------------------------------------------------------------
// Trace propagation end to end
// ---------------------------------------------------------------------------

TEST(TracePropagation, ResponsesEchoSuppliedTraceIncludingErrors) {
  InferenceService service(ServiceOptions());
  HttpRequest request = MakeRequest("GET", "/v1/healthz");
  request.headers.emplace_back("x-gdlog-trace", "trace-OK_1");  // any case
  HttpResponse ok = service.Handle(request);
  const std::string* echoed = ok.FindHeader(kTraceHeader);
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "trace-OK_1");

  // An error envelope still carries the trace.
  HttpRequest bad = MakeRequest("POST", "/v1/query", "{not json");
  bad.headers.emplace_back(kTraceHeader, "trace-err-2");
  HttpResponse error = service.Handle(bad);
  EXPECT_GE(error.status, 400);
  echoed = error.FindHeader(kTraceHeader);
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "trace-err-2");

  // A malformed id (header injection) is replaced, not echoed.
  HttpRequest evil = MakeRequest("GET", "/v1/healthz");
  evil.headers.emplace_back(kTraceHeader, "evil\r\nX-Oops: 1");
  HttpResponse minted = service.Handle(evil);
  echoed = minted.FindHeader(kTraceHeader);
  ASSERT_NE(echoed, nullptr);
  EXPECT_NE(*echoed, "evil\r\nX-Oops: 1");
  EXPECT_TRUE(IsValidTraceId(*echoed)) << *echoed;
}

/// A real worker that additionally records the X-Gdlog-Trace header of
/// every request it serves, so tests can assert what the coordinator
/// actually forwarded over the wire.
class TraceRecordingWorker {
 public:
  TraceRecordingWorker() {
    service_ = std::make_unique<InferenceService>(ServiceOptions());
    HttpServerOptions options;
    options.workers = 4;
    auto server = HttpServer::Create(
        options,
        [this](const HttpRequest& request) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            const std::string* trace = request.FindHeader(kTraceHeader);
            seen_.push_back(trace != nullptr ? *trace : "");
          }
          return service_->Handle(request);
        });
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::make_unique<HttpServer>(std::move(*server));
    thread_ = std::thread([this] { (void)server_->Serve(); });
  }

  ~TraceRecordingWorker() {
    server_->Shutdown();
    thread_.join();
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server_->port());
  }
  std::vector<std::string> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::unique_ptr<InferenceService> service_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
  std::mutex mu_;
  std::vector<std::string> seen_;
};

/// A worker that answers every request with HTTP 500, forcing the
/// coordinator to re-dispatch its shard group (same shape as fleet_test's
/// FakeWorker, trimmed to the one mode this file needs).
class FailingWorker {
 public:
  FailingWorker() {
    auto listener = ListenSocket::BindTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<ListenSocket>(std::move(*listener));
    EXPECT_EQ(pipe(wake_), 0);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        auto conn = listener_->Accept(wake_[0]);
        if (!conn.ok() || !conn->has_value()) return;
        char buf[4096];
        (void)(*conn)->ReadSome(buf, sizeof buf, 500);
        const std::string body =
            "{\"error\":{\"code\":\"internal\",\"message\":\"injected\"}}\n";
        std::string response =
            "HTTP/1.1 500 Internal Server Error\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
        (void)(*conn)->WriteAll(response, 1000);
      }
    });
  }

  ~FailingWorker() {
    stop_.store(true);
    (void)!write(wake_[1], "x", 1);
    thread_.join();
    close(wake_[0]);
    close(wake_[1]);
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(listener_->port());
  }

 private:
  std::unique_ptr<ListenSocket> listener_;
  int wake_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(TracePropagation, FleetJobForwardsTraceToEveryWorkerDispatch) {
  TraceRecordingWorker w1;
  TraceRecordingWorker w2;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  JsonWriter body;
  body.BeginObject().KV("program_id", id);
  body.Key("workers").BeginArray().String(w1.address()).String(w2.address())
      .EndArray();
  body.EndObject();
  HttpRequest request = MakeRequest("POST", "/v1/jobs", body.str());
  request.headers.emplace_back(kTraceHeader, "jobtrace01");
  HttpResponse job = coordinator.Handle(request);
  ASSERT_EQ(job.status, 200) << job.body;
  const std::string* echoed = job.FindHeader(kTraceHeader);
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "jobtrace01");

  // Every /v1/shards dispatch — one per worker — carried the job's trace.
  for (auto* worker : {&w1, &w2}) {
    std::vector<std::string> seen = worker->seen();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], "jobtrace01");
  }
}

TEST(TracePropagation, ReDispatchAfterWorkerFailureKeepsTheTrace) {
  FailingWorker faulty;
  TraceRecordingWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  JsonWriter body;
  body.BeginObject().KV("program_id", id);
  body.Key("workers").BeginArray().String(faulty.address())
      .String(healthy.address()).EndArray();
  body.EndObject();
  HttpRequest request = MakeRequest("POST", "/v1/jobs", body.str());
  request.headers.emplace_back(kTraceHeader, "redispatch7");
  HttpResponse job = coordinator.Handle(request);
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(coordinator.fleet().counters().retries, 1u);

  // The healthy worker served its own group plus the re-dispatched one,
  // both under the same trace id.
  std::vector<std::string> seen = healthy.seen();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "redispatch7");
  EXPECT_EQ(seen[1], "redispatch7");
}

TEST(TracePropagation, JobSpansAreOptInAndCarryTheTrace) {
  TraceRecordingWorker w1;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  auto job_body = [&](bool spans) {
    JsonWriter body;
    body.BeginObject().KV("program_id", id);
    if (spans) body.KV("spans", true);
    body.Key("workers").BeginArray().String(w1.address()).EndArray();
    body.EndObject();
    return body.str();
  };

  HttpRequest with = MakeRequest("POST", "/v1/jobs", job_body(true));
  with.headers.emplace_back(kTraceHeader, "spantrace1");
  HttpResponse spans = coordinator.Handle(with);
  ASSERT_EQ(spans.status, 200) << spans.body;
  auto doc = JsonValue::Parse(spans.body);
  ASSERT_TRUE(doc.ok()) << spans.body;
  const JsonValue* block = doc->Find("spans");
  ASSERT_NE(block, nullptr) << spans.body;
  const JsonValue* trace = block->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->string_value(), "spantrace1");
  const JsonValue* exchanges = block->Find("exchanges");
  ASSERT_NE(exchanges, nullptr);
  ASSERT_EQ(exchanges->array().size(), 1u);
  const JsonValue* worker = exchanges->array()[0].Find("worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->string_value(), w1.address());
  const JsonValue* kind = exchanges->array()[0].Find("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->string_value(), "dispatch");

  // Without the flag the body has no span block (and a repeat of the job
  // is a cache hit, whose body must stay byte-stable regardless).
  HttpResponse without =
      coordinator.Handle(MakeRequest("POST", "/v1/jobs", job_body(false)));
  ASSERT_EQ(without.status, 200);
  EXPECT_EQ(without.body.find("\"spans\""), std::string::npos);
}

}  // namespace
}  // namespace gdlog
