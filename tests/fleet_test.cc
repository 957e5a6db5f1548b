// The fleet dispatcher: /v1/shards worker responses, /v1/jobs
// coordination over real loopback sockets, and the failure matrix — a
// worker answering 5xx, a worker killed mid-exchange, a straggler past
// the deadline — all of which must end with the failed shard groups
// re-dispatched to healthy workers and a merged space byte-identical to
// a single-process run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/fleet.h"
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

/// The network program with an even negation loop (quarantined/free): not
/// stratified, so a marginal query reads the same cached space as a job.
constexpr const char* kQuarantineProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y), "
    "not quarantined(X).\n"
    "quarantined(X) :- infected(X, 1), not free(X).\n"
    "free(X) :- infected(X, 1), not quarantined(X).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

std::string RegisterNetwork(InferenceService& service,
                            const char* program = kNetworkProgram,
                            const std::string& db = kClique3Db) {
  JsonWriter reg;
  reg.BeginObject().KV("program", program).KV("db", db).EndObject();
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

/// A real gdlogd worker: InferenceService behind HttpServer on a
/// kernel-assigned loopback port, serving from a background thread.
class LiveWorker {
 public:
  LiveWorker() {
    service_ = std::make_unique<InferenceService>(ServiceOptions());
    HttpServerOptions options;
    options.workers = 4;
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

  ~LiveWorker() {
    server_->Shutdown();
    thread_.join();
  }

  int port() const { return server_->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  InferenceService& service() { return *service_; }

 private:
  std::unique_ptr<InferenceService> service_;
  std::unique_ptr<HttpServer> server_;
  std::thread thread_;
};

/// A misbehaving worker built straight on ListenSocket, one failure mode
/// per instance. Each accepted connection reads a little of the request
/// and then:
///   kHttp500        — answers a well-formed HTTP 500 (worker-side error)
///   kCloseAfterRead — closes the socket (a worker killed mid-exchange)
///   kHang           — never answers (a straggler; the coordinator's
///                     deadline, not this worker, ends the exchange)
///   kTruncatedChunk — answers a chunked 200 but dies mid-chunk, before
///                     the terminal chunk (a worker killed mid-stream)
class FakeWorker {
 public:
  enum class Mode { kHttp500, kCloseAfterRead, kHang, kTruncatedChunk };

  explicit FakeWorker(Mode mode) : mode_(mode) {
    auto listener = ListenSocket::BindTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::make_unique<ListenSocket>(std::move(*listener));
    EXPECT_EQ(pipe(wake_), 0);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeWorker() {
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
  void Serve() {
    while (!stop_.load()) {
      auto conn = listener_->Accept(wake_[0]);
      if (!conn.ok() || !conn->has_value()) return;
      HandleConnection(**conn);
    }
  }

  void HandleConnection(Connection& conn) {
    char buf[4096];
    (void)conn.ReadSome(buf, sizeof buf, 500);
    switch (mode_) {
      case Mode::kHttp500: {
        const std::string body =
            "{\"error\":{\"code\":\"internal\",\"message\":\"injected\"}}\n";
        std::string response =
            "HTTP/1.1 500 Internal Server Error\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: " + std::to_string(body.size()) + "\r\n"
            "Connection: close\r\n\r\n" + body;
        (void)conn.WriteAll(response, 1000);
        break;
      }
      case Mode::kCloseAfterRead:
        // Fall out of scope: the peer sees the connection die with no
        // response, exactly what a kill -9 mid-shard looks like.
        break;
      case Mode::kHang:
        // Sit on the open connection until the coordinator gives up
        // (ReadSome returns 0 on its EOF) or the test tears down.
        while (!stop_.load()) {
          auto n = conn.ReadSome(buf, sizeof buf, 50);
          if (n.ok() && *n == 0) break;
        }
        break;
      case Mode::kTruncatedChunk: {
        // A well-formed chunked 200 head, one declared-but-unfinished
        // chunk, then EOF. The client must report a retryable truncation,
        // never a complete response.
        const std::string response =
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
            "40\r\n{\"partial\":\"cut";
        (void)conn.WriteAll(response, 1000);
        break;
      }
    }
  }

  Mode mode_;
  std::unique_ptr<ListenSocket> listener_;
  int wake_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string JobBody(const std::string& id,
                    const std::vector<std::string>& workers,
                    int deadline_ms = 0, int shards = 0,
                    int steal_after_ms = 0) {
  JsonWriter body;
  body.BeginObject();
  body.KV("program_id", id);
  body.KV("include_outcomes", true);
  body.KV("include_models", true);
  body.KV("include_events", true);
  body.Key("workers").BeginArray();
  for (const std::string& worker : workers) body.String(worker);
  body.EndArray();
  if (deadline_ms > 0) {
    body.KV("deadline_ms", static_cast<long long>(deadline_ms));
  }
  if (shards > 0) body.KV("shards", static_cast<long long>(shards));
  if (steal_after_ms > 0) {
    body.KV("steal_after_ms", static_cast<long long>(steal_after_ms));
  }
  body.EndObject();
  return body.str();
}

/// The single-process reference body: the same query on a fresh,
/// fleet-free service.
std::string ReferenceBody() {
  InferenceService reference(ServiceOptions());
  std::string id = RegisterNetwork(reference);
  JsonWriter query;
  query.BeginObject().KV("program_id", id).KV("include_outcomes", true)
      .KV("include_models", true).KV("include_events", true).EndObject();
  HttpResponse response =
      reference.Handle(MakeRequest("POST", "/v1/query", query.str()));
  EXPECT_EQ(response.status, 200) << response.body;
  return response.body;
}

// ---------------------------------------------------------------------------
// ParseHostPort
// ---------------------------------------------------------------------------

TEST(ParseHostPort, AcceptsHostColonPort) {
  auto parsed = ParseHostPort("worker-3.fleet.internal:8080");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "worker-3.fleet.internal");
  EXPECT_EQ(parsed->second, 8080);
}

TEST(ParseHostPort, RejectsMalformedAddresses) {
  for (const char* bad :
       {"nohost", ":8080", "host:", "host:port", "host:0", "host:65536",
        "host:123456"}) {
    EXPECT_FALSE(ParseHostPort(bad).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// /v1/shards (worker half)
// ---------------------------------------------------------------------------

TEST(FleetShards, ExploresRequestedIndicesAsNdjson) {
  InferenceService service(ServiceOptions());
  JsonWriter body;
  body.BeginObject().KV("program", kNetworkProgram).KV("db", kClique3Db)
      .KV("shards", 2ll);
  body.Key("shard_indices").BeginArray().Int(0).Int(1).EndArray();
  body.EndObject();
  HttpResponse response =
      service.Handle(MakeRequest("POST", "/v1/shards", body.str()));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type, "application/x-ndjson");
  // 200s stream chunk-by-chunk on the wire; in-process callers drain.
  ASSERT_NE(response.stream, nullptr);
  ASSERT_TRUE(response.Drain().ok());
  size_t lines = 0;
  for (char c : response.body) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(response.body.find("\"gdlog.partial.v2\""), std::string::npos);
  // Each line writes every atom once, in its table: D's router facts are
  // in every model of a shard, yet a line with a model holds each exactly
  // once. (Shard 0's one outcome, where no router is infected, breaks the
  // constraint and has no model.)
  size_t begin = 0;
  size_t lines_with_models = 0;
  for (size_t end = response.body.find('\n'); end != std::string::npos;
       begin = end + 1, end = response.body.find('\n', begin)) {
    const std::string line = response.body.substr(begin, end - begin);
    const size_t expected = line.find(R"("models":[[)") != std::string::npos;
    lines_with_models += expected;
    for (int router = 1; router <= 3; ++router) {
      const std::string fact = R"({"p":"router","a":[{"t":"i","v":)" +
                               std::to_string(router) + "}]}";
      size_t count = 0;
      for (size_t at = line.find(fact); at != std::string::npos;
           at = line.find(fact, at + 1)) {
        ++count;
      }
      EXPECT_EQ(count, expected) << "router(" << router << ")";
    }
  }
  EXPECT_EQ(lines_with_models, 1u);
  EXPECT_EQ(service.fleet().counters().shards_explored, 2u);
  EXPECT_EQ(service.fleet().counters().partial_cache_misses, 2u);

  // The same coordinates again: both lines come out of the worker-side
  // partial cache, byte-identical, with zero additional chases.
  HttpResponse repeat =
      service.Handle(MakeRequest("POST", "/v1/shards", body.str()));
  ASSERT_EQ(repeat.status, 200) << repeat.body;
  ASSERT_TRUE(repeat.Drain().ok());
  EXPECT_EQ(repeat.body, response.body);
  EXPECT_EQ(service.fleet().counters().shards_explored, 2u);
  EXPECT_EQ(service.fleet().counters().partial_cache_hits, 2u);
}

TEST(FleetShards, PartialCacheHoldsItsBoundAndMissesAfterUpdates) {
  auto shard = [](InferenceService& service, const std::string& id,
                  int index) {
    HttpResponse response = service.Handle(MakeRequest(
        "POST", "/v1/shards",
        "{\"program_id\":\"" + id + "\",\"shards\":2,\"shard_indices\":[" +
            std::to_string(index) + "]}"));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_TRUE(response.Drain().ok());
    return response.body;
  };
  std::string lines[2];
  {
    InferenceService probe(ServiceOptions());
    std::string id = RegisterNetwork(probe);
    lines[0] = shard(probe, id, 0);
    lines[1] = shard(probe, id, 1);
  }
  // Room for either line plus its key (well under kKeyBytes), never for
  // both.
  constexpr size_t kKeyBytes = 256;
  ASSERT_GT(std::min(lines[0].size(), lines[1].size()), kKeyBytes);
  InferenceService::Options options = ServiceOptions();
  options.fleet_partial_cache_bytes =
      std::max(lines[0].size(), lines[1].size()) + kKeyBytes;
  InferenceService service(options);
  std::string id = RegisterNetwork(service);
  size_t hits = 0;
  size_t misses = 0;
  auto expect = [&](int index, bool hit) {
    EXPECT_EQ(shard(service, id, index), lines[index]);
    (hit ? hits : misses)++;
    FleetService::Counters counters = service.fleet().counters();
    EXPECT_EQ(counters.partial_cache_hits, hits) << "shard " << index;
    EXPECT_EQ(counters.partial_cache_misses, misses) << "shard " << index;
  };
  expect(0, false);
  expect(0, true);
  expect(1, false);  // evicts shard 0's line to hold the bound
  expect(1, true);
  expect(0, false);
  expect(0, true);

  // Every update of the program makes the repeat a miss.
  HttpResponse patched = service.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", "{\"delta\":\"meta(1).\"}"));
  ASSERT_EQ(patched.status, 200) << patched.body;
  expect(0, false);
  expect(0, true);
  JsonWriter db;
  db.BeginObject().KV("db", kClique3Db).EndObject();
  HttpResponse replaced = service.Handle(
      MakeRequest("PUT", "/v1/programs/" + id + "/db", db.str()));
  ASSERT_EQ(replaced.status, 200) << replaced.body;
  expect(0, false);
  expect(0, true);
  HttpResponse deleted =
      service.Handle(MakeRequest("DELETE", "/v1/programs/" + id));
  ASSERT_EQ(deleted.status, 200) << deleted.body;
  id = RegisterNetwork(service);
  expect(0, false);
}

TEST(FleetShards, RejectsBadRequests) {
  InferenceService service(ServiceOptions());
  std::string id = RegisterNetwork(service);

  struct Case {
    const char* name;
    std::string body;
    int status;
  };
  std::vector<Case> cases;
  cases.push_back({"missing shards",
                   "{\"program_id\":\"" + id +
                       "\",\"shard_indices\":[0]}",
                   400});
  cases.push_back({"index out of range",
                   "{\"program_id\":\"" + id +
                       "\",\"shards\":2,\"shard_indices\":[2]}",
                   400});
  cases.push_back({"empty indices",
                   "{\"program_id\":\"" + id +
                       "\",\"shards\":2,\"shard_indices\":[]}",
                   400});
  cases.push_back({"unknown program",
                   "{\"program_id\":\"p999\",\"shards\":2,"
                   "\"shard_indices\":[0]}",
                   404});
  cases.push_back({"revision mismatch",
                   "{\"program_id\":\"" + id +
                       "\",\"revision\":7,\"shards\":2,"
                       "\"shard_indices\":[0]}",
                   409});
  for (const Case& c : cases) {
    HttpResponse response =
        service.Handle(MakeRequest("POST", "/v1/shards", c.body));
    EXPECT_EQ(response.status, c.status) << c.name << ": " << response.body;
    auto doc = JsonValue::Parse(response.body);
    ASSERT_TRUE(doc.ok()) << c.name;
    EXPECT_NE(doc->Find("error"), nullptr) << c.name;
  }
}

// Placement has one rule, so a request's "assignment" member is not read:
// whatever it says, the worker explores the same shard, byte for byte.
TEST(FleetShards, IgnoresAnAssignmentMember) {
  InferenceService service(ServiceOptions());
  auto explore = [&](const char* assignment) {
    JsonWriter body;
    body.BeginObject().KV("program", kNetworkProgram).KV("db", kClique3Db)
        .KV("shards", 2ll);
    if (assignment != nullptr) body.KV("assignment", assignment);
    body.Key("shard_indices").BeginArray().Int(1).EndArray();
    body.EndObject();
    HttpResponse response =
        service.Handle(MakeRequest("POST", "/v1/shards", body.str()));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_TRUE(response.Drain().ok());
    return response.body;
  };
  const std::string plain = explore(nullptr);
  EXPECT_NE(plain.find(R"("assignment":"weighted")"), std::string::npos);
  EXPECT_EQ(explore("psychic"), plain);
}

TEST(FleetShards, OversizedShardCountIsRejectedAndServingContinues) {
  // Unchecked, a shard count past kMaxShards reaches the plan's per-shard
  // allocation, which throws out of the handler and terminates the daemon.
  // Both fleet endpoints must answer it with a 400 envelope instead.
  LiveWorker server;
  std::string id = RegisterNetwork(server.service());
  const std::string shards = std::to_string(uint64_t{1} << 62);
  auto post = [&](const char* target,
                  const std::string& body) -> Result<HttpResponse> {
    auto client = HttpClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return client.status();
    return client->Request("POST", target, body);
  };
  struct Case {
    const char* target;
    std::string body;
  };
  const Case cases[] = {
      {"/v1/shards", "{\"program\":\"c(flip<0.5>).\",\"shards\":" + shards +
                         ",\"shard_indices\":[0]}"},
      {"/v1/jobs", "{\"program_id\":\"" + id + "\",\"shards\":" + shards +
                       ",\"workers\":[\"" + server.address() + "\"]}"},
  };
  for (const Case& c : cases) {
    auto response = post(c.target, c.body);
    ASSERT_TRUE(response.ok()) << c.target << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->status, 400) << c.target << ": " << response->body;
    auto doc = JsonValue::Parse(response->body);
    ASSERT_TRUE(doc.ok()) << c.target;
    EXPECT_NE(doc->Find("error"), nullptr) << c.target;
  }
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto health = client->Request("GET", "/v1/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200) << health->body;
}

// ---------------------------------------------------------------------------
// /v1/jobs (coordinator half) over real sockets
// ---------------------------------------------------------------------------

TEST(FleetJobs, MergedJobIsByteIdenticalToSingleProcess) {
  LiveWorker w1;
  LiveWorker w2;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", JobBody(id, {w1.address(), w2.address()})));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.jobs, 1u);
  EXPECT_EQ(counters.jobs_failed, 0u);
  EXPECT_EQ(counters.dispatches, 2u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.worker_failures, 0u);
  EXPECT_EQ(counters.partials_merged, 2u);
  // Both workers explored exactly one shard group.
  EXPECT_EQ(w1.service().fleet().counters().shard_requests, 1u);
  EXPECT_EQ(w2.service().fleet().counters().shard_requests, 1u);

  // Jobs share /query's fingerprint: the same query on the coordinator is
  // a cache hit, not a second chase.
  uint64_t hits_before = coordinator.cache().stats().hits;
  JsonWriter query;
  query.BeginObject().KV("program_id", id).KV("include_outcomes", true)
      .KV("include_models", true).KV("include_events", true).EndObject();
  HttpResponse cached =
      coordinator.Handle(MakeRequest("POST", "/v1/query", query.str()));
  ASSERT_EQ(cached.status, 200);
  EXPECT_EQ(cached.body, job.body);
  EXPECT_EQ(coordinator.cache().stats().hits, hits_before + 1);
}

// After a PATCH introduces a new predicate, the coordinator's engine
// (WithDatabaseDelta) interns it after the program's own names, while each
// worker parses the shipped database whole and interns it before them. The
// fleet-merged space must still answer a marginal query as a fresh
// single-process service does.
TEST(FleetJobs, MarginalAfterPatchAndJobMatchesAFreshService) {
  LiveWorker w1;
  LiveWorker w2;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator, kQuarantineProgram);
  HttpResponse patched = coordinator.Handle(MakeRequest(
      "PATCH", "/v1/programs/" + id + "/db", R"x({"delta":"audit(1)."})x"));
  ASSERT_EQ(patched.status, 200) << patched.body;
  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", JobBody(id, {w1.address(), w2.address()})));
  ASSERT_EQ(job.status, 200) << job.body;
  const std::string query =
      R"x(","queries":["audit(1)","quarantined(2)","free(1)"]})x";
  HttpResponse answer = coordinator.Handle(MakeRequest(
      "POST", "/v1/query", R"({"program_id":")" + id + query));
  ASSERT_EQ(answer.status, 200) << answer.body;
  // The query read the job's space: the job was the only chase.
  EXPECT_EQ(coordinator.cache().stats().misses, 1u);

  InferenceService fresh(ServiceOptions());
  std::string fresh_id = RegisterNetwork(
      fresh, kQuarantineProgram, std::string(kClique3Db) + "audit(1).\n");
  HttpResponse reference = fresh.Handle(MakeRequest(
      "POST", "/v1/query", R"({"program_id":")" + fresh_id + query));
  ASSERT_EQ(reference.status, 200) << reference.body;
  // Program ids and revisions differ; everything from "complete" on must
  // not.
  auto tail = [](const std::string& body) {
    return body.substr(std::min(body.find("\"complete\""), body.size()));
  };
  EXPECT_EQ(tail(answer.body), tail(reference.body));
  EXPECT_NE(tail(reference.body), "");
}

TEST(FleetJobs, WorkerHttp500IsRetriedOnHealthyWorker) {
  FakeWorker faulty(FakeWorker::Mode::kHttp500);
  LiveWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", JobBody(id, {faulty.address(), healthy.address()})));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.worker_failures, 1u);
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.dispatches, 3u);
  // The healthy worker served its own group plus the re-dispatched one.
  EXPECT_EQ(healthy.service().fleet().counters().shard_requests, 2u);
}

TEST(FleetJobs, WorkerKilledMidShardIsRetriedOnHealthyWorker) {
  FakeWorker killed(FakeWorker::Mode::kCloseAfterRead);
  LiveWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", JobBody(id, {killed.address(), healthy.address()})));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.worker_failures, 1u);
  EXPECT_EQ(counters.retries, 1u);
}

TEST(FleetJobs, StragglerIsStolenByIdleWorker) {
  FakeWorker straggler(FakeWorker::Mode::kHang);
  LiveWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  // The hang worker never answers. Long before the 4 s deadline the idle
  // healthy worker steals the straggler's undelivered shard indices
  // (default steal_after_ms = 250) and the job completes without waiting
  // for the deadline; the straggler's exchange is then canceled because
  // the job is done — which is not a worker failure.
  HttpResponse job = coordinator.Handle(
      MakeRequest("POST", "/v1/jobs",
                  JobBody(id, {straggler.address(), healthy.address()},
                          /*deadline_ms=*/4000)));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.steals, 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.worker_failures, 0u);
  EXPECT_EQ(counters.partials_merged, 2u);
  EXPECT_EQ(counters.duplicate_partials, 0u);
}

TEST(FleetJobs, StragglerPastDeadlineIsRetriedWhenStealingIsOff) {
  FakeWorker straggler(FakeWorker::Mode::kHang);
  LiveWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  // With steal_after_ms above deadline_ms no flight lives long enough to
  // be stolen: the coordinator's per-exchange deadline — not any
  // worker-side event — ends the exchange, and the group is re-dispatched
  // to the healthy worker.
  HttpResponse job = coordinator.Handle(
      MakeRequest("POST", "/v1/jobs",
                  JobBody(id, {straggler.address(), healthy.address()},
                          /*deadline_ms=*/400, /*shards=*/0,
                          /*steal_after_ms=*/60'000)));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.worker_failures, 1u);
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.steals, 0u);
}

TEST(FleetJobs, TruncatedChunkedStreamIsRetriedNeverPartiallyMerged) {
  FakeWorker truncated(FakeWorker::Mode::kTruncatedChunk);
  LiveWorker healthy;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  // A worker that dies mid-chunk produced a truncated stream: the client
  // must surface a retryable failure (never fold a half-delivered body),
  // and the coordinator re-dispatches the group.
  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs",
      JobBody(id, {truncated.address(), healthy.address()})));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.worker_failures, 1u);
  EXPECT_EQ(counters.retries, 1u);
  EXPECT_EQ(counters.partials_merged, 2u);
}

TEST(FleetJobs, CoordinatorHoldsO1ResidentPartials) {
  LiveWorker worker;
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  // One worker, eight shards: the whole job streams through a single
  // exchange. The streaming merge folds each partial before the next line
  // is parsed, so the peak number of resident partials is 1 — bounded by
  // the worker count, never the shard count.
  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs",
      JobBody(id, {worker.address()}, /*deadline_ms=*/0, /*shards=*/8)));
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_EQ(job.body, ReferenceBody());

  FleetService::Counters counters = coordinator.fleet().counters();
  EXPECT_EQ(counters.partials_merged, 8u);
  EXPECT_EQ(counters.partials_streamed, 8u);
  EXPECT_EQ(counters.peak_resident_partials, 1u);
}

TEST(FleetJobs, AllWorkersDeadFailsWithFleetError) {
  FakeWorker faulty(FakeWorker::Mode::kHttp500);
  FakeWorker killed(FakeWorker::Mode::kCloseAfterRead);
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);

  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", JobBody(id, {faulty.address(), killed.address()})));
  EXPECT_EQ(job.status, 503) << job.body;
  auto doc = JsonValue::Parse(job.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(coordinator.fleet().counters().jobs_failed, 1u);
}

// Unbounded, a long worker list starts one dispatch thread per entry and
// overflows the per-shard attempt masks. One entry past kMaxJobWorkers is
// a 400 that names the bound, and the daemon keeps serving.
TEST(FleetJobs, RejectsMoreWorkersThanTheBound) {
  LiveWorker server;
  std::string id = RegisterNetwork(server.service());
  std::vector<std::string> workers(kMaxJobWorkers + 1, server.address());
  auto client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto job = client->Request("POST", "/v1/jobs", JobBody(id, workers));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(job->status, 400) << job->body;
  EXPECT_NE(job->body.find("at most " + std::to_string(kMaxJobWorkers)),
            std::string::npos)
      << job->body;
  const FleetService::Counters counters = server.service().fleet().counters();
  EXPECT_EQ(counters.jobs_failed, 1u);
  EXPECT_EQ(counters.dispatches, 0u);
  client = HttpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto health = client->Request("GET", "/v1/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200) << health->body;
}

TEST(FleetJobs, RejectsJobWithoutWorkers) {
  InferenceService coordinator(ServiceOptions());
  std::string id = RegisterNetwork(coordinator);
  HttpResponse job = coordinator.Handle(MakeRequest(
      "POST", "/v1/jobs", "{\"program_id\":\"" + id + "\"}"));
  EXPECT_EQ(job.status, 400) << job.body;
  EXPECT_NE(job.body.find("--fleet-workers"), std::string::npos);
  EXPECT_EQ(coordinator.fleet().counters().jobs_failed, 1u);
}

}  // namespace
}  // namespace gdlog
