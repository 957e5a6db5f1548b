// gdlog_load: load generator and smoke-checker for gdlogd. Registers a
// program, fires N concurrent identical /query requests, verifies every
// response is byte-identical, and reports latency percentiles plus the
// server's cache counters — the "N identical queries run one chase"
// single-flight property made observable from outside.
//
//   gdlog_load --port P --program FILE [options]
//
// Options:
//   --host H              server address             (default 127.0.0.1)
//   --port P              server port                (required)
//   --program FILE        program in surface syntax  (required)
//   --db FILE             database file              (default: empty DB)
//   --grounder MODE       auto | simple | perfect    (default auto)
//   --requests N          total /query requests      (default 64)
//   --concurrency C       client connections         (default 8)
//   --include-outcomes    ask for the outcomes section
//   --include-events      ask for the event table
//   --check               exit non-zero unless exactly one chase ran
//                         (misses +1, hits+coalesced +N-1) and all
//                         responses were 200 and byte-identical
//   --dump-response FILE  write the response body to FILE (compare with
//                         `gdlog_cli --json` via cmp)
//   --delta FILE          after the query storm, PATCH the file's facts
//                         onto the program's database and issue one more
//                         /query. Prints the server's delta report
//                         (rows appended, spaces revalidated/evicted);
//                         with --check, when the server revalidated at
//                         least one cached space, asserts the post-delta
//                         query hit the cache (zero additional chases)
//   --fleet-workers LIST  fleet mode: POST /v1/jobs with this
//                         comma-separated "host:port" worker list instead
//                         of /v1/query. Jobs share /query's cache
//                         fingerprint, so --check's "one chase for N
//                         identical requests" assertion holds unchanged;
//                         fleet counter deltas (dispatches, retries,
//                         steals, streamed/duplicate partials, partial-
//                         cache hits/misses) and per-worker dispatch
//                         latency (p50/p95/max) are printed alongside the
//                         cache deltas
//   --shards N            fleet mode: shard count (default: worker count)
//
// Numeric values are plain decimal counts (ports at most 65535); anything
// else — a sign, trailing characters, overflow — exits 2.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "server/http.h"
#include "util/json.h"

namespace {

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string program_path;
  std::string db_path;
  std::string grounder = "auto";
  size_t requests = 64;
  size_t concurrency = 8;
  bool include_outcomes = false;
  bool include_events = false;
  bool check = false;
  std::string dump_path;
  std::string delta_path;
  std::string fleet_workers;
  size_t shards = 0;
};

[[noreturn]] void Usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --port P --program FILE [--host H] [--db FILE]\n"
               "          [--grounder MODE] [--requests N]\n"
               "          [--concurrency C] [--include-outcomes]\n"
               "          [--include-events] [--check]\n"
               "          [--dump-response FILE] [--delta FILE]\n"
               "          [--fleet-workers H:P,H:P,...] [--shards N]\n",
               argv0);
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// <section>.<field> out of a /v1/stats body, or -1.
long long StatsCounter(const gdlog::JsonValue& stats, const char* section,
                       const char* field) {
  const gdlog::JsonValue* obj = stats.Find(section);
  if (obj == nullptr) return -1;
  const gdlog::JsonValue* value = obj->Find(field);
  if (value == nullptr || !value->is_number()) return -1;
  auto n = value->NumberAsInt();
  return n.ok() ? *n : -1;
}

/// cache.<field> out of a /v1/stats body, or -1.
long long CacheCounter(const gdlog::JsonValue& stats, const char* field) {
  return StatsCounter(stats, "cache", field);
}

gdlog::Result<gdlog::JsonValue> FetchStats(const std::string& host,
                                           int port) {
  GDLOG_ASSIGN_OR_RETURN(gdlog::HttpClient client,
                         gdlog::HttpClient::Connect(host, port));
  GDLOG_ASSIGN_OR_RETURN(gdlog::HttpResponse response,
                         client.Request("GET", "/v1/stats"));
  if (response.status != 200) {
    return gdlog::Status::Internal("/stats returned " +
                                   std::to_string(response.status));
  }
  return gdlog::JsonValue::Parse(response.body);
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opts;
  const gdlog_tools::FlagReader flags(argc, argv, Usage);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--host")) {
      opts.host = flags.Value(i);
    } else if (!std::strcmp(arg, "--port")) {
      opts.port = flags.Port(i);
    } else if (!std::strcmp(arg, "--program")) {
      opts.program_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--db")) {
      opts.db_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--grounder")) {
      opts.grounder = flags.Value(i);
    } else if (!std::strcmp(arg, "--requests")) {
      opts.requests = flags.Count(i);
    } else if (!std::strcmp(arg, "--concurrency")) {
      opts.concurrency = flags.Count(i);
    } else if (!std::strcmp(arg, "--include-outcomes")) {
      opts.include_outcomes = true;
    } else if (!std::strcmp(arg, "--include-events")) {
      opts.include_events = true;
    } else if (!std::strcmp(arg, "--check")) {
      opts.check = true;
    } else if (!std::strcmp(arg, "--dump-response")) {
      opts.dump_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--delta")) {
      opts.delta_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--fleet-workers")) {
      opts.fleet_workers = flags.Value(i);
    } else if (!std::strcmp(arg, "--shards")) {
      opts.shards = flags.Count(i);
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      Usage(argv[0]);
    } else {
      Usage(argv[0], (std::string("unknown flag: ") + arg).c_str());
    }
  }
  if (opts.port == 0) Usage(argv[0], "--port is required");
  if (opts.program_path.empty()) Usage(argv[0], "--program is required");
  if (opts.requests == 0 || opts.concurrency == 0) {
    Usage(argv[0], "--requests and --concurrency must be positive");
  }
  opts.concurrency = std::min(opts.concurrency, opts.requests);

  // Counters before the run: the server may be warm already; --check
  // asserts on deltas.
  auto stats_before = FetchStats(opts.host, opts.port);
  if (!stats_before.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 stats_before.status().ToString().c_str());
    return 1;
  }

  // Register (idempotent: an already-registered identical spec returns
  // the same id).
  gdlog::JsonWriter reg;
  reg.BeginObject();
  reg.KV("program", ReadFile(opts.program_path));
  reg.KV("db", opts.db_path.empty() ? "" : ReadFile(opts.db_path));
  reg.KV("grounder", opts.grounder);
  reg.EndObject();
  auto client = gdlog::HttpClient::Connect(opts.host, opts.port);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  auto registered = client->Request("POST", "/v1/programs", reg.str());
  if (!registered.ok() ||
      (registered->status != 200 && registered->status != 201)) {
    std::fprintf(stderr, "error registering program: %s\n",
                 registered.ok() ? registered->body.c_str()
                                 : registered.status().ToString().c_str());
    return 1;
  }
  auto reg_doc = gdlog::JsonValue::Parse(registered->body);
  const gdlog::JsonValue* id_field =
      reg_doc.ok() ? reg_doc->Find("id") : nullptr;
  if (id_field == nullptr || !id_field->is_string()) {
    std::fprintf(stderr, "error: malformed /programs response\n");
    return 1;
  }
  std::string program_id = id_field->string_value();
  std::printf("registered program %s\n", program_id.c_str());

  const bool fleet = !opts.fleet_workers.empty();
  gdlog::JsonWriter query;
  query.BeginObject();
  query.KV("program_id", program_id);
  if (opts.include_outcomes) query.KV("include_outcomes", true);
  if (opts.include_events) query.KV("include_events", true);
  if (fleet) {
    query.Key("workers").BeginArray();
    std::string worker;
    for (const char* p = opts.fleet_workers.c_str();; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!worker.empty()) query.String(worker);
        worker.clear();
        if (*p == '\0') break;
      } else {
        worker.push_back(*p);
      }
    }
    query.EndArray();
    if (opts.shards > 0) {
      query.KV("shards", static_cast<long long>(opts.shards));
    }
  }
  query.EndObject();
  const std::string query_body = query.str();
  const char* query_target = fleet ? "/v1/jobs" : "/v1/query";

  std::atomic<size_t> next{0};
  std::atomic<size_t> failures{0};
  std::mutex mu;
  std::string first_body;
  bool mismatch = false;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(opts.requests);

  auto worker = [&]() {
    auto conn = gdlog::HttpClient::Connect(opts.host, opts.port);
    if (!conn.ok()) {
      failures.fetch_add(1);
      return;
    }
    while (next.fetch_add(1) < opts.requests) {
      auto start = std::chrono::steady_clock::now();
      auto response = conn->Request("POST", query_target, query_body);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!response.ok() || response->status != 200) {
        std::fprintf(stderr, "query failed: %s\n",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
        failures.fetch_add(1);
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.push_back(ms);
      if (first_body.empty()) {
        first_body = response->body;
      } else if (response->body != first_body) {
        mismatch = true;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < opts.concurrency; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  if (!opts.dump_path.empty() && !first_body.empty()) {
    std::ofstream out(opts.dump_path, std::ios::binary);
    out << first_body;
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * double(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };
  double mean = 0.0;
  for (double ms : latencies_ms) mean += ms;
  if (!latencies_ms.empty()) mean /= double(latencies_ms.size());
  std::printf(
      "requests=%zu ok=%zu failed=%zu concurrency=%zu\n"
      "latency ms: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
      opts.requests, latencies_ms.size(), failures.load(), opts.concurrency,
      mean, percentile(0.50), percentile(0.95), percentile(0.99),
      percentile(1.0));

  auto stats_after = FetchStats(opts.host, opts.port);
  if (!stats_after.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 stats_after.status().ToString().c_str());
    return 1;
  }
  long long d_misses = CacheCounter(*stats_after, "misses") -
                       CacheCounter(*stats_before, "misses");
  long long d_hits = CacheCounter(*stats_after, "hits") -
                     CacheCounter(*stats_before, "hits");
  long long d_coalesced = CacheCounter(*stats_after, "coalesced") -
                          CacheCounter(*stats_before, "coalesced");
  std::printf("cache deltas: misses=%lld hits=%lld coalesced=%lld\n",
              d_misses, d_hits, d_coalesced);
  if (fleet) {
    auto fleet_delta = [&](const char* field) {
      return StatsCounter(*stats_after, "fleet", field) -
             StatsCounter(*stats_before, "fleet", field);
    };
    std::printf(
        "fleet deltas: jobs=%lld dispatches=%lld retries=%lld "
        "worker_failures=%lld partials_merged=%lld steals=%lld "
        "partials_streamed=%lld duplicate_partials=%lld "
        "partial_cache_hits=%lld partial_cache_misses=%lld\n",
        fleet_delta("jobs"), fleet_delta("dispatches"),
        fleet_delta("retries"), fleet_delta("worker_failures"),
        fleet_delta("partials_merged"), fleet_delta("steals"),
        fleet_delta("partials_streamed"), fleet_delta("duplicate_partials"),
        fleet_delta("partial_cache_hits"),
        fleet_delta("partial_cache_misses"));
    // Per-worker dispatch latency as the coordinator measured it — the
    // outside view of which worker is the straggler.
    const gdlog::JsonValue* fleet_obj = stats_after->Find("fleet");
    const gdlog::JsonValue* workers_obj =
        fleet_obj != nullptr ? fleet_obj->Find("workers") : nullptr;
    if (workers_obj != nullptr && workers_obj->is_object()) {
      for (const auto& [address, stats] : workers_obj->members()) {
        auto field = [&](const char* name) {
          const gdlog::JsonValue* value = stats.Find(name);
          if (value == nullptr || !value->is_number()) return 0.0;
          return value->NumberAsDouble();
        };
        std::printf(
            "fleet worker %s: dispatches=%lld p50_ms=%.3f p95_ms=%.3f "
            "max_ms=%.3f\n",
            address.c_str(), static_cast<long long>(field("dispatches")),
            field("p50_ms"), field("p95_ms"), field("max_ms"));
      }
    }
  }

  if (mismatch) std::fprintf(stderr, "FAIL: response bodies differ\n");
  bool ok = !mismatch && failures.load() == 0;
  if (opts.check) {
    // One chase for N identical queries: the first miss computes, every
    // other request either hits the cache or coalesces onto the flight.
    long long expected = static_cast<long long>(opts.requests) - 1;
    if (d_misses != 1 || d_hits + d_coalesced != expected) {
      std::fprintf(stderr,
                   "FAIL: expected misses=1 and hits+coalesced=%lld\n",
                   expected);
      ok = false;
    }
  }

  if (ok && !opts.delta_path.empty()) {
    gdlog::JsonWriter patch;
    patch.BeginObject();
    patch.KV("delta", ReadFile(opts.delta_path));
    patch.EndObject();
    auto patched = client->Request(
        "PATCH", "/v1/programs/" + program_id + "/db", patch.str());
    if (!patched.ok() || patched->status != 200) {
      std::fprintf(stderr, "FAIL: PATCH /db: %s\n",
                   patched.ok() ? patched->body.c_str()
                                : patched.status().ToString().c_str());
      std::printf("FAIL\n");
      return 1;
    }
    auto patch_doc = gdlog::JsonValue::Parse(patched->body);
    const gdlog::JsonValue* delta_obj =
        patch_doc.ok() ? patch_doc->Find("delta") : nullptr;
    auto delta_counter = [&](const char* field) -> long long {
      if (delta_obj == nullptr) return -1;
      const gdlog::JsonValue* value = delta_obj->Find(field);
      if (value == nullptr || !value->is_number()) return -1;
      auto n = value->NumberAsInt();
      return n.ok() ? *n : -1;
    };
    long long revalidated = delta_counter("spaces_revalidated");
    std::printf(
        "delta: rows_appended=%lld spaces_revalidated=%lld "
        "spaces_evicted=%lld\n",
        delta_counter("rows_appended"), revalidated,
        delta_counter("spaces_evicted"));

    auto after_query = client->Request("POST", query_target, query_body);
    if (!after_query.ok() || after_query->status != 200) {
      std::fprintf(stderr, "FAIL: post-delta query failed\n");
      std::printf("FAIL\n");
      return 1;
    }
    auto stats_final = FetchStats(opts.host, opts.port);
    long long post_misses =
        stats_final.ok() ? CacheCounter(*stats_final, "misses") -
                               CacheCounter(*stats_after, "misses")
                         : -1;
    std::printf("post-delta query: misses=%lld\n", post_misses);
    if (opts.check && revalidated >= 1 && post_misses != 0) {
      // The server claimed it carried the cached space across the delta,
      // yet the very next identical query ran a chase.
      std::fprintf(stderr,
                   "FAIL: revalidated space did not serve the query\n");
      ok = false;
    }
  }

  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
