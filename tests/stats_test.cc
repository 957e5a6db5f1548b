// /v1/stats and /v1/metrics as documents: one fixed request sequence
// drives every scalar counter section (server, registry, cache, opt,
// delta, fleet), and the tests pin what both endpoints render from it.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "server/http.h"
#include "server/service.h"
#include "util/json.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram =
    "infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).\n"
    "uninfected(X) :- router(X), not infected(X, 1).\n"
    ":- uninfected(X), uninfected(Y), connected(X, Y).\n";

// meta occurs in no rule body, so a meta(...) delta takes the
// revalidating PATCH path.
constexpr const char* kClique3Db =
    "router(1). router(2). router(3).\n"
    "connected(1,2). connected(2,1). connected(1,3). connected(3,1).\n"
    "connected(2,3). connected(3,2).\n"
    "infected(1, 1).\n";

HttpResponse Call(InferenceService& service, const std::string& method,
                  const std::string& target, const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  HttpResponse response = service.Handle(request);
  EXPECT_TRUE(response.Drain().ok()) << target;
  return response;
}

/// The fixed sequence: register a program, query it twice (one miss, one
/// hit), apply one revalidating PATCH, send one /v1/shards request twice
/// (partial-cache miss, then hit), and send one /v1/jobs request naming an
/// unknown program (jobs and jobs_failed both 1, no sockets).
void RunSequence(InferenceService& service) {
  JsonWriter reg;
  reg.BeginObject().KV("program", kNetworkProgram).KV("db", kClique3Db)
      .EndObject();
  HttpResponse registered = Call(service, "POST", "/v1/programs", reg.str());
  ASSERT_EQ(registered.status, 201) << registered.body;
  auto doc = JsonValue::Parse(registered.body);
  ASSERT_TRUE(doc.ok());
  const std::string id = doc->Find("id")->string_value();

  const std::string query = "{\"program_id\":\"" + id + "\"}";
  EXPECT_EQ(Call(service, "POST", "/v1/query", query).status, 200);
  EXPECT_EQ(Call(service, "POST", "/v1/query", query).status, 200);

  HttpResponse patched = Call(service, "PATCH", "/v1/programs/" + id + "/db",
                              "{\"delta\":\"meta(99).\\n\"}");
  EXPECT_EQ(patched.status, 200) << patched.body;

  const std::string shards = "{\"program_id\":\"" + id +
                             "\",\"shards\":2,\"shard_indices\":[0,1]}";
  EXPECT_EQ(Call(service, "POST", "/v1/shards", shards).status, 200);
  EXPECT_EQ(Call(service, "POST", "/v1/shards", shards).status, 200);

  EXPECT_EQ(Call(service, "POST", "/v1/jobs",
                 "{\"program_id\":\"no-such-program\"}")
                .status,
            404);
}

InferenceService::Options ServiceOptions() {
  InferenceService::Options options;
  options.default_chase.num_threads = 1;
  return options;
}

/// The metric family an exposition line belongs to: the name of a
/// `# HELP`/`# TYPE` line, or a sample's name with a histogram suffix
/// stripped when the stripped name is a histogram family.
std::string FamilyOf(const std::string& line,
                     const std::set<std::string>& histograms) {
  std::string name;
  if (line.rfind("# ", 0) == 0) {
    std::istringstream in(line.substr(2));
    std::string word;
    in >> word >> name;
    return name;
  }
  name = line.substr(0, line.find_first_of("{ "));
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0 &&
        histograms.count(name.substr(0, name.size() - s.size())) != 0) {
      return name.substr(0, name.size() - s.size());
    }
  }
  return name;
}

/// The exposition's lines, sorted, without the families whose values are
/// wall-clock or footprint dependent: uptime, build info, cache bytes,
/// every histogram family and the per-rule profile families.
std::vector<std::string> ScalarMetricLines(const std::string& text) {
  std::vector<std::string> lines;
  std::set<std::string> histograms;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
    const std::string type_prefix = "# TYPE ";
    if (line.rfind(type_prefix, 0) == 0 &&
        line.size() > 10 &&
        line.compare(line.size() - 10, 10, " histogram") == 0) {
      histograms.insert(line.substr(
          type_prefix.size(), line.size() - 10 - type_prefix.size()));
    }
  }
  std::vector<std::string> kept;
  for (const std::string& line : lines) {
    const std::string family = FamilyOf(line, histograms);
    if (family == "gdlog_uptime_seconds" || family == "gdlog_build_info" ||
        family == "gdlog_cache_bytes" || histograms.count(family) != 0 ||
        family.rfind("gdlog_rule_", 0) == 0) {
      continue;
    }
    kept.push_back(line);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

TEST(StatsPin, StatsAndMetricsBytesAfterFixedSequence) {
  InferenceService service(ServiceOptions());
  RunSequence(service);

  HttpResponse stats = Call(service, "GET", "/v1/stats");
  ASSERT_EQ(stats.status, 200);
  std::string body = std::regex_replace(
      stats.body, std::regex("\"uptime_seconds\":[-+.0-9eE]+"),
      "\"uptime_seconds\":U");
  body = std::regex_replace(body, std::regex("\"bytes\":[0-9]+"),
                            "\"bytes\":B");
  EXPECT_EQ(body,
            "{\"server\":{\"uptime_seconds\":U,\"requests\":{\"total\":8,"
            "\"queries\":2,\"samples\":0}},"
            "\"registry\":{\"programs\":1},"
            "\"cache\":{\"hits\":1,\"misses\":1,\"coalesced\":0,"
            "\"evictions\":0,\"inserts\":2,\"revalidated\":1,\"entries\":1,"
            "\"bytes\":B,\"capacity_bytes\":268435456},"
            "\"opt\":{\"db_replacements\":0,"
            "\"demand_engines_built\":0,\"demand_cache_hits\":0,"
            "\"demand_queries\":0},"
            "\"delta\":{\"patches\":1,\"rows_appended\":1,"
            "\"spaces_revalidated\":1,\"spaces_evicted\":0},"
            "\"fleet\":{\"shard_requests\":2,\"shards_explored\":2,"
            "\"jobs\":1,\"jobs_failed\":1,\"dispatches\":0,\"retries\":0,"
            "\"steals\":0,\"worker_failures\":0,\"partials_merged\":0,"
            "\"partials_streamed\":0,\"duplicate_partials\":0,"
            "\"partial_cache_hits\":2,\"partial_cache_misses\":2,"
            "\"jobs_in_flight\":0,\"peak_resident_partials\":0,"
            "\"workers\":{}}}\n");

  HttpResponse metrics = Call(service, "GET", "/v1/metrics");
  ASSERT_EQ(metrics.status, 200);
  const std::vector<std::string> expected = {
      "# HELP gdlog_cache_capacity_bytes Cache byte capacity.",
      "# HELP gdlog_cache_coalesced_total Lookups that waited on another "
      "thread's compute.",
      "# HELP gdlog_cache_entries Cache entries resident.",
      "# HELP gdlog_cache_evictions_total Cache entries evicted (LRU or "
      "invalidation).",
      "# HELP gdlog_cache_hits_total Inference cache lookups served from "
      "memory.",
      "# HELP gdlog_cache_inserts_total Cache entries inserted.",
      "# HELP gdlog_cache_misses_total Inference cache lookups that "
      "computed.",
      "# HELP gdlog_cache_revalidated_total Cache entries carried across a "
      "database delta.",
      "# HELP gdlog_delta_patches_total PATCH /db deltas applied.",
      "# HELP gdlog_delta_rows_appended_total Facts appended by deltas.",
      "# HELP gdlog_delta_spaces_evicted_total Cached outcome spaces "
      "evicted by a delta.",
      "# HELP gdlog_delta_spaces_revalidated_total Cached outcome spaces "
      "revalidated across a delta.",
      "# HELP gdlog_demand_queries_total Marginal queries served through a "
      "demand-transformed engine.",
      "# HELP gdlog_fleet_dispatches_total Worker exchanges attempted.",
      "# HELP gdlog_fleet_duplicate_partials_total Late duplicate partial "
      "lines discarded.",
      "# HELP gdlog_fleet_jobs_failed_total Jobs that returned non-2xx.",
      "# HELP gdlog_fleet_jobs_in_flight Coordinator jobs currently "
      "dispatching.",
      "# HELP gdlog_fleet_jobs_total POST /v1/jobs requests.",
      "# HELP gdlog_fleet_partial_cache_hits_total Worker partial-cache "
      "lines served without a chase.",
      "# HELP gdlog_fleet_partial_cache_misses_total Worker partial-cache "
      "misses that ran the chase.",
      "# HELP gdlog_fleet_partials_merged_total Partials merged into job "
      "results.",
      "# HELP gdlog_fleet_partials_streamed_total Partial lines received "
      "mid-exchange (pre-dedup).",
      "# HELP gdlog_fleet_peak_resident_partials High-water mark of "
      "partials resident on the coordinator.",
      "# HELP gdlog_fleet_retries_total Shard groups re-dispatched.",
      "# HELP gdlog_fleet_shard_requests_total POST /v1/shards requests "
      "served.",
      "# HELP gdlog_fleet_shards_explored_total Shard indices explored "
      "locally.",
      "# HELP gdlog_fleet_steals_total Straggler exchanges stolen by idle "
      "workers.",
      "# HELP gdlog_fleet_worker_failures_total Worker exchanges that "
      "failed.",
      "# HELP gdlog_http_requests_total HTTP requests routed (all "
      "endpoints).",
      "# HELP gdlog_opt_db_replacements_total PUT /db database "
      "replacements.",
      "# HELP gdlog_opt_demand_cache_hits_total Demand-engine cache hits.",
      "# HELP gdlog_opt_demand_engines_built_total Demand-transformed "
      "engines built.",
      "# HELP gdlog_queries_total POST /v1/query requests.",
      "# HELP gdlog_registry_programs Programs currently registered.",
      "# HELP gdlog_samples_total POST /v1/sample requests.",
      "# TYPE gdlog_cache_capacity_bytes gauge",
      "# TYPE gdlog_cache_coalesced_total counter",
      "# TYPE gdlog_cache_entries gauge",
      "# TYPE gdlog_cache_evictions_total counter",
      "# TYPE gdlog_cache_hits_total counter",
      "# TYPE gdlog_cache_inserts_total counter",
      "# TYPE gdlog_cache_misses_total counter",
      "# TYPE gdlog_cache_revalidated_total counter",
      "# TYPE gdlog_delta_patches_total counter",
      "# TYPE gdlog_delta_rows_appended_total counter",
      "# TYPE gdlog_delta_spaces_evicted_total counter",
      "# TYPE gdlog_delta_spaces_revalidated_total counter",
      "# TYPE gdlog_demand_queries_total counter",
      "# TYPE gdlog_fleet_dispatches_total counter",
      "# TYPE gdlog_fleet_duplicate_partials_total counter",
      "# TYPE gdlog_fleet_jobs_failed_total counter",
      "# TYPE gdlog_fleet_jobs_in_flight gauge",
      "# TYPE gdlog_fleet_jobs_total counter",
      "# TYPE gdlog_fleet_partial_cache_hits_total counter",
      "# TYPE gdlog_fleet_partial_cache_misses_total counter",
      "# TYPE gdlog_fleet_partials_merged_total counter",
      "# TYPE gdlog_fleet_partials_streamed_total counter",
      "# TYPE gdlog_fleet_peak_resident_partials gauge",
      "# TYPE gdlog_fleet_retries_total counter",
      "# TYPE gdlog_fleet_shard_requests_total counter",
      "# TYPE gdlog_fleet_shards_explored_total counter",
      "# TYPE gdlog_fleet_steals_total counter",
      "# TYPE gdlog_fleet_worker_failures_total counter",
      "# TYPE gdlog_http_requests_total counter",
      "# TYPE gdlog_opt_db_replacements_total counter",
      "# TYPE gdlog_opt_demand_cache_hits_total counter",
      "# TYPE gdlog_opt_demand_engines_built_total counter",
      "# TYPE gdlog_queries_total counter",
      "# TYPE gdlog_registry_programs gauge",
      "# TYPE gdlog_samples_total counter",
      "gdlog_cache_capacity_bytes 268435456",
      "gdlog_cache_coalesced_total 0",
      "gdlog_cache_entries 1",
      "gdlog_cache_evictions_total 0",
      "gdlog_cache_hits_total 1",
      "gdlog_cache_inserts_total 2",
      "gdlog_cache_misses_total 1",
      "gdlog_cache_revalidated_total 1",
      "gdlog_delta_patches_total 1",
      "gdlog_delta_rows_appended_total 1",
      "gdlog_delta_spaces_evicted_total 0",
      "gdlog_delta_spaces_revalidated_total 1",
      "gdlog_demand_queries_total 0",
      "gdlog_fleet_dispatches_total 0",
      "gdlog_fleet_duplicate_partials_total 0",
      "gdlog_fleet_jobs_failed_total 1",
      "gdlog_fleet_jobs_in_flight 0",
      "gdlog_fleet_jobs_total 1",
      "gdlog_fleet_partial_cache_hits_total 2",
      "gdlog_fleet_partial_cache_misses_total 2",
      "gdlog_fleet_partials_merged_total 0",
      "gdlog_fleet_partials_streamed_total 0",
      "gdlog_fleet_peak_resident_partials 0",
      "gdlog_fleet_retries_total 0",
      "gdlog_fleet_shard_requests_total 2",
      "gdlog_fleet_shards_explored_total 2",
      "gdlog_fleet_steals_total 0",
      "gdlog_fleet_worker_failures_total 0",
      "gdlog_http_requests_total 9",
      "gdlog_opt_db_replacements_total 0",
      "gdlog_opt_demand_cache_hits_total 0",
      "gdlog_opt_demand_engines_built_total 0",
      "gdlog_queries_total 2",
      "gdlog_registry_programs 1",
      "gdlog_samples_total 0",
  };
  EXPECT_EQ(ScalarMetricLines(metrics.body), expected);
}

/// Every numeric leaf of a /v1/stats document as "section.key" (dotted for
/// nested objects) → number text, skipping the two entries that are not
/// counter-table rows: server.uptime_seconds and the fleet.workers block.
void StatsLeaves(const JsonValue& value, const std::string& path,
                 std::map<std::string, std::string>* leaves) {
  for (const auto& [key, member] : value.members()) {
    const std::string child = path.empty() ? key : path + "." + key;
    if (child == "server.uptime_seconds" || child == "fleet.workers") continue;
    if (member.is_object()) {
      StatsLeaves(member, child, leaves);
    } else {
      (*leaves)[child] = member.number_text();
    }
  }
}

TEST(StatsParity, EveryTableRowReadsTheSameOnBothEndpoints) {
  InferenceService service(ServiceOptions());
  RunSequence(service);
  HttpResponse stats = Call(service, "GET", "/v1/stats");
  HttpResponse metrics = Call(service, "GET", "/v1/metrics");
  ASSERT_EQ(stats.status, 200);
  ASSERT_EQ(metrics.status, 200);
  auto doc = JsonValue::Parse(stats.body);
  ASSERT_TRUE(doc.ok());
  std::map<std::string, std::string> leaves;
  StatsLeaves(*doc, "", &leaves);

  // Unlabelled samples and declared types of the exposition, by family.
  std::map<std::string, std::string> samples;
  std::map<std::string, std::string> types;
  std::istringstream in(metrics.body);
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string first, second, third, fourth;
    words >> first >> second >> third >> fourth;
    if (first == "#") {
      if (second == "TYPE") types[third] = fourth;
    } else if (first.find('{') == std::string::npos) {
      samples[first] = second;
    }
  }

  std::set<std::string> paths;
  std::set<std::string> names;
  for (const auto& row : InferenceService::SeriesTable()) {
    const std::string path = std::string(row.section) + "." + row.key;
    SCOPED_TRACE(path);
    EXPECT_TRUE(paths.insert(path).second) << "duplicate stats path";
    EXPECT_TRUE(names.insert(row.metric).second) << "duplicate metric";
    ASSERT_EQ(leaves.count(path), 1u) << "row missing from /v1/stats";
    ASSERT_EQ(samples.count(row.metric), 1u) << "row missing from /v1/metrics";
    EXPECT_EQ(types[row.metric],
              row.kind == SeriesKind::kCounter ? "counter" : "gauge");
    uint64_t stats_value = std::stoull(leaves[path]);
    // The /v1/metrics request is itself one more routed request.
    if (path == "server.requests.total") ++stats_value;
    EXPECT_EQ(std::to_string(stats_value), samples[row.metric]);
  }

  // The converse: nothing is exported on one endpoint without a row.
  for (const auto& [path, value] : leaves) {
    EXPECT_EQ(paths.count(path), 1u) << path << " has no table row";
  }
  for (const auto& [name, kind] : types) {
    if (kind == "histogram" || name == "gdlog_build_info" ||
        name == "gdlog_uptime_seconds" || samples.count(name) == 0) {
      continue;
    }
    EXPECT_EQ(names.count(name), 1u) << name << " has no table row";
  }
}

}  // namespace
}  // namespace gdlog
