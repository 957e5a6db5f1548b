// Request bodies and response checks shared by the loopback workloads and
// the in-process service probes.
#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gdatalog/engine.h"
#include "util/json.h"

namespace perfbench {

std::string RegisterBody(const std::string& program, const std::string& db);

/// POST /v1/query. `shuffle_seed` 0 leaves the options out; non-empty
/// `queries` asks for marginals instead of the summary document.
std::string QueryBody(const std::string& id, uint64_t shuffle_seed,
                      bool include_events,
                      const std::vector<std::string>& queries = {});

/// PATCH /v1/programs/<id>/db.
std::string PatchBody(const std::string& facts);

/// POST /v1/jobs over `shards` shards under a trigger-shuffle seed.
std::string JobBody(const std::string& id, size_t shards,
                    uint64_t shuffle_seed);

/// The "id" of a registration response, empty when absent.
std::string ProgramId(const std::string& response_body);

/// The summary (or, with include_events, the events) document /v1/query
/// must return for `space`, newline included: what `gdlog_cli --json`
/// prints.
std::string ExpectedQueryBody(const gdlog::GDatalog& engine,
                              const gdlog::OutcomeSpace& space,
                              bool include_events);

/// Expected exact answers of a marginals query.
struct MarginalsExpectation {
  std::vector<std::string> queries;
  std::string prob_consistent;
  std::vector<std::string> lower, upper;  ///< Rationals, parallel to queries.
};
MarginalsExpectation ExpectMarginals(const gdlog::GDatalog& engine,
                                     const gdlog::OutcomeSpace& space,
                                     const std::vector<std::string>& queries);
/// True when a marginals response carries exactly the expected rationals.
bool MarginalsMatch(const std::string& response_body,
                    const MarginalsExpectation& expected);

/// Up to `count` atoms of the first non-empty stable model, in surface
/// syntax: marginal queries that are meaningful for any program.
std::vector<std::string> QueryAtoms(const gdlog::GDatalog& engine,
                                    const gdlog::OutcomeSpace& space,
                                    size_t count);

/// GET /v1/stats from the gdlogd on `port`, parsed; nullopt on failure.
std::optional<gdlog::JsonValue> FetchStats(int port);

/// A counter from a /v1/stats document: stats[section][key], 0 if absent.
double StatsCounter(const gdlog::JsonValue& stats, const char* section,
                    const char* key);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
