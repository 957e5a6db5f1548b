#ifndef GDLOG_SERVER_OPTIONS_H_
#define GDLOG_SERVER_OPTIONS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "gdatalog/chase.h"
#include "gdatalog/grounder.h"
#include "server/http.h"
#include "server/registry.h"
#include "util/json.h"
#include "util/status.h"

namespace gdlog {

// Shared request parsing and response envelope helpers for every gdlogd
// endpoint (service.cc and fleet.cc). There is exactly one JSON →
// ChaseOptions parser so option names and range checks cannot drift
// between /v1/query, /v1/sample, /v1/shards and /v1/jobs.

// ---------------------------------------------------------------------------
// Request-body field readers. Bodies are untrusted: every access validates
// presence and type and surfaces a kInvalidArgument naming the field.
// ---------------------------------------------------------------------------

Result<std::string> RequiredString(const JsonValue& obj, std::string_view key);
Result<std::string> OptionalString(const JsonValue& obj, std::string_view key,
                                   std::string fallback);
Result<bool> OptionalBool(const JsonValue& obj, std::string_view key,
                          bool fallback);
Result<uint64_t> OptionalU64(const JsonValue& obj, std::string_view key,
                             uint64_t fallback);
Result<double> OptionalDouble(const JsonValue& obj, std::string_view key,
                              double fallback);

/// The request body as a JSON object (the only body shape any endpoint
/// accepts).
Result<JsonValue> ParseBody(const HttpRequest& request);

Result<GrounderKind> ParseGrounder(const std::string& name);

/// The wire name ParseGrounder accepts back ("auto", "simple", "perfect")
/// — used when a coordinator ships a registered spec to fleet workers.
const char* GrounderWireName(GrounderKind kind);

/// The program-registration fields — program (required), db, grounder,
/// extensions, normalgrid_max_cells — shared by POST /v1/programs and the
/// inline-program form of POST /v1/shards, so a spec a coordinator
/// distributes parses exactly like one a client registers.
Result<ProgramSpec> ParseProgramSpec(const JsonValue& body);

/// Applies the request's "options" object (if any) over `defaults`. Only
/// exploration budgets and determinism knobs are exposed; range checks
/// (min_path_prob in [0, 1], num_threads clamped to the hardware) live
/// here and nowhere else. compute_models is owned by the server.
Result<ChaseOptions> ReadChaseOptions(const JsonValue& body,
                                      ChaseOptions defaults);

// ---------------------------------------------------------------------------
// Response envelope. Every non-2xx body is HttpErrorBody's
// {"error":{"code","message"}} shape, codes from StatusCodeName.
// ---------------------------------------------------------------------------

/// Library Status → HTTP status. Client-caused failures (bad programs,
/// unknown ids, malformed bodies) map to 4xx; engine-side failures to 5xx.
int HttpStatusFor(const Status& status);

HttpResponse JsonResponse(int status, std::string body);
HttpResponse ErrorResponse(const Status& status);
HttpResponse MethodNotAllowed(const char* allowed);

}  // namespace gdlog

#endif  // GDLOG_SERVER_OPTIONS_H_
