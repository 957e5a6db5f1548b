#include "server/options.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace gdlog {

Result<std::string> RequiredString(const JsonValue& obj,
                                   std::string_view key) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || !field->is_string()) {
    return Status::InvalidArgument("missing string field '" +
                                   std::string(key) + "'");
  }
  return field->string_value();
}

Result<std::string> OptionalString(const JsonValue& obj, std::string_view key,
                                   std::string fallback) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_string()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a string");
  }
  return field->string_value();
}

Result<bool> OptionalBool(const JsonValue& obj, std::string_view key,
                          bool fallback) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_bool()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a boolean");
  }
  return field->bool_value();
}

Result<uint64_t> OptionalU64(const JsonValue& obj, std::string_view key,
                             uint64_t fallback) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  auto value = field->NumberAsInt();
  if (!value.ok() || *value < 0) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(*value);
}

Result<double> OptionalDouble(const JsonValue& obj, std::string_view key,
                              double fallback) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  return field->NumberAsDouble();
}

Result<JsonValue> ParseBody(const HttpRequest& request) {
  if (request.body.empty()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  auto doc = JsonValue::Parse(request.body);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return doc;
}

Result<GrounderKind> ParseGrounder(const std::string& name) {
  if (name == "auto") return GrounderKind::kAuto;
  if (name == "simple") return GrounderKind::kSimple;
  if (name == "perfect") return GrounderKind::kPerfect;
  return Status::InvalidArgument(
      "grounder must be auto, simple or perfect; got '" + name + "'");
}

const char* GrounderWireName(GrounderKind kind) {
  switch (kind) {
    case GrounderKind::kAuto: return "auto";
    case GrounderKind::kSimple: return "simple";
    case GrounderKind::kPerfect: return "perfect";
  }
  return "auto";
}

Result<ProgramSpec> ParseProgramSpec(const JsonValue& body) {
  ProgramSpec spec;
  GDLOG_ASSIGN_OR_RETURN(spec.program_text, RequiredString(body, "program"));
  GDLOG_ASSIGN_OR_RETURN(spec.db_text, OptionalString(body, "db", ""));
  GDLOG_ASSIGN_OR_RETURN(std::string grounder_name,
                         OptionalString(body, "grounder", "auto"));
  GDLOG_ASSIGN_OR_RETURN(spec.grounder, ParseGrounder(grounder_name));
  GDLOG_ASSIGN_OR_RETURN(spec.extensions,
                         OptionalBool(body, "extensions", false));
  GDLOG_ASSIGN_OR_RETURN(uint64_t cells,
                         OptionalU64(body, "normalgrid_max_cells",
                                     static_cast<uint64_t>(-1)));
  if (cells != static_cast<uint64_t>(-1)) {
    if (!spec.extensions) {
      return Status::InvalidArgument(
          "normalgrid_max_cells requires extensions");
    }
    spec.normalgrid_max_cells = static_cast<long long>(cells);
  }
  return spec;
}

Result<ChaseOptions> ReadChaseOptions(const JsonValue& body,
                                      ChaseOptions defaults) {
  const JsonValue* obj = body.Find("options");
  ChaseOptions chase = defaults;
  if (obj != nullptr) {
    if (!obj->is_object()) {
      return Status::InvalidArgument("'options' must be an object");
    }
    GDLOG_ASSIGN_OR_RETURN(uint64_t mo, OptionalU64(*obj, "max_outcomes",
                                                    chase.max_outcomes));
    GDLOG_ASSIGN_OR_RETURN(uint64_t md, OptionalU64(*obj, "max_depth",
                                                    chase.max_depth));
    GDLOG_ASSIGN_OR_RETURN(uint64_t sl, OptionalU64(*obj, "support_limit",
                                                    chase.support_limit));
    GDLOG_ASSIGN_OR_RETURN(
        double mpp, OptionalDouble(*obj, "min_path_prob",
                                   chase.min_path_prob));
    GDLOG_ASSIGN_OR_RETURN(
        uint64_t seed, OptionalU64(*obj, "trigger_shuffle_seed",
                                   chase.trigger_shuffle_seed));
    GDLOG_ASSIGN_OR_RETURN(
        uint64_t smn, OptionalU64(*obj, "solver_max_nodes",
                                  chase.solver_max_nodes));
    GDLOG_ASSIGN_OR_RETURN(uint64_t threads,
                           OptionalU64(*obj, "num_threads",
                                       chase.num_threads));
    GDLOG_ASSIGN_OR_RETURN(bool profile,
                           OptionalBool(*obj, "profile", chase.profile));
    if (!(mpp >= 0.0) || mpp > 1.0) {
      return Status::InvalidArgument("min_path_prob must be in [0, 1]");
    }
    chase.max_outcomes = static_cast<size_t>(mo);
    chase.max_depth = static_cast<size_t>(md);
    chase.support_limit = static_cast<size_t>(sl);
    chase.min_path_prob = mpp;
    chase.trigger_shuffle_seed = seed;
    chase.solver_max_nodes = smn;
    // num_threads sizes a real thread pool, so a client must not pick it
    // freely (a huge value aborts the process in std::thread). Clamp to
    // the hardware; thread count never changes results, only speed.
    chase.num_threads = static_cast<size_t>(
        std::min<uint64_t>(threads, ThreadPool::DefaultWorkerCount()));
    // Profiling never changes results (the flag is excluded from the cache
    // fingerprint), it only asks the engine to collect rule timings.
    chase.profile = profile;
  }
  chase.compute_models = true;
  return chase;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kUnsafeProgram:
    case StatusCode::kNotStratified: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kUnsupported: return 501;
    case StatusCode::kBudgetExhausted: return 503;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusFor(status),
                      HttpErrorBody(StatusCodeName(status.code()),
                                    status.message()));
}

HttpResponse MethodNotAllowed(const char* allowed) {
  HttpResponse response = ErrorResponse(Status::InvalidArgument(
      std::string("method not allowed; use ") + allowed));
  response.status = 405;
  return response;
}

}  // namespace gdlog
