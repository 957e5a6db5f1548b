#include "server/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "gdatalog/export.h"
#include "gdatalog/shard.h"
#include "obs/trace.h"
#include "server/options.h"
#include "util/json.h"

namespace gdlog {

namespace {

/// The shard-plan coordinates every fleet request carries. All of them are
/// inputs of the pure plan function, so a worker given the same
/// coordinates recomputes the coordinator's plan exactly.
struct PlanCoordinates {
  size_t shards = 1;
  size_t prefix_depth = 0;
  ShardAssignment assignment = ShardAssignment::kWeighted;
};

Result<PlanCoordinates> ReadPlanCoordinates(const JsonValue& body,
                                            size_t default_shards) {
  PlanCoordinates plan;
  GDLOG_ASSIGN_OR_RETURN(uint64_t shards,
                         OptionalU64(body, "shards", default_shards));
  if (shards < 1 || shards > kMaxShards) {
    return Status::InvalidArgument("'shards' must be an integer in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  plan.shards = static_cast<size_t>(shards);
  GDLOG_ASSIGN_OR_RETURN(uint64_t depth,
                         OptionalU64(body, "prefix_depth", 0));
  plan.prefix_depth = static_cast<size_t>(depth);
  GDLOG_ASSIGN_OR_RETURN(
      std::string assignment,
      OptionalString(body, "assignment",
                     ShardAssignmentName(ShardAssignment::kWeighted)));
  GDLOG_ASSIGN_OR_RETURN(plan.assignment, ParseShardAssignment(assignment));
  return plan;
}

/// The /v1/shards request a coordinator sends for `indices`. The program
/// travels inline (spec fields, not the coordinator-local id): the
/// worker's registry registers it idempotently, so only the first request
/// per worker pays an engine build, and a worker that has never seen the
/// program needs no separate provisioning step. The registry keeps
/// spec.db_text current across PATCH deltas, which is what makes shipping
/// the spec equivalent to shipping the coordinator's database.
std::string ShardRequestBody(const ProgramSpec& spec,
                             const ChaseOptions& chase,
                             const PlanCoordinates& plan,
                             const std::vector<size_t>& indices) {
  JsonWriter json;
  json.BeginObject();
  json.KV("program", spec.program_text);
  if (!spec.db_text.empty()) json.KV("db", spec.db_text);
  json.KV("grounder", GrounderWireName(spec.grounder));
  if (spec.extensions) {
    json.KV("extensions", true);
    if (spec.normalgrid_max_cells >= 0) {
      json.KV("normalgrid_max_cells",
              static_cast<long long>(spec.normalgrid_max_cells));
    }
  }
  // Exactly the result-affecting options (the fingerprint fields), stated
  // explicitly so a worker with different built-in defaults still explores
  // the coordinator's space. num_threads stays a worker-local choice —
  // thread count never changes results.
  json.Key("options").BeginObject();
  json.KV("max_outcomes", static_cast<long long>(chase.max_outcomes));
  json.KV("max_depth", static_cast<long long>(chase.max_depth));
  json.KV("support_limit", static_cast<long long>(chase.support_limit));
  // %.17g round-trips through strtod, so the worker's double — and hence
  // its serialized meta — matches the coordinator's bit for bit.
  json.KV("min_path_prob", chase.min_path_prob);
  json.KV("trigger_shuffle_seed",
          static_cast<long long>(chase.trigger_shuffle_seed));
  json.KV("solver_max_nodes",
          static_cast<long long>(chase.solver_max_nodes));
  json.EndObject();
  json.KV("shards", static_cast<long long>(plan.shards));
  json.KV("prefix_depth", static_cast<long long>(plan.prefix_depth));
  json.KV("assignment", ShardAssignmentName(plan.assignment));
  json.Key("shard_indices").BeginArray();
  for (size_t index : indices) json.Int(static_cast<long long>(index));
  json.EndArray();
  json.EndObject();
  return json.str();
}

constexpr size_t kNoWorker = static_cast<size_t>(-1);

}  // namespace

Result<std::pair<std::string, int>> ParseHostPort(
    const std::string& address) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("worker address must be host:port; got '" +
                                   address + "'");
  }
  std::string port_text = address.substr(colon + 1);
  if (port_text.find_first_not_of("0123456789") != std::string::npos ||
      port_text.size() > 5) {
    return Status::InvalidArgument("bad worker port in '" + address + "'");
  }
  int port = std::atoi(port_text.c_str());
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("bad worker port in '" + address + "'");
  }
  return std::make_pair(address.substr(0, colon), port);
}

// ---------------------------------------------------------------------------
// Worker half: POST /v1/shards
// ---------------------------------------------------------------------------

HttpResponse FleetService::HandleShards(const HttpRequest& request) {
  counters_.shard_requests.Add();
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());

  // Program resolution: inline spec (registered idempotently — the
  // coordinator's distribution path) or a worker-local id.
  std::shared_ptr<const ProgramRegistry::Entry> entry;
  if (body->Find("program") != nullptr) {
    auto spec = ParseProgramSpec(*body);
    if (!spec.ok()) return ErrorResponse(spec.status());
    auto info = registry_->Register(std::move(*spec));
    if (!info.ok()) return ErrorResponse(info.status());
    entry = registry_->Find(info->id);
  } else {
    auto id = RequiredString(*body, "program_id");
    if (!id.ok()) return ErrorResponse(id.status());
    entry = registry_->Find(*id);
    if (entry == nullptr) {
      return ErrorResponse(Status::NotFound("unknown program id: " + *id));
    }
  }
  if (entry == nullptr) {
    return ErrorResponse(Status::Internal("program entry vanished"));
  }
  // Optional pinning: a caller naming revision/lineage means "this exact
  // database state"; refuse rather than silently explore another one.
  if (const JsonValue* revision = body->Find("revision")) {
    auto want = revision->NumberAsInt();
    if (!want.ok() || *want < 0 ||
        static_cast<uint64_t>(*want) != entry->revision) {
      return ErrorResponse(Status::AlreadyExists(
          "revision mismatch: worker has " +
          std::to_string(entry->revision)));
    }
  }
  if (const JsonValue* lineage = body->Find("lineage")) {
    if (!lineage->is_string() ||
        lineage->string_value() != entry->lineage_digest) {
      return ErrorResponse(
          Status::AlreadyExists("lineage mismatch: worker has '" +
                                entry->lineage_digest + "'"));
    }
  }

  auto chase = ReadChaseOptions(*body, options_.default_chase);
  if (!chase.ok()) return ErrorResponse(chase.status());
  // "shards" is effectively required here: the 0 default fails the >= 1
  // check, so a request without it is rejected with a named error.
  auto plan_coords = ReadPlanCoordinates(*body, /*default_shards=*/0);
  if (!plan_coords.ok()) return ErrorResponse(plan_coords.status());
  const JsonValue* indices_field = body->Find("shard_indices");
  if (indices_field == nullptr || !indices_field->is_array() ||
      indices_field->array().empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "'shard_indices' must be a non-empty array of shard indices"));
  }
  std::vector<size_t> indices;
  for (const JsonValue& index : indices_field->array()) {
    auto value = index.is_number() ? index.NumberAsInt()
                                   : Result<long long>(Status::InvalidArgument(
                                         "bad shard index"));
    if (!value.ok() || *value < 0 ||
        static_cast<uint64_t>(*value) >= plan_coords->shards) {
      return ErrorResponse(Status::InvalidArgument(
          "'shard_indices' entries must be integers in [0, shards)"));
    }
    indices.push_back(static_cast<size_t>(*value));
  }

  auto plan = entry->engine.chase().PlanShards(
      *chase, plan_coords->shards, plan_coords->prefix_depth,
      plan_coords->assignment);
  if (!plan.ok()) return ErrorResponse(plan.status());

  // Shared with the streaming closure, which outlives this frame.
  struct StreamState {
    std::shared_ptr<const ProgramRegistry::Entry> entry;
    ShardPlan plan;
    ChaseOptions chase;
    std::vector<size_t> indices;
    std::string key_prefix;
  };
  auto state = std::make_shared<StreamState>();
  state->entry = entry;
  state->plan = std::move(*plan);
  state->chase = *chase;
  state->indices = std::move(indices);
  // The partial-cache key: the /query fingerprint (id, revision, lineage,
  // result-affecting options) plus the *resolved* plan coordinates — so an
  // auto prefix depth and its resolved value share one entry — plus the
  // shard index. Prefix-invalidated by id on any db change.
  state->key_prefix =
      InferenceCache::Fingerprint(state->entry->id, state->entry->revision,
                                  state->entry->lineage_digest,
                                  state->chase) +
      "|plan=" + std::to_string(state->plan.num_shards) + "," +
      std::to_string(state->plan.prefix_depth) + "," +
      ShardAssignmentName(state->plan.assignment);

  using Line = std::shared_ptr<const std::string>;
  auto produce = [this, state](size_t index) -> Result<Line> {
    std::string key = state->key_prefix + "|shard=" + std::to_string(index);
    {
      std::lock_guard<std::mutex> lock(partial_mu_);
      if (const Line* cached = partial_cache_.Find(key)) {
        counters_.partial_cache_hits.Add();
        return *cached;
      }
    }
    counters_.partial_cache_misses.Add();
    auto partial = state->entry->engine.chase().ExploreShard(
        state->plan, index, state->chase);
    if (!partial.ok()) return partial.status();
    counters_.shards_explored.Add();
    ShardPartialMeta meta =
        MakeShardPartialMeta(state->plan, index, state->chase);
    std::string text = PartialSpaceToJson(
        *partial, meta, state->entry->engine.program().interner());
    text += '\n';
    // The writer's growth slack can reach the line's own size; drop it so
    // the cache holds about what it charges.
    text.shrink_to_fit();
    auto line = std::make_shared<const std::string>(std::move(text));
    std::lock_guard<std::mutex> lock(partial_mu_);
    partial_cache_.Insert(key, line, key.size() + line->size());
    return line;
  };

  // The first line is produced synchronously so early failures (an engine
  // error on the first index) still get a proper error envelope instead of
  // a truncated 200.
  auto first = produce(state->indices[0]);
  if (!first.ok()) return ErrorResponse(first.status());

  HttpResponse response;
  response.status = 200;
  response.content_type = "application/x-ndjson";
  response.stream = [state, produce, first_line = std::move(*first)](
                        const HttpResponse::ChunkSink& emit) -> Status {
    GDLOG_RETURN_IF_ERROR(emit(*first_line));
    for (size_t i = 1; i < state->indices.size(); ++i) {
      auto line = produce(state->indices[i]);
      // A mid-stream failure aborts the chunked stream before the
      // terminal chunk: the coordinator sees a truncated, retryable
      // exchange — never a complete-looking short response.
      if (!line.ok()) return line.status();
      GDLOG_RETURN_IF_ERROR(emit(**line));
    }
    return Status::OK();
  };
  return response;
}

// ---------------------------------------------------------------------------
// Coordinator half: POST /v1/jobs
// ---------------------------------------------------------------------------

HttpResponse FleetService::HandleJobs(const HttpRequest& request,
                                      const std::string& trace) {
  counters_.jobs.Add();
  counters_.jobs_in_flight.Add();
  struct InFlightGuard {
    RelaxedCounter* gauge;
    ~InFlightGuard() { gauge->Sub(); }
  } in_flight_guard{&counters_.jobs_in_flight};
  auto fail = [&](const Status& status) {
    counters_.jobs_failed.Add();
    return ErrorResponse(status);
  };
  auto body = ParseBody(request);
  if (!body.ok()) return fail(body.status());
  auto id = RequiredString(*body, "program_id");
  if (!id.ok()) return fail(id.status());
  auto entry = registry_->Find(*id);
  if (entry == nullptr) {
    return fail(Status::NotFound("unknown program id: " + *id));
  }
  auto chase = ReadChaseOptions(*body, options_.default_chase);
  if (!chase.ok()) return fail(chase.status());

  std::vector<std::string> workers = options_.default_workers;
  if (const JsonValue* list = body->Find("workers")) {
    if (!list->is_array()) {
      return fail(Status::InvalidArgument(
          "'workers' must be an array of host:port strings"));
    }
    workers.clear();
    for (const JsonValue& worker : list->array()) {
      if (!worker.is_string()) {
        return fail(Status::InvalidArgument(
            "'workers' must be an array of host:port strings"));
      }
      workers.push_back(worker.string_value());
    }
  }
  if (workers.empty()) {
    return fail(Status::InvalidArgument(
        "no workers: pass 'workers' or start gdlogd with --fleet-workers"));
  }
  for (const std::string& worker : workers) {
    auto parsed = ParseHostPort(worker);
    if (!parsed.ok()) return fail(parsed.status());
  }

  auto plan_coords =
      ReadPlanCoordinates(*body, /*default_shards=*/workers.size());
  if (!plan_coords.ok()) return fail(plan_coords.status());
  auto deadline = OptionalU64(*body, "deadline_ms",
                              static_cast<uint64_t>(options_.deadline_ms));
  if (!deadline.ok()) return fail(deadline.status());
  int deadline_ms =
      static_cast<int>(std::min<uint64_t>(*deadline, 3'600'000));
  if (deadline_ms < 1) deadline_ms = 1;
  auto steal = OptionalBool(*body, "steal", true);
  if (!steal.ok()) return fail(steal.status());
  auto steal_after =
      OptionalU64(*body, "steal_after_ms",
                  static_cast<uint64_t>(options_.steal_after_ms));
  if (!steal_after.ok()) return fail(steal_after.status());
  int steal_after_ms =
      static_cast<int>(std::min<uint64_t>(*steal_after, 3'600'000));
  if (steal_after_ms < 1) steal_after_ms = 1;

  auto include_outcomes = OptionalBool(*body, "include_outcomes", false);
  auto include_models = OptionalBool(*body, "include_models", false);
  auto include_events = OptionalBool(*body, "include_events", false);
  auto include_spans = OptionalBool(*body, "spans", false);
  if (!include_outcomes.ok()) return fail(include_outcomes.status());
  if (!include_models.ok()) return fail(include_models.status());
  if (!include_events.ok()) return fail(include_events.status());
  if (!include_spans.ok()) return fail(include_spans.status());

  // The merged space is bit-identical to a single-process run, so the job
  // shares the *same* fingerprint — and hence cache entries — with /query:
  // a job warms the cache for queries and vice versa.
  std::string key = InferenceCache::Fingerprint(
      entry->id, entry->revision, entry->lineage_digest, *chase);
  JobSpans spans;
  bool computed = false;
  auto space = cache_->LookupOrCompute(key, [&]() {
    computed = true;
    return RunJob(*entry, *chase, plan_coords->shards,
                  plan_coords->prefix_depth, plan_coords->assignment,
                  workers, deadline_ms, *steal, steal_after_ms, trace,
                  &spans);
  });
  if (!space.ok()) return fail(space.status());
  if (computed) {
    // One line per computed job stitches the coordinator's view to the
    // workers' access logs via the shared trace id. Timings are wall time
    // — diagnostics, not results.
    std::fprintf(stderr,
                 "gdlogd: job trace=%s plan_ms=%.3f dispatch_ms=%.3f "
                 "merge_ms=%.3f exchanges=%zu\n",
                 trace.empty() ? "-" : trace.c_str(), spans.plan_ns / 1e6,
                 spans.dispatch_ns / 1e6, spans.merge_ns / 1e6,
                 spans.exchanges.size());
  }

  JsonExportOptions json_options;
  json_options.include_outcomes = *include_outcomes;
  json_options.include_models = *include_models;
  json_options.include_events = *include_events;
  // Byte-identical to /query's full-document body (and so to
  // `gdlog_cli --json`) for the same program/DB/options.
  std::string doc = OutcomeSpaceToJson(**space, entry->engine.translated(),
                                       entry->engine.program().interner(),
                                       json_options);
  // The span block is strictly opt-in ("spans": true) and only exists when
  // this request actually computed the job (a cache hit ran nothing), so
  // the default body keeps the byte-identity contract above.
  if (*include_spans && computed) {
    JsonWriter json;
    json.BeginObject();
    if (!trace.empty()) json.KV("trace", trace);
    json.KV("plan_ms", spans.plan_ns / 1e6);
    json.KV("dispatch_ms", spans.dispatch_ns / 1e6);
    json.KV("merge_ms", spans.merge_ns / 1e6);
    json.Key("exchanges").BeginArray();
    for (const JobSpans::Exchange& exchange : spans.exchanges) {
      json.BeginObject();
      json.KV("exchange", static_cast<long long>(exchange.exchange));
      json.KV("shards", static_cast<long long>(exchange.shards));
      json.KV("worker", exchange.worker);
      json.KV("kind", exchange.kind);
      json.KV("ok", exchange.ok);
      json.KV("time_ms", exchange.time_ns / 1e6);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    doc.insert(doc.size() - 1, ",\"spans\":" + json.str());
  }
  return JsonResponse(200, doc + "\n");
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

Result<OutcomeSpace> FleetService::RunJob(
    const ProgramRegistry::Entry& entry, const ChaseOptions& chase,
    size_t num_shards, size_t prefix_depth, ShardAssignment assignment,
    const std::vector<std::string>& workers, int deadline_ms, bool steal,
    int steal_after_ms, const std::string& trace, JobSpans* spans) {
  const uint64_t plan_start_ns = MonotonicNanos();
  GDLOG_ASSIGN_OR_RETURN(
      ShardPlan plan,
      entry.engine.chase().PlanShards(chase, num_shards, prefix_depth,
                                      assignment));
  if (spans != nullptr) spans->plan_ns = MonotonicNanos() - plan_start_ns;
  const Interner& interner = *entry.engine.program().interner();

  // Shard groups, one per worker (modular when shards outnumber workers).
  // The weighted assignment already balanced mass across *shards*, so the
  // grouping needs no weighting of its own.
  const size_t num_groups = std::min(workers.size(), plan.num_shards);
  std::vector<std::vector<size_t>> groups(num_groups);
  for (size_t shard = 0; shard < plan.num_shards; ++shard) {
    groups[shard % num_groups].push_back(shard);
  }
  // Workers recompute the plan from these coordinates; the resolved
  // prefix_depth is sent (not the request's, which may have been 0 =
  // auto) so workers skip the auto-deepening search and provably expand
  // the same frontier.
  PlanCoordinates coords;
  coords.shards = plan.num_shards;
  coords.prefix_depth = plan.prefix_depth;
  coords.assignment = plan.assignment;

  const ShardPartialMeta expected = MakeShardPartialMeta(plan, 0, chase);

  // --- shared job state -----------------------------------------------
  // All dispatch decisions happen under one mutex; the exchanges
  // themselves (network + parse) run outside it. Invariant: every
  // unmerged shard index lives in `pending` or in some active flight.
  struct PendingGroup {
    std::vector<size_t> indices;
    /// First-wave seed owner, or kNoWorker once the group returned to the
    /// common pool after a failure.
    size_t preferred = kNoWorker;
    bool is_retry = false;
  };
  struct Flight {
    bool active = false;
    std::vector<size_t> indices;
    uint64_t start_ns = 0;
    /// A steal already duplicated this flight's undelivered indices; one
    /// steal per flight keeps speculation bounded.
    bool steal_target = false;
  };
  struct JobState {
    std::mutex mu;
    std::condition_variable cv;
    StreamingMerger merger;
    std::vector<char> merged;
    size_t remaining = 0;
    std::vector<std::vector<char>> attempted;  ///< [worker][shard]
    std::deque<PendingGroup> pending;
    std::vector<Flight> flights;  ///< [worker]
    std::vector<char> healthy;
    size_t active_workers = 0;
    size_t next_exchange = 0;
    Status last_error = Status::OK();
  } st;
  st.merged.assign(plan.num_shards, 0);
  st.remaining = plan.num_shards;
  st.attempted.assign(workers.size(),
                      std::vector<char>(plan.num_shards, 0));
  st.flights.resize(workers.size());
  st.healthy.assign(workers.size(), 1);
  st.active_workers = workers.size();
  for (size_t group = 0; group < num_groups; ++group) {
    PendingGroup seed;
    seed.indices = groups[group];
    seed.preferred = group;
    st.pending.push_back(std::move(seed));
  }

  std::atomic<bool> job_done{false};
  // Resident-partials accounting: parsed-but-not-yet-folded partials. The
  // streaming merge keeps this bounded by the worker count — never by the
  // shard count.
  std::atomic<uint64_t> resident{0};

  const uint64_t dispatch_start_ns = MonotonicNanos();

  // Folds one delivered NDJSON line. `position` is the line's ordinal
  // within its exchange (workers answer in request order, dedup or not).
  auto deliver_line = [&](const std::vector<size_t>& want, size_t position,
                          std::string_view line) -> Status {
    ShardPartialMeta meta;
    auto partial = PartialSpaceFromJson(line, interner, &meta);
    if (!partial.ok()) return partial.status();
    if (!meta.SamePlanAndBudgets(expected) ||
        meta.shard_index >= plan.num_shards) {
      return Status::Internal(
          "worker partial was produced under a different shard plan or "
          "different budgets");
    }
    if (position >= want.size() || meta.shard_index != want[position]) {
      return Status::Internal("worker returned partials out of order");
    }
    counters_.partials_streamed.Add();
    counters_.peak_resident_partials.RaiseTo(
        resident.fetch_add(1, std::memory_order_relaxed) + 1);
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.merged[meta.shard_index]) {
      // A stolen (or re-dispatched) duplicate lost the race: the first
      // delivered copy won, this one is discarded. Deterministic because
      // identical plans produce identical partials — which copy merged
      // never changes the bytes.
      counters_.duplicate_partials.Add();
      resident.fetch_sub(1, std::memory_order_relaxed);
      return Status::OK();
    }
    st.merger.Add(std::move(*partial));
    resident.fetch_sub(1, std::memory_order_relaxed);
    st.merged[meta.shard_index] = 1;
    --st.remaining;
    counters_.partials_merged.Add();
    if (st.remaining == 0) {
      job_done.store(true, std::memory_order_release);
      st.cv.notify_all();
    }
    return Status::OK();
  };

  // One worker exchange, end to end: POST the indices, fold lines as they
  // stream in, then settle the flight under the lock.
  auto dispatch = [&](size_t worker, std::vector<size_t> indices,
                      const char* kind, size_t exchange_ordinal) {
    counters_.dispatches.Add();
    std::string request_body =
        ShardRequestBody(entry.spec, chase, coords, indices);
    const uint64_t start_ns = MonotonicNanos();
    size_t delivered = 0;
    Status result = Status::OK();
    auto host_port = ParseHostPort(workers[worker]);
    if (!host_port.ok()) {
      result = host_port.status();
    } else {
      auto client = HttpClient::Connect(host_port->first, host_port->second,
                                        deadline_ms);
      if (!client.ok()) {
        result = client.status();
      } else {
        HttpClient::HeaderList extra_headers;
        if (!trace.empty()) extra_headers.emplace_back(kTraceHeader, trace);
        auto on_line = [&](std::string_view line) -> Status {
          GDLOG_RETURN_IF_ERROR(deliver_line(indices, delivered, line));
          ++delivered;
          return Status::OK();
        };
        auto response = client->RequestStreamingLines(
            "POST", "/v1/shards", request_body, deadline_ms, extra_headers,
            on_line, &job_done);
        if (!response.ok()) {
          result = response.status();
        } else if (response->status != 200) {
          result = Status::Internal(
              "worker " + workers[worker] + " returned HTTP " +
              std::to_string(response->status));
        } else if (delivered != indices.size()) {
          result = Status::Internal(
              "worker " + workers[worker] + " returned " +
              std::to_string(delivered) + " partials for " +
              std::to_string(indices.size()) + " shards");
        }
      }
    }
    const uint64_t elapsed_ns = MonotonicNanos() - start_ns;
    dispatch_hist_.RecordNanos(elapsed_ns);
    RecordWorkerDispatch(workers[worker], elapsed_ns);

    std::lock_guard<std::mutex> lock(st.mu);
    if (spans != nullptr) {
      JobSpans::Exchange span;
      span.exchange = exchange_ordinal;
      span.shards = indices.size();
      span.worker = workers[worker];
      span.kind = kind;
      span.ok = result.ok();
      span.time_ns = elapsed_ns;
      spans->exchanges.push_back(std::move(span));
    }
    st.flights[worker].active = false;
    // Attempt-at-most-once per (worker, shard): the monotone set that
    // guarantees the dispatch loop terminates.
    for (size_t index : indices) st.attempted[worker][index] = 1;
    if (!result.ok() && !job_done.load(std::memory_order_acquire)) {
      // A genuine failure — not the deliberate cancel of a straggler
      // exchange after the job completed. The worker is abandoned and the
      // undelivered indices return to the common pool.
      counters_.worker_failures.Add();
      st.healthy[worker] = 0;
      st.last_error = result;
      std::vector<size_t> undelivered;
      for (size_t index : indices) {
        if (!st.merged[index]) undelivered.push_back(index);
      }
      if (!undelivered.empty()) {
        PendingGroup regroup;
        regroup.indices = std::move(undelivered);
        regroup.is_retry = true;
        st.pending.push_back(std::move(regroup));
      }
    }
    st.cv.notify_all();
  };

  // Per-worker dispatch loop over the shared pool: own seeded group
  // first, then orphaned pending work, then — once idle and past the
  // steal threshold — a straggler's undelivered indices.
  auto worker_loop = [&](size_t w) {
    std::unique_lock<std::mutex> lock(st.mu);
    for (;;) {
      if (st.remaining == 0 || !st.healthy[w]) break;
      // Monotone exit: a worker that has attempted every still-unmerged
      // index can never contribute again.
      bool can_contribute = false;
      for (size_t index = 0; index < plan.num_shards; ++index) {
        if (!st.merged[index] && !st.attempted[w][index]) {
          can_contribute = true;
          break;
        }
      }
      if (!can_contribute) break;

      // Prune pending: drop merged indices, erase emptied groups.
      for (auto it = st.pending.begin(); it != st.pending.end();) {
        std::vector<size_t> unmerged;
        for (size_t index : it->indices) {
          if (!st.merged[index]) unmerged.push_back(index);
        }
        if (unmerged.empty()) {
          it = st.pending.erase(it);
        } else {
          it->indices = std::move(unmerged);
          ++it;
        }
      }

      std::vector<size_t> take;
      const char* kind = "dispatch";
      // 1) Pending work. Own seed wins outright; a foreign seed is only
      // up for grabs once its owner is unhealthy (the owner claims it
      // first otherwise); failure re-groups (preferred == kNoWorker) go
      // to whoever is free. Indices this worker already attempted stay
      // pending for someone else — that split is what lets a group
      // bounce between workers without ever losing an index.
      auto chosen = st.pending.end();
      for (auto it = st.pending.begin(); it != st.pending.end(); ++it) {
        bool claimable = it->preferred == w ||
                         it->preferred == kNoWorker ||
                         !st.healthy[it->preferred];
        if (!claimable) continue;
        bool has_untried = false;
        for (size_t index : it->indices) {
          if (!st.attempted[w][index]) {
            has_untried = true;
            break;
          }
        }
        if (!has_untried) continue;
        if (it->preferred == w) {
          chosen = it;
          break;
        }
        if (chosen == st.pending.end()) chosen = it;
      }
      if (chosen != st.pending.end()) {
        std::vector<size_t> leftover;
        for (size_t index : chosen->indices) {
          (st.attempted[w][index] ? leftover : take).push_back(index);
        }
        kind = chosen->is_retry ? "retry" : "dispatch";
        if (chosen->is_retry) {
          counters_.retries.Add();
        }
        if (leftover.empty()) {
          st.pending.erase(chosen);
        } else {
          chosen->indices = std::move(leftover);
        }
      }

      // 2) Steal: duplicate the undelivered indices of the oldest-past-
      // threshold straggler flight. Safe because any re-assignment of the
      // pure plan is valid; the first delivered copy wins.
      if (take.empty() && steal) {
        uint64_t now_ns = MonotonicNanos();
        size_t best = kNoWorker;
        size_t best_count = 0;
        for (size_t v = 0; v < workers.size(); ++v) {
          if (v == w) continue;
          const Flight& flight = st.flights[v];
          if (!flight.active || flight.steal_target) continue;
          if (now_ns - flight.start_ns <
              static_cast<uint64_t>(steal_after_ms) * 1'000'000ull) {
            continue;
          }
          size_t count = 0;
          for (size_t index : flight.indices) {
            if (!st.merged[index] && !st.attempted[w][index]) ++count;
          }
          if (count > best_count) {
            best_count = count;
            best = v;
          }
        }
        if (best != kNoWorker) {
          Flight& victim = st.flights[best];
          for (size_t index : victim.indices) {
            if (!st.merged[index] && !st.attempted[w][index]) {
              take.push_back(index);
            }
          }
          victim.steal_target = true;
          kind = "steal";
          counters_.steals.Add();
        }
      }

      if (!take.empty()) {
        Flight& mine = st.flights[w];
        mine.active = true;
        mine.indices = take;
        mine.start_ns = MonotonicNanos();
        mine.steal_target = false;
        size_t ordinal = st.next_exchange++;
        // A newly activated flight changes every idle worker's steal
        // horizon — without this wake, a worker that scanned before the
        // flight existed would sleep with no bound until the flight
        // settles (lost-wakeup: only settles and folds notify).
        st.cv.notify_all();
        lock.unlock();
        dispatch(w, std::move(take), kind, ordinal);
        lock.lock();
        continue;
      }

      // Nothing claimable right now. Every state change (line folded,
      // flight settled) notifies the cv; the only silent transition is a
      // flight aging past the steal threshold, so bound the wait by the
      // soonest such moment.
      long long wait_ms = -1;
      if (steal) {
        uint64_t now_ns = MonotonicNanos();
        for (size_t v = 0; v < workers.size(); ++v) {
          if (v == w) continue;
          const Flight& flight = st.flights[v];
          if (!flight.active || flight.steal_target) continue;
          uint64_t age_ms = (now_ns - flight.start_ns) / 1'000'000ull;
          long long remain =
              static_cast<long long>(steal_after_ms) -
              static_cast<long long>(age_ms) + 1;
          if (remain < 1) remain = 1;
          if (wait_ms < 0 || remain < wait_ms) wait_ms = remain;
        }
      }
      if (wait_ms < 0) {
        st.cv.wait(lock);
      } else {
        st.cv.wait_for(lock, std::chrono::milliseconds(wait_ms));
      }
    }
    --st.active_workers;
    st.cv.notify_all();
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (size_t w = 0; w < workers.size(); ++w) {
      threads.emplace_back([&worker_loop, w]() { worker_loop(w); });
    }
    for (std::thread& thread : threads) thread.join();
  }

  const uint64_t merge_finish_ns = MonotonicNanos();
  if (spans != nullptr) {
    spans->dispatch_ns = merge_finish_ns - dispatch_start_ns;
  }
  if (st.remaining != 0) {
    return Status::BudgetExhausted(
        "fleet job failed: no healthy worker left for " +
        std::to_string(st.remaining) + " shard(s) (last error: " +
        st.last_error.message() + ")");
  }
  // Coverage held line by line: every shard folded exactly once
  // (st.merged), every partial validated against the expected plan and
  // budgets before folding. Finish() sums masses in global canonical
  // order — byte-identical to the buffered merge.
  auto merged = st.merger.Finish(chase.max_outcomes);
  if (spans != nullptr) {
    spans->merge_ns = MonotonicNanos() - merge_finish_ns;
  }
  return merged;
}

void FleetService::RecordWorkerDispatch(const std::string& worker,
                                        uint64_t ns) {
  std::lock_guard<std::mutex> lock(worker_mu_);
  WorkerStats& stats = worker_stats_[worker];
  stats.hist.RecordNanos(ns);
  stats.dispatches += 1;
  if (ns > stats.max_ns) stats.max_ns = ns;
}

std::map<std::string, FleetService::WorkerDispatchStats>
FleetService::WorkerDispatches() const {
  std::lock_guard<std::mutex> lock(worker_mu_);
  std::map<std::string, WorkerDispatchStats> out;
  for (const auto& [worker, stats] : worker_stats_) {
    WorkerDispatchStats snapshot;
    snapshot.dispatches = stats.dispatches;
    snapshot.max_ns = stats.max_ns;
    snapshot.hist = stats.hist.TakeSnapshot();
    out.emplace(worker, std::move(snapshot));
  }
  return out;
}

}  // namespace gdlog
