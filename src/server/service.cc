#include "server/service.h"

#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gdatalog/demand.h"
#include "gdatalog/export.h"
#include "gdatalog/sampler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/version.h"
#include "server/options.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace gdlog {

namespace {

void WriteInfo(JsonWriter& json, const ProgramRegistry::Info& info) {
  json.BeginObject();
  json.KV("id", info.id);
  json.KV("revision", static_cast<long long>(info.revision));
  json.KV("stratified", info.stratified);
  json.KV("grounder", info.grounder);
  json.KV("created", info.created);
  json.EndObject();
}

void WriteEstimate(JsonWriter& json,
                   const MonteCarloResult::Estimate& estimate) {
  json.BeginObject();
  json.KV("mean", estimate.mean);
  json.KV("std_error", estimate.std_error);
  json.EndObject();
}

/// Quantile estimate from a latency-histogram snapshot: the upper bound
/// (in ms) of the bucket where the cumulative count crosses q — the same
/// upper-bound convention Prometheus' histogram_quantile uses. 0 when the
/// histogram is empty; the overflow bucket reports the largest finite
/// bound.
double HistogramQuantileMs(const LatencyHistogram::Snapshot& snapshot,
                           double q) {
  if (snapshot.count == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(snapshot.count));
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += snapshot.buckets[i];
    if (cumulative >= rank) {
      size_t bound = i < LatencyHistogram::kFiniteBuckets
                         ? i
                         : LatencyHistogram::kFiniteBuckets - 1;
      return static_cast<double>(LatencyHistogram::UpperBoundNanos(bound)) /
             1e6;
    }
  }
  return static_cast<double>(LatencyHistogram::UpperBoundNanos(
             LatencyHistogram::kFiniteBuckets - 1)) /
         1e6;
}

FleetService::Options FleetOptionsFrom(const InferenceService::Options& o) {
  FleetService::Options fleet;
  fleet.default_workers = o.fleet_workers;
  fleet.deadline_ms = o.fleet_deadline_ms;
  fleet.steal_after_ms = o.fleet_steal_after_ms;
  fleet.partial_cache_bytes = o.fleet_partial_cache_bytes;
  fleet.default_chase = o.default_chase;
  return fleet;
}

}  // namespace

InferenceService::InferenceService(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      fleet_(&registry_, &cache_, FleetOptionsFrom(options_)) {}

HttpResponse InferenceService::Handle(const HttpRequest& request) {
  const uint64_t start_ns = MonotonicNanos();
  counters_.requests.Add();
  // The API surface lives under /v1/; any other target is a 404.
  const bool versioned = request.target.rfind("/v1/", 0) == 0;
  const std::string target = versioned ? request.target.substr(3) : "";
  // Trace propagation: adopt the caller's well-formed id (so a multi-hop
  // request keeps one id end to end), mint one otherwise. Every response —
  // error envelopes included — echoes it.
  std::string trace;
  if (const std::string* header = request.FindHeader(kTraceHeader);
      header != nullptr && IsValidTraceId(*header)) {
    trace = *header;
  } else {
    trace = GenerateTraceId();
  }
  HttpResponse response =
      versioned ? Route(request, target, trace)
                : ErrorResponse(Status::NotFound("no such resource: " +
                                                 request.target));
  response.headers.emplace_back(kTraceHeader, trace);
  request_hist_[EndpointFor(target)].RecordNanos(MonotonicNanos() -
                                                 start_ns);
  return response;
}

InferenceService::Endpoint InferenceService::EndpointFor(
    const std::string& target) {
  if (target == "/healthz") return kHealthz;
  if (target == "/stats") return kStats;
  if (target == "/metrics") return kMetrics;
  if (target == "/programs") return kPrograms;
  if (target.rfind("/programs/", 0) == 0) return kProgram;
  if (target == "/query") return kQuery;
  if (target == "/sample") return kSample;
  if (target == "/shards") return kShards;
  if (target == "/jobs") return kJobs;
  return kOther;
}

const char* InferenceService::EndpointName(Endpoint endpoint) {
  switch (endpoint) {
    case kHealthz: return "healthz";
    case kStats: return "stats";
    case kMetrics: return "metrics";
    case kPrograms: return "programs";
    case kProgram: return "program";
    case kQuery: return "query";
    case kSample: return "sample";
    case kShards: return "shards";
    case kJobs: return "jobs";
    case kOther: return "other";
    case kEndpointCount: break;
  }
  return "other";
}

HttpResponse InferenceService::Route(const HttpRequest& request,
                                     const std::string& target,
                                     const std::string& trace) {
  if (target == "/healthz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleHealthz();
  }
  if (target == "/stats") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleStats();
  }
  if (target == "/metrics") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleMetrics();
  }
  if (target == "/programs") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleRegister(request);
  }
  if (target.rfind("/programs/", 0) == 0) {
    std::string rest = target.substr(sizeof("/programs/") - 1);
    bool db_subresource = false;
    size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      if (rest.substr(slash) != "/db") {
        return ErrorResponse(
            Status::NotFound("no such resource: " + target));
      }
      db_subresource = true;
      rest = rest.substr(0, slash);
    }
    if (rest.empty()) {
      return ErrorResponse(Status::NotFound("no such resource: " + target));
    }
    return HandleProgram(request, rest, db_subresource);
  }
  if (target == "/query") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleQuery(request);
  }
  if (target == "/sample") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleSample(request);
  }
  if (target == "/shards") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return fleet_.HandleShards(request);
  }
  if (target == "/jobs") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return fleet_.HandleJobs(request, trace);
  }
  return ErrorResponse(Status::NotFound("no such resource: " + target));
}

HttpResponse InferenceService::HandleRegister(const HttpRequest& request) {
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto spec = ParseProgramSpec(*body);
  if (!spec.ok()) return ErrorResponse(spec.status());

  auto info = registry_.Register(std::move(*spec));
  if (!info.ok()) return ErrorResponse(info.status());
  JsonWriter json;
  WriteInfo(json, *info);
  return JsonResponse(info->created ? 201 : 200, json.str() + "\n");
}

HttpResponse InferenceService::HandleProgram(const HttpRequest& request,
                                             const std::string& id,
                                             bool db_subresource) {
  if (db_subresource) {
    if (request.method == "PUT") {
      auto body = ParseBody(request);
      if (!body.ok()) return ErrorResponse(body.status());
      auto db = RequiredString(*body, "db");
      if (!db.ok()) return ErrorResponse(db.status());
      auto info = registry_.ReplaceDatabase(id, std::move(*db));
      if (!info.ok()) return ErrorResponse(info.status());
      // Every cache line of the old revision is now unreachable via
      // fingerprints; drop them eagerly rather than waiting for LRU aging.
      // Same for this node's worker-side partial lines (remote workers'
      // caches need no invalidation — their keys pin revision + lineage,
      // so stale entries are unreachable there too and just age out).
      cache_.ErasePrefix(id + "|");
      fleet_.InvalidatePartials(id + "|");
      JsonWriter json;
      WriteInfo(json, *info);
      return JsonResponse(200, json.str() + "\n");
    }
    if (request.method == "PATCH") {
      auto body = ParseBody(request);
      if (!body.ok()) return ErrorResponse(body.status());
      auto delta = RequiredString(*body, "delta");
      if (!delta.ok()) return ErrorResponse(delta.status());
      // When the delta's predicates occur in no rule body of Π, every
      // outcome space of the old lineage equals the new one minus the
      // appended facts (splitting-set argument in ROADMAP): the entries are
      // carried over — patched with the new facts — instead of re-chased.
      // Their new keys get in-flight markers inside the registry's publish,
      // so no query sees the new lineage before a marker it can wait on.
      InferenceCache::Revalidation revalidation;
      auto on_publish = [&](const ProgramRegistry::DeltaResult& result) {
        if (result.touches_rule_bodies) return;
        revalidation = cache_.BeginRevalidate(
            id + "|",
            InferenceCache::KeyPrefix(id, result.base_revision,
                                      result.old_lineage_digest),
            InferenceCache::KeyPrefix(id, result.info.revision,
                                      result.new_lineage_digest));
      };
      auto applied = registry_.ApplyDatabaseDelta(id, *delta, on_publish);
      if (!applied.ok()) return ErrorResponse(applied.status());
      // Partial lines always pin revision + lineage, so post-delta lookups
      // can never hit the old entries; dropping them is eager hygiene.
      fleet_.InvalidatePartials(id + "|");
      size_t revalidated = 0;
      size_t evicted = 0;
      if (applied->touches_rule_bodies) {
        // The delta can change grounding fixpoints: every cached space for
        // this program is stale. Drop them all.
        evicted = cache_.ErasePrefix(id + "|");
      } else {
        const std::vector<GroundAtom>& added = applied->added_facts;
        revalidated = cache_.FinishRevalidate(
            std::move(revalidation),
            [&added](const AnswerIndex& index) {
              return index.WithAddedFacts(added);
            },
            &evicted);
      }
      counters_.spaces_revalidated.Add(revalidated);
      counters_.spaces_evicted.Add(evicted);

      const DeltaStats& stats = applied->stats;
      JsonWriter json;
      json.BeginObject();
      json.KV("id", applied->info.id);
      json.KV("revision", static_cast<long long>(applied->info.revision));
      json.KV("stratified", applied->info.stratified);
      json.KV("grounder", applied->info.grounder);
      json.KV("created", applied->info.created);
      json.Key("delta").BeginObject();
      json.KV("base_revision",
              static_cast<long long>(applied->base_revision));
      json.KV("lineage", applied->new_lineage_digest);
      json.KV("rows_appended", static_cast<long long>(stats.rows_appended));
      json.KV("duplicates_skipped",
              static_cast<long long>(stats.duplicates_skipped));
      json.KV("predicates_touched",
              static_cast<long long>(stats.predicates_touched));
      json.KV("touches_rule_bodies", applied->touches_rule_bodies);
      json.KV("spaces_revalidated", static_cast<long long>(revalidated));
      json.KV("spaces_evicted", static_cast<long long>(evicted));
      json.EndObject();
      json.EndObject();
      return JsonResponse(200, json.str() + "\n");
    }
    return MethodNotAllowed("PUT, PATCH");
  }
  if (request.method == "GET") {
    auto entry = registry_.Find(id);
    if (entry == nullptr) {
      return ErrorResponse(Status::NotFound("unknown program id: " + id));
    }
    JsonWriter json;
    WriteInfo(json, ProgramRegistry::InfoFor(*entry, /*created=*/false));
    return JsonResponse(200, json.str() + "\n");
  }
  if (request.method == "DELETE") {
    Status status = registry_.Remove(id);
    if (!status.ok()) return ErrorResponse(status);
    cache_.ErasePrefix(id + "|");
    fleet_.InvalidatePartials(id + "|");
    return JsonResponse(200, "{\"deleted\":true}\n");
  }
  return MethodNotAllowed("GET, DELETE");
}

HttpResponse InferenceService::HandleQuery(const HttpRequest& request) {
  counters_.queries.Add();
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto id = RequiredString(*body, "program_id");
  if (!id.ok()) return ErrorResponse(id.status());
  auto entry = registry_.Find(*id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown program id: " + *id));
  }
  auto chase = ReadChaseOptions(*body, options_.default_chase);
  if (!chase.ok()) return ErrorResponse(chase.status());

  // Marginal queries name their goals, which lets the magic-sets demand
  // restriction drop every Δ-choice outside the goals' (and the
  // constraints') dependency cone before the chase runs. Only sound for stratified
  // programs, and only for this path: the full-document path must stay
  // byte-identical to `gdlog_cli --json`, so it always uses the base
  // engine. Queried predicates all become goals, so their marginals (and
  // prob_consistent — constraint cones are always kept) are exact. A name
  // the program never interned occurs in no outcome (its marginal is 0)
  // and demands nothing, so only the names that resolve make up the goal
  // signature; with none, the query runs on the base engine.
  const JsonValue* queries = body->Find("queries");
  std::vector<std::string> names;
  bool all_named = queries != nullptr && queries->is_array();
  if (all_named) {
    for (const JsonValue& query : queries->array()) {
      std::string name =
          query.is_string() ? QueryPredicateName(query.string_value()) : "";
      if (name.empty()) {
        all_named = false;
        break;
      }
      names.push_back(std::move(name));
    }
  }

  // A PATCH can supersede `entry` between Find() and the cache lookup and
  // re-key its cached spaces to the new lineage. Chasing the old lineage
  // then would build a space nothing reads again, so a miss first checks
  // that `entry` is still live and, if not, re-reads it and retries; the
  // new lineage's key is cached or has a revalidation marker to wait on.
  // After kSnapshotRetries the lookup chases whatever snapshot it holds.
  // A removed program keeps its snapshot (the query answers as before).
  constexpr int kSnapshotRetries = 4;
  const GDatalog* engine = nullptr;
  std::shared_ptr<const GDatalog> demand_holder;
  Result<InferenceCache::IndexPtr> space = InferenceCache::IndexPtr();
  uint64_t compute_ns = 0;
  uint64_t lookup_ns = 0;
  for (int attempt = 0;; ++attempt) {
    engine = &entry->engine;
    demand_holder.reset();
    std::string demand_suffix;
    std::vector<std::string> goals;
    if (all_named && entry->engine.stratified()) {
      const Interner& interned = *entry->engine.program().interner();
      for (const std::string& name : names) {
        if (interned.Lookup(name) != Interner::kNotFound) {
          goals.push_back(name);
        }
      }
    }
    if (!goals.empty()) {
      auto demand = registry_.DemandEngine(*entry, goals);
      // Failure to build a demand engine is never a query failure, and past
      // the per-entry cap none is built: either way the base engine answers
      // (same marginals, just less pruning).
      if (demand.ok() && *demand != nullptr) {
        demand_holder = std::move(*demand);
        engine = demand_holder.get();
        demand_suffix = "|demand:" + ProgramRegistry::DemandSignature(goals);
      }
    }
    std::string key =
        InferenceCache::Fingerprint(entry->id, entry->revision,
                                    entry->lineage_digest, *chase) +
        demand_suffix;
    InferenceCache::CurrentFn current;
    if (attempt < kSnapshotRetries) {
      current = [&] {
        auto live = registry_.Find(entry->id);
        return live == nullptr || live == entry;
      };
    }
    // The chase histogram sees only cache-miss computes; the lookup
    // histogram sees LookupOrCompute's own overhead (total minus compute),
    // so a hot cache shows up as microsecond lookups, not zero-cost chases.
    const uint64_t lookup_start_ns = MonotonicNanos();
    space = cache_.LookupOrCompute(
        key,
        [&]() -> Result<OutcomeSpace> {
          const uint64_t chase_start_ns = MonotonicNanos();
          if (chase->profile) {
            ChaseProfile profile;
            Result<OutcomeSpace> result = engine->Infer(*chase, &profile);
            if (result.ok()) {
              RecordRuleProfiles(entry->id, engine->SigmaRuleLabels(),
                                 profile);
            }
            compute_ns = MonotonicNanos() - chase_start_ns;
            return result;
          }
          Result<OutcomeSpace> result = engine->Infer(*chase);
          compute_ns = MonotonicNanos() - chase_start_ns;
          return result;
        },
        current);
    lookup_ns += MonotonicNanos() - lookup_start_ns;
    if (!space.ok() || *space != nullptr) break;
    if (auto live = registry_.Find(entry->id)) entry = std::move(live);
  }
  if (demand_holder != nullptr) counters_.demand_queries.Add();
  cache_lookup_hist_.RecordNanos(
      lookup_ns >= compute_ns ? lookup_ns - compute_ns : 0);
  if (compute_ns != 0) chase_hist_.RecordNanos(compute_ns);
  if (!space.ok()) return ErrorResponse(space.status());
  const AnswerIndex& answers = **space;
  if (queries == nullptr) {
    auto include_outcomes = OptionalBool(*body, "include_outcomes", false);
    auto include_models = OptionalBool(*body, "include_models", false);
    auto include_events = OptionalBool(*body, "include_events", false);
    if (!include_outcomes.ok()) return ErrorResponse(include_outcomes.status());
    if (!include_models.ok()) return ErrorResponse(include_models.status());
    if (!include_events.ok()) return ErrorResponse(include_events.status());
    JsonExportOptions json_options;
    json_options.include_outcomes = *include_outcomes;
    json_options.include_models = *include_models;
    json_options.include_events = *include_events;
    // This body — including the trailing newline — is byte-identical to
    // `gdlog_cli --json` stdout for the same program/DB/options, which is
    // what makes the server a drop-in for scripted batch runs.
    return JsonResponse(
        200, OutcomeSpaceToJson(answers, entry->engine.translated(),
                                entry->engine.program().interner(),
                                json_options) +
                 "\n");
  }

  if (!queries->is_array()) {
    return ErrorResponse(
        Status::InvalidArgument("'queries' must be an array of atoms"));
  }
  auto condition = OptionalBool(*body, "condition", false);
  if (!condition.ok()) return ErrorResponse(condition.status());

  JsonWriter json;
  json.BeginObject();
  json.KV("program_id", entry->id);
  json.KV("revision", static_cast<long long>(entry->revision));
  json.KV("complete", answers.space().complete);
  json.Key("prob_consistent");
  WriteProbJson(json, answers.prob_consistent());
  json.KV("condition", *condition);
  json.Key("marginals").BeginArray();
  for (const JsonValue& query : queries->array()) {
    if (!query.is_string()) {
      return ErrorResponse(
          Status::InvalidArgument("'queries' must be an array of atoms"));
    }
    const std::string& text = query.string_value();
    auto atom = engine->LookupGroundAtom(text);
    bool unknown_name = !atom.ok() &&
                        atom.status().code() == StatusCode::kNotFound;
    if (!atom.ok() && !unknown_name) {
      return ErrorResponse(Status::InvalidArgument(
          "bad query '" + text + "': " + atom.status().message()));
    }
    json.BeginObject();
    json.KV("atom", text);
    if (*condition) {
      // An unknown name occurs in no outcome: conditioned bounds are
      // exactly [0, 0] (or undefined when P(consistent) = 0), the same
      // answer MarginalGivenConsistent gives a known-but-absent atom.
      std::optional<OutcomeSpace::Bounds> bounds;
      if (unknown_name) {
        if (!(answers.prob_consistent() == Prob::Zero())) {
          bounds = OutcomeSpace::Bounds{};
        }
      } else {
        bounds = answers.MarginalGivenConsistent(*atom);
      }
      if (!bounds) {
        json.KV("undefined", true);
      } else {
        json.Key("lower");
        WriteProbJson(json, bounds->lower);
        json.Key("upper");
        WriteProbJson(json, bounds->upper);
      }
    } else {
      OutcomeSpace::Bounds bounds;
      if (!unknown_name) bounds = answers.Marginal(*atom);
      json.Key("lower");
      WriteProbJson(json, bounds.lower);
      json.Key("upper");
      WriteProbJson(json, bounds.upper);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return JsonResponse(200, json.str() + "\n");
}

HttpResponse InferenceService::HandleSample(const HttpRequest& request) {
  counters_.samples.Add();
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto id = RequiredString(*body, "program_id");
  if (!id.ok()) return ErrorResponse(id.status());
  auto entry = registry_.Find(*id);
  if (entry == nullptr) {
    return ErrorResponse(Status::NotFound("unknown program id: " + *id));
  }
  auto samples = OptionalU64(*body, "samples", 0);
  if (!samples.ok()) return ErrorResponse(samples.status());
  if (*samples == 0) {
    return ErrorResponse(
        Status::InvalidArgument("'samples' must be a positive integer"));
  }
  if (*samples > options_.max_samples) {
    return ErrorResponse(Status::InvalidArgument(
        "'samples' exceeds the server limit of " +
        std::to_string(options_.max_samples)));
  }
  auto seed = OptionalU64(*body, "seed", 2023);
  if (!seed.ok()) return ErrorResponse(seed.status());
  auto chase = ReadChaseOptions(*body, options_.default_chase);
  if (!chase.ok()) return ErrorResponse(chase.status());

  // Every query resolves before the first walk, so a malformed one costs
  // no sampling. A name the program never interned occurs in no sample:
  // its marginal is an exact zero and the pass does not test for it.
  constexpr size_t kNeverInterned = static_cast<size_t>(-1);
  const JsonValue* queries = body->Find("queries");
  std::vector<GroundAtom> atoms;
  std::vector<size_t> atom_index;  // per query: into `atoms` or kNeverInterned
  if (queries != nullptr) {
    if (!queries->is_array()) {
      return ErrorResponse(
          Status::InvalidArgument("'queries' must be an array of atoms"));
    }
    for (const JsonValue& query : queries->array()) {
      if (!query.is_string()) {
        return ErrorResponse(
            Status::InvalidArgument("'queries' must be an array of atoms"));
      }
      auto atom = entry->engine.LookupGroundAtom(query.string_value());
      if (!atom.ok() && atom.status().code() == StatusCode::kNotFound) {
        atom_index.push_back(kNeverInterned);
        continue;
      }
      if (!atom.ok()) {
        return ErrorResponse(
            Status::InvalidArgument("bad query '" + query.string_value() +
                                    "': " + atom.status().message()));
      }
      atom_index.push_back(atoms.size());
      atoms.push_back(std::move(*atom));
    }
  }

  auto result = EstimateByMonteCarlo(entry->engine.chase(), *chase, *samples,
                                     *seed, atoms);
  if (!result.ok()) return ErrorResponse(result.status());

  JsonWriter json;
  json.BeginObject();
  json.KV("program_id", entry->id);
  json.KV("samples", static_cast<long long>(result->samples));
  json.KV("truncated", static_cast<long long>(result->truncated));
  json.Key("prob_consistent");
  WriteEstimate(json, result->consistent);
  if (queries != nullptr) {
    const MonteCarloResult::Bounds zero;
    json.Key("marginals").BeginArray();
    for (size_t q = 0; q < atom_index.size(); ++q) {
      const MonteCarloResult::Bounds& bounds =
          atom_index[q] == kNeverInterned ? zero
                                          : result->marginals[atom_index[q]];
      json.BeginObject();
      json.KV("atom", queries->array()[q].string_value());
      json.Key("lower");
      WriteEstimate(json, bounds.lower);
      json.Key("upper");
      WriteEstimate(json, bounds.upper);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  return JsonResponse(200, json.str() + "\n");
}

HttpResponse InferenceService::HandleHealthz() {
  JsonWriter json;
  json.BeginObject();
  json.KV("status", "ok");
  json.KV("version", GdlogVersion());
  json.KV("uptime_s", UptimeSeconds());
  json.KV("pid", static_cast<long long>(::getpid()));
  json.KV("fleet_workers_configured",
          static_cast<long long>(options_.fleet_workers.size()));
  json.EndObject();
  return JsonResponse(200, json.str() + "\n");
}

double InferenceService::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

InferenceService::Snapshot InferenceService::TakeSnapshot() const {
  return Snapshot{counters_,
                  registry_.size(),
                  cache_.stats(),
                  registry_.opt_counters(),
                  registry_.delta_counters(),
                  fleet_.counters()};
}

const std::vector<Series<InferenceService::Snapshot>>&
InferenceService::SeriesTable() {
  using S = Snapshot;
  constexpr SeriesKind kCounter = SeriesKind::kCounter;
  constexpr SeriesKind kGauge = SeriesKind::kGauge;
  static const std::vector<Series<Snapshot>> table = {
      {"server", "requests.total", "gdlog_http_requests_total", kCounter,
       "HTTP requests routed (all endpoints).",
       [](const S& s) -> uint64_t { return s.server.requests; }},
      {"server", "requests.queries", "gdlog_queries_total", kCounter,
       "POST /v1/query requests.",
       [](const S& s) -> uint64_t { return s.server.queries; }},
      {"server", "requests.samples", "gdlog_samples_total", kCounter,
       "POST /v1/sample requests.",
       [](const S& s) -> uint64_t { return s.server.samples; }},
      {"registry", "programs", "gdlog_registry_programs", kGauge,
       "Programs currently registered.",
       [](const S& s) -> uint64_t { return s.programs; }},

      {"cache", "hits", "gdlog_cache_hits_total", kCounter,
       "Inference cache lookups served from memory.",
       [](const S& s) -> uint64_t { return s.cache.hits; }},
      {"cache", "misses", "gdlog_cache_misses_total", kCounter,
       "Inference cache lookups that computed.",
       [](const S& s) -> uint64_t { return s.cache.misses; }},
      {"cache", "coalesced", "gdlog_cache_coalesced_total", kCounter,
       "Lookups that waited on another thread's compute.",
       [](const S& s) -> uint64_t { return s.cache.coalesced; }},
      {"cache", "evictions", "gdlog_cache_evictions_total", kCounter,
       "Cache entries evicted (LRU or invalidation).",
       [](const S& s) -> uint64_t { return s.cache.evictions; }},
      {"cache", "inserts", "gdlog_cache_inserts_total", kCounter,
       "Cache entries inserted.",
       [](const S& s) -> uint64_t { return s.cache.inserts; }},
      {"cache", "revalidated", "gdlog_cache_revalidated_total", kCounter,
       "Cache entries carried across a database delta.",
       [](const S& s) -> uint64_t { return s.cache.revalidated; }},
      {"cache", "entries", "gdlog_cache_entries", kGauge,
       "Cache entries resident.",
       [](const S& s) -> uint64_t { return s.cache.entries; }},
      {"cache", "bytes", "gdlog_cache_bytes", kGauge,
       "Approximate cache bytes resident.",
       [](const S& s) -> uint64_t { return s.cache.bytes; }},
      {"cache", "capacity_bytes", "gdlog_cache_capacity_bytes", kGauge,
       "Cache byte capacity.",
       [](const S& s) -> uint64_t { return s.cache.capacity_bytes; }},

      {"opt", "db_replacements", "gdlog_opt_db_replacements_total", kCounter,
       "PUT /db database replacements.",
       [](const S& s) -> uint64_t { return s.opt.db_replacements; }},
      {"opt", "demand_engines_built", "gdlog_opt_demand_engines_built_total",
       kCounter, "Demand-transformed engines built.",
       [](const S& s) -> uint64_t { return s.opt.demand_engines_built; }},
      {"opt", "demand_cache_hits", "gdlog_opt_demand_cache_hits_total",
       kCounter, "Demand-engine cache hits.",
       [](const S& s) -> uint64_t { return s.opt.demand_cache_hits; }},
      {"opt", "demand_queries", "gdlog_demand_queries_total", kCounter,
       "Marginal queries served through a demand-transformed engine.",
       [](const S& s) -> uint64_t { return s.server.demand_queries; }},

      {"delta", "patches", "gdlog_delta_patches_total", kCounter,
       "PATCH /db deltas applied.",
       [](const S& s) -> uint64_t { return s.delta.deltas_applied; }},
      {"delta", "rows_appended", "gdlog_delta_rows_appended_total", kCounter,
       "Facts appended by deltas.",
       [](const S& s) -> uint64_t { return s.delta.rows_appended; }},
      {"delta", "spaces_revalidated", "gdlog_delta_spaces_revalidated_total",
       kCounter, "Cached outcome spaces revalidated across a delta.",
       [](const S& s) -> uint64_t { return s.server.spaces_revalidated; }},
      {"delta", "spaces_evicted", "gdlog_delta_spaces_evicted_total",
       kCounter, "Cached outcome spaces evicted by a delta.",
       [](const S& s) -> uint64_t { return s.server.spaces_evicted; }},

      {"fleet", "shard_requests", "gdlog_fleet_shard_requests_total",
       kCounter, "POST /v1/shards requests served.",
       [](const S& s) -> uint64_t { return s.fleet.shard_requests; }},
      {"fleet", "shards_explored", "gdlog_fleet_shards_explored_total",
       kCounter, "Shard indices explored locally.",
       [](const S& s) -> uint64_t { return s.fleet.shards_explored; }},
      {"fleet", "jobs", "gdlog_fleet_jobs_total", kCounter,
       "POST /v1/jobs requests.",
       [](const S& s) -> uint64_t { return s.fleet.jobs; }},
      {"fleet", "jobs_failed", "gdlog_fleet_jobs_failed_total", kCounter,
       "Jobs that returned non-2xx.",
       [](const S& s) -> uint64_t { return s.fleet.jobs_failed; }},
      {"fleet", "dispatches", "gdlog_fleet_dispatches_total", kCounter,
       "Worker exchanges attempted.",
       [](const S& s) -> uint64_t { return s.fleet.dispatches; }},
      {"fleet", "retries", "gdlog_fleet_retries_total", kCounter,
       "Shard groups re-dispatched.",
       [](const S& s) -> uint64_t { return s.fleet.retries; }},
      {"fleet", "steals", "gdlog_fleet_steals_total", kCounter,
       "Straggler exchanges stolen by idle workers.",
       [](const S& s) -> uint64_t { return s.fleet.steals; }},
      {"fleet", "worker_failures", "gdlog_fleet_worker_failures_total",
       kCounter, "Worker exchanges that failed.",
       [](const S& s) -> uint64_t { return s.fleet.worker_failures; }},
      {"fleet", "partials_merged", "gdlog_fleet_partials_merged_total",
       kCounter, "Partials merged into job results.",
       [](const S& s) -> uint64_t { return s.fleet.partials_merged; }},
      {"fleet", "partials_streamed", "gdlog_fleet_partials_streamed_total",
       kCounter, "Partial lines received mid-exchange (pre-dedup).",
       [](const S& s) -> uint64_t { return s.fleet.partials_streamed; }},
      {"fleet", "duplicate_partials", "gdlog_fleet_duplicate_partials_total",
       kCounter, "Late duplicate partial lines discarded.",
       [](const S& s) -> uint64_t { return s.fleet.duplicate_partials; }},
      {"fleet", "partial_cache_hits", "gdlog_fleet_partial_cache_hits_total",
       kCounter, "Worker partial-cache lines served without a chase.",
       [](const S& s) -> uint64_t { return s.fleet.partial_cache_hits; }},
      {"fleet", "partial_cache_misses",
       "gdlog_fleet_partial_cache_misses_total", kCounter,
       "Worker partial-cache misses that ran the chase.",
       [](const S& s) -> uint64_t { return s.fleet.partial_cache_misses; }},
      {"fleet", "jobs_in_flight", "gdlog_fleet_jobs_in_flight", kGauge,
       "Coordinator jobs currently dispatching.",
       [](const S& s) -> uint64_t { return s.fleet.jobs_in_flight; }},
      {"fleet", "peak_resident_partials", "gdlog_fleet_peak_resident_partials",
       kGauge, "High-water mark of partials resident on the coordinator.",
       [](const S& s) -> uint64_t { return s.fleet.peak_resident_partials; }},
  };
  return table;
}

void InferenceService::RecordRuleProfiles(
    const std::string& program_id,
    const std::vector<std::string>& rule_labels,
    const ChaseProfile& profile) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  std::map<std::string, RuleProfile>& rules = rule_profiles_[program_id];
  for (size_t i = 0; i < profile.rules.size(); ++i) {
    const RuleProfile& rp = profile.rules[i];
    if (rp.calls == 0 && rp.derivations == 0) continue;
    std::string label =
        i < rule_labels.size() ? rule_labels[i] : "r" + std::to_string(i);
    rules[label].Add(rp);
  }
}

HttpResponse InferenceService::HandleStats() {
  const Snapshot snapshot = TakeSnapshot();
  const std::map<std::string, FleetService::WorkerDispatchStats> workers =
      fleet_.WorkerDispatches();
  // Counters nest under one stable key per subsystem (server, registry,
  // cache, opt, delta, fleet), in table order — the schema clients
  // (gdlog_load --check, the CI greps) key on. Two entries are not table
  // rows: the uptime opens "server", and the per-worker block closes
  // "fleet".
  JsonWriter json;
  json.BeginObject();
  std::string_view section;
  std::string_view group;  // the open prefix of a dotted key, if any
  auto close_section = [&] {
    if (!group.empty()) json.EndObject();
    if (section == "fleet") {
      // Per-worker exchange latency, keyed by address. Quantiles are
      // bucket upper bounds (log-scale histogram) — coarse but monotone,
      // enough to single out a straggler worker at a glance.
      json.Key("workers").BeginObject();
      for (const auto& [worker, stats] : workers) {
        json.Key(worker).BeginObject();
        json.KV("dispatches", static_cast<long long>(stats.dispatches));
        json.KV("p50_ms", HistogramQuantileMs(stats.hist, 0.50));
        json.KV("p95_ms", HistogramQuantileMs(stats.hist, 0.95));
        json.KV("max_ms", static_cast<double>(stats.max_ns) / 1e6);
        json.EndObject();
      }
      json.EndObject();
    }
    json.EndObject();
  };
  for (const Series<Snapshot>& row : SeriesTable()) {
    std::string_view key = row.key;
    std::string_view row_group;
    if (size_t dot = key.find('.'); dot != std::string_view::npos) {
      row_group = key.substr(0, dot);
      key = key.substr(dot + 1);
    }
    if (row.section != section) {
      if (!section.empty()) close_section();
      section = row.section;
      group = {};
      json.Key(section).BeginObject();
      if (section == "server") json.KV("uptime_seconds", UptimeSeconds());
    }
    if (row_group != group) {
      if (!group.empty()) json.EndObject();
      group = row_group;
      if (!group.empty()) json.Key(group).BeginObject();
    }
    json.KV(key, static_cast<long long>(row.value(snapshot)));
  }
  close_section();
  json.EndObject();
  return JsonResponse(200, json.str() + "\n");
}

HttpResponse InferenceService::HandleMetrics() {
  const Snapshot snapshot = TakeSnapshot();
  MetricsWriter metrics;
  metrics.Gauge("gdlog_build_info",
                "Build metadata; the value is always 1.",
                "version=\"" + EscapeLabelValue(GdlogVersion()) + "\"", 1.0);
  metrics.Gauge("gdlog_uptime_seconds",
                "Seconds since the service started.", "", UptimeSeconds());
  for (const Series<Snapshot>& row : SeriesTable()) {
    const uint64_t value = row.value(snapshot);
    if (row.kind == SeriesKind::kCounter) {
      metrics.Counter(row.metric, row.help, "", value);
    } else {
      metrics.Gauge(row.metric, row.help, "", static_cast<double>(value));
    }
  }

  for (size_t i = 0; i < kEndpointCount; ++i) {
    metrics.Histogram(
        "gdlog_request_duration_seconds",
        "Request latency by endpoint.",
        std::string("endpoint=\"") +
            EndpointName(static_cast<Endpoint>(i)) + "\"",
        request_hist_[i].TakeSnapshot());
  }
  metrics.Histogram("gdlog_chase_duration_seconds",
                    "Chase wall time of cache-miss query computes.", "",
                    chase_hist_.TakeSnapshot());
  metrics.Histogram("gdlog_cache_lookup_duration_seconds",
                    "Inference-cache lookup overhead (compute excluded).",
                    "", cache_lookup_hist_.TakeSnapshot());
  metrics.Histogram("gdlog_fleet_dispatch_duration_seconds",
                    "Per-group worker exchange latency (each attempt).",
                    "", fleet_.dispatch_histogram().TakeSnapshot());
  for (const auto& [worker, stats] : fleet_.WorkerDispatches()) {
    metrics.Histogram("gdlog_fleet_worker_dispatch_duration_seconds",
                      "Worker exchange latency by worker address.",
                      "worker=\"" + EscapeLabelValue(worker) + "\"",
                      stats.hist);
  }

  {
    // Per-rule chase-profile totals, fed by profiled queries
    // ("profile": true). std::map iteration keeps label order — and hence
    // the exposition — deterministic for a given counter state.
    std::lock_guard<std::mutex> lock(profile_mu_);
    for (const auto& [program_id, rules] : rule_profiles_) {
      std::string program_label =
          "program=\"" + EscapeLabelValue(program_id) + "\",rule=\"";
      for (const auto& [rule_label, rp] : rules) {
        std::string labels =
            program_label + EscapeLabelValue(rule_label) + "\"";
        metrics.Counter("gdlog_rule_calls_total",
                        "Profiled (rule, pivot) executor invocations.",
                        labels, rp.calls);
        metrics.Counter("gdlog_rule_bindings_total",
                        "Profiled join rows enumerated.", labels,
                        rp.bindings);
        metrics.Counter("gdlog_rule_derivations_total",
                        "Profiled ground instances derived (pre-dedup).",
                        labels, rp.derivations);
        metrics.CounterSeconds("gdlog_rule_time_seconds_total",
                               "Profiled wall time in the join executor.",
                               labels, rp.time_ns);
      }
    }
  }

  HttpResponse response = JsonResponse(200, metrics.Take());
  response.content_type = kMetricsContentType;
  return response;
}

}  // namespace gdlog
