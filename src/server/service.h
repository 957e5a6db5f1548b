#ifndef GDLOG_SERVER_SERVICE_H_
#define GDLOG_SERVER_SERVICE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gdatalog/chase.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/series.h"
#include "server/cache.h"
#include "server/fleet.h"
#include "server/http.h"
#include "server/registry.h"

namespace gdlog {

/// The gdlogd endpoint surface, factored away from the socket layer so
/// tests (and benchmarks) drive it in-process. Every method is
/// thread-safe; one instance serves every connection.
///
/// The surface is versioned: every endpoint lives under /v1/ (the full
/// contract — methods, schemas, error codes — is documented in
/// docs/API.md), and any other target is a 404. Every non-2xx response,
/// HTTP framing layer included, carries the uniform
/// {"error":{"code","message"}} envelope.
///
/// Endpoints (all request bodies are JSON):
///
///   POST   /v1/programs          register {program, db?, grounder?,
///                                extensions?, normalgrid_max_cells?};
///                                idempotent per spec; returns {id,
///                                revision, stratified, grounder, created}
///   GET    /v1/programs/<id>     registration info
///   PUT    /v1/programs/<id>/db  replace the database: {db}; bumps
///                                revision, starts a fresh delta lineage
///   PATCH  /v1/programs/<id>/db  apply a fact delta: {delta}; appends
///                                facts in cost proportional to the delta,
///                                bumps revision, chains the lineage
///                                digest, and either revalidates cached
///                                outcome spaces (delta provably outside
///                                every rule body) or evicts them; 409 on
///                                concurrent update
///   DELETE /v1/programs/<id>     unregister (drops the cache lines)
///   POST   /v1/query             exact inference: {program_id, options?,
///                                include_outcomes?, include_models?,
///                                include_events?, queries?, condition?}.
///                                Without "queries" the response body is
///                                the OutcomeSpaceToJson document —
///                                byte-identical to `gdlog_cli --json`
///                                with matching flags. With "queries" it
///                                reports credal marginal bounds per atom.
///                                Served through the InferenceCache.
///   POST   /v1/sample            Monte-Carlo: {program_id, samples,
///                                seed?, queries?, options?}; never cached
///   POST   /v1/shards            fleet worker: explore shard indices of
///                                a deterministic shard plan (fleet.h)
///   POST   /v1/jobs              fleet coordinator: distribute a query
///                                across workers and merge (fleet.h)
///   GET    /v1/healthz           liveness: {"status":"ok", version,
///                                uptime_s, pid}
///   GET    /v1/stats             per-subsystem counters: {server,
///                                registry, cache, opt, delta, fleet}
///   GET    /v1/metrics           Prometheus text exposition: every
///                                /v1/stats counter plus latency
///                                histograms and per-rule chase-profile
///                                totals
///
/// /v1/stats and /v1/metrics both render every scalar counter from one
/// table (SeriesTable), so a counter is declared once: a field in its
/// subsystem's counter struct plus one table row.
///
/// Every response (errors included) echoes a request trace id on the
/// X-Gdlog-Trace header: the caller's value when it sent a well-formed
/// one, a freshly minted id otherwise. /v1/jobs forwards the id to every
/// worker exchange, so one id follows a query across the whole fleet.
class InferenceService {
 public:
  struct Options {
    /// InferenceCache bound.
    size_t cache_bytes = 256ull * 1024 * 1024;
    /// Baseline ChaseOptions for /query; requests override individual
    /// fields. Defaults match `gdlog_cli` so responses compare bytewise.
    ChaseOptions default_chase;
    /// Ceiling on /sample's sample count per request (untrusted input).
    size_t max_samples = 10'000'000;
    /// Default worker list for /v1/jobs (requests may override).
    std::vector<std::string> fleet_workers;
    /// Per-exchange deadline for fleet worker requests.
    int fleet_deadline_ms = 60'000;
    /// Age an in-flight worker exchange must reach before an idle worker
    /// may steal its undelivered shard indices.
    int fleet_steal_after_ms = 250;
    /// Worker-side partial cache capacity in bytes (0 disables it).
    size_t fleet_partial_cache_bytes = 64ull * 1024 * 1024;
  };

  explicit InferenceService(Options options);

  /// Routes one request. Never throws; all failures become JSON error
  /// bodies with 4xx/5xx statuses.
  HttpResponse Handle(const HttpRequest& request);

  ProgramRegistry& registry() { return registry_; }
  const InferenceCache& cache() const { return cache_; }
  const FleetService& fleet() const { return fleet_; }

  /// The service's own counters: the live counters and, copied, their
  /// snapshot.
  struct ServiceCounters {
    RelaxedCounter requests;
    RelaxedCounter queries;
    RelaxedCounter samples;
    /// Marginal queries served through a demand-transformed engine.
    RelaxedCounter demand_queries;
    /// Cached outcome spaces carried across a delta (patched + re-keyed)
    /// versus dropped because the delta touched rule bodies.
    RelaxedCounter spaces_revalidated;
    RelaxedCounter spaces_evicted;
  };

  /// Every subsystem's counters at one point in time, each copied once
  /// under its subsystem's own discipline — what /v1/stats and
  /// /v1/metrics render from, so no sum in either mixes two points in
  /// time.
  struct Snapshot {
    ServiceCounters server;
    uint64_t programs = 0;
    InferenceCache::Stats cache;
    ProgramRegistry::OptCounters opt;
    ProgramRegistry::DeltaCounters delta;
    FleetService::Counters fleet;
  };

  /// The counter table: one row per scalar series, in /v1/stats order.
  static const std::vector<Series<Snapshot>>& SeriesTable();

 private:
  /// The per-endpoint request-latency histogram family. kOther covers
  /// unroutable targets (404s); /programs/<id>[/db] maps to kProgram.
  enum Endpoint : size_t {
    kHealthz,
    kStats,
    kMetrics,
    kPrograms,
    kProgram,
    kQuery,
    kSample,
    kShards,
    kJobs,
    kOther,
    kEndpointCount,
  };
  static Endpoint EndpointFor(const std::string& target);
  static const char* EndpointName(Endpoint endpoint);

  Snapshot TakeSnapshot() const;
  double UptimeSeconds() const;

  /// Routes a version-stripped target ("/query" for /v1/query). `trace`
  /// is the request's trace id (already validated or minted by Handle);
  /// handlers that fan out forward it.
  HttpResponse Route(const HttpRequest& request, const std::string& target,
                     const std::string& trace);
  HttpResponse HandleRegister(const HttpRequest& request);
  HttpResponse HandleProgram(const HttpRequest& request,
                             const std::string& id, bool db_subresource);
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleSample(const HttpRequest& request);
  HttpResponse HandleHealthz();
  HttpResponse HandleStats();
  HttpResponse HandleMetrics();

  /// Folds one profiled chase into the per-program rule totals exported by
  /// /v1/metrics. Labels come from the engine that actually ran (base or
  /// demand-transformed), indexed like profile.rules.
  void RecordRuleProfiles(const std::string& program_id,
                          const std::vector<std::string>& rule_labels,
                          const ChaseProfile& profile);

  Options options_;
  ProgramRegistry registry_;
  InferenceCache cache_;
  FleetService fleet_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  ServiceCounters counters_;

  /// Request latency per endpoint, plus the two /query-internal phases:
  /// chase wall time (cache-miss computes only) and cache lookup overhead
  /// (LookupOrCompute time minus compute time).
  std::array<LatencyHistogram, kEndpointCount> request_hist_;
  LatencyHistogram chase_hist_;
  LatencyHistogram cache_lookup_hist_;

  /// Per-program, per-rule chase-profile totals (only fed by profiled
  /// queries — "profile": true). Keyed program id → rule label; registry
  /// entries are immutable snapshots, so the accumulation lives here.
  std::mutex profile_mu_;
  std::map<std::string, std::map<std::string, RuleProfile>> rule_profiles_;
};

}  // namespace gdlog

#endif  // GDLOG_SERVER_SERVICE_H_
