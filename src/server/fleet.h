#ifndef GDLOG_SERVER_FLEET_H_
#define GDLOG_SERVER_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/shard.h"
#include "obs/histogram.h"
#include "obs/series.h"
#include "server/cache.h"
#include "server/http.h"
#include "server/registry.h"

namespace gdlog {

/// Upper bound on a /v1/jobs worker list. A job runs one dispatch thread
/// per worker and keeps one bit per worker in each shard's attempt mask,
/// so a longer list is refused with a 400 before any planning.
constexpr size_t kMaxJobWorkers = 64;

/// The distributed chase dispatcher: the worker and coordinator halves of
/// gdlogd's fleet mode.
///
/// The whole protocol rides on one fact from PR 3: the shard plan is a
/// pure function of (program, database, grounder, options, shard count,
/// prefix depth), and per-shard partials merge — in
/// canonical choice-set order — into a space bit-identical to a
/// single-process run. So there is zero coordination state: a coordinator
/// ships the *query* (program spec + options + shard coordinates), every
/// worker recomputes the identical plan locally, and any worker can take
/// over any other worker's shard indices at any time.
///
///   POST /v1/shards   (worker) — explore shard indices of a plan.
///     Request: {program_id | program[, db, grounder, extensions,
///               normalgrid_max_cells], revision?, lineage?, options?,
///               shards, prefix_depth?, shard_indices: [i...]}
///     The inline-program form registers the spec idempotently (the
///     registry's dedup makes re-sends free) — this is how a coordinator
///     distributes a program to workers that have never seen it; the
///     registry keeps db_text current across deltas, so a shipped spec
///     always reproduces the coordinator's database. Response 200 is
///     application/x-ndjson, Transfer-Encoding: chunked: one
///     PartialSpaceToJson line per requested index, in request order, each
///     emitted as soon as that shard finishes. Lines are served from the
///     worker-side partial cache when the same (fingerprint, plan
///     coordinates, index) was explored before, so retries, steals, and
///     repeated jobs skip the chase.
///
///   POST /v1/jobs     (coordinator) — run a query across a worker fleet.
///     Request: {program_id, options?, workers?: ["host:port"...],
///               shards?, prefix_depth?, deadline_ms?, steal_after_ms?,
///               include_outcomes?, include_models?, include_events?}
///     At most kMaxJobWorkers workers. Plans shards (default: one per
///     worker); each worker first explores its own seed group, and every
///     partial line is folded into a streaming merge accumulator the
///     moment it arrives — the coordinator holds O(1) partials resident,
///     not O(shards). A failed exchange's undelivered indices are orphaned
///     and retried by the remaining healthy workers; an *idle* worker
///     additionally steals the undelivered indices of a straggler's
///     in-flight exchange once it is `steal_after_ms` old (any
///     re-assignment of the pure plan is valid), with the first delivered
///     copy of a shard winning and late duplicates discarded
///     deterministically. Neither rule has a switch: a job that should
///     never steal sets `steal_after_ms` above `deadline_ms`. The merged
///     space is bit-identical to a single-process run, so jobs and /query
///     share cache entries. The 200 body is the same OutcomeSpaceToJson
///     document /query produces (byte-identical to `gdlog_cli --json`).
class FleetService {
 public:
  struct Options {
    /// Default worker list ("host:port") used when a job omits "workers".
    std::vector<std::string> default_workers;
    /// Default per-exchange deadline for worker requests; a worker that
    /// cannot deliver its partials within it — dead, wedged, or trickling
    /// — is abandoned and its shard indices are re-dispatched.
    int deadline_ms = 60'000;
    /// How long a dispatch must have been in flight before an idle worker
    /// may steal its undelivered shard indices (request override:
    /// "steal_after_ms"). High enough that healthy same-speed workers
    /// never duplicate work, low enough that one wedged worker cannot
    /// gate the makespan.
    int steal_after_ms = 250;
    /// Capacity of the worker-side partial cache (serialized NDJSON
    /// lines). 0 disables caching.
    size_t partial_cache_bytes = 64ull * 1024 * 1024;
    /// Baseline ChaseOptions (same as the service's /query defaults).
    ChaseOptions default_chase;
  };

  /// Wall-time span breakdown of one *computed* job (a cache hit computes
  /// nothing, so it has no spans). Every duration here is wall time —
  /// non-deterministic, reported only through the opt-in "spans" response
  /// block and the coordinator's log line, never through byte-identity
  /// surfaces.
  struct JobSpans {
    uint64_t plan_ns = 0;      ///< shard planning
    uint64_t dispatch_ns = 0;  ///< first wave + re-dispatch, end to end
    uint64_t merge_ns = 0;     ///< streaming-merge finish
    /// One entry per worker exchange the job dispatched, in completion
    /// order.
    struct Exchange {
      size_t exchange = 0;  ///< dispatch ordinal within the job
      size_t shards = 0;    ///< shard indices requested
      std::string worker;
      /// "dispatch" (the worker's own seed group), "retry" (orphaned
      /// indices of a failed exchange), or "steal" (speculative duplicate
      /// of a straggler's undelivered indices).
      const char* kind = "dispatch";
      bool ok = false;  ///< the exchange delivered every requested line
      uint64_t time_ns = 0;
    };
    std::vector<Exchange> exchanges;
  };

  /// Aggregated fleet counters: the live counters and, copied, their
  /// snapshot. All monotonic totals except the two gauges called out
  /// below.
  struct Counters {
    RelaxedCounter shard_requests;        ///< /v1/shards requests served.
    RelaxedCounter shards_explored;       ///< Shard indices explored locally.
    RelaxedCounter jobs;                  ///< /v1/jobs requests served.
    RelaxedCounter jobs_failed;           ///< Jobs that returned non-2xx.
    RelaxedCounter dispatches;            ///< Worker exchanges attempted.
    RelaxedCounter retries;               ///< Failed groups re-dispatched.
    RelaxedCounter steals;                ///< Straggler exchanges duplicated.
    RelaxedCounter worker_failures;       ///< Worker exchanges that failed.
    RelaxedCounter partials_merged;       ///< Partials folded into job results.
    RelaxedCounter partials_streamed;     ///< Partial lines received mid-job.
    RelaxedCounter duplicate_partials;    ///< Late duplicate lines discarded.
    RelaxedCounter partial_cache_hits;    ///< Worker cache served the line.
    RelaxedCounter partial_cache_misses;  ///< Worker cache had to chase.
    RelaxedCounter jobs_in_flight;        ///< GAUGE: jobs dispatching now.
    /// GAUGE (high-water): most partials ever resident at once on the
    /// coordinator — bounded by the worker count, not the shard count,
    /// thanks to the streaming merge.
    RelaxedCounter peak_resident_partials;
  };

  /// Per-worker dispatch latency, keyed by "host:port".
  struct WorkerDispatchStats {
    uint64_t dispatches = 0;
    uint64_t max_ns = 0;
    LatencyHistogram::Snapshot hist;
  };

  /// Both pointees must outlive the service (the owning InferenceService
  /// guarantees this).
  FleetService(ProgramRegistry* registry, InferenceCache* cache,
               Options options)
      : registry_(registry),
        cache_(cache),
        options_(std::move(options)),
        partial_cache_(options_.partial_cache_bytes) {}

  HttpResponse HandleShards(const HttpRequest& request);
  /// `trace` is the coordinator request's trace id; it is forwarded to
  /// every worker exchange on X-Gdlog-Trace, so one id stitches the whole
  /// fan-out together across the fleet's access logs.
  HttpResponse HandleJobs(const HttpRequest& request,
                          const std::string& trace = "");

  Counters counters() const { return counters_; }

  /// Latency of individual worker exchanges (every dispatch, retry, and
  /// steal), for /v1/metrics.
  const LatencyHistogram& dispatch_histogram() const {
    return dispatch_hist_;
  }

  /// Per-worker view of the same exchanges, keyed by worker address.
  std::map<std::string, WorkerDispatchStats> WorkerDispatches() const;

  /// Drops worker-side cached partial lines whose key starts with
  /// `prefix` (the program id + '|') — called on db replacement, delta,
  /// and unregister, mirroring the inference cache's invalidation.
  void InvalidatePartials(std::string_view prefix) {
    std::lock_guard<std::mutex> lock(partial_mu_);
    partial_cache_.ErasePrefix(prefix);
  }

 private:
  /// The dispatch loop behind /v1/jobs: plans, runs one dispatch thread
  /// per worker (its seed group, then orphaned indices of failed
  /// exchanges, then mid-job steals), folds every delivered partial line
  /// into a StreamingMerger on arrival, and finishes the merge once every
  /// shard was delivered exactly once. `workers` are the addresses as
  /// given and `endpoints` their parsed (host, port), at most
  /// kMaxJobWorkers of each. Pure with respect to the cache (the caller
  /// feeds the result through LookupOrCompute); `spans` (optional)
  /// receives the wall-time breakdown of this run.
  Result<OutcomeSpace> RunJob(
      const ProgramRegistry::Entry& entry, const ChaseOptions& chase,
      size_t num_shards, size_t prefix_depth,
      const std::vector<std::string>& workers,
      const std::vector<std::pair<std::string, int>>& endpoints,
      int deadline_ms, int steal_after_ms, const std::string& trace,
      JobSpans* spans);

  void RecordWorkerDispatch(const std::string& worker, uint64_t ns);

  ProgramRegistry* registry_;
  InferenceCache* cache_;
  Options options_;

  Counters counters_;
  LatencyHistogram dispatch_hist_;

  struct WorkerStats {
    LatencyHistogram hist;
    uint64_t dispatches = 0;
    uint64_t max_ns = 0;
  };
  mutable std::mutex worker_mu_;
  /// std::map for node stability (LatencyHistogram holds atomics and can
  /// never move) and sorted, deterministic /v1/stats and /v1/metrics
  /// emission.
  std::map<std::string, WorkerStats> worker_stats_;

  /// Worker-side cache of serialized partial NDJSON lines, keyed by the
  /// inference fingerprint + resolved plan coordinates + shard index and
  /// charged key plus line bytes; a hit streams the stored line without
  /// re-running the chase or copying it.
  std::mutex partial_mu_;
  ByteLru<std::shared_ptr<const std::string>> partial_cache_;
};

/// Splits "host:port" (the worker-list wire format). The port must be a
/// decimal in [1, 65535].
Result<std::pair<std::string, int>> ParseHostPort(const std::string& address);

}  // namespace gdlog

#endif  // GDLOG_SERVER_FLEET_H_
