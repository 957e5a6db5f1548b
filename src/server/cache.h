#ifndef GDLOG_SERVER_CACHE_H_
#define GDLOG_SERVER_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/outcome.h"

namespace gdlog {

/// A string-keyed LRU bounded by the bytes its caller charges each value:
/// the one eviction policy behind gdlogd's outcome-space cache and the
/// fleet worker's partial-line cache. It has no lock; each owner locks
/// around its calls.
template <typename Value>
class ByteLru {
 public:
  using Visit =
      std::function<void(const std::string& key, Value& value, size_t bytes)>;

  explicit ByteLru(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The value under `key`, now the most recent; nullptr when absent.
  const Value* Find(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  bool Contains(std::string_view key) const { return index_.count(key) != 0; }

  /// Stores `value` under `key`, replacing and re-charging any value there,
  /// then drops least-recent entries until the charges fit. Returns how
  /// many it dropped. A value charged more than the whole capacity would
  /// evict everything for nothing, so it is not stored.
  size_t Insert(const std::string& key, Value value, size_t bytes) {
    if (bytes > capacity_) return 0;
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Node{key, std::move(value), bytes});
      index_.emplace(order_.front().key, order_.begin());
    }
    bytes_ += bytes;
    size_t dropped = 0;
    for (; bytes_ > capacity_; ++dropped) Erase(std::prev(order_.end()));
    return dropped;
  }

  /// Drops every entry whose key starts with `prefix`, showing each to
  /// `visit` (when set) first. Returns the number dropped.
  size_t ErasePrefix(std::string_view prefix, const Visit& visit = {}) {
    size_t dropped = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (std::string_view(it->key).substr(0, prefix.size()) != prefix) {
        ++it;
        continue;
      }
      if (visit) visit(it->key, it->value, it->bytes);
      Erase(it++);
      ++dropped;
    }
    return dropped;
  }

  size_t size() const { return index_.size(); }
  size_t bytes() const { return bytes_; }
  size_t capacity() const { return capacity_; }

 private:
  struct Node {
    std::string key;
    Value value;
    size_t bytes = 0;
  };
  using Iterator = typename std::list<Node>::iterator;

  void Erase(Iterator it) {
    bytes_ -= it->bytes;
    index_.erase(it->key);
    order_.erase(it);
  }

  std::list<Node> order_;  ///< front = most recent
  /// Keyed by views of the nodes' keys, which a list never moves.
  std::unordered_map<std::string_view, Iterator> index_;
  size_t bytes_ = 0;
  size_t capacity_;
};

/// Maps a canonical fingerprint of (program id, DB revision, the
/// semantics-affecting ChaseOptions) to a shared immutable AnswerIndex: the
/// outcome space plus its Definition 3.8 answers. P(consistent) and
/// P(inconsistent) are summed once, when the compute lands; the event rows
/// are built by the first read that asks for them. A warm read therefore
/// re-sums nothing.
///
/// Why exact results are cacheable at all: the chase is deterministic —
/// for a fixed program, database, grounder and budgets, Explore() produces
/// the identical outcome space for every thread count and schedule
/// whenever no budget binds (ChaseOptions::num_threads contract, pinned by
/// parallel_chase_test/shard_test). The fingerprint therefore names the
/// result, not the computation. When a budget does bind the space is one
/// valid truncation; the cache serves whichever was computed first, which
/// is no weaker than what a fresh run promises.
///
/// Concurrency: a ByteLru bounded by an approximate memory footprint, with
/// single-flight deduplication — N concurrent lookups of the same key run
/// one chase, and the other N-1 block until it lands (counted as
/// `coalesced`). Chases, index scalars, footprints and revalidation
/// patches all run outside the cache lock; a revalidation publishes an
/// in-flight marker for each new key as the new lineage becomes visible,
/// so lookups of the new lineage coalesce onto the patch instead of
/// starting a chase. A revalidation patch costs O(|added facts|): the
/// patched index shares the chased space and overlays the facts
/// (AnswerIndex::WithAddedFacts), so no model is copied, walked or freed.
///
/// Lock order: BeginRevalidate() runs inside ProgramRegistry's publish
/// hook, so the registry lock is taken before the cache lock. Cache code
/// calls into the registry only through LookupOrCompute's `current`, which
/// it runs without the cache lock, so that order stays acyclic.
class InferenceCache {
  struct Inflight;

 public:
  struct Stats {
    uint64_t hits = 0;         ///< Served from the cache.
    uint64_t misses = 0;       ///< Led a compute (one chase each).
    uint64_t coalesced = 0;    ///< Waited on another lookup's compute.
    uint64_t evictions = 0;    ///< Entries dropped to respect the bound.
    uint64_t inserts = 0;      ///< Entries ever stored.
    uint64_t revalidated = 0;  ///< Entries moved to a new lineage by
                               ///< FinishRevalidate() instead of evicted.
    size_t entries = 0;        ///< Current entry count.
    size_t bytes = 0;          ///< Current approximate footprint.
    size_t capacity_bytes = 0;
  };

  using ComputeFn = std::function<Result<OutcomeSpace>()>;
  using CurrentFn = std::function<bool()>;
  using IndexPtr = std::shared_ptr<const AnswerIndex>;

  explicit InferenceCache(size_t capacity_bytes) : lru_(capacity_bytes) {}

  /// Returns the cached index for `key`, or runs `compute` (outside the
  /// cache lock), indexes its result and caches it. Concurrent callers with
  /// the same key share one compute; a failed compute is returned to every
  /// waiter and never cached. A space larger than the whole capacity is
  /// returned uncached.
  ///
  /// `current`, when set, is asked (outside the cache lock) before a miss
  /// starts a compute: does `key` still name the live lineage? When it does
  /// not — a PATCH superseded the caller's snapshot and re-keyed its entry
  /// — nothing is computed or counted and the result is nullptr, so the
  /// caller re-reads its snapshot instead of chasing a lineage nothing will
  /// read again.
  Result<IndexPtr> LookupOrCompute(const std::string& key,
                                   const ComputeFn& compute,
                                   const CurrentFn& current = {});

  /// Drops every entry whose key starts with `prefix` (fingerprints embed
  /// the program id first, so this is "forget program X"). Returns the
  /// number dropped; they count as evictions.
  size_t ErasePrefix(std::string_view prefix);

  void Clear();

  Stats stats() const;

  /// The identity half of a fingerprint: program id, DB revision and the
  /// delta-lineage digest (empty for a freshly registered or fully
  /// replaced database). Every fingerprint starts with this, so the delta
  /// path can move a whole revision's entries to a new lineage with one
  /// prefix rewrite.
  static std::string KeyPrefix(std::string_view program_id, uint64_t revision,
                               std::string_view lineage_digest);

  /// Canonical cache key: KeyPrefix plus exactly the ChaseOptions fields
  /// that affect the resulting space — max_outcomes, max_depth,
  /// support_limit, min_path_prob, trigger_shuffle_seed, solver_max_nodes.
  /// num_threads, profile and keep_groundings are deliberately excluded
  /// (they change the computation, not the result);
  /// compute_models is forced true by the serving layer.
  static std::string Fingerprint(std::string_view program_id,
                                 uint64_t revision,
                                 std::string_view lineage_digest,
                                 const ChaseOptions& options);
  static std::string Fingerprint(std::string_view program_id,
                                 uint64_t revision,
                                 const ChaseOptions& options) {
    return Fingerprint(program_id, revision, "", options);
  }

  using PatchFn = std::function<IndexPtr(const AnswerIndex&)>;

  /// A lineage-keyed revalidation between its two phases.
  class Revalidation {
   private:
    friend class InferenceCache;
    struct Move {
      std::string key;                   ///< The new-lineage key.
      IndexPtr index;                    ///< The entry to patch.
      size_t bytes = 0;                  ///< The entry's charge.
      std::shared_ptr<Inflight> flight;  ///< The new key's marker.
    };
    std::vector<Move> moves_;
    size_t dropped_ = 0;
  };

  /// Lineage-keyed revalidation (the PATCH /db path for deltas that
  /// provably cannot change any grounding fixpoint), phase one. Each entry
  /// under `old_prefix` is erased, and its key under `new_prefix` (same
  /// option suffix) gets an in-flight marker, so lookups of the new lineage
  /// wait for the patch instead of chasing. A revalidation begun while an
  /// earlier one is still patching does not wait for it: the earlier
  /// result is not yet an entry, so the newer lineage misses once and
  /// chases, and the earlier result lands under a key nothing reads until
  /// the LRU drops it. Entries under
  /// `program_prefix` but not `old_prefix` (older revisions/lineages) are
  /// dropped as ordinary evictions. A re-keyed entry whose new key is
  /// already present or being computed (a fresh lookup got there first) is
  /// skipped.
  ///
  /// Patches nothing, only scans the entries under the cache lock, so the
  /// caller can run it inside the critical section that makes the new
  /// lineage visible (the registry's publish).
  /// Every call must be followed by FinishRevalidate.
  Revalidation BeginRevalidate(std::string_view program_prefix,
                               std::string_view old_prefix,
                               std::string_view new_prefix);

  /// Phase two, outside the lock: passes each re-keyed index through
  /// `patch` (which returns the patched index, never nullptr), caches it
  /// under its new key and completes that key's marker. The patched index
  /// is charged the source entry's bytes plus the growth of its added-fact
  /// list (ApproxAddedBytes), so no model is walked. Returns the number
  /// revalidated; `evicted`, when non-null, receives the number dropped.
  size_t FinishRevalidate(Revalidation revalidation, const PatchFn& patch,
                          size_t* evicted = nullptr);

  /// Approximate heap footprint of a cached space (outcomes, choice sets,
  /// stable models) plus its AnswerIndex, counting the event rows at their
  /// upper bound of one per outcome — the unit of the LRU bound. Fixed at
  /// insert, so building the rows later never changes an entry's charge.
  static size_t ApproxBytes(const OutcomeSpace& space);
  /// Approximate heap footprint of an index's added-fact list.
  static size_t ApproxAddedBytes(const AnswerIndex& index);

 private:
  struct Inflight {
    bool done = false;
    Status status;
    IndexPtr index;
  };

  /// Inserts under mu_, counting the insert and the evictions.
  /// `bytes` is the entry's charge, computed before locking.
  void InsertLocked(const std::string& key, IndexPtr index, size_t bytes);
  /// Publishes `flight`'s outcome to its waiters and retires its key.
  void CompleteLocked(const std::string& key,
                      const std::shared_ptr<Inflight>& flight);

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled when an inflight completes
  ByteLru<IndexPtr> lru_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  /// The counters, kept current under mu_; stats() copies them and reads
  /// the sizes off lru_.
  Stats stats_;
};

}  // namespace gdlog

#endif  // GDLOG_SERVER_CACHE_H_
