#ifndef GDLOG_GDATALOG_CHASE_INTERNAL_H_
#define GDLOG_GDATALOG_CHASE_INTERNAL_H_

// Definitions of ChaseEngine's private frontier types and of the canonical
// choice-set order's sorted runs, shared by the translation units that
// implement the engine (chase.cc) and the shard planner/runner and merges
// (shard.cc). Not part of the public API.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/shard.h"
#include "obs/profile.h"

namespace gdlog {

class ThreadPool;

/// One choice of a choice set: (Active atom, outcome).
using ChoiceEntry = std::pair<GroundAtom, Value>;

/// A table's distinct choice entries in canonical order, and the rank of
/// every id the EntryInterner handed out.
struct RankedEntries {
  std::vector<ChoiceEntry> entries;  ///< ascending; entries[r] has rank r
  std::vector<uint32_t> rank_of_id;
};

/// Hands out a dense id per distinct choice entry, in a flat open-addressed
/// table. A chase has one entry per (outcome, choice) but few distinct
/// ones — one per Active atom and outcome — so the table stays small and
/// its probes hit cache. Equal entries (Value's == and Hash treat -0.0 as
/// 0.0) get one id. Not thread-safe.
class EntryInterner {
 public:
  uint32_t Intern(const GroundAtom& active, const Value& outcome);

  /// Sorts the distinct entries with GroundAtom/Value operator<; entries
  /// that compare equivalent share one rank. Spends the interner.
  RankedEntries Rank() &&;

 private:
  void Grow();

  std::vector<uint32_t> slots_;  ///< entry id + 1; 0 = empty
  std::vector<size_t> hashes_;
  std::vector<ChoiceEntry> entries_;
};

/// The entry ids of one partial's items as the chase recorded them: every
/// outcome's (truncation's) ids in entry order, concatenated in item order.
struct PartialIds {
  std::vector<uint32_t> outcomes;
  std::vector<uint32_t> truncations;
};

/// A partial in canonical choice-set order, keyed for the merge. The key is
/// compact: every distinct choice entry gets a uint32_t rank (RankedEntries)
/// and a choice set's key is its entries' ranks in entry order. A ChoiceSet
/// iterates its entries in that order, so comparing two keys element by
/// element is exactly ChoiceSet::operator< — the canonical order — at a
/// uint32_t compare per entry. This is the one implementation of the
/// canonical order: Explore's and ExploreShard's per-worker partials,
/// MergePartialSpaces and StreamingMerger all go through it.
class SortedRun {
 public:
  SortedRun() = default;

  /// Keys every outcome and truncation of `partial` through its own entry
  /// table — the path for partials that arrive as values (ExploreShard's
  /// result, deserialized partials) — then sorts as below.
  explicit SortedRun(PartialSpace partial);

  /// Keys `partial` by the entry ids the chase recorded as it went, ranked
  /// by `ranked` (shared by every run of one chase), sorts an index
  /// permutation by key and moves each item once (not at all when
  /// `partial` is already in canonical order).
  SortedRun(PartialSpace partial, PartialIds ids,
            std::shared_ptr<const RankedEntries> ranked);

  /// One k-way merge of `runs` into a partial in global canonical order.
  /// Runs keyed by different tables first have their tables unioned and
  /// their ranks remapped monotonically. Counters add up and budget flags
  /// OR; no mass is summed.
  static PartialSpace Merge(std::vector<SortedRun> runs);

  PartialSpace TakePartial() && { return std::move(partial_); }

 private:
  PartialSpace partial_;
  std::shared_ptr<const RankedEntries> ranked_;
  /// Concatenated rank lists, one per outcome (truncation) in run order;
  /// an item's list is as long as its choice set.
  std::vector<uint32_t> outcome_keys_;
  std::vector<uint32_t> truncation_keys_;
};

/// One chase node awaiting expansion. The parent's grounding is shared
/// read-only (never mutated after the parent finishes); each child clones
/// it, which shares its rule segments and matching instance, and extends
/// the clone. The grounding's heads() carries the whole matching
/// instance, so no separate fact store rides along.
struct ChaseEngine::WorkItem {
  ChoiceSet choices;
  Prob path_prob = Prob::One();
  size_t depth = 0;
  std::shared_ptr<const GroundRuleSet> parent_grounding;  ///< null at root
  GroundAtom new_active;  ///< the choice added vs. the parent; valid iff
                          ///< parent_grounding != nullptr
  /// The entry ids of `choices`, in entry order (ExploreState::entries).
  std::vector<uint32_t> ids;
};

struct ChaseEngine::ExploreState {
  const ChaseOptions* options = nullptr;

  /// Plan mode (shard.cc): when set, ProcessNode records frontier nodes —
  /// nodes whose depth reached `plan_prefix_depth`, and leaves above it —
  /// into `plan_tasks` instead of expanding / emitting them. Planning is
  /// always serial, so these need no synchronization.
  std::vector<ShardTask>* plan_tasks = nullptr;
  size_t plan_prefix_depth = 0;
  /// How many tasks were recorded by the depth cut (as opposed to being
  /// leaves): 0 means the whole tree above the cut was enumerated and a
  /// deeper prefix cannot yield a finer plan.
  size_t plan_cut_tasks = 0;

  /// Leaves enumerated so far (monotone; fetch_add reserves a slot, so at
  /// most max_outcomes outcomes are ever recorded).
  std::atomic<size_t> outcome_count{0};
  std::atomic<bool> budget_hit{false};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error = Status::OK();

  /// Per-worker accumulators in the pre-merge representation, filled
  /// without locking on the hot path. The budget_hit member of each partial
  /// stays false while the frontier drains — SortPartials folds the global
  /// flag above in.
  std::vector<PartialSpace> partials;
  /// Per worker, the entry ids of its partial's outcomes and truncations,
  /// recorded with them so the sort never walks a choice set.
  std::vector<PartialIds> ids;
  /// Every choice entry this chase recorded. Each expanded node interns
  /// its children's new entries under one lock.
  std::mutex entries_mu;
  EntryInterner entries;
  /// The partials in canonical order, one run per worker, once SortPartials
  /// ran (`partials` is empty then).
  std::vector<SortedRun> runs;
  /// Wall time SortPartials took; measured only when profiling.
  uint64_t sort_time_ns = 0;

  /// Per-worker chase profiles, parallel to `partials`. Empty unless
  /// options->profile: ProcessNode checks size() to decide whether to
  /// install a profile sink, so the disabled path records nothing.
  std::vector<ChaseProfile> profiles;

  /// Sizes the per-worker accumulators (and profiles, when profiling).
  void SetWorkers(size_t workers, bool profiling) {
    partials.resize(workers);
    ids.resize(workers);
    if (profiling) profiles.resize(workers);
  }

  /// The entry ids of `active` → each of `outcomes`.
  std::vector<uint32_t> InternEntries(const GroundAtom& active,
                                      const std::vector<Value>& outcomes) {
    std::vector<uint32_t> out;
    out.reserve(outcomes.size());
    std::lock_guard<std::mutex> lock(entries_mu);
    for (const Value& outcome : outcomes) {
      out.push_back(entries.Intern(active, outcome));
    }
    return out;
  }

  /// The entry ids of every choice of `choices`, in entry order.
  std::vector<uint32_t> InternEntries(const ChoiceSet& choices) {
    std::vector<uint32_t> out;
    out.reserve(choices.size());
    std::lock_guard<std::mutex> lock(entries_mu);
    for (const auto& [active, outcome] : choices.entries()) {
      out.push_back(entries.Intern(active, outcome));
    }
    return out;
  }

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
    failed.store(true, std::memory_order_release);
  }

  /// Turns every worker's partial into a sorted run once the frontier has
  /// drained: one sort task per partial on `pool` (the drain's own pool),
  /// or all in turn on the calling thread when `pool` is null. First folds
  /// the global budget flag into the first partial (merges OR the flags,
  /// so the position is moot).
  void SortPartials(ThreadPool* pool);
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_CHASE_INTERNAL_H_
