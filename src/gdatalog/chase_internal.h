#ifndef GDLOG_GDATALOG_CHASE_INTERNAL_H_
#define GDLOG_GDATALOG_CHASE_INTERNAL_H_

// Definitions of ChaseEngine's private frontier types, shared by the
// translation units that implement the engine (chase.cc) and the shard
// planner/runner (shard.cc). Not part of the public API.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/shard.h"
#include "obs/profile.h"

namespace gdlog {

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

  /// Per-worker accumulators in the pre-merge representation; merged
  /// deterministically after the frontier drains (no locking on the hot
  /// path). The budget_hit member of each partial stays false here — the
  /// global flag above is folded in when the partials are collected.
  std::vector<PartialSpace> partials;

  /// Per-worker chase profiles, parallel to `partials`. Empty unless
  /// options->profile: ProcessNode checks size() to decide whether to
  /// install a profile sink, so the disabled path records nothing.
  std::vector<ChaseProfile> profiles;

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = status;
    failed.store(true, std::memory_order_release);
  }

  /// Moves the per-worker partials out, folding the global budget flag
  /// into the first one (merge ORs the flags, so the position is moot).
  std::vector<PartialSpace> TakePartials() {
    std::vector<PartialSpace> out = std::move(partials);
    partials.clear();
    if (!out.empty()) {
      out.front().budget_hit = budget_hit.load(std::memory_order_relaxed);
    }
    return out;
  }
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_CHASE_INTERNAL_H_
