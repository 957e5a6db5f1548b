#ifndef GDLOG_GDATALOG_SHARD_H_
#define GDLOG_GDATALOG_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/outcome.h"

namespace gdlog {

/// Upper bound on a shard count, enforced wherever one arrives from outside
/// (CLI flags, HTTP requests, serialized partials): plan assignment and
/// merge bookkeeping allocate per shard, so an absurd count must fail as an
/// argument error, not as an allocation failure.
constexpr size_t kMaxShards = size_t{1} << 20;

/// One frontier node of the shard plan: a chase-tree node identified by its
/// choice-set prefix. Its depth is choices.size() — every chase edge records
/// exactly one choice — so the prefix alone reconstructs the node (the
/// grounding G(Σ) is a function of Σ by Definition 3.3).
struct ShardTask {
  ChoiceSet choices;
  Prob path_prob = Prob::One();
};

/// A shard's (or a worker's) contribution to an outcome space, kept in the
/// pre-merge representation: outcomes and per-node truncation entries are
/// carried individually so the final merge can order *everything* by the
/// canonical choice-set order before accumulating masses — which is what
/// makes the merged space bit-identical to a single-process run even though
/// double (inexact) mass sums are order-sensitive.
struct PartialSpace {
  std::vector<PossibleOutcome> outcomes;
  /// Support-truncation contributions: (truncated node's choice set, tail
  /// mass), summed only at merge time, in canonical order.
  std::vector<std::pair<ChoiceSet, Prob>> truncations;
  size_t depth_truncated_paths = 0;
  size_t pruned_paths = 0;
  /// True iff some budget (outcome count, depth, support truncation,
  /// min-path probability) bound while producing this partial.
  bool budget_hit = false;
};

/// How plan tasks are partitioned across shards. Both policies are pure
/// functions of the (canonically ordered) task list, so independent
/// processes recompute the identical partition.
enum class ShardAssignment {
  /// Greedy LPT over the tasks' path probabilities: tasks in descending
  /// mass order, each placed on the currently lightest shard. Chase work
  /// below a frontier node grows with the mass-bearing width of its
  /// subtree, so mass is the planner's best stand-in for cost and skewed
  /// trees balance where round-robin serializes behind the heavy shard.
  kWeighted = 0,
  /// Task i → shard i % num_shards (PR 3's policy; kept for comparison
  /// benches and as the implicit policy of plans without an assignment).
  kRoundRobin = 1,
};

/// Stable wire names ("weighted" / "round_robin") for serialized plans and
/// the HTTP API.
const char* ShardAssignmentName(ShardAssignment assignment);
Result<ShardAssignment> ParseShardAssignment(std::string_view name);

/// The task → shard map for `policy`, as a pure function of the task list
/// (which PlanShards emits in canonical choice-set order) — workers
/// recompute it identically from the plan alone.
std::vector<uint32_t> AssignTasksToShards(const std::vector<ShardTask>& tasks,
                                          size_t num_shards,
                                          ShardAssignment policy);

/// A deterministic decomposition of the chase tree: the frontier after
/// expanding every node of the first `prefix_depth` choice levels, in
/// canonical choice-set order. Task i belongs to shard shard_of[i]
/// (computed by AssignTasksToShards under `assignment`).
/// The plan is a pure function of (program, database, grounder, options,
/// num_shards, prefix_depth, assignment), so independent processes — or
/// machines — recompute the identical plan from the program text alone and
/// never need to exchange it.
struct ShardPlan {
  size_t num_shards = 1;
  size_t prefix_depth = 0;
  ShardAssignment assignment = ShardAssignment::kWeighted;
  std::vector<ShardTask> tasks;
  /// tasks[i] belongs to shard shard_of[i]; always tasks.size() entries.
  std::vector<uint32_t> shard_of;
  /// Accounting that accrued while expanding the prefix levels themselves
  /// (truncated infinite supports, pruned prefixes). Owned by shard 0's
  /// partial so it is counted exactly once globally.
  PartialSpace plan_accounting;
};

/// Identifies a serialized partial for merge-time validation: its shard
/// coordinates plus the exploration budgets it was produced under.
/// Partials produced under different budgets (support truncation, depth,
/// pruning, shuffling) describe different spaces — a merger must refuse
/// them rather than sum inconsistent masses.
struct ShardPartialMeta {
  size_t num_shards = 1;
  size_t shard_index = 0;
  size_t prefix_depth = 0;
  ShardAssignment assignment = ShardAssignment::kWeighted;
  size_t max_outcomes = 0;
  size_t max_depth = 0;
  size_t support_limit = 0;
  uint64_t trigger_shuffle_seed = 0;
  double min_path_prob = 0.0;

  bool SamePlanAndBudgets(const ShardPartialMeta& other) const {
    return num_shards == other.num_shards &&
           prefix_depth == other.prefix_depth &&
           assignment == other.assignment &&
           max_outcomes == other.max_outcomes &&
           max_depth == other.max_depth &&
           support_limit == other.support_limit &&
           trigger_shuffle_seed == other.trigger_shuffle_seed &&
           min_path_prob == other.min_path_prob;
  }
};

/// The meta describing shard `shard_index` of `plan` explored under
/// `options` — what a worker attaches to its serialized partial.
ShardPartialMeta MakeShardPartialMeta(const ShardPlan& plan,
                                      size_t shard_index,
                                      const ChaseOptions& options);

/// Recombines per-shard partials into the outcome space of the whole chase
/// tree. Outcomes and truncation entries are sorted in canonical choice-set
/// order across *all* partials before masses are summed, so for any shard
/// count (and any thread count within each shard) the result is
/// bit-identical to ChaseEngine::Explore whenever no budget binds. When
/// `max_outcomes` != 0 and the union exceeds it, the canonically-first
/// `max_outcomes` outcomes are kept and the space is marked incomplete
/// (a single process enumerates a schedule-dependent subset instead; only
/// the count and the flag are comparable in that regime).
OutcomeSpace MergePartialSpaces(std::vector<PartialSpace> partials,
                                size_t max_outcomes);

/// Streaming equivalent of MergePartialSpaces: folds per-shard partials
/// into one canonical-order accumulator one at a time, in any arrival
/// order, so a coordinator holds O(1) partials resident instead of all of
/// them. Add() consumes its argument immediately (ordered merge into the
/// accumulator); Finish() runs the exact buffered tail — truncate to
/// `max_outcomes`, then sum masses in global canonical order. Because
/// choice sets are unique across shards the merged sequence is the unique
/// canonical order regardless of fold order, so the result is
/// byte-identical to `MergePartialSpaces` over the same partials.
class StreamingMerger {
 public:
  /// Folds one partial into the accumulator and discards it.
  void Add(PartialSpace partial);

  /// Completes the merge; the merger is spent afterwards.
  OutcomeSpace Finish(size_t max_outcomes);

  size_t partials_folded() const { return folded_; }

 private:
  PartialSpace accum_;
  size_t folded_ = 0;
};

/// In-process driver: plans `num_shards` shards, explores each one
/// (sequentially, in this process) and merges. Backs `gdlog_cli --shards`;
/// the fleet (server/fleet.h) runs the same plan/explore/merge across
/// processes. With options.profile and `profile` non-null, every shard's
/// exploration is profiled into `profile` (the planning prefix is not).
Result<OutcomeSpace> ShardedExplore(const ChaseEngine& engine,
                                    const ChaseOptions& options,
                                    size_t num_shards,
                                    size_t prefix_depth = 0,
                                    ChaseProfile* profile = nullptr);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_SHARD_H_
