#ifndef GDLOG_GDATALOG_CHASE_H_
#define GDLOG_GDATALOG_CHASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "gdatalog/grounder.h"
#include "gdatalog/outcome.h"
#include "util/rng.h"

namespace gdlog {

struct ShardPlan;
struct PartialSpace;
struct ChaseProfile;

/// Budgets and knobs for chase-tree exploration (§4). The chase tree of a
/// program may be infinite (countably infinite distribution supports,
/// non-terminating value invention); exploration therefore carries budgets,
/// and mass that could not be resolved into a finite possible outcome is
/// reported in OutcomeSpace::residual_mass().
struct ChaseOptions {
  /// Stop after enumerating this many finite outcomes (0 = unlimited).
  size_t max_outcomes = 1u << 20;
  /// Maximum number of choices (trigger applications) along one path;
  /// deeper paths are abandoned into the residual.
  size_t max_depth = 4096;
  /// Enumerated prefix size for countably infinite supports; the tail mass
  /// goes to the residual.
  size_t support_limit = 64;
  /// Paths whose probability falls below this are pruned into the residual
  /// (0 disables pruning).
  double min_path_prob = 0.0;
  /// Compute sms(Σ ∪ G(Σ)) for each outcome (required for event queries).
  bool compute_models = true;
  /// Node budget for the stable-model solver per outcome.
  uint64_t solver_max_nodes = 10'000'000;
  /// 0 = resolve triggers in canonical (sorted) order; otherwise pick each
  /// node's trigger pseudo-randomly from this seed (mixed with the node's
  /// choice set, so the pick is a pure function of the node and identical
  /// for every thread count and schedule). Lemma 4.4 guarantees the
  /// resulting outcome space is identical — exercised by experiment E4.
  uint64_t trigger_shuffle_seed = 0;
  /// Worker threads for Explore: 0 = one per hardware thread, 1 = serial
  /// (the pre-parallel behavior, no pool spawned). Branches of the chase
  /// tree are independent once a trigger is resolved, so workers drain a
  /// work-stealing frontier of chase nodes; per-worker partial outcome
  /// spaces are merged in canonical choice-set order, so whenever no
  /// budget binds the resulting OutcomeSpace is identical — outcome order,
  /// probabilities, masses and all — for every thread count. When
  /// max_outcomes does bind, *which* outcomes are enumerated depends on
  /// scheduling (their count still respects the budget).
  size_t num_threads = 0;
  /// Collect the per-rule/per-stratum/per-depth chase profile
  /// (obs/profile.h) into the ChaseProfile* passed to Explore. Off by
  /// default; the disabled path costs a null check per (rule, pivot) pair.
  /// Profile counts are deterministic across thread counts; timings are
  /// not. Never part of a result — excluded from the serving layer's cache
  /// fingerprint like num_threads.
  bool profile = false;
};

/// Drives the chase of Definition 4.2: iteratively grounds the program
/// under the current choice set, applies a trigger (branching over the
/// distribution's support), and collects the results of finite maximal
/// paths — which are exactly the finite possible outcomes (Lemma 4.5).
/// A child's grounding is its parent's, cloned and extended by the one new
/// choice (Grounder::Extend; sound by grounder monotonicity, Definition
/// 3.3). Only roots — the empty choice set and shard tasks — are grounded
/// from scratch.
class ChaseEngine {
 public:
  /// All pointees must outlive the engine.
  ChaseEngine(const TranslatedProgram* translated, const Grounder* grounder)
      : translated_(translated), grounder_(grounder) {}

  /// Exhaustively explores the chase tree under the given budgets and
  /// returns the resulting outcome space. With options.num_threads != 1
  /// the frontier is chased in parallel; results are deterministic as
  /// described on ChaseOptions::num_threads. When options.profile is set
  /// and `profile` is non-null, the per-worker chase profiles are merged
  /// into *profile in worker-index order (counts deterministic, times
  /// not).
  Result<OutcomeSpace> Explore(const ChaseOptions& options,
                               ChaseProfile* profile = nullptr) const;

  /// Plans a decomposition of the chase tree into `num_shards` shards by
  /// expanding the first `prefix_depth` choice levels serially and
  /// partitioning the resulting frontier by probability mass
  /// (AssignTasksToShards, shard.h). `prefix_depth` 0 picks the
  /// smallest depth whose frontier holds at least a few tasks per shard.
  /// The plan is deterministic — independent processes recompute the
  /// identical plan — and cheap (only the prefix levels are grounded).
  Result<ShardPlan> PlanShards(const ChaseOptions& options,
                               size_t num_shards,
                               size_t prefix_depth = 0) const;

  /// Executes one shard of `plan`: explores the subtree below every task
  /// assigned to `shard_index`, using the parallel frontier per
  /// ChaseOptions::num_threads, and returns the pre-merge partial (sorted
  /// canonically, so the serialized partial is identical for every thread
  /// count). Shard 0 additionally carries the plan-level accounting.
  /// Recombine with MergePartialSpaces (shard.h). `plan` must come from
  /// PlanShards; one without its task-to-shard map is kInvalidArgument.
  Result<PartialSpace> ExploreShard(const ShardPlan& plan, size_t shard_index,
                                    const ChaseOptions& options,
                                    ChaseProfile* profile = nullptr) const;

  /// One random maximal path: every trigger is resolved by sampling the
  /// distribution. `truncated` is set when the depth budget aborted the
  /// walk (an Ω∞/error-event sample).
  struct PathSample {
    ChoiceSet choices;
    Prob prob = Prob::One();
    bool truncated = false;
    StableModelSet models;
  };
  Result<PathSample> SamplePath(Rng* rng, const ChaseOptions& options) const;

  const TranslatedProgram& translated() const { return *translated_; }
  const Grounder& grounder() const { return *grounder_; }

  /// sms(Σ ∪ G(Σ)) of a leaf's grounding. When the grounder settles
  /// negation (the perfect grounder), its one candidate model is read off
  /// the grounding (Grounder::ReadOffModels). Otherwise builds the ground
  /// normal program (grounding plus one Active→Result rule per choice) and
  /// enumerates its stable models. `nodes_used`, when given, receives the
  /// solver's search node count (0 when the models were read off).
  Result<StableModelSet> SolveOutcome(const ChoiceSet& choices,
                                      const GroundRuleSet& grounding,
                                      uint64_t solver_max_nodes,
                                      uint64_t* nodes_used = nullptr) const;

 private:
  struct ExploreState;
  struct WorkItem;
  /// Expands one chase node: grounds it, emits the outcome when it is a
  /// leaf, otherwise resolves one trigger and appends one child work item
  /// per support outcome to `children`. In plan mode (state.plan_tasks
  /// != nullptr) frontier nodes — those at the prefix depth, plus leaves
  /// above it — are recorded as shard tasks instead of being expanded.
  /// Thread-safe: touches only `state`'s atomics, the worker's partial
  /// space, and the item itself.
  void ProcessNode(ExploreState& state, WorkItem item, size_t worker,
                   std::vector<WorkItem>* children) const;
  /// Drains `roots` and everything they spawn: serially on an explicit
  /// LIFO stack when state has one partial (DFS parity with the
  /// pre-parallel engine), on the work-stealing pool otherwise.
  void DrainFrontier(ExploreState& state, std::vector<WorkItem> roots) const;

  const TranslatedProgram* translated_;
  const Grounder* grounder_;
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_CHASE_H_
