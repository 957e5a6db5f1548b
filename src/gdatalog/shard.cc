#include "gdatalog/shard.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "gdatalog/chase_internal.h"
#include "util/thread_pool.h"

namespace gdlog {

namespace {

/// Auto planning stops deepening once the frontier holds this many tasks
/// per shard — enough for the assignment policy to balance subtree sizes
/// without ballooning the plan.
constexpr size_t kTasksPerShard = 4;
/// Hard caps for auto planning: the prefix never exceeds this depth, and a
/// frontier this large is always accepted (the plan itself must stay cheap
/// next to the exploration it partitions).
constexpr size_t kMaxAutoPrefixDepth = 6;
constexpr size_t kMaxPlanTasks = 4096;

// The single definition of the canonical choice-set order everything in
// this file sorts by — the bit-identical-merge invariant depends on every
// sort agreeing, so there is deliberately exactly one copy of each.
bool OutcomeBefore(const PossibleOutcome& a, const PossibleOutcome& b) {
  return a.choices < b.choices;
}
bool TruncationBefore(const std::pair<ChoiceSet, Prob>& a,
                      const std::pair<ChoiceSet, Prob>& b) {
  return a.first < b.first;
}

void SortCanonically(PartialSpace* partial) {
  std::sort(partial->outcomes.begin(), partial->outcomes.end(),
            OutcomeBefore);
  std::sort(partial->truncations.begin(), partial->truncations.end(),
            TruncationBefore);
}

}  // namespace

const char* ShardAssignmentName(ShardAssignment assignment) {
  switch (assignment) {
    case ShardAssignment::kWeighted: return "weighted";
    case ShardAssignment::kRoundRobin: return "round_robin";
  }
  return "weighted";
}

Result<ShardAssignment> ParseShardAssignment(std::string_view name) {
  if (name == "weighted") return ShardAssignment::kWeighted;
  if (name == "round_robin") return ShardAssignment::kRoundRobin;
  return Status::InvalidArgument(
      "assignment must be weighted or round_robin; got '" +
      std::string(name) + "'");
}

std::vector<uint32_t> AssignTasksToShards(const std::vector<ShardTask>& tasks,
                                          size_t num_shards,
                                          ShardAssignment policy) {
  if (num_shards < 1) num_shards = 1;
  std::vector<uint32_t> shard_of(tasks.size(), 0);
  if (policy == ShardAssignment::kRoundRobin || num_shards == 1) {
    if (num_shards > 1) {
      for (size_t i = 0; i < tasks.size(); ++i) {
        shard_of[i] = static_cast<uint32_t>(i % num_shards);
      }
    }
    return shard_of;
  }

  // Greedy LPT over path-probability mass: visit tasks heaviest-first and
  // place each on the lightest shard so far. Ties break on the canonical
  // task index (for the order) and the lowest shard index (for the bin),
  // making the partition a pure function of the task list — every process
  // that recomputes the plan derives the identical map. Loads are compared
  // as doubles: Prob::value() is itself deterministic, and only the
  // partition (not any reported mass) depends on these sums.
  std::vector<size_t> order(tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double wa = tasks[a].path_prob.value();
    double wb = tasks[b].path_prob.value();
    if (wa != wb) return wa > wb;
    return a < b;
  });
  std::vector<double> load(num_shards, 0.0);
  for (size_t i : order) {
    size_t lightest = 0;
    for (size_t s = 1; s < num_shards; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    shard_of[i] = static_cast<uint32_t>(lightest);
    load[lightest] += tasks[i].path_prob.value();
  }
  return shard_of;
}

Result<ShardPlan> ChaseEngine::PlanShards(const ChaseOptions& options,
                                          size_t num_shards,
                                          size_t prefix_depth,
                                          ShardAssignment assignment) const {
  ShardPlan plan;
  plan.num_shards = num_shards < 1 ? 1 : num_shards;
  plan.assignment = assignment;
  size_t cut_tasks = 0;

  // Expands the first `depth` choice levels serially; every node at the
  // cut — and every leaf above it — lands in plan.tasks.
  auto plan_at = [&](size_t depth) -> Status {
    plan.tasks.clear();
    plan.plan_accounting = PartialSpace{};
    plan.prefix_depth = depth;
    ExploreState state;
    state.options = &options;
    state.partials.resize(1);
    state.plan_tasks = &plan.tasks;
    state.plan_prefix_depth = depth;
    DrainFrontier(state, std::vector<WorkItem>(1));
    if (!state.first_error.ok()) return state.first_error;
    plan.plan_accounting = std::move(state.TakePartials().front());
    cut_tasks = state.plan_cut_tasks;
    return Status::OK();
  };

  if (plan.num_shards == 1 && prefix_depth == 0) {
    // One shard needs no decomposition: the plan is the root itself.
    GDLOG_RETURN_IF_ERROR(plan_at(0));
  } else if (prefix_depth != 0) {
    GDLOG_RETURN_IF_ERROR(plan_at(prefix_depth));
  } else {
    const size_t target = kTasksPerShard * plan.num_shards;
    for (size_t depth = 1; depth <= kMaxAutoPrefixDepth; ++depth) {
      GDLOG_RETURN_IF_ERROR(plan_at(depth));
      // Stop when the frontier is rich enough, fully enumerated (every
      // task is a leaf — deepening cannot split it further), or too large.
      if (plan.tasks.size() >= std::min(target, kMaxPlanTasks) ||
          cut_tasks == 0) {
        break;
      }
    }
  }

  // Canonical order makes the shard assignment a pure function of the
  // chase tree, independent of traversal details.
  std::sort(plan.tasks.begin(), plan.tasks.end(),
            [](const ShardTask& a, const ShardTask& b) {
              return a.choices < b.choices;
            });
  plan.shard_of = AssignTasksToShards(plan.tasks, plan.num_shards, assignment);
  return plan;
}

Result<PartialSpace> ChaseEngine::ExploreShard(
    const ShardPlan& plan, size_t shard_index,
    const ChaseOptions& options, ChaseProfile* profile) const {
  if (shard_index >= plan.num_shards) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (plan.shard_of.size() != plan.tasks.size()) {
    return Status::InvalidArgument(
        "shard plan has no task-to-shard map (plans come from PlanShards)");
  }

  ExploreState state;
  state.options = &options;
  size_t workers = options.num_threads != 0
                       ? options.num_threads
                       : ThreadPool::DefaultWorkerCount();
  if (workers < 1) workers = 1;
  state.partials.resize(workers);
  if (options.profile && profile != nullptr) state.profiles.resize(workers);

  std::vector<WorkItem> roots;
  for (size_t i = 0; i < plan.tasks.size(); ++i) {
    if (plan.shard_of[i] != shard_index) continue;
    WorkItem root;
    root.choices = plan.tasks[i].choices;
    root.path_prob = plan.tasks[i].path_prob;
    // Every chase edge records exactly one choice, so the prefix length is
    // the node's depth; the grounding is re-derived from Σ alone.
    root.depth = root.choices.size();
    roots.push_back(std::move(root));
  }
  DrainFrontier(state, std::move(roots));
  if (options.profile && profile != nullptr) {
    for (const ChaseProfile& p : state.profiles) profile->Merge(p);
  }
  if (!state.first_error.ok()) return state.first_error;

  PartialSpace out;
  for (PartialSpace& partial : state.TakePartials()) {
    out.outcomes.insert(out.outcomes.end(),
                        std::make_move_iterator(partial.outcomes.begin()),
                        std::make_move_iterator(partial.outcomes.end()));
    out.truncations.insert(
        out.truncations.end(),
        std::make_move_iterator(partial.truncations.begin()),
        std::make_move_iterator(partial.truncations.end()));
    out.depth_truncated_paths += partial.depth_truncated_paths;
    out.pruned_paths += partial.pruned_paths;
    out.budget_hit = out.budget_hit || partial.budget_hit;
  }
  if (shard_index == 0) {
    // The plan-level accounting (supports truncated, prefixes pruned while
    // expanding the prefix levels) is owned by shard 0 so the merge counts
    // it exactly once no matter how many processes recomputed the plan.
    const PartialSpace& acc = plan.plan_accounting;
    out.truncations.insert(out.truncations.end(), acc.truncations.begin(),
                           acc.truncations.end());
    out.depth_truncated_paths += acc.depth_truncated_paths;
    out.pruned_paths += acc.pruned_paths;
    out.budget_hit = out.budget_hit || acc.budget_hit;
  }
  // Canonical per-shard order: the serialized partial is then identical
  // for every thread count, and the final merge's global sort sees the
  // same multiset regardless.
  SortCanonically(&out);
  return out;
}

ShardPartialMeta MakeShardPartialMeta(const ShardPlan& plan,
                                      size_t shard_index,
                                      const ChaseOptions& options) {
  ShardPartialMeta meta;
  meta.num_shards = plan.num_shards;
  meta.shard_index = shard_index;
  meta.prefix_depth = plan.prefix_depth;
  meta.assignment = plan.assignment;
  meta.max_outcomes = options.max_outcomes;
  meta.max_depth = options.max_depth;
  meta.support_limit = options.support_limit;
  meta.trigger_shuffle_seed = options.trigger_shuffle_seed;
  meta.min_path_prob = options.min_path_prob;
  return meta;
}

void StreamingMerger::Add(PartialSpace partial) {
  // Workers emit canonically-sorted partials; re-sort only when handed an
  // unsorted one (deserialized bytes are trusted but not assumed sorted).
  if (!std::is_sorted(partial.outcomes.begin(), partial.outcomes.end(),
                      OutcomeBefore) ||
      !std::is_sorted(partial.truncations.begin(), partial.truncations.end(),
                      TruncationBefore)) {
    SortCanonically(&partial);
  }
  size_t outcome_mid = accum_.outcomes.size();
  accum_.outcomes.insert(accum_.outcomes.end(),
                         std::make_move_iterator(partial.outcomes.begin()),
                         std::make_move_iterator(partial.outcomes.end()));
  std::inplace_merge(accum_.outcomes.begin(),
                     accum_.outcomes.begin() + outcome_mid,
                     accum_.outcomes.end(), OutcomeBefore);
  size_t truncation_mid = accum_.truncations.size();
  accum_.truncations.insert(
      accum_.truncations.end(),
      std::make_move_iterator(partial.truncations.begin()),
      std::make_move_iterator(partial.truncations.end()));
  std::inplace_merge(accum_.truncations.begin(),
                     accum_.truncations.begin() + truncation_mid,
                     accum_.truncations.end(), TruncationBefore);
  accum_.depth_truncated_paths += partial.depth_truncated_paths;
  accum_.pruned_paths += partial.pruned_paths;
  accum_.budget_hit = accum_.budget_hit || partial.budget_hit;
  ++folded_;
}

OutcomeSpace StreamingMerger::Finish(size_t max_outcomes) {
  OutcomeSpace space;
  bool budget_hit = accum_.budget_hit;
  space.outcomes = std::move(accum_.outcomes);
  space.depth_truncated_paths = accum_.depth_truncated_paths;
  space.pruned_paths = accum_.pruned_paths;
  // Per-shard outcome budgets can overshoot the global one; keep the
  // canonically-first max_outcomes (a single process keeps a
  // schedule-dependent subset instead — only count and flag compare).
  if (max_outcomes != 0 && space.outcomes.size() > max_outcomes) {
    space.outcomes.resize(max_outcomes);
    budget_hit = true;
  }
  // Masses are summed only now, after every partial folded in, so the
  // addition order is the global canonical order — the same order the
  // buffered merge sums in, which is what makes the two byte-identical
  // (double addition is order-sensitive).
  for (const PossibleOutcome& outcome : space.outcomes) {
    space.finite_mass = space.finite_mass + outcome.prob;
  }
  for (const auto& [choices, tail] : accum_.truncations) {
    (void)choices;
    space.support_truncation_mass = space.support_truncation_mass + tail;
  }
  space.complete = !budget_hit;
  accum_ = PartialSpace();
  folded_ = 0;
  return space;
}

OutcomeSpace MergePartialSpaces(std::vector<PartialSpace> partials,
                                size_t max_outcomes) {
  StreamingMerger merger;
  for (PartialSpace& partial : partials) {
    merger.Add(std::move(partial));
  }
  return merger.Finish(max_outcomes);
}

Result<OutcomeSpace> ShardedExplore(const ChaseEngine& engine,
                                    const ChaseOptions& options,
                                    size_t num_shards, size_t prefix_depth,
                                    ChaseProfile* profile) {
  GDLOG_ASSIGN_OR_RETURN(ShardPlan plan,
                         engine.PlanShards(options, num_shards, prefix_depth));
  std::vector<PartialSpace> partials;
  partials.reserve(plan.num_shards);
  for (size_t shard = 0; shard < plan.num_shards; ++shard) {
    GDLOG_ASSIGN_OR_RETURN(PartialSpace partial,
                           engine.ExploreShard(plan, shard, options, profile));
    partials.push_back(std::move(partial));
  }
  return MergePartialSpaces(std::move(partials), options.max_outcomes);
}

}  // namespace gdlog
