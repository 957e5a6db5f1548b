#include "gdatalog/shard.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gdatalog/chase_internal.h"
#include "obs/histogram.h"
#include "util/hash.h"
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

const ChoiceSet& ChoicesOf(const PossibleOutcome& outcome) {
  return outcome.choices;
}
const ChoiceSet& ChoicesOf(const std::pair<ChoiceSet, Prob>& truncation) {
  return truncation.first;
}

/// Appends the entry ids of every item's choice set to *keys, in item
/// order; each item's ids are in entry order.
template <typename T>
void InternKeys(const std::vector<T>& items, EntryInterner* interner,
                std::vector<uint32_t>* keys) {
  size_t total = 0;
  for (const T& item : items) total += ChoicesOf(item).size();
  keys->reserve(total);
  for (const T& item : items) {
    for (const auto& [active, outcome] : ChoicesOf(item).entries()) {
      keys->push_back(interner->Intern(active, outcome));
    }
  }
}

/// Lexicographic order on rank lists: ChoiceSet::operator< on the ranked
/// choice sets.
bool KeyBefore(const uint32_t* a, size_t a_size, const uint32_t* b,
               size_t b_size) {
  return std::lexicographical_compare(a, a + a_size, b, b + b_size);
}

/// Puts `items` and their rank lists `*keys` (already ranked, in item
/// order) in canonical order: sorts an index permutation by key, then moves
/// each item and copies each rank list once. Equal keys keep their input
/// order. Already sorted input is left as is.
template <typename T>
void SortByKeys(std::vector<T>* items, std::vector<uint32_t>* keys) {
  const size_t n = items->size();
  std::vector<size_t> offset(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + ChoicesOf((*items)[i]).size();
  }
  auto before = [&](size_t a, size_t b) {
    const uint32_t* k = keys->data();
    return KeyBefore(k + offset[a], offset[a + 1] - offset[a], k + offset[b],
                     offset[b + 1] - offset[b]);
  };
  bool sorted = true;
  for (size_t i = 1; i < n && sorted; ++i) sorted = !before(i, i - 1);
  if (sorted) return;

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), before);
  std::vector<T> sorted_items;
  sorted_items.reserve(n);
  std::vector<uint32_t> sorted_keys;
  sorted_keys.reserve(keys->size());
  for (size_t i : order) {
    sorted_items.push_back(std::move((*items)[i]));
    sorted_keys.insert(sorted_keys.end(), keys->begin() + offset[i],
                       keys->begin() + offset[i + 1]);
  }
  *items = std::move(sorted_items);
  *keys = std::move(sorted_keys);
}

/// One sorted sequence of a k-way merge: its items, their concatenated
/// rank lists, and a cursor (next item, where its rank list starts).
template <typename T>
struct MergeInput {
  std::vector<T>* items;
  const std::vector<uint32_t>* keys;
  size_t next = 0;
  size_t key_offset = 0;

  bool done() const { return next == items->size(); }
  size_t key_size() const { return ChoicesOf((*items)[next]).size(); }
  const uint32_t* key() const { return keys->data() + key_offset; }
};

/// Merges sorted sequences whose keys share one rank space into one
/// sequence in key order. A binary heap of the live inputs picks each next
/// item; ties go to the lower input index, so the merge is deterministic.
template <typename T>
std::vector<T> KWayMerge(std::vector<MergeInput<T>> inputs) {
  size_t total = 0;
  std::vector<size_t> heap;
  for (size_t i = 0; i < inputs.size(); ++i) {
    total += inputs[i].items->size();
    if (!inputs[i].done()) heap.push_back(i);
  }
  std::vector<T> out;
  out.reserve(total);
  // std heaps keep the greatest on top, so "after" is the heap's "less".
  auto after = [&](size_t a, size_t b) {
    const MergeInput<T>& x = inputs[a];
    const MergeInput<T>& y = inputs[b];
    if (KeyBefore(y.key(), y.key_size(), x.key(), x.key_size())) return true;
    if (KeyBefore(x.key(), x.key_size(), y.key(), y.key_size())) return false;
    return a > b;
  };
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    MergeInput<T>& input = inputs[heap.back()];
    input.key_offset += input.key_size();
    out.push_back(std::move((*input.items)[input.next++]));
    if (input.done()) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  return out;
}

}  // namespace

uint32_t EntryInterner::Intern(const GroundAtom& active,
                               const Value& outcome) {
  const size_t hash = HashCombine(active.Hash(), outcome.Hash());
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      slots_[i] = static_cast<uint32_t>(entries_.size() + 1);
      hashes_.push_back(hash);
      entries_.emplace_back(active, outcome);
      return static_cast<uint32_t>(entries_.size() - 1);
    }
    const ChoiceEntry& entry = entries_[slot - 1];
    if (hashes_[slot - 1] == hash && entry.second == outcome &&
        entry.first == active) {
      return slot - 1;
    }
  }
}

void EntryInterner::Grow() {
  std::vector<uint32_t> slots(slots_.empty() ? 64 : 2 * slots_.size(), 0);
  const size_t mask = slots.size() - 1;
  for (size_t id = 0; id < entries_.size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<uint32_t>(id + 1);
  }
  slots_ = std::move(slots);
}

RankedEntries EntryInterner::Rank() && {
  std::vector<uint32_t> order(entries_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return entries_[a] < entries_[b];
  });
  RankedEntries ranked;
  ranked.rank_of_id.resize(entries_.size());
  for (uint32_t id : order) {
    if (ranked.entries.empty() || ranked.entries.back() < entries_[id]) {
      ranked.entries.push_back(std::move(entries_[id]));
    }
    ranked.rank_of_id[id] = static_cast<uint32_t>(ranked.entries.size() - 1);
  }
  return ranked;
}

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
    state.SetWorkers(1, /*profiling=*/false);
    state.plan_tasks = &plan.tasks;
    state.plan_prefix_depth = depth;
    DrainFrontier(state, std::vector<WorkItem>(1));
    if (!state.first_error.ok()) return state.first_error;
    plan.plan_accounting = std::move(state.runs.front()).TakePartial();
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
  state.SetWorkers(workers, options.profile && profile != nullptr);

  std::vector<WorkItem> roots;
  for (size_t i = 0; i < plan.tasks.size(); ++i) {
    if (plan.shard_of[i] != shard_index) continue;
    WorkItem root;
    root.choices = plan.tasks[i].choices;
    root.path_prob = plan.tasks[i].path_prob;
    // Every chase edge records exactly one choice, so the prefix length is
    // the node's depth; the grounding is re-derived from Σ alone.
    root.depth = root.choices.size();
    root.ids = state.InternEntries(root.choices);
    roots.push_back(std::move(root));
  }
  DrainFrontier(state, std::move(roots));
  const bool profiling = options.profile && profile != nullptr;
  if (profiling) {
    for (const ChaseProfile& p : state.profiles) profile->Merge(p);
  }
  if (!state.first_error.ok()) return state.first_error;

  // Canonical per-shard order: the serialized partial is then identical
  // for every thread count, and the final merge sees the same runs
  // regardless. The plan-level accounting (supports truncated, prefixes
  // pruned while expanding the prefix levels) is owned by shard 0 so the
  // merge counts it exactly once no matter how many processes recomputed
  // the plan; it joins as one more run.
  const uint64_t merge_start_ns = profiling ? MonotonicNanos() : 0;
  if (shard_index == 0) state.runs.emplace_back(plan.plan_accounting);
  PartialSpace out = SortedRun::Merge(std::move(state.runs));
  if (profiling) {
    profile->merge_time_ns +=
        state.sort_time_ns + (MonotonicNanos() - merge_start_ns);
  }
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

SortedRun::SortedRun(PartialSpace partial) {
  EntryInterner interner;
  PartialIds ids;
  InternKeys(partial.outcomes, &interner, &ids.outcomes);
  InternKeys(partial.truncations, &interner, &ids.truncations);
  *this = SortedRun(std::move(partial), std::move(ids),
                    std::make_shared<const RankedEntries>(
                        std::move(interner).Rank()));
}

SortedRun::SortedRun(PartialSpace partial, PartialIds ids,
                     std::shared_ptr<const RankedEntries> ranked)
    : partial_(std::move(partial)),
      ranked_(std::move(ranked)),
      outcome_keys_(std::move(ids.outcomes)),
      truncation_keys_(std::move(ids.truncations)) {
  const std::vector<uint32_t>& rank = ranked_->rank_of_id;
  for (uint32_t& key : outcome_keys_) key = rank[key];
  for (uint32_t& key : truncation_keys_) key = rank[key];
  SortByKeys(&partial_.outcomes, &outcome_keys_);
  SortByKeys(&partial_.truncations, &truncation_keys_);
}

PartialSpace SortedRun::Merge(std::vector<SortedRun> runs) {
  PartialSpace out;
  std::vector<size_t> live;  // runs with outcomes or truncations
  for (size_t r = 0; r < runs.size(); ++r) {
    const PartialSpace& partial = runs[r].partial_;
    out.depth_truncated_paths += partial.depth_truncated_paths;
    out.pruned_paths += partial.pruned_paths;
    out.budget_hit = out.budget_hit || partial.budget_hit;
    if (!partial.outcomes.empty() || !partial.truncations.empty()) {
      live.push_back(r);
    }
  }
  if (live.size() == 1) {
    PartialSpace& only = runs[live.front()].partial_;
    out.outcomes = std::move(only.outcomes);
    out.truncations = std::move(only.truncations);
  }
  if (live.size() <= 1) return out;

  // One rank space for all runs: union their tables, so entries from
  // different runs that compare equivalent get one global rank. Each table
  // is strictly ascending, so every run's remap is monotone and keeps the
  // run sorted. (A chase's own runs share one table; the union is then the
  // identity, and costs a pass over the keys.)
  struct EntryRef {
    const ChoiceEntry* entry;
    uint32_t run;
    uint32_t rank;
  };
  std::vector<EntryRef> refs;
  for (size_t r : live) {
    const std::vector<ChoiceEntry>& entries = runs[r].ranked_->entries;
    for (size_t i = 0; i < entries.size(); ++i) {
      refs.push_back(EntryRef{&entries[i], static_cast<uint32_t>(r),
                              static_cast<uint32_t>(i)});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const EntryRef& a, const EntryRef& b) {
              return *a.entry < *b.entry;
            });
  std::vector<std::vector<uint32_t>> remap(runs.size());
  for (size_t r : live) remap[r].resize(runs[r].ranked_->entries.size());
  uint32_t global = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0 && *refs[i - 1].entry < *refs[i].entry) ++global;
    remap[refs[i].run][refs[i].rank] = global;
  }

  std::vector<MergeInput<PossibleOutcome>> outcomes;
  std::vector<MergeInput<std::pair<ChoiceSet, Prob>>> truncations;
  for (size_t r : live) {
    SortedRun& run = runs[r];
    for (uint32_t& key : run.outcome_keys_) key = remap[r][key];
    for (uint32_t& key : run.truncation_keys_) key = remap[r][key];
    outcomes.push_back({&run.partial_.outcomes, &run.outcome_keys_});
    truncations.push_back({&run.partial_.truncations, &run.truncation_keys_});
  }
  out.outcomes = KWayMerge(std::move(outcomes));
  out.truncations = KWayMerge(std::move(truncations));
  return out;
}

StreamingMerger::StreamingMerger() = default;
StreamingMerger::~StreamingMerger() = default;

void StreamingMerger::Add(PartialSpace partial) {
  Add(SortedRun(std::move(partial)));
}

void StreamingMerger::Add(SortedRun run) { runs_.push_back(std::move(run)); }

size_t StreamingMerger::partials_folded() const { return runs_.size(); }

OutcomeSpace StreamingMerger::Finish(size_t max_outcomes) {
  PartialSpace merged = SortedRun::Merge(std::move(runs_));
  runs_.clear();
  OutcomeSpace space;
  bool budget_hit = merged.budget_hit;
  space.outcomes = std::move(merged.outcomes);
  space.depth_truncated_paths = merged.depth_truncated_paths;
  space.pruned_paths = merged.pruned_paths;
  // Per-shard outcome budgets can overshoot the global one; keep the
  // canonically-first max_outcomes (a single process keeps a
  // schedule-dependent subset instead — only count and flag compare).
  if (max_outcomes != 0 && space.outcomes.size() > max_outcomes) {
    space.outcomes.resize(max_outcomes);
    budget_hit = true;
  }
  // Masses are summed only now, after the k-way merge, so the addition
  // order is the global canonical order for every thread and shard count
  // and every arrival order (double addition is order-sensitive).
  for (const PossibleOutcome& outcome : space.outcomes) {
    space.finite_mass = space.finite_mass + outcome.prob;
  }
  for (const auto& [choices, tail] : merged.truncations) {
    (void)choices;
    space.support_truncation_mass = space.support_truncation_mass + tail;
  }
  space.complete = !budget_hit;
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
  const bool profiling = options.profile && profile != nullptr;
  const uint64_t merge_start_ns = profiling ? MonotonicNanos() : 0;
  OutcomeSpace space =
      MergePartialSpaces(std::move(partials), options.max_outcomes);
  if (profiling) profile->merge_time_ns += MonotonicNanos() - merge_start_ns;
  return space;
}

}  // namespace gdlog
