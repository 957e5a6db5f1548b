#include "gdatalog/chase.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "gdatalog/chase_internal.h"
#include "gdatalog/shard.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace gdlog {

namespace {

/// Extracts the distribution parameters p̄ from a ground Active atom
/// Active^δ(p̄, q̄).
std::vector<Value> ActiveParams(const GroundAtom& active,
                                const DeltaSignature& sig) {
  return std::vector<Value>(active.args.begin(),
                            active.args.begin() + sig.param_count);
}

/// Order-independent fingerprint of a chase node (its choice set). Mixing
/// this into trigger_shuffle_seed makes the shuffled trigger pick a pure
/// function of the node, so the pick sequence cannot depend on the order
/// in which workers happen to reach nodes.
uint64_t HashChoices(const ChoiceSet& choices) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto& [active, outcome] : choices.entries()) {
    h = HashCombine(h, active.Hash());
    h = HashCombine(h, outcome.Hash());
  }
  return h;
}

/// Drops a chase node's grounding and its hold on its parent's when the
/// node is done, on every exit path and in the serial and the pooled drain
/// alike; children keep their own references. With a profile sink the
/// frees are timed into release_time_ns.
struct GroundingRelease {
  ChaseProfile* prof;
  std::shared_ptr<const GroundRuleSet>* parent;
  std::shared_ptr<GroundRuleSet>* own;

  ~GroundingRelease() {
    const uint64_t start_ns = prof != nullptr ? MonotonicNanos() : 0;
    own->reset();
    parent->reset();
    if (prof != nullptr) prof->release_time_ns += MonotonicNanos() - start_ns;
  }
};

}  // namespace

Result<StableModelSet> ChaseEngine::SolveOutcome(
    const ChoiceSet& choices, const GroundRuleSet& grounding,
    uint64_t solver_max_nodes, uint64_t* nodes_used) const {
  if (nodes_used != nullptr) *nodes_used = 0;
  if (grounder_->SettlesNegation()) {
    return grounder_->ReadOffModels(grounding);
  }

  // Σ ∪ G(Σ): the grounding plus one AtR rule Active → Result per choice.
  // The program refers to its atoms, so the Result atoms live in `results`
  // (reserved up front: no reallocation moves them).
  size_t literals = choices.size();
  for (const GroundRule* rule : grounding.rules()) {
    literals += rule->positive.size() + rule->negative.size();
  }
  NormalProgram::Builder builder(grounding.size() + choices.size(), literals);
  for (const GroundRule* rule : grounding.rules()) builder.AddRule(*rule);
  std::vector<GroundAtom> results;
  results.reserve(choices.size());
  for (const auto& [active, outcome] : choices.entries()) {
    const DeltaSignature* sig =
        translated_->SignatureByActive(active.predicate);
    if (sig == nullptr) {
      return Status::Internal("choice on a non-Active predicate");
    }
    results.push_back(ChoiceSet::ResultAtom(sig->result_pred, active, outcome));
    builder.AddRule(results.back(), active);
  }
  const NormalProgram prog = std::move(builder).Build();
  StableModelEnumerator::Options solver_options;
  solver_options.max_nodes = solver_max_nodes;
  return StableModels(prog, solver_options, nodes_used);
}

void ChaseEngine::ProcessNode(ExploreState& state, WorkItem item,
                              size_t worker,
                              std::vector<WorkItem>* children) const {
  const ChaseOptions& options = *state.options;
  PartialSpace& partial = state.partials[worker];

  if (state.failed.load(std::memory_order_acquire)) return;
  // Plan mode: nodes at the prefix depth become shard tasks as-is — all
  // remaining checks (pruning, budgets) re-run identically when the shard
  // that owns the task processes it.
  if (state.plan_tasks != nullptr && item.depth >= state.plan_prefix_depth) {
    ++state.plan_cut_tasks;
    state.plan_tasks->push_back(
        ShardTask{std::move(item.choices), item.path_prob});
    return;
  }
  if (options.max_outcomes != 0 &&
      state.outcome_count.load(std::memory_order_relaxed) >=
          options.max_outcomes) {
    state.budget_hit.store(true, std::memory_order_relaxed);
    return;
  }
  if (options.min_path_prob > 0.0 &&
      item.path_prob.value() < options.min_path_prob) {
    ++partial.pruned_paths;
    state.budget_hit.store(true, std::memory_order_relaxed);
    return;
  }

  // Profiling (options.profile): this worker's accumulator doubles as the
  // thread-local sink the grounding fixpoint attributes per-rule work to.
  // Safe because ProcessNode runs entirely on one thread, in the serial
  // and the pooled drain alike. state.profiles is empty when profiling is
  // off, so the disabled path takes one branch here and none below.
  ChaseProfile* const prof =
      worker < state.profiles.size() ? &state.profiles[worker] : nullptr;
  ProfileScope profile_scope(prof);
  uint64_t ground_start_ns = 0;
  if (prof != nullptr) {
    ++prof->nodes;
    ++prof->Depth(item.depth).nodes;
    ground_start_ns = MonotonicNanos();
  }

  auto grounding = std::make_shared<GroundRuleSet>();
  GroundingRelease release{prof, &item.parent_grounding, &grounding};
  Status ground_status;
  if (item.parent_grounding != nullptr) {
    // Branch: share the parent's grounding and extend it with the newly
    // recorded choice (sound by monotonicity, Definition 3.3). The clone
    // shares the parent's rule segments and, copy-on-write, its matching
    // instance: it costs a pointer per rule and per predicate, and the
    // extension pays only for the rules and facts it derives.
    const uint64_t branch_start_ns = prof != nullptr ? MonotonicNanos() : 0;
    *grounding = item.parent_grounding->Clone();
    if (prof != nullptr) {
      prof->branch_time_ns += MonotonicNanos() - branch_start_ns;
    }
    ground_status = grounder_->Extend(item.choices, item.new_active,
                                      grounding.get());
  } else {
    ground_status = grounder_->Ground(item.choices, grounding.get());
  }
  if (prof != nullptr) {
    const uint64_t elapsed = MonotonicNanos() - ground_start_ns;
    ++prof->ground_calls;
    prof->ground_time_ns += elapsed;
    prof->Depth(item.depth).ground_time_ns += elapsed;
  }
  if (!ground_status.ok()) {
    state.RecordError(ground_status);
    return;
  }

  std::vector<GroundAtom> triggers =
      FindTriggers(*translated_, *grounding, item.choices);

  if (triggers.empty()) {
    // A leaf: λ(v) is a terminal — the result of this finite maximal path
    // is the possible outcome Σ ∪ G(Σ) with Pr = Π δ⟨p̄⟩(o).
    if (state.plan_tasks != nullptr) {
      // Leaves above the prefix cut become tasks too: the owning shard
      // re-grounds them and emits the outcome (with its models), so the
      // planner never solves models and the plan stays cheap.
      state.plan_tasks->push_back(
          ShardTask{std::move(item.choices), item.path_prob});
      return;
    }
    if (options.max_outcomes != 0) {
      size_t slot =
          state.outcome_count.fetch_add(1, std::memory_order_relaxed);
      if (slot >= options.max_outcomes) {
        state.budget_hit.store(true, std::memory_order_relaxed);
        return;
      }
    } else {
      state.outcome_count.fetch_add(1, std::memory_order_relaxed);
    }
    PossibleOutcome outcome;
    outcome.prob = item.path_prob;
    if (options.compute_models) {
      const uint64_t solve_start_ns =
          prof != nullptr ? MonotonicNanos() : 0;
      uint64_t solve_nodes = 0;
      auto models = SolveOutcome(item.choices, *grounding,
                                 options.solver_max_nodes, &solve_nodes);
      if (prof != nullptr) {
        const uint64_t elapsed = MonotonicNanos() - solve_start_ns;
        ++prof->solve_calls;
        prof->solve_nodes += solve_nodes;
        prof->solve_time_ns += elapsed;
        prof->Depth(item.depth).solve_time_ns += elapsed;
      }
      if (!models.ok()) {
        state.RecordError(models.status());
        return;
      }
      outcome.models = std::move(models).value();
    }
    outcome.choices = std::move(item.choices);
    partial.outcomes.push_back(std::move(outcome));
    std::vector<uint32_t>& ids = state.ids[worker].outcomes;
    ids.insert(ids.end(), item.ids.begin(), item.ids.end());
    return;
  }

  if (item.depth >= options.max_depth) {
    ++partial.depth_truncated_paths;
    state.budget_hit.store(true, std::memory_order_relaxed);
    return;
  }

  // Pick one trigger; Lemma 4.4 makes the choice irrelevant for the set of
  // finite results, which E4 verifies by shuffling here.
  size_t pick = 0;
  if (options.trigger_shuffle_seed != 0 && triggers.size() > 1) {
    Rng rng(options.trigger_shuffle_seed ^ HashChoices(item.choices));
    pick = static_cast<size_t>(rng.NextBounded(triggers.size()));
  }
  const GroundAtom& trigger = triggers[pick];
  const DeltaSignature* sig = translated_->SignatureByActive(trigger.predicate);
  if (sig == nullptr) {
    state.RecordError(Status::Internal("trigger is not an Active atom"));
    return;
  }
  std::vector<Value> params = ActiveParams(trigger, *sig);

  bool finite_support = sig->dist->HasFiniteSupport(params);
  std::vector<Value> support =
      sig->dist->Support(params, finite_support ? 0 : options.support_limit);

  // Every child adds its choice at the same index in entry order; the
  // new entries' ids are interned once here, for the canonical sort.
  const size_t slot = item.choices.Position(trigger);
  const std::vector<uint32_t> entry_ids = state.InternEntries(trigger, support);

  Prob enumerated_mass = Prob::Zero();
  children->reserve(children->size() + support.size());
  for (size_t i = 0; i < support.size(); ++i) {
    const Value& o = support[i];
    Prob p = sig->dist->Pmf(params, o);
    enumerated_mass = enumerated_mass + p;
    WorkItem child;
    // The last child may steal the parent's choice set outright — unless
    // the truncation accounting below still needs it.
    if (finite_support && i + 1 == support.size()) {
      child.choices = std::move(item.choices);
      child.ids = std::move(item.ids);
    } else {
      child.choices = item.choices;
      child.ids = item.ids;
    }
    if (!child.choices.Assign(trigger, o)) {
      state.RecordError(Status::Internal("functionally inconsistent choice"));
      return;
    }
    child.ids.insert(child.ids.begin() + slot, entry_ids[i]);
    child.path_prob = item.path_prob * p;
    child.depth = item.depth + 1;
    child.parent_grounding = grounding;
    child.new_active = trigger;
    children->push_back(std::move(child));
  }
  if (!finite_support) {
    // Tail mass of the truncated support joins the residual.
    Prob tail = Prob::One() - enumerated_mass;
    if (tail.value() > 0.0) {
      partial.truncations.emplace_back(item.choices, item.path_prob * tail);
      std::vector<uint32_t>& ids = state.ids[worker].truncations;
      ids.insert(ids.end(), item.ids.begin(), item.ids.end());
      state.budget_hit.store(true, std::memory_order_relaxed);
    }
  }
}

void ChaseEngine::ExploreState::SortPartials(ThreadPool* pool) {
  if (failed.load(std::memory_order_acquire)) {
    partials.clear();  // the chase failed; its result is never read
    ids.clear();
    return;
  }
  const uint64_t start_ns = profiles.empty() ? 0 : MonotonicNanos();
  if (!partials.empty()) {
    partials.front().budget_hit = budget_hit.load(std::memory_order_relaxed);
  }
  auto ranked =
      std::make_shared<const RankedEntries>(std::move(entries).Rank());
  runs.resize(partials.size());
  for (size_t i = 0; i < partials.size(); ++i) {
    auto sort = [this, i, ranked](size_t /*worker*/) {
      runs[i] = SortedRun(std::move(partials[i]), std::move(ids[i]), ranked);
    };
    if (pool != nullptr) {
      pool->Submit(sort);
    } else {
      sort(0);
    }
  }
  if (pool != nullptr) pool->WaitIdle();
  partials.clear();
  ids.clear();
  if (!profiles.empty()) sort_time_ns += MonotonicNanos() - start_ns;
}

void ChaseEngine::DrainFrontier(ExploreState& state,
                                std::vector<WorkItem> roots) const {
  if (state.partials.size() == 1) {
    // Serial: an explicit LIFO stack reproduces the former recursive DFS,
    // including which outcomes are enumerated when a budget binds.
    // Reversed pushes make the stack pop roots (and, below, children) in
    // their given order.
    std::vector<WorkItem> stack;
    std::vector<WorkItem> children;
    stack.reserve(roots.size());
    for (size_t i = roots.size(); i > 0; --i) {
      stack.push_back(std::move(roots[i - 1]));
    }
    while (!stack.empty()) {
      WorkItem item = std::move(stack.back());
      stack.pop_back();
      children.clear();
      ProcessNode(state, std::move(item), /*worker=*/0, &children);
      for (size_t i = children.size(); i > 0; --i) {
        stack.push_back(std::move(children[i - 1]));
      }
    }
    state.SortPartials(nullptr);
    return;
  }
  ThreadPool pool(state.partials.size());
  std::function<void(WorkItem)> enqueue = [&](WorkItem item) {
    auto boxed = std::make_shared<WorkItem>(std::move(item));
    pool.Submit([this, &state, &enqueue, boxed](size_t worker) {
      std::vector<WorkItem> children;
      ProcessNode(state, std::move(*boxed), worker, &children);
      for (WorkItem& child : children) enqueue(std::move(child));
    });
  };
  for (WorkItem& root : roots) enqueue(std::move(root));
  pool.WaitIdle();
  state.SortPartials(&pool);
}

Result<OutcomeSpace> ChaseEngine::Explore(const ChaseOptions& options,
                                          ChaseProfile* profile) const {
  ExploreState state;
  state.options = &options;

  size_t workers = options.num_threads != 0
                       ? options.num_threads
                       : ThreadPool::DefaultWorkerCount();
  if (workers < 1) workers = 1;
  state.SetWorkers(workers, options.profile && profile != nullptr);

  std::vector<WorkItem> roots(1);
  DrainFrontier(state, std::move(roots));

  // Worker-index order keeps the merged counts identical for every
  // schedule (each count is schedule-independent per worker-set already;
  // the order only matters for the transient stratum stamps).
  const bool profiling = options.profile && profile != nullptr;
  if (profiling) {
    for (const ChaseProfile& p : state.profiles) profile->Merge(p);
  }

  if (!state.first_error.ok()) return state.first_error;

  // Deterministic merge (shard.h): the drain left one sorted run per
  // worker; one k-way merge puts everything in the canonical choice-set
  // order across all runs, and only then are masses accumulated. The set
  // of enumerated leaves is schedule-independent whenever no budget binds
  // (Lemma 4.4 order-invariance), so the canonical order makes the whole
  // OutcomeSpace — including the rounding of inexact double masses —
  // bit-identical for every thread count, and likewise for every shard
  // count when the partials come from ExploreShard.
  const uint64_t merge_start_ns = profiling ? MonotonicNanos() : 0;
  StreamingMerger merger;
  for (SortedRun& run : state.runs) merger.Add(std::move(run));
  OutcomeSpace space = merger.Finish(options.max_outcomes);
  if (profiling) {
    profile->merge_time_ns +=
        state.sort_time_ns + (MonotonicNanos() - merge_start_ns);
  }
  return space;
}

Result<ChaseEngine::PathSample> ChaseEngine::SamplePath(
    Rng* rng, const ChaseOptions& options) const {
  PathSample sample;
  // A single path never backtracks, so one grounding is threaded through
  // the whole walk and extended in place, without cloning.
  GroundRuleSet grounding;
  GDLOG_RETURN_IF_ERROR(grounder_->Ground(sample.choices, &grounding));
  for (size_t depth = 0;; ++depth) {
    std::vector<GroundAtom> triggers =
        FindTriggers(*translated_, grounding, sample.choices);
    if (triggers.empty()) {
      if (options.compute_models) {
        GDLOG_ASSIGN_OR_RETURN(
            sample.models,
            SolveOutcome(sample.choices, grounding,
                         options.solver_max_nodes));
      }
      return sample;
    }
    if (depth >= options.max_depth) {
      sample.truncated = true;
      return sample;
    }
    // Resolve the canonically first trigger by sampling; per Theorem 4.6
    // the induced path distribution matches the outcome space regardless of
    // the trigger picked.
    const GroundAtom& trigger = triggers.front();
    const DeltaSignature* sig =
        translated_->SignatureByActive(trigger.predicate);
    if (sig == nullptr) {
      return Status::Internal("trigger is not an Active atom");
    }
    std::vector<Value> params = ActiveParams(trigger, *sig);
    Value o = sig->dist->Sample(params, rng);
    sample.prob = sample.prob * sig->dist->Pmf(params, o);
    if (!sample.choices.Assign(trigger, o)) {
      return Status::Internal("functionally inconsistent sampled choice");
    }
    GDLOG_RETURN_IF_ERROR(
        grounder_->Extend(sample.choices, trigger, &grounding));
  }
}

}  // namespace gdlog
