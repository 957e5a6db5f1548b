#ifndef GDLOG_STABLE_SOLVER_H_
#define GDLOG_STABLE_SOLVER_H_

#include <functional>
#include <set>
#include <vector>

#include "stable/normal_program.h"
#include "stable/wfs.h"
#include "util/status.h"

namespace gdlog {

/// A stable model rendered as a canonically sorted set of ground atoms.
using StableModel = std::vector<GroundAtom>;

/// A set of stable models in canonical order — the objects the paper's
/// possible outcomes induce (sms(Σ)); usable as an ordered map key when
/// grouping outcomes into σ-algebra events.
using StableModelSet = std::set<StableModel>;

/// Enumerates the stable models of a ground normal program.
///
/// Algorithm: depth-first search over the atoms that occur in negative
/// bodies (the only atoms whose truth distinguishes stable models), tried
/// true then false in ascending id order, kept on an explicit decision
/// stack over one assignment trail — no recursion, and backtracking
/// undoes the trail. Each decision is propagated incrementally, as in
/// smodels' expand (Simons, Niemelä & Soininen 2002): per-rule counters of
/// open and falsified body literals and per-atom counts of unblocked
/// supporting rules drive forward inference (a true body makes its head
/// true; an atom with no unblocked rule is false) and backward inference
/// (a true atom with one unblocked rule makes that body true; a false head
/// falsifies the last open literal of a rule; ⊥ is false, so constraints
/// prune). An unfounded-set check falsifies atoms on positive loops that
/// lost every non-circular support: each such atom keeps a source rule
/// whose same-component positive atoms are themselves sourced, and only
/// atoms whose source was blocked are re-sourced. The closure contains
/// the well-founded model conditioned on the decisions, so the search tree
/// is never larger than one that recomputes that model at every node, and
/// stratified programs are solved without branching. Every leaf is still
/// verified against the least model of its Gelfond–Lifschitz reduct, so
/// soundness never rests on propagation.
class StableModelEnumerator {
 public:
  struct Options {
    /// Stop after this many models (0 = unlimited).
    uint64_t max_models = 0;
    /// Abort with BudgetExhausted after this many search nodes.
    uint64_t max_nodes = 10'000'000;
  };

  explicit StableModelEnumerator(const NormalProgram& prog) : prog_(prog) {}
  StableModelEnumerator(const NormalProgram& prog, Options options)
      : prog_(prog), options_(options) {}

  /// Invokes `cb` with each stable model as a sorted vector of true atom
  /// ids. The callback returns false to stop early. Never reports
  /// duplicates.
  Status Enumerate(const std::function<bool(const std::vector<uint32_t>&)>& cb);

  /// Number of search nodes used by the last Enumerate call: the root plus
  /// one per decision tried.
  uint64_t nodes_used() const { return nodes_; }

 private:
  const NormalProgram& prog_;
  Options options_ = {};
  uint64_t nodes_ = 0;
};

/// All stable models of `prog`, each as a canonically sorted ground-atom
/// vector, in a sorted set. Honors `options` budgets; `nodes_used`, when
/// given, receives the search's node count.
Result<StableModelSet> StableModels(
    const NormalProgram& prog,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{},
    uint64_t* nodes_used = nullptr);

/// Convenience: all stable models of a ground TGD¬ program, as canonically
/// sorted ground-atom vectors, sorted set. Honors `options` budgets.
Result<StableModelSet> AllStableModels(
    const GroundRuleSet& rules,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{});

/// Convenience: true iff the ground program has at least one stable model.
Result<bool> HasStableModel(
    const GroundRuleSet& rules,
    StableModelEnumerator::Options options = StableModelEnumerator::Options{});

}  // namespace gdlog

#endif  // GDLOG_STABLE_SOLVER_H_
