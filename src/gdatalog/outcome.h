#ifndef GDLOG_GDATALOG_OUTCOME_H_
#define GDLOG_GDATALOG_OUTCOME_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "gdatalog/choice.h"
#include "gdatalog/translation.h"
#include "stable/solver.h"
#include "util/prob.h"

namespace gdlog {

/// A finite possible outcome of D w.r.t. Π relative to a grounder G
/// (Definition 3.7): the choice set Σ, its probability Pr(Σ) = Π δ⟨p̄⟩(o)
/// over the Result atoms of heads(Σ), and the induced set of stable models
/// sms(Σ ∪ G(Σ)). The grounding G(Σ) is not kept: it is a function of Σ
/// (Definition 3.3), so `grounder().Ground(choices, &g)` re-derives it.
struct PossibleOutcome {
  ChoiceSet choices;
  Prob prob;
  StableModelSet models;
};

/// The probability space Π_G(D) = (Ω, F, P) restricted to what a finite
/// computation can materialize: the enumerated finite outcomes plus the
/// residual mass. The residual covers (a) the error event Ω∞ (genuinely
/// infinite outcomes, which the paper — following Grohe et al. — treats as
/// invalid) and (b) mass the exploration budget left unexplored;
/// `complete == true` means budgets never bound, so the residual is exactly
/// the Ω∞ mass (and zero when every chase path terminated).
class OutcomeSpace {
 public:
  std::vector<PossibleOutcome> outcomes;

  /// Σ Pr over the enumerated finite outcomes.
  Prob finite_mass = Prob::Zero();
  /// 1 - finite_mass.
  Prob residual_mass() const { return Prob::One() - finite_mass; }

  /// True iff no budget (outcome count, depth, support truncation,
  /// min-path probability) was hit during exploration.
  bool complete = true;
  /// Paths abandoned due to the depth budget.
  size_t depth_truncated_paths = 0;
  /// Mass lost to truncating countably infinite supports.
  Prob support_truncation_mass = Prob::Zero();
  /// Paths pruned below min_path_prob.
  size_t pruned_paths = 0;

  // -------------------------------------------------------------------
  // Events of the σ-algebra F: maximal families of finite outcomes with
  // equal stable-model sets (plus the residual/error event).
  // -------------------------------------------------------------------

  /// P restricted to the generating events: stable-model set ↦ mass.
  std::map<StableModelSet, Prob> Events() const;

  /// P(the program has at least one stable model): total mass of outcomes
  /// with sms(Σ) ≠ ∅.
  Prob ProbConsistent() const;

  /// P(sms(Σ) = ∅) over enumerated outcomes (the "no stable model" event;
  /// e.g. malware domination in Example 3.10).
  Prob ProbInconsistent() const;

  /// Credal marginal of a ground atom: an outcome with a non-empty model
  /// set counts toward `lower` when the atom is in *every* stable model,
  /// and toward `upper` when it is in *some* stable model (Cozman–Mauá
  /// credal reading; inconsistent outcomes count toward neither).
  struct Bounds {
    Prob lower = Prob::Zero();
    Prob upper = Prob::Zero();
  };
  Bounds Marginal(const GroundAtom& atom) const;

  /// Conditional credal marginal given consistency: Marginal() divided by
  /// `consistent`, which must be this space's ProbConsistent() — callers
  /// pass the precomputed AnswerIndex::prob_consistent() rather than
  /// re-summing it (the constraint-conditioning of PPDL). Returns nullopt
  /// when P(consistent) = 0.
  std::optional<Bounds> MarginalGivenConsistent(const GroundAtom& atom,
                                                const Prob& consistent) const;

  /// Strips Active/Result bookkeeping atoms from a model, yielding the
  /// user-facing instance over sch(Π) ("modulo active/result").
  static StableModel StripAuxiliary(const StableModel& model,
                                    const TranslatedProgram& translated);

  /// The space a fresh chase would produce if `facts` were appended to the
  /// database, *provided* their predicates occur in no rule body of Π: the
  /// facts enter every grounding only as body-less rules, so every stable
  /// model of every outcome gains exactly them, while choices,
  /// probabilities, masses, consistency and outcome order are untouched
  /// (splitting-set argument in ROADMAP "Incremental serving
  /// architecture"). It copies every model; the serving layer revalidates
  /// through AnswerIndex::WithAddedFacts instead, and this materialized
  /// space is the reference that overlay is tested against.
  OutcomeSpace WithAddedFacts(const std::vector<GroundAtom>& facts) const;
};

/// The atoms of model ∪ added (both sorted), ascending, each once: a
/// cursor, so two merged models can be compared in step without copying.
class MergedAtoms {
 public:
  MergedAtoms(const StableModel& model, const std::vector<GroundAtom>& added)
      : a_(model.data()),
        a_end_(a_ + model.size()),
        b_(added.data()),
        b_end_(b_ + added.size()) {}

  bool done() const { return a_ == a_end_ && b_ == b_end_; }

  const GroundAtom& front() const {
    if (b_ == b_end_) return *a_;
    if (a_ == a_end_) return *b_;
    return *b_ < *a_ ? *b_ : *a_;
  }

  void pop() {
    if (b_ == b_end_) {
      ++a_;
    } else if (a_ == a_end_) {
      ++b_;
    } else {
      const bool a_first = !(*b_ < *a_);
      if (!(*a_ < *b_)) ++b_;  // equal atoms advance both
      if (a_first) ++a_;
    }
  }

 private:
  const GroundAtom* a_;
  const GroundAtom* a_end_;
  const GroundAtom* b_;
  const GroundAtom* b_end_;
};

/// Definition 3.8's answers over one immutable OutcomeSpace, derived once
/// instead of on every read — what the serving layer caches beside each
/// space, and what OutcomeSpaceToJson renders from.
///
/// An index may also carry facts added to the database after the chase
/// whose predicates occur in no rule body of Π (cache revalidation): every
/// model M of the chased space then reads as M ∪ added_facts(), and every
/// answer of the index is the answer OutcomeSpace::WithAddedFacts would
/// give, without a model being copied. Readers must therefore go through
/// the index (Marginal, ForEachModel, ForEachAtom, events), not through
/// space(), whose models lack the added facts.
///
/// P(consistent) and P(inconsistent) are computed by the constructor in
/// one pass. The event rows are built by the first events() call (once,
/// thread-safe), so readers that never ask for events never pay for them.
/// Every mass is summed in outcome order, exactly as ProbConsistent(),
/// ProbInconsistent() and Events() sum it, so inexact probabilities round
/// to the same bits.
class AnswerIndex {
 public:
  /// One generating event of F: the outcomes sharing a stable-model set.
  struct EventRow {
    Prob mass;
    size_t num_models = 0;    ///< |sms| of the shared model set.
    size_t num_outcomes = 0;  ///< Outcomes in the event.
  };

  /// Indexes a space the index shares ownership of.
  explicit AnswerIndex(std::shared_ptr<const OutcomeSpace> space);
  /// Indexes a space the caller keeps alive for the index's lifetime.
  explicit AnswerIndex(const OutcomeSpace& space);

  /// The chased space. Its models lack added_facts().
  const OutcomeSpace& space() const { return *space_; }
  /// The facts added since the chase, sorted and duplicate-free; empty for
  /// the index of a chase.
  const std::vector<GroundAtom>& added_facts() const;
  const Prob& prob_consistent() const { return prob_consistent_; }
  const Prob& prob_inconsistent() const { return prob_inconsistent_; }

  /// The rows of Events() over the models as this index reads them, in its
  /// std::map<StableModelSet> order, with each event's outcome count.
  const std::vector<EventRow>& events() const;

  /// OutcomeSpace::Marginal over the models as this index reads them. An
  /// added atom is in every model, so its bounds are P(consistent) on both
  /// sides, summed in the same order as Marginal would sum them.
  OutcomeSpace::Bounds Marginal(const GroundAtom& atom) const;
  /// OutcomeSpace::MarginalGivenConsistent with this index's
  /// P(consistent); nullopt when it is 0.
  std::optional<OutcomeSpace::Bounds> MarginalGivenConsistent(
      const GroundAtom& atom) const;

  /// Calls visit(model) for each model of `models` (an outcome's set in
  /// space()), in the order of the set the index reads — the added facts
  /// can reorder models ([a] < [a,c], but with d added [a,c,d] < [a,d]).
  /// The models passed are space()'s; read their atoms with ForEachAtom.
  template <typename Visit>
  void ForEachModel(const StableModelSet& models, Visit&& visit) const {
    if (added_ == nullptr) {
      for (const StableModel& model : models) visit(model);
      return;
    }
    for (const StableModel* model : OrderedModels(models)) visit(*model);
  }

  /// Calls visit(atom) for each atom of model ∪ added_facts(), ascending,
  /// each once. Copies nothing.
  template <typename Visit>
  void ForEachAtom(const StableModel& model, Visit&& visit) const {
    for (MergedAtoms m(model, added_facts()); !m.done(); m.pop()) {
      visit(m.front());
    }
  }

  /// The index of this space with `facts` also added, for cache
  /// revalidation. It shares the chased space and the chased index's event
  /// rows, merges `facts` into the added list in O(|added| + |facts|), and
  /// keeps P(consistent) and P(inconsistent): adding the same facts to
  /// every model changes no probability and no model set's emptiness. Its
  /// event rows are the chased rows, re-sorted when the added facts reorder
  /// the model sets, and re-summed from the outcomes when they make two
  /// model sets equal.
  std::shared_ptr<const AnswerIndex> WithAddedFacts(
      const std::vector<GroundAtom>& facts) const;

 private:
  /// The chased space's event rows, built once and shared by every index
  /// revalidated from the chased one.
  struct ChasedEvents;

  AnswerIndex(const AnswerIndex& source,
              std::shared_ptr<const std::vector<GroundAtom>> added);

  const ChasedEvents& chased_events() const;
  /// `models` in the order of the set {M ∪ added_facts() : M ∈ models}.
  std::vector<const StableModel*> OrderedModels(
      const StableModelSet& models) const;
  /// Derives this index's rows from the chased rows (added facts only).
  void BuildOverlayEvents(const ChasedEvents& chased) const;

  std::shared_ptr<const OutcomeSpace> space_;
  /// nullptr when nothing was added.
  std::shared_ptr<const std::vector<GroundAtom>> added_;
  Prob prob_consistent_;
  Prob prob_inconsistent_;
  std::shared_ptr<ChasedEvents> chased_;
  mutable std::once_flag events_once_;
  /// The rows events() returns: the chased rows or own_events_.
  mutable const std::vector<EventRow>* events_ = nullptr;
  mutable std::vector<EventRow> own_events_;
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_OUTCOME_H_
