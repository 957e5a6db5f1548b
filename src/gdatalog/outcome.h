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
/// (Definition 3.7): the choice set Σ with its grounding G(Σ), its
/// probability Pr(Σ) = Π δ⟨p̄⟩(o) over the Result atoms of heads(Σ), and
/// the induced set of stable models sms(Σ ∪ G(Σ)).
struct PossibleOutcome {
  ChoiceSet choices;
  Prob prob;
  StableModelSet models;
  /// The grounding G(Σ), retained only when ChaseOptions.keep_groundings.
  std::shared_ptr<const GroundRuleSet> grounding;
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
  /// architecture"). The serving layer's cache-revalidation patch.
  OutcomeSpace WithAddedFacts(const std::vector<GroundAtom>& facts) const;
};

/// Definition 3.8's answers over one immutable OutcomeSpace, derived once
/// instead of on every read — what the serving layer caches beside each
/// space, and what OutcomeSpaceToJson renders from.
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

  const OutcomeSpace& space() const { return *space_; }
  const Prob& prob_consistent() const { return prob_consistent_; }
  const Prob& prob_inconsistent() const { return prob_inconsistent_; }

  /// The rows of Events(), in its std::map<StableModelSet> order, with each
  /// event's outcome count. Outcomes are grouped by pointer to their model
  /// set, so no model set is copied.
  const std::vector<EventRow>& events() const;

  /// The index of space().WithAddedFacts(facts), for cache revalidation.
  /// Adding the same facts to every model changes no probability and no
  /// model set's emptiness, so the scalars carry over as they are. The
  /// event rows do not: the added facts can reorder model sets (with
  /// [a] < [a,c], adding d gives [a,c,d] < [a,d]) or merge two of them,
  /// so the new index rebuilds its rows on first use.
  std::shared_ptr<const AnswerIndex> WithAddedFacts(
      const std::vector<GroundAtom>& facts) const;

 private:
  AnswerIndex(std::shared_ptr<const OutcomeSpace> space,
              const Prob& prob_consistent, const Prob& prob_inconsistent);

  std::shared_ptr<const OutcomeSpace> space_;
  Prob prob_consistent_;
  Prob prob_inconsistent_;
  mutable std::once_flag events_once_;
  mutable std::vector<EventRow> events_;
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_OUTCOME_H_
