#include "gdatalog/outcome.h"

#include <algorithm>
#include <iterator>

namespace gdlog {

std::map<StableModelSet, Prob> OutcomeSpace::Events() const {
  std::map<StableModelSet, Prob> events;
  for (const PossibleOutcome& outcome : outcomes) {
    auto [it, inserted] = events.emplace(outcome.models, outcome.prob);
    if (!inserted) it->second = it->second + outcome.prob;
  }
  return events;
}

Prob OutcomeSpace::ProbConsistent() const {
  Prob mass = Prob::Zero();
  for (const PossibleOutcome& outcome : outcomes) {
    if (!outcome.models.empty()) mass = mass + outcome.prob;
  }
  return mass;
}

Prob OutcomeSpace::ProbInconsistent() const {
  Prob mass = Prob::Zero();
  for (const PossibleOutcome& outcome : outcomes) {
    if (outcome.models.empty()) mass = mass + outcome.prob;
  }
  return mass;
}

OutcomeSpace::Bounds OutcomeSpace::Marginal(const GroundAtom& atom) const {
  Bounds bounds;
  for (const PossibleOutcome& outcome : outcomes) {
    if (outcome.models.empty()) continue;
    bool in_all = true;
    bool in_some = false;
    for (const StableModel& model : outcome.models) {
      bool contains =
          std::binary_search(model.begin(), model.end(), atom);
      in_all = in_all && contains;
      in_some = in_some || contains;
    }
    if (in_all) bounds.lower = bounds.lower + outcome.prob;
    if (in_some) bounds.upper = bounds.upper + outcome.prob;
  }
  return bounds;
}

std::optional<OutcomeSpace::Bounds> OutcomeSpace::MarginalGivenConsistent(
    const GroundAtom& atom, const Prob& consistent) const {
  if (!(consistent.value() > 0.0)) return std::nullopt;
  Bounds joint = Marginal(atom);
  Bounds conditioned;
  // Exact division when both sides are exact rationals.
  const Rational& denom = consistent.rational();
  auto divide = [&](const Prob& numer) {
    if (numer.exact() && denom.exact() && denom.numerator() != 0) {
      return Prob(numer.rational() *
                  Rational(denom.denominator(), denom.numerator()));
    }
    return Prob(Rational::FromDecimal(numer.value() / consistent.value()));
  };
  conditioned.lower = divide(joint.lower);
  conditioned.upper = divide(joint.upper);
  return conditioned;
}

StableModel OutcomeSpace::StripAuxiliary(const StableModel& model,
                                         const TranslatedProgram& translated) {
  StableModel out;
  out.reserve(model.size());
  for (const GroundAtom& atom : model) {
    if (translated.IsActivePredicate(atom.predicate) ||
        translated.IsResultPredicate(atom.predicate)) {
      continue;
    }
    out.push_back(atom);
  }
  return out;
}

namespace {

// WithAddedFacts copies OutcomeSpace and PossibleOutcome field by field.
// These mirrors list the fields it copies, in declaration order; a field
// added to either struct changes its size and fails the asserts below
// until WithAddedFacts copies it too.
struct OutcomeSpaceFields {
  std::vector<PossibleOutcome> outcomes;
  Prob finite_mass;
  bool complete;
  size_t depth_truncated_paths;
  Prob support_truncation_mass;
  size_t pruned_paths;
};
struct PossibleOutcomeFields {
  ChoiceSet choices;
  Prob prob;
  StableModelSet models;
  std::shared_ptr<const GroundRuleSet> grounding;
};
static_assert(sizeof(OutcomeSpace) == sizeof(OutcomeSpaceFields),
              "OutcomeSpace changed: update WithAddedFacts and the mirror");
static_assert(sizeof(PossibleOutcome) == sizeof(PossibleOutcomeFields),
              "PossibleOutcome changed: update WithAddedFacts and the mirror");

}  // namespace

OutcomeSpace OutcomeSpace::WithAddedFacts(
    const std::vector<GroundAtom>& facts) const {
  if (facts.empty()) return *this;
  std::vector<GroundAtom> sorted = facts;
  std::sort(sorted.begin(), sorted.end());
  // Every field but the outcomes is copied as is; the outcomes are built
  // here rather than copied and then overwritten, which would copy every
  // model only to discard it.
  OutcomeSpace out;
  out.finite_mass = finite_mass;
  out.complete = complete;
  out.depth_truncated_paths = depth_truncated_paths;
  out.support_truncation_mass = support_truncation_mass;
  out.pruned_paths = pruned_paths;
  out.outcomes.reserve(outcomes.size());
  for (const PossibleOutcome& outcome : outcomes) {
    PossibleOutcome& patched = out.outcomes.emplace_back();
    patched.choices = outcome.choices;
    patched.prob = outcome.prob;
    patched.grounding = outcome.grounding;
    for (const StableModel& model : outcome.models) {
      StableModel merged;
      merged.reserve(model.size() + sorted.size());
      std::merge(model.begin(), model.end(), sorted.begin(), sorted.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      patched.models.insert(std::move(merged));
    }
  }
  return out;
}

AnswerIndex::AnswerIndex(std::shared_ptr<const OutcomeSpace> space)
    : space_(std::move(space)) {
  // One pass, each mass summed in outcome order: the same additions, in the
  // same order, as ProbConsistent() and ProbInconsistent().
  for (const PossibleOutcome& outcome : space_->outcomes) {
    Prob& mass =
        outcome.models.empty() ? prob_inconsistent_ : prob_consistent_;
    mass = mass + outcome.prob;
  }
}

// The aliasing constructor with an empty owner: a non-owning pointer.
AnswerIndex::AnswerIndex(const OutcomeSpace& space)
    : AnswerIndex(std::shared_ptr<const OutcomeSpace>(
          std::shared_ptr<const OutcomeSpace>(), &space)) {}

AnswerIndex::AnswerIndex(std::shared_ptr<const OutcomeSpace> space,
                         const Prob& prob_consistent,
                         const Prob& prob_inconsistent)
    : space_(std::move(space)),
      prob_consistent_(prob_consistent),
      prob_inconsistent_(prob_inconsistent) {}

const std::vector<AnswerIndex::EventRow>& AnswerIndex::events() const {
  std::call_once(events_once_, [this] {
    struct DerefLess {
      bool operator()(const StableModelSet* a,
                      const StableModelSet* b) const {
        return *a < *b;
      }
    };
    // Mirrors Events(): the first outcome of a set seeds its mass, later
    // ones add to it in outcome order.
    std::map<const StableModelSet*, EventRow, DerefLess> groups;
    for (const PossibleOutcome& outcome : space_->outcomes) {
      auto [it, inserted] = groups.try_emplace(&outcome.models);
      EventRow& row = it->second;
      if (inserted) {
        row.mass = outcome.prob;
        row.num_models = outcome.models.size();
      } else {
        row.mass = row.mass + outcome.prob;
      }
      ++row.num_outcomes;
    }
    events_.reserve(groups.size());
    for (const auto& [models, row] : groups) events_.push_back(row);
  });
  return events_;
}

std::shared_ptr<const AnswerIndex> AnswerIndex::WithAddedFacts(
    const std::vector<GroundAtom>& facts) const {
  auto patched =
      std::make_shared<const OutcomeSpace>(space_->WithAddedFacts(facts));
  return std::shared_ptr<const AnswerIndex>(new AnswerIndex(
      std::move(patched), prob_consistent_, prob_inconsistent_));
}

}  // namespace gdlog
