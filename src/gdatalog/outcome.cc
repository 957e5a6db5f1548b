#include "gdatalog/outcome.h"

#include <algorithm>
#include <iterator>
#include <map>

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

struct AnswerIndex::ChasedEvents {
  std::once_flag once;
  std::vector<EventRow> rows;
  /// Each row's model set in the chased space.
  std::vector<const StableModelSet*> sets;
  /// Each outcome's row.
  std::vector<uint32_t> outcome_row;

  /// Where rows i-1 and i first differ, when each holds one model x < y:
  /// the smallest atom of x Δ y. Unless that atom is added, it stays the
  /// smallest of (x ∪ A) Δ (y ∪ A) and the order stays x ∪ A < y ∪ A,
  /// except when x is a proper prefix of y (the atom is y's) and some
  /// added atom sorts after it: then x ∪ A runs on past it and sorts last.
  struct Split {
    const GroundAtom* atom = nullptr;  ///< null: not two one-model rows
    bool prefix = false;               ///< x is a proper prefix of y
  };
  /// The splits, built once per chased space on first use and shared by
  /// every index revalidated from it.
  const std::vector<Split>& Splits() const {
    std::call_once(splits_once, [this] {
      splits.resize(rows.size());
      for (size_t i = 1; i < rows.size(); ++i) {
        if (sets[i - 1]->size() != 1 || sets[i]->size() != 1) continue;
        const StableModel& x = *sets[i - 1]->begin();
        const StableModel& y = *sets[i]->begin();
        auto [xi, yi] = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
        if (yi == y.end()) continue;  // not x < y: left to the full compare
        splits[i] = xi == x.end() ? Split{&*yi, true} : Split{&*xi, false};
      }
    });
    return splits;
  }
  mutable std::once_flag splits_once;
  mutable std::vector<Split> splits;

  /// Mirrors Events(): outcomes are grouped by pointer to their model set,
  /// so no set is copied; the first outcome of a set seeds its mass and
  /// later ones add to it in outcome order.
  void Build(const OutcomeSpace& space) {
    struct DerefLess {
      bool operator()(const StableModelSet* a,
                      const StableModelSet* b) const {
        return *a < *b;
      }
    };
    std::map<const StableModelSet*, uint32_t, DerefLess> group_of;
    std::vector<EventRow> groups;
    std::vector<uint32_t> outcome_group;
    outcome_group.reserve(space.outcomes.size());
    for (const PossibleOutcome& outcome : space.outcomes) {
      auto [it, inserted] = group_of.try_emplace(
          &outcome.models, static_cast<uint32_t>(groups.size()));
      if (inserted) {
        EventRow& row = groups.emplace_back();
        row.mass = outcome.prob;
        row.num_models = outcome.models.size();
      } else {
        EventRow& row = groups[it->second];
        row.mass = row.mass + outcome.prob;
      }
      ++groups[it->second].num_outcomes;
      outcome_group.push_back(it->second);
    }
    std::vector<uint32_t> rank(groups.size());
    rows.reserve(groups.size());
    sets.reserve(groups.size());
    for (const auto& [models, group] : group_of) {
      rank[group] = static_cast<uint32_t>(rows.size());
      rows.push_back(groups[group]);
      sets.push_back(models);
    }
    outcome_row.reserve(outcome_group.size());
    for (uint32_t group : outcome_group) outcome_row.push_back(rank[group]);
  }
};

namespace {

int CompareAtoms(const GroundAtom& x, const GroundAtom& y) {
  if (x < y) return -1;
  return y < x ? 1 : 0;
}

/// Three-way StableModel comparison of x ∪ added against y ∪ added.
int CompareMerged(const StableModel& x, const StableModel& y,
                  const std::vector<GroundAtom>& added) {
  MergedAtoms a(x, added);
  MergedAtoms b(y, added);
  for (;;) {
    if (a.done()) return b.done() ? 0 : -1;
    if (b.done()) return 1;
    const int c = CompareAtoms(a.front(), b.front());
    if (c != 0) return c;
    a.pop();
    b.pop();
  }
}

/// The models of `models` in the order of {M ∪ added : M ∈ models}: set
/// order, re-sorted only when the added facts reorder it.
std::vector<const StableModel*> MergedOrder(
    const StableModelSet& models, const std::vector<GroundAtom>& added) {
  std::vector<const StableModel*> ordered;
  ordered.reserve(models.size());
  for (const StableModel& model : models) ordered.push_back(&model);
  auto less = [&added](const StableModel* x, const StableModel* y) {
    return CompareMerged(*x, *y, added) < 0;
  };
  if (!std::is_sorted(ordered.begin(), ordered.end(), less)) {
    std::stable_sort(ordered.begin(), ordered.end(), less);
  }
  return ordered;
}

/// The constraint-conditioning both MarginalGivenConsistent share: `joint`
/// divided by `consistent` (exactly when both are exact rationals), or
/// nullopt when P(consistent) = 0.
std::optional<OutcomeSpace::Bounds> Condition(
    const OutcomeSpace::Bounds& joint, const Prob& consistent) {
  if (!(consistent.value() > 0.0)) return std::nullopt;
  const Rational& denom = consistent.rational();
  auto divide = [&](const Prob& numer) {
    if (numer.exact() && denom.exact() && denom.numerator() != 0) {
      return Prob(numer.rational() *
                  Rational(denom.denominator(), denom.numerator()));
    }
    return Prob(Rational::FromDecimal(numer.value() / consistent.value()));
  };
  OutcomeSpace::Bounds conditioned;
  conditioned.lower = divide(joint.lower);
  conditioned.upper = divide(joint.upper);
  return conditioned;
}

}  // namespace

AnswerIndex::AnswerIndex(std::shared_ptr<const OutcomeSpace> space)
    : space_(std::move(space)), chased_(std::make_shared<ChasedEvents>()) {
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

AnswerIndex::AnswerIndex(const AnswerIndex& source,
                         std::shared_ptr<const std::vector<GroundAtom>> added)
    : space_(source.space_),
      added_(std::move(added)),
      prob_consistent_(source.prob_consistent_),
      prob_inconsistent_(source.prob_inconsistent_),
      chased_(source.chased_) {}

const std::vector<GroundAtom>& AnswerIndex::added_facts() const {
  static const std::vector<GroundAtom> kNone;
  return added_ != nullptr ? *added_ : kNone;
}

const AnswerIndex::ChasedEvents& AnswerIndex::chased_events() const {
  std::call_once(chased_->once, [this] { chased_->Build(*space_); });
  return *chased_;
}

const std::vector<AnswerIndex::EventRow>& AnswerIndex::events() const {
  std::call_once(events_once_, [this] {
    const ChasedEvents& chased = chased_events();
    if (added_ == nullptr) {
      events_ = &chased.rows;
    } else {
      BuildOverlayEvents(chased);
    }
  });
  return *events_;
}

void AnswerIndex::BuildOverlayEvents(const ChasedEvents& chased) const {
  const std::vector<GroundAtom>& added = *added_;
  const size_t n = chased.rows.size();
  // std::set's lexicographic order over the merged models of two rows.
  auto compare = [&](uint32_t x, uint32_t y) {
    const StableModelSet& xs = *chased.sets[x];
    const StableModelSet& ys = *chased.sets[y];
    if (xs.size() == 1 && ys.size() == 1) {
      return CompareMerged(*xs.begin(), *ys.begin(), added);
    }
    const std::vector<const StableModel*> xm = MergedOrder(xs, added);
    const std::vector<const StableModel*> ym = MergedOrder(ys, added);
    for (size_t i = 0; i < xm.size() && i < ym.size(); ++i) {
      const int c = CompareMerged(*xm[i], *ym[i], added);
      if (c != 0) return c;
    }
    return xm.size() < ym.size() ? -1 : (xm.size() > ym.size() ? 1 : 0);
  };
  // Adjacent rows keep their order unless an added atom reaches the spot
  // where they first differ; only such pairs need the merged compare.
  const std::vector<ChasedEvents::Split>& splits = chased.Splits();
  auto in_order = [&](uint32_t i) {
    const ChasedEvents::Split& split = splits[i];
    if (split.atom != nullptr &&
        !std::binary_search(added.begin(), added.end(), *split.atom)) {
      return !split.prefix || added.back() < *split.atom;
    }
    return compare(i - 1, i) < 0;
  };
  bool sorted = true;
  for (uint32_t i = 1; i < n && sorted; ++i) sorted = in_order(i);
  if (sorted) {
    events_ = &chased.rows;
    return;
  }
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return compare(x, y) < 0;
  });
  // The event each chased row falls in: rows whose model sets the added
  // facts made equal share one.
  std::vector<uint32_t> event_of(n);
  uint32_t events = 0;
  bool collapsed = false;
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && compare(order[k - 1], order[k]) == 0) {
      collapsed = true;
    } else {
      ++events;
    }
    event_of[order[k]] = events - 1;
  }
  if (!collapsed) {
    own_events_.reserve(n);
    for (uint32_t row : order) own_events_.push_back(chased.rows[row]);
  } else {
    // Re-sum every event from the outcomes, in outcome order, as Events()
    // sums the materialized space: adding the two rows' masses would round
    // inexact probabilities differently. Within one model set no two
    // models collapse (the added predicates' atoms are fixed by the
    // model's other atoms through the same ground rules), so |sms| stays.
    own_events_.assign(events, EventRow{});
    const std::vector<PossibleOutcome>& outcomes = space_->outcomes;
    for (size_t o = 0; o < outcomes.size(); ++o) {
      EventRow& row = own_events_[event_of[chased.outcome_row[o]]];
      if (row.num_outcomes == 0) {
        row.mass = outcomes[o].prob;
        row.num_models = outcomes[o].models.size();
      } else {
        row.mass = row.mass + outcomes[o].prob;
      }
      ++row.num_outcomes;
    }
  }
  events_ = &own_events_;
}

std::vector<const StableModel*> AnswerIndex::OrderedModels(
    const StableModelSet& models) const {
  return MergedOrder(models, added_facts());
}

OutcomeSpace::Bounds AnswerIndex::Marginal(const GroundAtom& atom) const {
  const std::vector<GroundAtom>& added = added_facts();
  if (std::binary_search(added.begin(), added.end(), atom)) {
    // In every model of every consistent outcome: both of Marginal's sums
    // add exactly the outcomes P(consistent) adds, in the same order.
    return OutcomeSpace::Bounds{prob_consistent_, prob_consistent_};
  }
  return space_->Marginal(atom);
}

std::optional<OutcomeSpace::Bounds> AnswerIndex::MarginalGivenConsistent(
    const GroundAtom& atom) const {
  return Condition(Marginal(atom), prob_consistent_);
}

std::optional<OutcomeSpace::Bounds> OutcomeSpace::MarginalGivenConsistent(
    const GroundAtom& atom, const Prob& consistent) const {
  return Condition(Marginal(atom), consistent);
}

std::shared_ptr<const AnswerIndex> AnswerIndex::WithAddedFacts(
    const std::vector<GroundAtom>& facts) const {
  if (facts.empty()) {
    return std::shared_ptr<const AnswerIndex>(new AnswerIndex(*this, added_));
  }
  std::vector<GroundAtom> sorted = facts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const std::vector<GroundAtom>& added = added_facts();
  auto merged = std::make_shared<std::vector<GroundAtom>>();
  merged->reserve(added.size() + sorted.size());
  std::set_union(added.begin(), added.end(), sorted.begin(), sorted.end(),
                 std::back_inserter(*merged));
  return std::shared_ptr<const AnswerIndex>(
      new AnswerIndex(*this, std::move(merged)));
}

}  // namespace gdlog
