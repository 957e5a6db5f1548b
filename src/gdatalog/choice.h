#ifndef GDLOG_GDATALOG_CHOICE_H_
#define GDLOG_GDATALOG_CHOICE_H_

#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "ground/fact_store.h"
#include "util/prob.h"

namespace gdlog {

/// A functionally consistent set Σ of ground AtR TGDs
/// (Active(p̄,q̄) → Result(p̄,q̄,o)): one sampled outcome per Active atom —
/// exactly the elements of [2^ground(Σ∃_Π)]= from §3. Ordered by the
/// Active atom so choice sets compare canonically.
class ChoiceSet {
 public:
  ChoiceSet() = default;

  /// Records the choice "active → outcome". Returns false iff the active
  /// atom already carries a *different* outcome (functional inconsistency);
  /// re-recording the same pair is a no-op returning true.
  bool Assign(const GroundAtom& active, const Value& outcome) {
    auto [it, inserted] = choices_.emplace(active, outcome);
    if (inserted) return true;
    return it->second == outcome;
  }

  void Unassign(const GroundAtom& active) { choices_.erase(active); }

  /// The chosen outcome for `active`, if any (the partial function AtR_Σ).
  std::optional<Value> Lookup(const GroundAtom& active) const {
    auto it = choices_.find(active);
    if (it == choices_.end()) return std::nullopt;
    return it->second;
  }

  bool Defined(const GroundAtom& active) const {
    return choices_.count(active) != 0;
  }

  /// The index `active` has in entry order — or would have, once assigned.
  size_t Position(const GroundAtom& active) const {
    return static_cast<size_t>(
        std::distance(choices_.begin(), choices_.lower_bound(active)));
  }

  size_t size() const { return choices_.size(); }
  bool empty() const { return choices_.empty(); }

  const std::map<GroundAtom, Value>& entries() const { return choices_; }

  /// The Result atom of a choice entry.
  static GroundAtom ResultAtom(uint32_t result_pred, const GroundAtom& active,
                               const Value& outcome) {
    GroundAtom result;
    result.predicate = result_pred;
    result.args = active.args;
    result.args.push_back(outcome);
    return result;
  }

  bool operator==(const ChoiceSet& other) const {
    return choices_ == other.choices_;
  }
  bool operator<(const ChoiceSet& other) const {
    return choices_ < other.choices_;
  }

  /// True iff every choice of this set also appears in `other`.
  bool SubsetOf(const ChoiceSet& other) const {
    for (const auto& [active, outcome] : choices_) {
      auto hit = other.Lookup(active);
      if (!hit || !(*hit == outcome)) return false;
    }
    return true;
  }

  std::string ToString(const Interner* interner = nullptr) const {
    std::string out;
    for (const auto& [active, outcome] : choices_) {
      out += active.ToString(interner) + " -> " +
             outcome.ToString(interner) + "\n";
    }
    return out;
  }

 private:
  std::map<GroundAtom, Value> choices_;
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_CHOICE_H_
