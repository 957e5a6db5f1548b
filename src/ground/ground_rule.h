#ifndef GDLOG_GROUND_GROUND_RULE_H_
#define GDLOG_GROUND_GROUND_RULE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ground/fact_store.h"
#include "util/hash.h"

namespace gdlog {

/// A ground TGD¬ without existentials: h(σ) for some homomorphism h.
/// Facts are rules with empty bodies ("True → α"). Ground constraints
/// ("body → ⊥") carry `is_constraint`; their head is ignored.
struct GroundRule {
  GroundAtom head;
  std::vector<GroundAtom> positive;
  std::vector<GroundAtom> negative;
  bool is_constraint = false;

  GroundRule() = default;
  // Copies carry the memoized hash along; the atomic itself is not
  // copyable, hence the spelled-out special members.
  GroundRule(const GroundRule& other)
      : head(other.head),
        positive(other.positive),
        negative(other.negative),
        is_constraint(other.is_constraint),
        cached_hash_(other.cached_hash_.load(std::memory_order_relaxed)) {}
  GroundRule(GroundRule&& other) noexcept
      : head(std::move(other.head)),
        positive(std::move(other.positive)),
        negative(std::move(other.negative)),
        is_constraint(other.is_constraint),
        cached_hash_(other.cached_hash_.load(std::memory_order_relaxed)) {}
  GroundRule& operator=(const GroundRule& other) {
    head = other.head;
    positive = other.positive;
    negative = other.negative;
    is_constraint = other.is_constraint;
    cached_hash_.store(other.cached_hash_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  GroundRule& operator=(GroundRule&& other) noexcept {
    head = std::move(other.head);
    positive = std::move(other.positive);
    negative = std::move(other.negative);
    is_constraint = other.is_constraint;
    cached_hash_.store(other.cached_hash_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  bool IsFact() const {
    return !is_constraint && positive.empty() && negative.empty();
  }

  bool operator==(const GroundRule& other) const {
    return is_constraint == other.is_constraint && head == other.head &&
           positive == other.positive && negative == other.negative;
  }

  /// Memoized (rules are immutable once stored, and a GroundRuleSet
  /// probes every segment of its chain with the same rule on insertion).
  /// The relaxed atomic keeps concurrent first computations race-free;
  /// both writers store the same value.
  size_t Hash() const {
    size_t cached = cached_hash_.load(std::memory_order_relaxed);
    if (cached != 0) return cached;
    size_t h = is_constraint ? 0x107u : head.Hash();
    for (const GroundAtom& a : positive) h = HashCombine(h, a.Hash());
    h = HashCombine(h, 0x5eed);
    for (const GroundAtom& a : negative) h = HashCombine(h, a.Hash());
    if (h == 0) h = 0x9e3779b97f4a7c15ull;  // keep 0 as the "unset" mark
    cached_hash_.store(h, std::memory_order_relaxed);
    return h;
  }

 private:
  mutable std::atomic<size_t> cached_hash_{0};

 public:

  std::string ToString(const Interner* interner = nullptr) const {
    std::string out;
    if (!is_constraint) {
      out = head.ToString(interner);
      if (positive.empty() && negative.empty()) return out + ".";
      out += " ";
    }
    out += ":- ";
    bool first = true;
    for (const GroundAtom& a : positive) {
      if (!first) out += ", ";
      first = false;
      out += a.ToString(interner);
    }
    for (const GroundAtom& a : negative) {
      if (!first) out += ", ";
      first = false;
      out += "not " + a.ToString(interner);
    }
    return out + ".";
  }
};

struct GroundRuleHash {
  size_t operator()(const GroundRule& r) const { return r.Hash(); }
};

/// A set of ground rules Σ' ⊆ ground(Σ) with its matching instance kept
/// incrementally (the grounding operators of §3/§5 repeatedly match rule
/// bodies against heads of the program built so far). heads() holds every
/// rule head plus the Result atoms the grounding layer cascades from the
/// choice set — i.e. heads(Σ' ∪ Σ), the instance Definition 3.4 matches
/// against — so the fixpoint needs no second fact store.
///
/// The rules live in a chain of segments shared between clones, oldest
/// first (VLog's FCTable stores relations the same way: chains of
/// immutable, shared blocks). Only a segment this set alone holds is ever
/// appended to; once Clone() shares it, both sides open a fresh tail on
/// their next insertion. Branching thus copies no rule, and dropping a set
/// frees only the rules it added itself.
class GroundRuleSet {
 public:
  GroundRuleSet() = default;

  // Move-only, so that every branch point is an explicit Clone().
  GroundRuleSet(const GroundRuleSet&) = delete;
  GroundRuleSet& operator=(const GroundRuleSet&) = delete;
  GroundRuleSet(GroundRuleSet&&) = default;
  GroundRuleSet& operator=(GroundRuleSet&&) = default;

  /// Adds a rule; returns true iff new. Updates heads() (constraints have
  /// no head and contribute nothing there).
  bool Add(GroundRule rule) { return AddAndGet(std::move(rule)) != nullptr; }

  /// Like Add, but returns the stored rule (nullptr if it was a duplicate)
  /// so callers can reference its head without copying. `new_head`, when
  /// given, reports whether the head atom was new to heads() — false for
  /// duplicates, constraints, and heads another rule already derived.
  const GroundRule* AddAndGet(GroundRule rule, bool* new_head = nullptr) {
    if (new_head != nullptr) *new_head = false;
    // The same use_count copy-on-write as FactStore::MutableRelation: a
    // tail some clone also holds is frozen, so open a private one.
    const bool own_tail =
        !segments_.empty() && segments_.back().use_count() == 1;
    const size_t shared = segments_.size() - (own_tail ? 1 : 0);
    for (size_t i = 0; i < shared; ++i) {
      if (segments_[i]->count(rule) != 0) return nullptr;
    }
    if (!own_tail) segments_.push_back(std::make_shared<Segment>());
    auto [it, inserted] = segments_.back()->insert(std::move(rule));
    if (!inserted) return nullptr;
    rules_.push_back(&*it);
    if (!it->is_constraint) {
      bool fresh = heads_.Insert(it->head);
      if (new_head != nullptr) *new_head = fresh;
    }
    return &*it;
  }

  bool Contains(const GroundRule& rule) const {
    for (const std::shared_ptr<Segment>& segment : segments_) {
      if (segment->count(rule) != 0) return true;
    }
    return false;
  }

  /// Insertion-ordered view of the rules.
  const std::vector<const GroundRule*>& rules() const { return rules_; }

  size_t size() const { return rules_.size(); }

  /// The matching instance: every head atom, plus any Result atoms the
  /// grounding layer recorded via mutable_heads().
  const FactStore& heads() const { return heads_; }

  /// The grounding layer's write access to the matching instance (it
  /// inserts the Result atoms cascaded from the choice set). Everyone else
  /// should treat heads() as derived state.
  FactStore* mutable_heads() { return &heads_; }

  /// Where a grounder that grounds in stages (the perfect grounder's
  /// strata) stopped short of its fixpoint: the first stage not yet
  /// grounded, or kNoStall for a complete grounding. Clone() carries it,
  /// so an Extend on the clone knows where to resume.
  static constexpr uint32_t kNoStall = UINT32_MAX;
  uint32_t stall_stage() const { return stall_stage_; }
  void set_stall_stage(uint32_t stage) { stall_stage_ = stage; }

  /// A copy that shares this set's rule segments and, copy-on-write, its
  /// matching instance (a pointer per predicate): it copies the rules()
  /// view, not the rules. The incremental chase branches each child's
  /// grounding this way.
  GroundRuleSet Clone() const {
    GroundRuleSet copy;
    copy.segments_ = segments_;
    copy.rules_ = rules_;
    copy.heads_ = heads_;
    copy.stall_stage_ = stall_stage_;
    return copy;
  }

  std::string ToString(const Interner* interner = nullptr) const {
    std::string out;
    for (const GroundRule* r : rules_) {
      out += r->ToString(interner);
      out += "\n";
    }
    return out;
  }

 private:
  using Segment = std::unordered_set<GroundRule, GroundRuleHash>;

  std::vector<std::shared_ptr<Segment>> segments_;
  std::vector<const GroundRule*> rules_;
  FactStore heads_;
  uint32_t stall_stage_ = kNoStall;
};

}  // namespace gdlog

#endif  // GDLOG_GROUND_GROUND_RULE_H_
