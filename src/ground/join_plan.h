#ifndef GDLOG_GROUND_JOIN_PLAN_H_
#define GDLOG_GROUND_JOIN_PLAN_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "ast/rule.h"
#include "ground/fact_store.h"
#include "ground/ground_rule.h"

namespace gdlog {

/// Counters for the compiled-join hot path, reported per grounding (and
/// surfaced by `gdlog_cli --stats`). "Hits" count candidate-set
/// fetches, i.e. one per (partial binding, atom) pair, not per row.
struct MatchStats {
  uint64_t index_hits = 0;            ///< Single-column index fetches.
  uint64_t composite_index_hits = 0;  ///< Multi-column index fetches.
  uint64_t full_scans = 0;            ///< Whole-relation scans.
  uint64_t plan_cache_hits = 0;       ///< Plan reuses (rebind, no recompile).
  uint64_t plans_compiled = 0;        ///< Join orders chosen from scratch.
  uint64_t bindings = 0;              ///< Complete bindings enumerated.

  void Add(const MatchStats& other) {
    index_hits += other.index_hits;
    composite_index_hits += other.composite_index_hits;
    full_scans += other.full_scans;
    plan_cache_hits += other.plan_cache_hits;
    plans_compiled += other.plans_compiled;
    bindings += other.bindings;
  }
};

/// A dense binding frame: one rule's variables as a flat Value array plus a
/// bound bitmap, indexed by the slots of RuleSlots (ast/rule.h). This is
/// what replaces the `std::unordered_map<uint32_t, Value>` Binding on the
/// hot path — ApplyTerm/Unify/Instantiate become indexed loads.
///
/// The executor's op sequences are static (which slot is bound where is
/// decided at compile time), so backtracking does not need to clear bits;
/// the bitmap exists for assertions and for callers inspecting a frame
/// outside a completed match.
class BindingFrame {
 public:
  /// Prepares the frame for a rule with `num_slots` variables; all slots
  /// start unbound.
  void Reset(size_t num_slots) {
    values_.assign(num_slots, Value());
    words_.assign((num_slots + 63) / 64, 0);
  }

  size_t size() const { return values_.size(); }

  bool IsBound(uint16_t slot) const {
    return (words_[slot >> 6] >> (slot & 63)) & 1;
  }

  const Value& Get(uint16_t slot) const {
    assert(IsBound(slot) && "reading an unbound slot");
    return values_[slot];
  }

  void Bind(uint16_t slot, const Value& v) {
    values_[slot] = v;
    words_[slot >> 6] |= uint64_t{1} << (slot & 63);
  }

 private:
  std::vector<Value> values_;
  std::vector<uint64_t> words_;
};

/// One column of a compiled atom: a constant or a dense slot.
struct SlotTerm {
  bool is_const = false;
  Value constant;
  uint16_t slot = 0;

  static SlotTerm Const(const Value& v) {
    SlotTerm t;
    t.is_const = true;
    t.constant = v;
    return t;
  }
  static SlotTerm Slot(uint16_t slot) {
    SlotTerm t;
    t.slot = slot;
    return t;
  }

  const Value& Resolve(const BindingFrame& frame) const {
    return is_const ? constant : frame.Get(slot);
  }
};

/// An atom with its terms resolved to slots — both a matchable body atom
/// and an instantiation template for heads / negative literals.
struct CompiledAtom {
  uint32_t predicate = 0;
  std::vector<SlotTerm> cols;

  GroundAtom Instantiate(const BindingFrame& frame) const {
    GroundAtom out;
    out.predicate = predicate;
    out.args.reserve(cols.size());
    for (const SlotTerm& t : cols) out.args.push_back(t.Resolve(frame));
    return out;
  }

  /// Instantiates into a reusable scratch atom (no allocation once the
  /// scratch's capacity has grown) — for negative-body checks that usually
  /// reject.
  void InstantiateInto(const BindingFrame& frame, GroundAtom* out) const {
    out->predicate = predicate;
    out->args.clear();
    for (const SlotTerm& t : cols) out->args.push_back(t.Resolve(frame));
  }
};

/// A rule translated once (at grounder construction) into slot
/// form: the expensive classification — variable numbering, term kinds —
/// is paid per rule, not per binding.
struct CompiledRule {
  const Rule* rule = nullptr;  ///< Null for bare bodies (CompileBody).
  RuleSlots slots;
  size_t num_slots = 0;
  std::vector<CompiledAtom> positive;  ///< B+ in body order.
  std::vector<CompiledAtom> negative;  ///< B- in body order.
  bool has_head = false;               ///< False for constraints/bare bodies.
  CompiledAtom head;                   ///< Valid iff has_head (plain heads).

  /// Set for synthesized __join rules (subjoin sharing): complete bindings
  /// insert the instantiated head into the matching instance only — no
  /// GroundRule is ever created from them.
  bool aux_head = false;
  /// Set when the optimizer rewrote the matchable body (subjoin sharing):
  /// InstantiateRule emits emit_positive/emit_negative — the original body
  /// compiled against the same slots — so G(Σ) is unchanged.
  bool has_emit = false;
  std::vector<CompiledAtom> emit_positive;
  std::vector<CompiledAtom> emit_negative;

  /// Stable index for the per-rule profiler (obs/profile.h): the rule's
  /// position in Σ_Π. SIZE_MAX = not attributed.
  size_t profile_index = static_cast<size_t>(-1);
};

/// Compiles a rule with a plain (Δ-free) head; the rule must outlive the
/// result. Safe rules only (every negative-body/head variable occurs in the
/// positive body — Program::Validate enforces this).
CompiledRule CompileRule(const Rule& rule);

/// Compiles a bare conjunction of atoms (the query path and tests); the
/// atoms must outlive the result.
CompiledRule CompileBody(const std::vector<const Atom*>& atoms);

/// Compiles `body` — the pre-rewrite body of a rule whose matchable body
/// the optimizer replaced — into `rule`'s emit arrays, against the rule's
/// existing slots. Every variable of `body` must have a slot in the
/// rewritten rule (subjoin sharing guarantees it: the synthesized atom
/// projects every shared-prefix variable).
void AttachEmitBody(CompiledRule* rule, const std::vector<Literal>& body);

/// h(σ) under a complete frame — the compiled form of instantiating a
/// rule into a GroundRule (head, then positive and negative bodies in
/// original literal order, so GroundRule equality/hashing is unchanged).
GroundRule InstantiateRule(const CompiledRule& rule,
                           const BindingFrame& frame);

/// One level of an executable join: which atom to match, how to fetch its
/// candidate rows, and the per-column ops that unify a candidate into the
/// frame. Key columns (those the access path already constrains to equal
/// the probe key) carry no ops.
struct JoinLevel {
  enum class Access : uint8_t {
    kScan,       ///< Iterate every row.
    kIndex,      ///< Probe one column's hash index.
    kComposite,  ///< Probe a multi-column hash index.
  };
  struct Op {
    enum class Kind : uint8_t { kCheckConst, kBindSlot, kCheckSlot };
    Kind kind = Kind::kCheckConst;
    uint16_t col = 0;
    uint16_t slot = 0;
    Value constant;
  };

  uint32_t atom_index = 0;  ///< Into CompiledRule::positive.
  uint32_t predicate = 0;
  uint16_t arity = 0;
  /// Semi-naive old/new discrimination: in a pivot plan, atoms at body
  /// positions *before* the pivot match only rows that existed before the
  /// current delta (each binding is then enumerated exactly once, at its
  /// first delta position, instead of once per delta atom). Candidate
  /// cutoffs are O(1) because index buckets list rows in ascending
  /// insertion order.
  bool restrict_old = false;
  Access access = Access::kScan;
  std::vector<uint16_t> key_cols;  ///< Ascending; 1 for kIndex, ≥2 composite.
  std::vector<SlotTerm> key;       ///< Probe sources, parallel to key_cols.
  std::vector<Op> ops;             ///< Non-key columns, in column order.

  // Handles into the store, resolved by Rebind (valid until the store is
  // next mutated):
  const std::vector<Tuple>* rows = nullptr;
  const FactStore::ColumnIndexMap* index = nullptr;
  const FactStore::CompositeKeyMap* composite = nullptr;
};

/// An executable join plan for one (rule body, pivot) pair: the pivot atom
/// (matched externally against delta rows in semi-naive evaluation) plus
/// the remaining positive atoms in a join order chosen from the store's
/// relation cardinalities at compile time. Compiling replaces the legacy
/// matcher's per-binding PickNext recursion; the order is a performance
/// choice only — any order enumerates the same set of bindings.
struct JoinPlan {
  static constexpr size_t kNoPivot = std::numeric_limits<size_t>::max();

  const CompiledRule* rule = nullptr;
  size_t pivot = kNoPivot;
  size_t num_slots = 0;
  std::vector<JoinLevel> levels;
  /// Unify ops for the pivot atom (every column; nothing is pre-bound).
  std::vector<JoinLevel::Op> pivot_ops;
  size_t pivot_arity = 0;
  /// store->size() when the order was chosen; JoinPlanCache recompiles
  /// when the store has since doubled (selectivity drift).
  size_t store_size_at_compile = 0;
};

/// Chooses a join order for `rule` against `store`'s current cardinalities
/// (greedy: cheapest estimated candidate set first, estimating bucket sizes
/// as rows/distinct per bound column), picks an access path per atom —
/// column index for one bound column, composite index for ≥2 — and
/// compiles the per-column op sequences. With `pivot` != kNoPivot that atom
/// is excluded from the order and compiled into `pivot_ops` instead.
JoinPlan CompileJoinPlan(const CompiledRule& rule, const FactStore& store,
                         size_t pivot = JoinPlan::kNoPivot);

/// Refreshes a plan's store handles (rows/index/composite pointers) after
/// the store mutated. The order and ops are reused — stale order is a
/// performance matter, never a correctness one.
void RebindJoinPlan(JoinPlan* plan, const FactStore& store);

/// A per-invocation cache of compiled join plans, keyed by (rule, pivot).
/// Thread-confined, like the store it binds: create one per fixpoint /
/// materialization invocation. Reuse rebinds handles (cheap); a plan is
/// recompiled when the store has doubled since its order was chosen.
class JoinPlanCache {
 public:
  explicit JoinPlanCache(const FactStore* store) : store_(store) {}

  const JoinPlan& Get(const CompiledRule& rule, size_t pivot,
                      MatchStats* stats);

 private:
  struct Key {
    const CompiledRule* rule;
    size_t pivot;
    bool operator==(const Key& o) const {
      return rule == o.rule && pivot == o.pivot;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<const void*>()(k.rule) * 1099511628211u ^ k.pivot;
    }
  };

  const FactStore* store_;
  std::unordered_map<Key, JoinPlan, KeyHash> plans_;
};

/// The iterative join machine: an explicit cursor stack over the plan's
/// levels, a reusable frame, and a statically-typed callback — no heap
/// allocation and no std::function in the inner loop. One executor is
/// reusable across plans (scratch buffers persist); it is single-threaded,
/// but any number of executors may run concurrently against the same
/// frozen store.
class JoinExecutor {
 public:
  /// Enumerates every complete binding of `plan` (pivot-less). `cb` is
  /// invoked with the frame; returning false aborts. Returns false iff the
  /// callback aborted.
  template <typename CB>
  bool Execute(const JoinPlan& plan, MatchStats* stats, CB&& cb) {
    frame_.Reset(plan.num_slots);
    limits_.assign(plan.levels.size(), UINT32_MAX);
    return RunLevels(plan, stats, cb);
  }

  /// Semi-naive form: the pivot atom is matched only against rows
  /// [begin, end) of `pivot_rows` — a delta that is a suffix of a
  /// relation's rows, without copying it. With `old_counts` non-null,
  /// levels flagged restrict_old see only the first old_counts[predicate]
  /// rows of their relation (absent predicates count as 0 — an empty "old"
  /// store).
  template <typename CB>
  bool ExecuteWithPivotRange(const JoinPlan& plan,
                             const std::vector<Tuple>& pivot_rows,
                             size_t begin, size_t end, MatchStats* stats,
                             CB&& cb,
                             const std::unordered_map<uint32_t, uint32_t>*
                                 old_counts = nullptr) {
    assert(plan.pivot != JoinPlan::kNoPivot);
    frame_.Reset(plan.num_slots);
    limits_.clear();
    for (const JoinLevel& level : plan.levels) {
      uint32_t limit = UINT32_MAX;
      if (level.restrict_old && old_counts != nullptr) {
        auto it = old_counts->find(level.predicate);
        limit = it == old_counts->end() ? 0 : it->second;
      }
      limits_.push_back(limit);
    }
    for (size_t i = begin; i < end; ++i) {
      const Tuple& row = pivot_rows[i];
      if (row.size() != plan.pivot_arity) continue;
      if (!TryOps(plan.pivot_ops, row)) continue;
      if (!RunLevels(plan, stats, cb)) return false;
    }
    return true;
  }

 private:
  struct Cursor {
    const std::vector<uint32_t>* bucket = nullptr;  ///< Null → scan.
    size_t pos = 0;
    size_t scan_end = 0;
    uint32_t limit = UINT32_MAX;  ///< Row-index cutoff (restrict_old).
  };

  /// Runs the ops of one level (or the pivot) against a candidate row.
  bool TryOps(const std::vector<JoinLevel::Op>& ops, const Tuple& row) {
    for (const JoinLevel::Op& op : ops) {
      const Value& cell = row[op.col];
      switch (op.kind) {
        case JoinLevel::Op::Kind::kCheckConst:
          if (!(op.constant == cell)) return false;
          break;
        case JoinLevel::Op::Kind::kBindSlot:
          frame_.Bind(op.slot, cell);
          break;
        case JoinLevel::Op::Kind::kCheckSlot:
          if (!(frame_.Get(op.slot) == cell)) return false;
          break;
      }
    }
    return true;
  }

  /// Computes the probe key and positions the cursor on the level's
  /// candidate set. Candidates enumerate in row-insertion order for every
  /// access path (buckets are built in row order), which keeps enumeration
  /// deterministic and access-path-independent.
  void EnterLevel(const JoinLevel& level, Cursor* cursor, uint32_t limit,
                  MatchStats* stats) {
    cursor->pos = 0;
    cursor->limit = limit;
    switch (level.access) {
      case JoinLevel::Access::kScan: {
        ++stats->full_scans;
        cursor->bucket = nullptr;
        cursor->scan_end = std::min<size_t>(level.rows->size(), limit);
        return;
      }
      case JoinLevel::Access::kIndex: {
        ++stats->index_hits;
        cursor->bucket = &kEmptyBucket;
        if (level.index != nullptr) {
          auto it = level.index->find(level.key[0].Resolve(frame_));
          if (it != level.index->end()) cursor->bucket = &it->second;
        }
        return;
      }
      case JoinLevel::Access::kComposite: {
        ++stats->composite_index_hits;
        cursor->bucket = &kEmptyBucket;
        if (level.composite != nullptr) {
          key_scratch_.clear();
          for (const SlotTerm& t : level.key) {
            key_scratch_.push_back(t.Resolve(frame_));
          }
          auto it = level.composite->find(key_scratch_);
          if (it != level.composite->end()) cursor->bucket = &it->second;
        }
        return;
      }
    }
  }

  /// The backtracking loop over plan.levels, starting from the frame as
  /// currently bound (empty, or holding the pivot row's bindings).
  template <typename CB>
  bool RunLevels(const JoinPlan& plan, MatchStats* stats, CB&& cb) {
    const size_t depth = plan.levels.size();
    if (depth == 0) {
      ++stats->bindings;
      return cb(static_cast<const BindingFrame&>(frame_));
    }
    if (cursors_.size() < depth) cursors_.resize(depth);
    size_t level = 0;
    EnterLevel(plan.levels[0], &cursors_[0], limits_[0], stats);
    while (true) {
      const JoinLevel& jl = plan.levels[level];
      Cursor& cur = cursors_[level];
      bool matched = false;
      if (cur.bucket != nullptr) {
        while (cur.pos < cur.bucket->size()) {
          uint32_t idx = (*cur.bucket)[cur.pos];
          // Buckets are ascending by row index, so the old/new cutoff is
          // a break, not a filter.
          if (idx >= cur.limit) {
            cur.pos = cur.bucket->size();
            break;
          }
          ++cur.pos;
          const Tuple& row = (*jl.rows)[idx];
          if (row.size() == jl.arity && TryOps(jl.ops, row)) {
            matched = true;
            break;
          }
        }
      } else {
        while (cur.pos < cur.scan_end) {
          const Tuple& row = (*jl.rows)[cur.pos++];
          if (row.size() == jl.arity && TryOps(jl.ops, row)) {
            matched = true;
            break;
          }
        }
      }
      if (matched) {
        if (level + 1 == depth) {
          ++stats->bindings;
          if (!cb(static_cast<const BindingFrame&>(frame_))) return false;
        } else {
          ++level;
          EnterLevel(plan.levels[level], &cursors_[level], limits_[level],
                     stats);
        }
      } else {
        if (level == 0) return true;
        --level;
      }
    }
  }

  static const std::vector<uint32_t> kEmptyBucket;

  BindingFrame frame_;
  std::vector<Cursor> cursors_;
  std::vector<uint32_t> limits_;  ///< Per-level old/new cutoffs.
  Tuple key_scratch_;
};

}  // namespace gdlog

#endif  // GDLOG_GROUND_JOIN_PLAN_H_
