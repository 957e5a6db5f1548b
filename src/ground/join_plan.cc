#include "ground/join_plan.h"

#include <algorithm>

namespace gdlog {

const std::vector<uint32_t> JoinExecutor::kEmptyBucket;

namespace {

CompiledAtom CompileAtom(const Atom& atom, const RuleSlots& slots) {
  CompiledAtom out;
  out.predicate = atom.predicate;
  out.cols.reserve(atom.args.size());
  for (const Term& t : atom.args) {
    out.cols.push_back(t.is_constant()
                           ? SlotTerm::Const(t.constant())
                           : SlotTerm::Slot(slots.SlotOf(t.var_id())));
  }
  return out;
}

/// Below this row count an atom is matched by scanning even when columns
/// are bound: probing (let alone building) a hash index costs more than
/// walking a handful of rows, and plan compilation skips the
/// distinct-count estimator for such relations too.
constexpr size_t kScanThreshold = 16;

/// Estimated candidate-set size for matching `atom` when the slots marked
/// in `bound` are already bound: relation cardinality divided by the
/// distinct-value count of every bound column (the planner's stand-in for
/// per-value bucket sizes, computable without a concrete binding). Tiny
/// relations estimate without touching indices.
double EstimateCost(const CompiledAtom& atom, const FactStore& store,
                    const std::vector<bool>& bound) {
  size_t n = store.Count(atom.predicate);
  if (n == 0) return 0.0;
  double est = static_cast<double>(n);
  for (size_t col = 0; col < atom.cols.size(); ++col) {
    const SlotTerm& t = atom.cols[col];
    if (!t.is_const && !bound[t.slot]) continue;
    if (n <= kScanThreshold) {
      est /= 2.0;  // flat guess; not worth building an index to ask
      continue;
    }
    size_t distinct = store.DistinctCount(atom.predicate, col);
    if (distinct > 1) est /= static_cast<double>(distinct);
  }
  return std::max(est, 1.0);
}

}  // namespace

CompiledRule CompileRule(const Rule& rule) {
  CompiledRule out;
  out.rule = &rule;
  out.slots = NumberRuleSlots(rule);
  out.num_slots = out.slots.count();
  for (const Literal& lit : rule.body) {
    (lit.negated ? out.negative : out.positive)
        .push_back(CompileAtom(lit.atom, out.slots));
  }
  if (!rule.is_constraint) {
    assert(rule.head.IsPlain() &&
           "CompileRule handles plain heads only (translate Δ-terms first)");
    out.has_head = true;
    out.head.predicate = rule.head.predicate;
    out.head.cols.reserve(rule.head.args.size());
    for (const HeadArg& arg : rule.head.args) {
      const Term& t = arg.term();
      out.head.cols.push_back(t.is_constant()
                                  ? SlotTerm::Const(t.constant())
                                  : SlotTerm::Slot(out.slots.SlotOf(t.var_id())));
    }
  }
  return out;
}

CompiledRule CompileBody(const std::vector<const Atom*>& atoms) {
  CompiledRule out;
  for (const Atom* atom : atoms) {
    for (const Term& t : atom->args) {
      if (!t.is_variable()) continue;
      assert(out.slots.slot_of.size() < 65536);
      out.slots.slot_of.emplace(
          t.var_id(), static_cast<uint16_t>(out.slots.slot_of.size()));
    }
  }
  out.num_slots = out.slots.count();
  for (const Atom* atom : atoms) {
    out.positive.push_back(CompileAtom(*atom, out.slots));
  }
  return out;
}

GroundRule InstantiateRule(const CompiledRule& rule,
                           const BindingFrame& frame) {
  GroundRule gr;
  gr.is_constraint = rule.rule != nullptr && rule.rule->is_constraint;
  if (rule.has_head) gr.head = rule.head.Instantiate(frame);
  gr.positive.reserve(rule.positive.size());
  for (const CompiledAtom& a : rule.positive) {
    gr.positive.push_back(a.Instantiate(frame));
  }
  gr.negative.reserve(rule.negative.size());
  for (const CompiledAtom& a : rule.negative) {
    gr.negative.push_back(a.Instantiate(frame));
  }
  return gr;
}

JoinPlan CompileJoinPlan(const CompiledRule& rule, const FactStore& store,
                         size_t pivot) {
  JoinPlan plan;
  plan.rule = &rule;
  plan.pivot = pivot;
  plan.num_slots = rule.num_slots;
  plan.store_size_at_compile = store.size();

  std::vector<bool> bound(rule.num_slots, false);

  // Ops for `atom`'s columns under the current bound set, skipping the
  // (ascending) `key_cols` an access path already constrains; marks newly
  // bound slots. A variable repeated within the atom binds at its first
  // emitted occurrence and checks at later ones (R(X,X) under a scan:
  // bind col 0, check col 1).
  static const std::vector<uint16_t> kNoKeyCols;
  auto append_column_ops = [&bound](const CompiledAtom& atom,
                                    const std::vector<uint16_t>& key_cols,
                                    std::vector<JoinLevel::Op>* ops) {
    size_t key_i = 0;
    for (size_t col = 0; col < atom.cols.size(); ++col) {
      if (key_i < key_cols.size() && key_cols[key_i] == col) {
        ++key_i;
        continue;
      }
      const SlotTerm& t = atom.cols[col];
      JoinLevel::Op op;
      op.col = static_cast<uint16_t>(col);
      if (t.is_const) {
        op.kind = JoinLevel::Op::Kind::kCheckConst;
        op.constant = t.constant;
      } else if (bound[t.slot]) {
        op.kind = JoinLevel::Op::Kind::kCheckSlot;
        op.slot = t.slot;
      } else {
        op.kind = JoinLevel::Op::Kind::kBindSlot;
        op.slot = t.slot;
        bound[t.slot] = true;
      }
      ops->push_back(op);
    }
  };

  if (pivot != JoinPlan::kNoPivot) {
    assert(pivot < rule.positive.size());
    const CompiledAtom& p = rule.positive[pivot];
    plan.pivot_arity = p.cols.size();
    append_column_ops(p, kNoKeyCols, &plan.pivot_ops);
  }

  std::vector<bool> placed(rule.positive.size(), false);
  if (pivot != JoinPlan::kNoPivot) placed[pivot] = true;
  size_t remaining = rule.positive.size() - (pivot != JoinPlan::kNoPivot);

  while (remaining-- > 0) {
    // Greedy next atom: smallest estimated candidate set under the slots
    // bound so far; ties break on the lowest body position (deterministic).
    size_t best = rule.positive.size();
    double best_cost = 0.0;
    for (size_t i = 0; i < rule.positive.size(); ++i) {
      if (placed[i]) continue;
      double cost = EstimateCost(rule.positive[i], store, bound);
      if (best == rule.positive.size() || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    placed[best] = true;
    const CompiledAtom& atom = rule.positive[best];

    JoinLevel level;
    level.atom_index = static_cast<uint32_t>(best);
    level.predicate = atom.predicate;
    level.arity = static_cast<uint16_t>(atom.cols.size());
    level.restrict_old = pivot != JoinPlan::kNoPivot && best < pivot;

    // Bound columns (constants or already-bound slots) drive the access
    // path; their equality is guaranteed by the probe, so they carry no
    // ops. Collected in column order, hence ascending. Tiny relations
    // scan regardless — the op sequence checks bound columns just as an
    // index probe would, row count decides which is cheaper.
    if (store.Count(atom.predicate) > kScanThreshold) {
      for (size_t col = 0; col < atom.cols.size(); ++col) {
        const SlotTerm& t = atom.cols[col];
        if (t.is_const || bound[t.slot]) {
          level.key_cols.push_back(static_cast<uint16_t>(col));
          level.key.push_back(t);
        }
      }
    }
    if (level.key_cols.empty()) {
      level.access = JoinLevel::Access::kScan;
    } else if (level.key_cols.size() == 1) {
      level.access = JoinLevel::Access::kIndex;
    } else {
      level.access = JoinLevel::Access::kComposite;
    }

    append_column_ops(atom, level.key_cols, &level.ops);
    plan.levels.push_back(std::move(level));
  }

  RebindJoinPlan(&plan, store);
  return plan;
}

void RebindJoinPlan(JoinPlan* plan, const FactStore& store) {
  for (JoinLevel& level : plan->levels) {
    level.rows = &store.Rows(level.predicate);
    level.index = nullptr;
    level.composite = nullptr;
    switch (level.access) {
      case JoinLevel::Access::kScan:
        break;
      case JoinLevel::Access::kIndex:
        level.index = store.GetColumnIndex(level.predicate, level.key_cols[0]);
        break;
      case JoinLevel::Access::kComposite:
        level.composite = store.GetCompositeIndex(level.predicate,
                                                  level.key_cols);
        break;
    }
  }
}

const JoinPlan& JoinPlanCache::Get(const CompiledRule& rule, size_t pivot,
                                   MatchStats* stats) {
  Key key{&rule, pivot};
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    JoinPlan& plan = it->second;
    // Reuse while the store is within 2x of the size the order was chosen
    // for; past that, cardinality ratios may have shifted enough that a
    // different order wins. Either way the result set is identical.
    if (store_->size() <= 2 * std::max<size_t>(plan.store_size_at_compile, 1)) {
      ++stats->plan_cache_hits;
      RebindJoinPlan(&plan, *store_);
      return plan;
    }
    ++stats->plans_compiled;
    plan = CompileJoinPlan(rule, *store_, pivot);
    return plan;
  }
  ++stats->plans_compiled;
  auto [ins, inserted] =
      plans_.emplace(key, CompileJoinPlan(rule, *store_, pivot));
  (void)inserted;
  return ins->second;
}

}  // namespace gdlog
