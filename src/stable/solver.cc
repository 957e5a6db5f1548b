#include "stable/solver.h"

#include <algorithm>
#include <string>
#include <utility>

namespace gdlog {

namespace {

constexpr uint32_t kNoRule = UINT32_MAX;

/// The assignment of one Enumerate call and its incremental propagation.
/// Assigned atoms are queued on a trail (MiniSat-style): processing an atom
/// applies its effect on the counters, Undo reverts exactly the processed
/// ones. Source pointers of the unfounded-set check change through their
/// own trail, so an Undo back to a propagation fixpoint restores the
/// sources that were valid there.
class Propagator {
 public:
  explicit Propagator(const NormalProgram& prog);

  Truth value(uint32_t atom) const { return value_[atom]; }
  const std::vector<Truth>& values() const { return value_; }

  /// A restore point, taken at a propagation fixpoint.
  struct Mark {
    size_t trail = 0;
    size_t sources = 0;
  };
  Mark mark() const { return {trail_.size(), src_trail_.size()}; }
  void Undo(const Mark& mark);

  /// Assigns what holds in every stable model before any decision — facts,
  /// atoms without rules, ¬⊥ — and propagates; false on conflict.
  bool PropagateRoot();
  /// Assigns `atom` and propagates to the fixpoint; false on conflict.
  bool Decide(uint32_t atom, Truth value) {
    Assign(atom, value);
    return Propagate();
  }

 private:
  void Assign(uint32_t atom, Truth value);
  bool Propagate();
  void Process(uint32_t atom);
  void Unprocess(uint32_t atom);
  void OpenDecreased(uint32_t rule);
  void Blocked(uint32_t rule);
  void ForceSupport(uint32_t atom);
  void FalsifyLastOpen(uint32_t rule);
  void SetSource(uint32_t atom, uint32_t rule);
  bool CanSource(uint32_t rule, uint32_t atom) const;
  void FalsifyUnfounded();
  void FindPositiveLoops();

  const NormalProgram& prog_;
  std::vector<Truth> value_;
  std::vector<uint32_t> open_;     ///< per rule: literals not yet satisfied
  std::vector<uint32_t> blocked_;  ///< per rule: literals falsified
  std::vector<uint32_t> support_;  ///< per atom: its unblocked rules
  std::vector<uint32_t> trail_;
  size_t qhead_ = 0;  ///< trail_[qhead_..] are assigned but unprocessed
  bool conflict_ = false;

  // Unfounded-set check, over the atoms on positive loops.
  std::vector<uint32_t> scc_;     ///< per atom: positive-dependency component
  std::vector<uint8_t> cyclic_;   ///< per atom: on a positive loop
  std::vector<uint32_t> src_;     ///< per atom: source rule or kNoRule
  std::vector<std::pair<uint32_t, uint32_t>> src_trail_;  ///< (atom, old)
  std::vector<uint32_t> lost_;     ///< cyclic atoms whose source went away
  std::vector<uint32_t> sourced_;  ///< FalsifyUnfounded's work queue
};

Propagator::Propagator(const NormalProgram& prog)
    : prog_(prog),
      value_(prog.atom_count(), Truth::kUndefined),
      open_(prog.rule_count()),
      blocked_(prog.rule_count(), 0),
      support_(prog.atom_count()),
      scc_(prog.atom_count()),
      cyclic_(prog.atom_count(), 0),
      src_(prog.atom_count(), kNoRule) {
  for (uint32_t r = 0; r < prog.rule_count(); ++r) {
    open_[r] = static_cast<uint32_t>(prog.positive(r).size() +
                                     prog.negative(r).size());
  }
  for (uint32_t a = 0; a < prog.atom_count(); ++a) {
    support_[a] = static_cast<uint32_t>(prog.rules_with_head(a).size());
  }
  // Each atom is on the trail at most once, and in lost_ or sourced_ at
  // most once per unfounded-set check.
  trail_.reserve(prog.atom_count());
  lost_.reserve(prog.atom_count());
  sourced_.reserve(prog.atom_count());
  FindPositiveLoops();
}

void Propagator::FindPositiveLoops() {
  // Tarjan's SCC algorithm over the edges head → positive body atom, with
  // an explicit frame stack. A frame walks its atom's rules (rule_pos) and
  // each rule's positive body (lit_pos).
  const auto n = static_cast<uint32_t>(prog_.atom_count());
  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> low(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<uint32_t> stack;
  stack.reserve(n);
  struct Frame {
    uint32_t atom;
    uint32_t rule_pos;
    uint32_t lit_pos;
  };
  std::vector<Frame> frames;
  frames.reserve(n);
  uint32_t next_index = 0;
  uint32_t next_component = 0;
  auto visit = [&](uint32_t v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = 1;
    frames.push_back(Frame{v, 0, 0});
  };
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    visit(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const uint32_t v = f.atom;
      const IdRange rules = prog_.rules_with_head(v);
      if (f.rule_pos < rules.size()) {
        const IdRange body = prog_.positive(rules.begin()[f.rule_pos]);
        if (f.lit_pos == body.size()) {
          ++f.rule_pos;
          f.lit_pos = 0;
          continue;
        }
        const uint32_t w = body.begin()[f.lit_pos++];
        if (w == v) cyclic_[v] = 1;
        if (index[w] == kUnvisited) {
          visit(w);  // invalidates f
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        const size_t first = std::find(stack.rbegin(), stack.rend(), v).base() -
                             stack.begin() - 1;
        const bool loop = stack.size() - first > 1;
        for (size_t i = first; i < stack.size(); ++i) {
          on_stack[stack[i]] = 0;
          scc_[stack[i]] = next_component;
          if (loop) cyclic_[stack[i]] = 1;
        }
        stack.resize(first);
        ++next_component;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const uint32_t u = frames.back().atom;
        low[u] = std::min(low[u], low[v]);
      }
    }
  }
}

void Propagator::Assign(uint32_t atom, Truth value) {
  if (value_[atom] == value) return;
  if (value_[atom] != Truth::kUndefined) {
    conflict_ = true;
    return;
  }
  value_[atom] = value;
  trail_.push_back(atom);
}

bool Propagator::PropagateRoot() {
  const uint32_t bot = prog_.falsity_atom();
  if (bot != NormalProgram::kNoFalsity) Assign(bot, Truth::kFalse);
  for (uint32_t a = 0; a < prog_.atom_count(); ++a) {
    if (support_[a] == 0) Assign(a, Truth::kFalse);
    // Every atom on a positive loop starts without a source.
    if (cyclic_[a]) lost_.push_back(a);
  }
  for (uint32_t r = 0; r < prog_.rule_count(); ++r) {
    if (open_[r] == 0) Assign(prog_.head(r), Truth::kTrue);
  }
  return Propagate();
}

bool Propagator::Propagate() {
  for (;;) {
    while (qhead_ < trail_.size() && !conflict_) Process(trail_[qhead_++]);
    if (conflict_) return false;
    if (lost_.empty()) return true;
    FalsifyUnfounded();
  }
}

// Process runs to completion even after a conflict, so that Unprocess
// reverts exactly what it applied.
void Propagator::Process(uint32_t atom) {
  if (value_[atom] == Truth::kTrue) {
    for (uint32_t r : prog_.pos_occurrences(atom)) {
      --open_[r];
      if (blocked_[r] == 0) OpenDecreased(r);
    }
    for (uint32_t r : prog_.neg_occurrences(atom)) {
      if (++blocked_[r] == 1) Blocked(r);
    }
    if (support_[atom] == 0) {
      conflict_ = true;
    } else if (support_[atom] == 1) {
      ForceSupport(atom);
    }
  } else {
    for (uint32_t r : prog_.pos_occurrences(atom)) {
      if (++blocked_[r] == 1) Blocked(r);
    }
    for (uint32_t r : prog_.neg_occurrences(atom)) {
      --open_[r];
      if (blocked_[r] == 0) OpenDecreased(r);
    }
    for (uint32_t r : prog_.rules_with_head(atom)) {
      if (blocked_[r] != 0) continue;
      if (open_[r] == 0) {
        conflict_ = true;  // a true body derives a false head
      } else if (open_[r] == 1) {
        FalsifyLastOpen(r);
      }
    }
  }
}

void Propagator::Unprocess(uint32_t atom) {
  const bool is_true = value_[atom] == Truth::kTrue;
  for (uint32_t r : prog_.pos_occurrences(atom)) {
    if (is_true) {
      ++open_[r];
    } else if (--blocked_[r] == 0) {
      ++support_[prog_.head(r)];
    }
  }
  for (uint32_t r : prog_.neg_occurrences(atom)) {
    if (!is_true) {
      ++open_[r];
    } else if (--blocked_[r] == 0) {
      ++support_[prog_.head(r)];
    }
  }
}

void Propagator::OpenDecreased(uint32_t rule) {
  const uint32_t head = prog_.head(rule);
  if (open_[rule] == 0) {
    Assign(head, Truth::kTrue);
  } else if (open_[rule] == 1 && value_[head] == Truth::kFalse) {
    FalsifyLastOpen(rule);
  }
}

void Propagator::Blocked(uint32_t rule) {
  const uint32_t head = prog_.head(rule);
  if (src_[head] == rule) {
    SetSource(head, kNoRule);
    lost_.push_back(head);
  }
  if (--support_[head] == 0) {
    Assign(head, Truth::kFalse);
  } else if (support_[head] == 1 && value_[head] == Truth::kTrue) {
    ForceSupport(head);
  }
}

void Propagator::ForceSupport(uint32_t atom) {
  for (uint32_t r : prog_.rules_with_head(atom)) {
    if (blocked_[r] != 0) continue;
    for (uint32_t a : prog_.positive(r)) Assign(a, Truth::kTrue);
    for (uint32_t a : prog_.negative(r)) Assign(a, Truth::kFalse);
    return;
  }
}

void Propagator::FalsifyLastOpen(uint32_t rule) {
  // At most one literal is open; it may already be assigned (queued), in
  // which case Assign leaves it or reports the conflict.
  for (uint32_t a : prog_.positive(rule)) {
    if (value_[a] != Truth::kTrue) Assign(a, Truth::kFalse);
  }
  for (uint32_t a : prog_.negative(rule)) {
    if (value_[a] != Truth::kFalse) Assign(a, Truth::kTrue);
  }
}

void Propagator::SetSource(uint32_t atom, uint32_t rule) {
  src_trail_.emplace_back(atom, src_[atom]);
  src_[atom] = rule;
}

bool Propagator::CanSource(uint32_t rule, uint32_t atom) const {
  if (blocked_[rule] != 0) return false;
  for (uint32_t p : prog_.positive(rule)) {
    if (scc_[p] == scc_[atom] && src_[p] == kNoRule) return false;
  }
  return true;
}

// Runs with the queue drained, so blocked_ reflects every assignment. The
// atoms left without a source are exactly the unfounded ones: every rule
// for them is blocked or needs a same-component atom that has none.
void Propagator::FalsifyUnfounded() {
  // An atom whose source needs a lost atom of its own component is lost.
  for (size_t i = 0; i < lost_.size(); ++i) {
    const uint32_t b = lost_[i];
    for (uint32_t r : prog_.pos_occurrences(b)) {
      const uint32_t h = prog_.head(r);
      if (src_[h] == r && scc_[h] == scc_[b]) {
        SetSource(h, kNoRule);
        lost_.push_back(h);
      }
    }
  }
  // Re-source what can be, then whatever that unlocks.
  sourced_.clear();
  for (uint32_t a : lost_) {
    if (value_[a] == Truth::kFalse) continue;
    for (uint32_t r : prog_.rules_with_head(a)) {
      if (CanSource(r, a)) {
        SetSource(a, r);
        sourced_.push_back(a);
        break;
      }
    }
  }
  for (size_t i = 0; i < sourced_.size(); ++i) {
    const uint32_t b = sourced_[i];
    for (uint32_t r : prog_.pos_occurrences(b)) {
      const uint32_t h = prog_.head(r);
      if (scc_[h] == scc_[b] && src_[h] == kNoRule &&
          value_[h] != Truth::kFalse && CanSource(r, h)) {
        SetSource(h, r);
        sourced_.push_back(h);
      }
    }
  }
  for (uint32_t a : lost_) {
    if (src_[a] == kNoRule) Assign(a, Truth::kFalse);
  }
  lost_.clear();
}

void Propagator::Undo(const Mark& mark) {
  for (size_t i = trail_.size(); i-- > mark.trail;) {
    if (i < qhead_) Unprocess(trail_[i]);
    value_[trail_[i]] = Truth::kUndefined;
  }
  trail_.resize(mark.trail);
  qhead_ = mark.trail;
  for (size_t i = src_trail_.size(); i-- > mark.sources;) {
    src_[src_trail_[i].first] = src_trail_[i].second;
  }
  src_trail_.resize(mark.sources);
  lost_.clear();
  conflict_ = false;
}

}  // namespace

Status StableModelEnumerator::Enumerate(
    const std::function<bool(const std::vector<uint32_t>&)>& cb) {
  nodes_ = 0;
  uint64_t models = 0;
  const std::vector<uint32_t>& branch_atoms = prog_.negative_atoms();
  const uint32_t bot = prog_.falsity_atom();
  Propagator prop(prog_);
  ReductLeastModel reduct(prog_);
  std::vector<uint32_t> model;
  model.reserve(prog_.atom_count());

  // Leaf: the assignment to negative atoms is total. Its reduct's least
  // model must reproduce it (the Gelfond–Lifschitz fixpoint condition) and
  // must not derive ⊥. Returns false to stop the enumeration.
  auto emit_leaf = [&]() {
    const std::vector<uint8_t>& least = reduct.Compute(&prop.values(), nullptr);
    for (uint32_t a : branch_atoms) {
      if ((least[a] != 0) != (prop.value(a) == Truth::kTrue)) return true;
    }
    if (bot != NormalProgram::kNoFalsity && least[bot]) return true;
    model.clear();
    for (uint32_t a = 0; a < least.size(); ++a) {
      if (least[a] && a != bot) model.push_back(a);
    }
    ++models;
    if (!cb(model)) return false;
    return options_.max_models == 0 || models < options_.max_models;
  };
  auto enter_node = [&]() {
    if (++nodes_ <= options_.max_nodes) return Status::OK();
    return Status::BudgetExhausted("stable-model search exceeded " +
                                   std::to_string(options_.max_nodes) +
                                   " nodes");
  };

  // Decision stack: the branch atom's index in branch_atoms, the restore
  // point before it, and whether its false branch is the one running.
  struct Decision {
    size_t index;
    Propagator::Mark mark;
    bool on_false;
  };
  std::vector<Decision> decisions;
  decisions.reserve(branch_atoms.size());
  GDLOG_RETURN_IF_ERROR(enter_node());
  bool consistent = prop.PropagateRoot();
  size_t next = 0;  // branch atoms before it are assigned
  for (;;) {
    if (consistent) {
      while (next < branch_atoms.size() &&
             prop.value(branch_atoms[next]) != Truth::kUndefined) {
        ++next;
      }
      if (next < branch_atoms.size()) {
        decisions.push_back(Decision{next, prop.mark(), false});
        GDLOG_RETURN_IF_ERROR(enter_node());
        consistent = prop.Decide(branch_atoms[next], Truth::kTrue);
        continue;
      }
      if (!emit_leaf()) return Status::OK();
    }
    while (!decisions.empty() && decisions.back().on_false) {
      decisions.pop_back();
    }
    if (decisions.empty()) return Status::OK();
    Decision& d = decisions.back();
    prop.Undo(d.mark);
    d.on_false = true;
    next = d.index;
    GDLOG_RETURN_IF_ERROR(enter_node());
    consistent = prop.Decide(branch_atoms[next], Truth::kFalse);
  }
}

Result<StableModelSet> StableModels(const NormalProgram& prog,
                                    StableModelEnumerator::Options options,
                                    uint64_t* nodes_used) {
  // Atom ids ranked in GroundAtom order once. A model is kept as the
  // ascending ranks of its atoms, read off by walking the ranking over its
  // members, and ranks compare like the atoms they stand for.
  const auto atom_count = static_cast<uint32_t>(prog.atom_count());
  std::vector<uint32_t> by_rank(atom_count);
  for (uint32_t a = 0; a < atom_count; ++a) by_rank[a] = a;
  std::sort(by_rank.begin(), by_rank.end(), [&](uint32_t x, uint32_t y) {
    return prog.atoms().Get(x) < prog.atoms().Get(y);
  });
  std::vector<uint8_t> member(atom_count, 0);
  std::vector<std::vector<uint32_t>> ranked;
  StableModelEnumerator solver(prog, options);
  Status st = solver.Enumerate([&](const std::vector<uint32_t>& atoms) {
    for (uint32_t a : atoms) member[a] = 1;
    std::vector<uint32_t>& ranks = ranked.emplace_back();
    ranks.reserve(atoms.size());
    for (uint32_t rank = 0; rank < atom_count; ++rank) {
      if (member[by_rank[rank]]) ranks.push_back(rank);
    }
    for (uint32_t a : atoms) member[a] = 0;
    return true;
  });
  if (nodes_used != nullptr) *nodes_used = solver.nodes_used();
  if (!st.ok()) return st;
  // In rank order the set fills at its end: one comparison per model.
  std::sort(ranked.begin(), ranked.end());
  StableModelSet out;
  for (const std::vector<uint32_t>& ranks : ranked) {
    StableModel model;
    model.reserve(ranks.size());
    for (uint32_t rank : ranks) {
      model.push_back(prog.atoms().Get(by_rank[rank]));
    }
    out.emplace_hint(out.end(), std::move(model));
  }
  return out;
}

Result<StableModelSet> AllStableModels(const GroundRuleSet& rules,
                                       StableModelEnumerator::Options options) {
  return StableModels(NormalProgram::FromRuleSet(rules), options);
}

Result<bool> HasStableModel(const GroundRuleSet& rules,
                            StableModelEnumerator::Options options) {
  NormalProgram prog = NormalProgram::FromRuleSet(rules);
  options.max_models = 1;
  StableModelEnumerator solver(prog, options);
  bool found = false;
  Status st = solver.Enumerate([&](const std::vector<uint32_t>&) {
    found = true;
    return false;
  });
  if (!st.ok()) return st;
  return found;
}

}  // namespace gdlog
