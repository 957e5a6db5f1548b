#include "gdatalog/grounder.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/histogram.h"
#include "obs/profile.h"

namespace gdlog {

namespace {

/// Sorted unique positive-body predicates of a rule set (the delta
/// watermark domain, precomputed once per grounder).
std::vector<uint32_t> CollectBodyPreds(
    const std::vector<const CompiledRule*>& rules) {
  std::vector<uint32_t> preds;
  for (const CompiledRule* rule : rules) {
    for (const CompiledAtom& atom : rule->positive) {
      preds.push_back(atom.predicate);
    }
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

/// Compiles sigma rule `i`, attributed to index i in the rule profile.
CompiledRule CompileSigmaRule(const TranslatedProgram& translated, size_t i) {
  CompiledRule out = CompileRule(translated.sigma().rules()[i]);
  out.profile_index = i;
  return out;
}

bool NegativeBodyHits(const GroundRule& gr, const FactStore& heads) {
  for (const GroundAtom& a : gr.negative) {
    if (heads.Contains(a)) return true;
  }
  return false;
}

/// The Perfect negative check straight off the frame: instantiates each
/// negative atom into a reusable scratch and stops at the first hit — no
/// GroundRule is built for the (common) rejected candidates.
bool NegativeBodyHits(const CompiledRule& rule, const BindingFrame& frame,
                      const FactStore& heads, GroundAtom* scratch) {
  for (const CompiledAtom& neg : rule.negative) {
    neg.InstantiateInto(frame, scratch);
    if (heads.Contains(*scratch)) return true;
  }
  return false;
}

/// Inserts the chosen Result atom of Active atom `atom`, if Σ records a
/// choice for it (heads(Σ) of the choice set takes part in matching,
/// Definition 3.4 uses Σ' = Σ∄ ∪ Σ).
void CascadeChoice(const TranslatedProgram& translated,
                   const ChoiceSet& choices, const GroundAtom& atom,
                   FactStore* heads) {
  const DeltaSignature* sig = translated.SignatureByActive(atom.predicate);
  if (sig == nullptr) return;
  auto outcome = choices.Lookup(atom);
  if (!outcome) return;
  heads->Insert(ChoiceSet::ResultAtom(sig->result_pred, atom, *outcome));
}

/// The entry cascade of a grounding call (see EntryCascade).
void CascadeOnEntry(const TranslatedProgram& translated,
                    const ChoiceSet& choices, const EntryCascade& entry,
                    FactStore* heads) {
  if (entry.active != nullptr) {
    CascadeChoice(translated, choices, *entry.active, heads);
    return;
  }
  if (!entry.scan) return;
  for (const DeltaSignature& sig : translated.signatures()) {
    // Collect first: inserting may detach the relation being read.
    std::vector<GroundAtom> chosen;
    for (const Tuple& row : heads->Rows(sig.active_pred)) {
      GroundAtom active{sig.active_pred, row};
      if (choices.Defined(active)) chosen.push_back(std::move(active));
    }
    for (const GroundAtom& active : chosen) {
      CascadeChoice(translated, choices, active, heads);
    }
  }
}

}  // namespace

DatabasePrefix DatabasePrefix::Of(const FactStore& db) {
  GroundRuleSet base;
  for (uint32_t pred : db.Predicates()) {
    for (const Tuple& row : db.Rows(pred)) {
      GroundRule fact;
      fact.head = GroundAtom{pred, row};
      base.Add(std::move(fact));
    }
  }
  base.mutable_heads()->Freeze();
  return DatabasePrefix{std::make_shared<const GroundRuleSet>(std::move(base)),
                        {}};
}

namespace {

/// Calls visit(fact) for each fact on `tail`, oldest first.
template <typename Visit>
void ForEachTailFact(const DatabasePrefix::TailChunk* tail, Visit&& visit) {
  std::vector<const DatabasePrefix::TailChunk*> chunks;
  for (auto c = tail; c != nullptr; c = c->older.get()) chunks.push_back(c);
  for (auto c = chunks.rbegin(); c != chunks.rend(); ++c) {
    for (const GroundRule& fact : (*c)->facts) visit(fact);
  }
}

/// Hashes and compares the atoms its pointers name, so a set of pointers
/// into a delta can be probed with the address of any equal atom.
struct AtomPtrHash {
  size_t operator()(const GroundAtom* atom) const { return atom->Hash(); }
};
struct AtomPtrEq {
  bool operator()(const GroundAtom* a, const GroundAtom* b) const {
    return *a == *b;
  }
};

}  // namespace

DatabasePrefix DatabasePrefix::Extended(
    const std::vector<GroundAtom>& facts,
    std::vector<GroundAtom>* appended) const {
  // The facts missing from the base, each once, in delta order; one walk
  // over the tail then drops those an earlier delta already appended.
  std::unordered_set<const GroundAtom*, AtomPtrHash, AtomPtrEq> fresh;
  std::vector<const GroundAtom*> order;
  for (const GroundAtom& atom : facts) {
    if (!base->heads().Contains(atom) && fresh.insert(&atom).second) {
      order.push_back(&atom);
    }
  }
  for (auto c = tail.get(); c != nullptr && !fresh.empty();
       c = c->older.get()) {
    for (const GroundRule& fact : c->facts) fresh.erase(&fact.head);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const GroundAtom* a, const GroundAtom* b) {
                     return a->predicate < b->predicate;
                   });
  appended->clear();
  for (const GroundAtom* atom : order) {
    if (fresh.count(atom) != 0) appended->push_back(*atom);
  }
  if (appended->empty()) return *this;
  if (tail_size() + appended->size() <= base->size()) {
    auto chunk = std::make_shared<TailChunk>();
    chunk->facts.reserve(appended->size());
    for (const GroundAtom& atom : *appended) {
      GroundRule& fact = chunk->facts.emplace_back();
      fact.head = atom;
    }
    chunk->older = tail;
    chunk->total = tail_size() + appended->size();
    return DatabasePrefix{base, std::move(chunk)};
  }
  // Fold: base, tail and the appended facts, in that order, become the new
  // frozen base.
  GroundRuleSet folded;
  for (const GroundRule* fact : base->rules()) folded.Add(*fact);
  ForEachTailFact(tail.get(),
                  [&](const GroundRule& fact) { folded.Add(fact); });
  for (const GroundAtom& atom : *appended) {
    GroundRule fact;
    fact.head = atom;
    folded.Add(std::move(fact));
  }
  folded.mutable_heads()->Freeze();
  return DatabasePrefix{
      std::make_shared<const GroundRuleSet>(std::move(folded)), nullptr};
}

GroundRuleSet DatabasePrefix::Instantiate() const {
  GroundRuleSet out = base->Clone();
  ForEachTailFact(tail.get(), [&](const GroundRule& fact) { out.Add(fact); });
  return out;
}

Status RunGroundingFixpoint(const TranslatedProgram& translated,
                            const std::vector<const CompiledRule*>& rules,
                            const std::vector<uint32_t>& body_preds,
                            const ChoiceSet& choices, bool check_negative,
                            GroundRuleSet* out, EntryCascade entry,
                            bool resume, MatchStats* stats) {
  FactStore* heads = out->mutable_heads();

  // Semi-naive deltas as row ranges: the delta of predicate P for the
  // current round is rows [old_counts[P], Count(P)) — new facts only ever
  // append. Snapshot at the end of each round's matching phase, before
  // that round's derivations are applied. On a fresh run everything is
  // new (empty map = all-zero watermarks); on a resumed run everything
  // present at entry is old.
  std::unordered_map<uint32_t, uint32_t> old_counts;
  auto snapshot_old = [&] {
    for (uint32_t pred : body_preds) {
      old_counts[pred] = static_cast<uint32_t>(heads->Count(pred));
    }
  };
  if (resume) snapshot_old();

  // Every head insertion cascades its Active atom's chosen Result atom, so
  // on return each chosen Active atom of the instance has its Result atom
  // there; only what entered without that cascade needs the entry pass,
  // run after the resume snapshot so its Result atoms are the delta.
  CascadeOnEntry(translated, choices, entry, heads);
  auto add_ground_rule = [&](GroundRule gr) {
    bool new_head = false;
    const GroundRule* stored = out->AddAndGet(std::move(gr), &new_head);
    if (new_head) CascadeChoice(translated, choices, stored->head, heads);
  };

  MatchStats local;
  BindingFrame empty_frame;

  // The per-rule profiler's sink for this thread, if the caller installed
  // one (ProcessNode does, per worker, when ChaseOptions::profile is on).
  // One thread-local read per fixpoint; with no sink the hot loop pays a
  // null check per (rule, pivot) pair and nothing else.
  ChaseProfile* const prof = ProfileScope::Current();

  // Rules with an empty positive body fire unconditionally (modulo the
  // Perfect negative check); on resumed runs they already fired.
  if (!resume) {
    for (const CompiledRule* rule : rules) {
      if (!rule->positive.empty()) continue;
      empty_frame.Reset(rule->num_slots);
      GroundRule gr = InstantiateRule(*rule, empty_frame);
      if (check_negative && NegativeBodyHits(gr, *heads)) continue;
      if (prof != nullptr && rule->profile_index != static_cast<size_t>(-1)) {
        RuleProfile& rp = prof->Rule(rule->profile_index);
        ++rp.calls;
        ++rp.derivations;
        rp.stratum = prof->current_stratum;
      }
      add_ground_rule(std::move(gr));
    }
  }

  // Semi-naive saturation: each round matches rules with one positive atom
  // pinned to its predicate's delta range — atoms before the pivot see
  // only pre-delta rows, so every body instance is enumerated exactly once
  // over the whole fixpoint — through join plans compiled per (rule,
  // pivot) and rebound as the instance grows between rounds.
  JoinPlanCache plans(heads);
  JoinExecutor exec;
  GroundAtom neg_scratch;
  std::vector<GroundRule> derived;
  while (true) {
    bool any_delta = false;
    for (uint32_t pred : body_preds) {
      auto it = old_counts.find(pred);
      uint32_t old = it == old_counts.end() ? 0 : it->second;
      if (heads->Count(pred) > old) {
        any_delta = true;
        break;
      }
    }
    if (!any_delta) break;

    // Collect first, apply after: applying mutates the instance, which
    // the executor's bound plans are reading.
    derived.clear();
    for (const CompiledRule* rule : rules) {
      for (size_t pivot = 0; pivot < rule->positive.size(); ++pivot) {
        uint32_t pred = rule->positive[pivot].predicate;
        auto it = old_counts.find(pred);
        size_t begin = it == old_counts.end() ? 0 : it->second;
        const std::vector<Tuple>& rows = heads->Rows(pred);
        if (begin >= rows.size()) continue;
        const bool profiled =
            prof != nullptr && rule->profile_index != static_cast<size_t>(-1);
        const uint64_t start_ns = profiled ? MonotonicNanos() : 0;
        const uint64_t bindings_before = local.bindings;
        const size_t derived_before = derived.size();
        const JoinPlan& plan = plans.Get(*rule, pivot, &local);
        exec.ExecuteWithPivotRange(
            plan, rows, begin, rows.size(), &local,
            [&](const BindingFrame& frame) {
              if (check_negative &&
                  NegativeBodyHits(*rule, frame, *heads, &neg_scratch)) {
                return true;
              }
              derived.push_back(InstantiateRule(*rule, frame));
              return true;
            },
            &old_counts);
        if (profiled) {
          RuleProfile& rp = prof->Rule(rule->profile_index);
          ++rp.calls;
          rp.bindings += local.bindings - bindings_before;
          rp.derivations += derived.size() - derived_before;
          rp.time_ns += MonotonicNanos() - start_ns;
          rp.stratum = prof->current_stratum;
        }
      }
    }
    snapshot_old();
    for (GroundRule& gr : derived) add_ground_rule(std::move(gr));
  }
  if (stats != nullptr) stats->Add(local);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SimpleGrounder
// ---------------------------------------------------------------------------

SimpleGrounder::SimpleGrounder(const TranslatedProgram* translated,
                               DatabasePrefix prefix)
    : Grounder(std::move(prefix)), translated_(translated) {
  const std::vector<Rule>& rules = translated_->sigma().rules();
  compiled_.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    compiled_.push_back(CompileSigmaRule(*translated_, i));
  }
  all_rules_.reserve(compiled_.size());
  for (const CompiledRule& c : compiled_) all_rules_.push_back(&c);
  body_preds_ = CollectBodyPreds(all_rules_);
}

Result<std::shared_ptr<const GroundRuleSet>> SimpleGrounder::RootGrounding(
    MatchStats* stats) const {
  std::lock_guard<std::mutex> lock(root_mu_);
  if (root_ != nullptr) return root_;
  GroundRuleSet root = prefix().Instantiate();
  ChoiceSet no_choices;
  GDLOG_RETURN_IF_ERROR(RunGroundingFixpoint(
      *translated_, all_rules_, body_preds_, no_choices,
      /*check_negative=*/false, &root, EntryCascade{}, /*resume=*/false,
      stats));
  root.mutable_heads()->Freeze();
  root_ = std::make_shared<const GroundRuleSet>(std::move(root));
  return root_;
}

Status SimpleGrounder::Ground(const ChoiceSet& choices, GroundRuleSet* out,
                              MatchStats* stats) const {
  // Π[D]: the database (and everything choice-independently derivable from
  // it) enters as the shared saturated root G(∅); the fixpoint resumes from
  // its clone with `choices`' Result atoms as the only new facts, which by
  // monotonicity of Simple^∞ yields exactly G(Σ). The root was grounded
  // without choices, so the entry pass scans its Active atoms.
  GDLOG_ASSIGN_OR_RETURN(std::shared_ptr<const GroundRuleSet> root,
                         RootGrounding(stats));
  *out = root->Clone();
  return RunGroundingFixpoint(*translated_, all_rules_, body_preds_, choices,
                              /*check_negative=*/false, out,
                              EntryCascade::Scan(), /*resume=*/true, stats);
}

Status SimpleGrounder::Extend(const ChoiceSet& choices,
                              const GroundAtom& new_active,
                              GroundRuleSet* out) const {
  // Monotonicity of Simple^∞ (Definition 3.4): the grounding of Σ ∪ {c}
  // is the least fixpoint reached by resuming from the grounding of Σ with
  // c's Result atom as the only new fact. The fixpoint's entry pass
  // inserts that Result atom (new_active is already in the instance and
  // now has a recorded choice).
  return RunGroundingFixpoint(*translated_, all_rules_, body_preds_, choices,
                              /*check_negative=*/false, out,
                              EntryCascade::Of(new_active), /*resume=*/true);
}

// ---------------------------------------------------------------------------
// PerfectGrounder
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PerfectGrounder>> PerfectGrounder::Create(
    const Program& pi, const TranslatedProgram* translated,
    DatabasePrefix prefix) {
  DependencyGraph dg(pi);
  if (!dg.IsStratified()) {
    return Status::NotStratified(
        "perfect grounder requires stratified negation");
  }
  auto grounder = std::unique_ptr<PerfectGrounder>(
      new PerfectGrounder(translated, std::move(prefix)));
  grounder->stratum_rules_.assign(dg.Components().size(), {});
  const auto& strata = dg.Strata();
  const std::vector<Rule>& sigma_rules = translated->sigma().rules();
  const std::vector<size_t>& origin = translated->origin();
  grounder->compiled_.reserve(sigma_rules.size());
  for (size_t i = 0; i < sigma_rules.size(); ++i) {
    grounder->compiled_.push_back(CompileSigmaRule(*translated, i));
  }
  for (size_t i = 0; i < sigma_rules.size(); ++i) {
    // A Σ∄ rule belongs to the stratum of its originating Π-rule's head
    // predicate (Π|C_i keeps rules whose head is in C_i, §5). Constraints
    // have no head; they are grounded in a final pass once all strata are
    // complete (they derive nothing, so deferring them is sound).
    const Rule& original = pi.rules()[origin[i]];
    if (original.is_constraint) {
      grounder->constraint_rules_.push_back(&grounder->compiled_[i]);
      continue;
    }
    auto it = strata.find(original.head.predicate);
    if (it == strata.end()) {
      return Status::Internal("head predicate missing from dependency graph");
    }
    grounder->stratum_rules_[it->second].push_back(&grounder->compiled_[i]);
  }
  grounder->stratum_body_preds_.reserve(grounder->stratum_rules_.size());
  for (const auto& stratum : grounder->stratum_rules_) {
    grounder->stratum_body_preds_.push_back(CollectBodyPreds(stratum));
  }
  grounder->constraint_body_preds_ =
      CollectBodyPreds(grounder->constraint_rules_);
  return grounder;
}

namespace {

/// AtR_Σ ↪ Σ↑C_{i-1} fails: some Active atom of the instance has no
/// recorded choice yet.
bool HasPendingActive(const TranslatedProgram& translated,
                      const FactStore& heads, const ChoiceSet& choices) {
  for (const DeltaSignature& sig : translated.signatures()) {
    for (const Tuple& row : heads.Rows(sig.active_pred)) {
      if (!choices.Defined(GroundAtom{sig.active_pred, row})) return true;
    }
  }
  return false;
}

}  // namespace

Status PerfectGrounder::RunStratum(size_t si, const ChoiceSet& choices,
                                   EntryCascade entry, bool resume,
                                   GroundRuleSet* out,
                                   MatchStats* stats) const {
  // Stratum attribution for the per-rule profiler: the fixpoint stamps
  // each rule with the sink's current_stratum. Rule→stratum is a static
  // property of Π, so re-stamping across calls is idempotent.
  ChaseProfile* const prof = ProfileScope::Current();
  if (prof != nullptr) prof->current_stratum = static_cast<int>(si);
  Status status = RunGroundingFixpoint(
      *translated_, stratum_rules_[si], stratum_body_preds_[si], choices,
      /*check_negative=*/true, out, entry, resume, stats);
  if (prof != nullptr) prof->current_stratum = -1;
  return status;
}

Status PerfectGrounder::GroundFrom(size_t first, const ChoiceSet& choices,
                                   GroundRuleSet* out,
                                   MatchStats* stats) const {
  // Grounding of stratum i (and of the constraints, which read every
  // stratum's negation) stalls until every Active atom produced by earlier
  // strata has a recorded choice (Definition 5.1): Σ↑C_i = Σ↑C_{i-1} for
  // all later strata.
  for (size_t si = first; si < stratum_rules_.size(); ++si) {
    if (HasPendingActive(*translated_, out->heads(), choices)) {
      out->set_stall_stage(static_cast<uint32_t>(si));
      return Status::OK();
    }
    if (stratum_rules_[si].empty()) continue;
    GDLOG_RETURN_IF_ERROR(
        RunStratum(si, choices, EntryCascade{}, /*resume=*/false, out,
                   stats));
  }
  if (HasPendingActive(*translated_, out->heads(), choices)) {
    out->set_stall_stage(static_cast<uint32_t>(stratum_rules_.size()));
    return Status::OK();
  }
  out->set_stall_stage(GroundRuleSet::kNoStall);
  if (constraint_rules_.empty()) return Status::OK();
  return RunGroundingFixpoint(*translated_, constraint_rules_,
                              constraint_body_preds_, choices,
                              /*check_negative=*/true, out, EntryCascade{},
                              /*resume=*/false, stats);
}

Status PerfectGrounder::Ground(const ChoiceSet& choices, GroundRuleSet* out,
                               MatchStats* stats) const {
  *out = prefix().Instantiate();
  // The one entry scan of this call: D's own Active atoms and, for a chase
  // node that arrives with a whole choice set (a shard task), every
  // choice among them. Each stratum grounds from scratch, so these Result
  // atoms count as new there; every later Active atom is cascaded as it
  // is derived.
  CascadeOnEntry(*translated_, choices, EntryCascade::Scan(),
                 out->mutable_heads());
  return GroundFrom(0, choices, out, stats);
}

Status PerfectGrounder::Extend(const ChoiceSet& choices,
                               const GroundAtom& new_active,
                               GroundRuleSet* out) const {
  const uint32_t stall = out->stall_stage();
  if (stall > stratum_rules_.size() || !choices.Defined(new_active) ||
      !out->heads().Contains(new_active)) {
    return Status::InvalidArgument(
        "perfect grounder: Extend needs a grounding stalled on the newly "
        "chosen Active atom");
  }
  // The stall check before stratum `stall` failed, the one before
  // stall - 1 passed: the new choice's Active atom was derived by stratum
  // stall - 1, whose fixpoint resumes from the Result atom its entry pass
  // inserts for it. (A stall at 0 means D itself holds Active atoms; no
  // stratum has run yet, and all of them ground from scratch.)
  if (stall > 0) {
    GDLOG_RETURN_IF_ERROR(RunStratum(stall - 1, choices,
                                     EntryCascade::Of(new_active),
                                     /*resume=*/true, out, nullptr));
  } else {
    CascadeOnEntry(*translated_, choices, EntryCascade::Of(new_active),
                   out->mutable_heads());
  }
  return GroundFrom(stall, choices, out, nullptr);
}

Result<StableModelSet> PerfectGrounder::ReadOffModels(
    const GroundRuleSet& grounding) const {
  // Every negative literal of G(Σ) was checked against a complete lower
  // stratum and stays false, so G(Σ) ∪ Σ is positive in effect and its
  // one candidate model is its least model: every rule head (each rule's
  // body matched heads derived before it) plus the Result atom of every
  // choice whose Active atom was derived — exactly heads(), where the
  // cascade put those Result atoms. A ground constraint enters G(Σ) only
  // with its body true in that model, so it leaves no model at all.
  if (grounding.stall_stage() != GroundRuleSet::kNoStall) {
    return Status::InvalidArgument(
        "perfect grounder: read-off needs a grounding without pending "
        "Active atoms");
  }
  StableModelSet models;
  for (const GroundRule* rule : grounding.rules()) {
    if (rule->is_constraint) return models;
  }
  const FactStore& heads = grounding.heads();
  StableModel model;
  model.reserve(heads.size());
  std::vector<const Tuple*> rows;
  // Predicate by predicate, rows sorted, is GroundAtom's canonical order.
  for (uint32_t pred : heads.Predicates()) {
    rows.clear();
    for (const Tuple& row : heads.Rows(pred)) rows.push_back(&row);
    std::sort(rows.begin(), rows.end(), [](const Tuple* a, const Tuple* b) {
      return a->size() != b->size() ? a->size() < b->size() : *a < *b;
    });
    for (const Tuple* row : rows) model.push_back(GroundAtom{pred, *row});
  }
  models.insert(std::move(model));
  return models;
}

std::vector<GroundAtom> FindTriggers(const TranslatedProgram& translated,
                                     const GroundRuleSet& grounding,
                                     const ChoiceSet& choices) {
  std::vector<GroundAtom> triggers;
  for (const DeltaSignature& sig : translated.signatures()) {
    for (const Tuple& row : grounding.heads().Rows(sig.active_pred)) {
      GroundAtom active{sig.active_pred, row};
      if (!choices.Defined(active)) triggers.push_back(std::move(active));
    }
  }
  std::sort(triggers.begin(), triggers.end());
  return triggers;
}

}  // namespace gdlog
