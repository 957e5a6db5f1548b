#ifndef GDLOG_GDATALOG_GROUNDER_H_
#define GDLOG_GDATALOG_GROUNDER_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gdatalog/choice.h"
#include "gdatalog/translation.h"
#include "ground/dependency_graph.h"
#include "ground/ground_rule.h"
#include "ground/join_plan.h"
#include "stable/solver.h"

namespace gdlog {

/// A grounder G of Π[D] (Definition 3.3): a monotone map from functionally
/// consistent sets Σ of ground AtR TGDs (ChoiceSet) to subsets of
/// ground(Σ∄_Π[D]) such that, whenever AtR_Σ is compatible with G(Σ), the
/// stable models of G(Σ) ∪ Σ are exactly those of Σ_Π[D] consistent with
/// the choices in Σ.
class Grounder {
 public:
  virtual ~Grounder() = default;

  virtual std::string_view name() const = 0;

  /// Computes G(Σ) for the choice set `choices`, appending the ground rules
  /// (including the database facts of D as body-less rules) to a fresh
  /// `out`. On return out->heads() is the matching instance
  /// heads(G(Σ) ∪ Σ), which is all the state Extend() needs to resume.
  /// With `stats` non-null, the compiled-join counters of this grounding
  /// are accumulated into it.
  virtual Status Ground(const ChoiceSet& choices, GroundRuleSet* out,
                        MatchStats* stats = nullptr) const = 0;

  /// Whether Extend() may be used. Always true: both grounders implement
  /// it and the chase always extends. Kept, non-virtual, only because the
  /// benchmark's layer breakdown (perfbench) still calls it.
  bool SupportsIncremental() const { return true; }

  /// Extends `out` — produced by Ground()/Extend() for `choices` minus its
  /// most recent assignment `new_active` — to the grounding of the full
  /// `choices`. Grounders are monotone in the choice set (Definition 3.3),
  /// so G(Σ ∪ {c}) is the fixpoint resumed from G(Σ) with c's Result atom
  /// as the only new fact: the chase extends each child from a clone of
  /// its parent's grounding instead of re-deriving it.
  virtual Status Extend(const ChoiceSet& choices, const GroundAtom& new_active,
                        GroundRuleSet* out) const = 0;

  /// Leaf read-off (optional). Whether every complete grounding checked
  /// each negative literal only against parts of the instance that were
  /// already complete, so that G(Σ) ∪ Σ has at most one stable model,
  /// readable off heads() without a solver.
  virtual bool SettlesNegation() const { return false; }

  /// sms(G(Σ) ∪ Σ) of a complete grounding `grounding` of Σ, read off
  /// without a solver. Only valid when SettlesNegation().
  virtual Result<StableModelSet> ReadOffModels(
      const GroundRuleSet& grounding) const {
    (void)grounding;
    return Status::Unsupported(std::string(name()) +
                               " grounder does not read off models");
  }
};

/// The simple grounder GSimple_Π[D] (Definition 3.4): the least fixpoint of
/// the operator that adds h(σ) whenever the positive body h(B+(σ)) matches
/// heads of the program built so far — negation is ignored while grounding
/// and carried into the ground rules.
class SimpleGrounder : public Grounder {
 public:
  /// `translated` and `db` must outlive the grounder. Compiles every Σ∄
  /// rule to slot form once, here, so chase nodes share the compiled
  /// bodies read-only.
  SimpleGrounder(const TranslatedProgram* translated, const FactStore* db);

  /// Delta-extension construction (GDatalog::WithDatabaseDelta): shares
  /// `base`'s database-prefix grounding instead of rebuilding it from |D|
  /// and carries the rows `db` gained in `ranges` as a tail of body-less
  /// rules. With `resume_root`, and provided `base` has already saturated
  /// its root grounding, the root is re-grounded semi-naively from the
  /// delta ranges only (watermarks seeded at the base root's counts);
  /// `resume_root` must only be set when `translated` holds the same rule
  /// set as the base's — the engine ties it to pipeline reuse. Outputs:
  /// `root_resumed` reports whether the resume happened, `rules_refired`
  /// the number of ground rules the resume derived beyond the delta facts.
  SimpleGrounder(const TranslatedProgram* translated, const FactStore* db,
                 const SimpleGrounder& base, const DeltaRanges& ranges,
                 bool resume_root, bool* root_resumed,
                 uint64_t* rules_refired);

  std::string_view name() const override { return "simple"; }

  Status Ground(const ChoiceSet& choices, GroundRuleSet* out,
                MatchStats* stats = nullptr) const override;

  Status Extend(const ChoiceSet& choices, const GroundAtom& new_active,
                GroundRuleSet* out) const override;

 private:
  /// Compiles the Σ∄ rules into compiled_/all_rules_/body_preds_ (shared
  /// by both constructors).
  void CompileRules();
  /// The saturated root grounding G(∅), built on first use (thread-safely)
  /// and shared by every Ground(): Simple^∞ is monotone, so G(Σ) is the
  /// fixpoint resumed from G(∅) with Σ's Result atoms as the only new
  /// facts — the choice-free core is derived once per engine, not once per
  /// chase node.
  Result<std::shared_ptr<const GroundRuleSet>> RootGrounding(
      MatchStats* stats) const;

  const TranslatedProgram* translated_;
  const FactStore* db_;
  /// Σ∄ rules compiled to slot form, parallel to sigma().rules().
  std::vector<CompiledRule> compiled_;
  std::vector<const CompiledRule*> all_rules_;
  /// Positive-body predicates of all_rules_, sorted.
  std::vector<uint32_t> body_preds_;
  /// Π[D]'s database prefix as a grounding (one body-less rule per fact)
  /// with a frozen, fully indexed matching instance — shared (not cloned)
  /// with delta-extension grounders derived from this one.
  std::shared_ptr<const GroundRuleSet> db_base_;
  /// Facts appended after db_base_ was built (delta-extension engines);
  /// the root grounding stacks them on top of the cloned prefix.
  std::vector<GroundRule> db_tail_;
  mutable std::mutex root_mu_;
  mutable std::shared_ptr<const GroundRuleSet> root_;  ///< Guarded by root_mu_.
};

/// The perfect grounder GPerfect_Π[D] (Definition 5.1) for programs with
/// stratified negation: processes the strata of dg(Π) in topological order;
/// within a stratum, h(σ) is added only when additionally the negative body
/// does not match heads so far (h(B-(σ)) ∩ heads = ∅); grounding of later
/// strata stalls until every Active atom produced so far has a choice
/// (AtR_Σ ↪ Σ↑C_{i-1}). The constraints, which may negate any stratum, are
/// grounded last and only once no Active atom is pending.
///
/// Incremental: a grounding records the stratum its fixpoint stalled
/// before (GroundRuleSet::stall_stage). Every pending Active atom then
/// comes from the stratum t just below the stall — an unchosen one from a
/// lower stratum t' would have stalled grounding before t'+1 — so Extend
/// resumes t's semi-naive fixpoint from the new Result atom and grounds
/// t+1 onwards from scratch. That equals Ground(Σ ∪ {c}): strata below t
/// are complete and unchanged (c's Active atom is first derived in t, so
/// from scratch, too, its Result atom first enters during t), and t's
/// operator is monotone, since its negative literals only read lower,
/// complete strata.
class PerfectGrounder : public Grounder {
 public:
  /// `pi` is the original (desugared, plain-constraint-free) program the
  /// strata are computed from. Fails when Π is not stratified.
  static Result<std::unique_ptr<PerfectGrounder>> Create(
      const Program& pi, const TranslatedProgram* translated,
      const FactStore* db);

  /// Delta-extension construction: shares `base`'s database-prefix
  /// grounding and appends the delta rows as a tail. Unlike the simple
  /// grounder the root is not resumed from the base's: under negation,
  /// added facts can retract derivations (DRed territory), so every
  /// Ground() still runs the per-stratum fixpoints from the (shared)
  /// prefix. Chase nodes below the root Extend as usual.
  static Result<std::unique_ptr<PerfectGrounder>> CreateDelta(
      const Program& pi, const TranslatedProgram* translated,
      const FactStore* db, const PerfectGrounder& base,
      const DeltaRanges& ranges);

  std::string_view name() const override { return "perfect"; }

  Status Ground(const ChoiceSet& choices, GroundRuleSet* out,
                MatchStats* stats = nullptr) const override;

  /// Returns an error, leaving `out` untouched, unless `out` stalled on
  /// pending Active atoms and `new_active` is one of them with a choice in
  /// `choices`.
  Status Extend(const ChoiceSet& choices, const GroundAtom& new_active,
                GroundRuleSet* out) const override;

  /// Negation in G(Σ) is only ever checked against completed lower strata.
  bool SettlesNegation() const override { return true; }
  /// No model if G(Σ) holds a ground constraint; else the one model:
  /// heads() without the optimizer's __join atoms, i.e. every rule head
  /// plus the Result atom of every choice whose Active atom was derived.
  Result<StableModelSet> ReadOffModels(
      const GroundRuleSet& grounding) const override;

  size_t stratum_count() const { return stratum_rules_.size(); }

 private:
  PerfectGrounder(const TranslatedProgram* translated, const FactStore* db)
      : translated_(translated), db_(db) {}

  /// Grounds strata `first`.. and then the constraints, each from scratch,
  /// into `out` (whose lower strata are complete). Stops at the first
  /// stratum — or the constraint pass — that an unchosen Active atom
  /// stalls, recording it as out's stall stage.
  Status GroundFrom(size_t first, const ChoiceSet& choices,
                    GroundRuleSet* out, MatchStats* stats) const;
  /// Runs stratum `si`'s fixpoint, resumed or from scratch, attributing
  /// the work to `si` in the per-rule profile.
  Status RunStratum(size_t si, const ChoiceSet& choices, bool resume,
                    GroundRuleSet* out, MatchStats* stats) const;

  /// Everything Create/CreateDelta share: strata, rule compilation, body
  /// predicate sets — all but the database prefix.
  static Result<std::unique_ptr<PerfectGrounder>> Build(
      const Program& pi, const TranslatedProgram* translated,
      const FactStore* db);

  const TranslatedProgram* translated_;
  const FactStore* db_;
  /// Σ∄ rules compiled to slot form, parallel to sigma().rules().
  std::vector<CompiledRule> compiled_;
  /// Rules of Σ∄ grouped by the stratum of the originating Π-rule's head.
  std::vector<std::vector<const CompiledRule*>> stratum_rules_;
  /// Constraints, grounded in a final pass after all strata.
  std::vector<const CompiledRule*> constraint_rules_;
  /// Positive-body predicates per stratum (parallel to stratum_rules_)
  /// and for the constraint pass, each sorted.
  std::vector<std::vector<uint32_t>> stratum_body_preds_;
  std::vector<uint32_t> constraint_body_preds_;
  /// Head predicates of the synthesized __join rules, sorted: matching
  /// state in heads() that is no part of any model.
  std::vector<uint32_t> aux_preds_;
  /// See SimpleGrounder::db_base_ / db_tail_.
  std::shared_ptr<const GroundRuleSet> db_base_;
  std::vector<GroundRule> db_tail_;
};

/// The triggers of Definition 4.1: Active atoms occurring in heads(G(Σ))
/// with no choice recorded in Σ, in canonical (sorted) order.
std::vector<GroundAtom> FindTriggers(const TranslatedProgram& translated,
                                     const GroundRuleSet& grounding,
                                     const ChoiceSet& choices);

/// Shared Simple^∞ / Perfect^∞ fixpoint machinery (used by both grounders).
/// Starts from the rules/facts already in `out`, whose heads() is the
/// matching instance (it also holds Result atoms contributed by earlier
/// `choices` cascades); saturates `rules` (compiled to slot form by the
/// owning grounder) and returns. With `check_negative`, a rule instance is
/// added only if its negative body misses the instance (Perfect
/// semantics). With `resume`, only facts cascaded by newly applicable
/// choices are treated as new (incremental continuation of an earlier
/// fixpoint). With `stats` non-null, compiled-join counters accumulate
/// into it.
/// `body_preds` must list the positive-body predicates of `rules`, sorted
/// and unique (the grounders precompute it once; it drives the delta
/// watermarks).
/// With `seed_watermarks` non-null (implies resume semantics), the entry
/// watermarks are taken from the map instead of snapshotted: rows of
/// predicate P at index ≥ (*seed_watermarks)[P] are treated as new, and
/// predicates missing from the map count as all-new. This is the
/// delta-driven re-grounding path — the caller seeds the watermarks at the
/// pre-delta counts and lets the semi-naive loop fire only what the delta
/// rows can newly match.
Status RunGroundingFixpoint(
    const TranslatedProgram& translated,
    const std::vector<const CompiledRule*>& rules,
    const std::vector<uint32_t>& body_preds, const ChoiceSet& choices,
    bool check_negative, GroundRuleSet* out, bool resume = false,
    MatchStats* stats = nullptr,
    const std::unordered_map<uint32_t, uint32_t>* seed_watermarks = nullptr);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_GROUNDER_H_
