#ifndef GDLOG_GDATALOG_GROUNDER_H_
#define GDLOG_GDATALOG_GROUNDER_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gdatalog/choice.h"
#include "gdatalog/translation.h"
#include "ground/dependency_graph.h"
#include "ground/ground_rule.h"
#include "ground/join_plan.h"
#include "stable/solver.h"

namespace gdlog {

/// Which Active atoms of its instance a grounding call cascades into their
/// chosen Result atoms on entry. Inserting a rule head cascades that
/// head's choice, so after any grounding call every chosen Active atom of
/// heads() already has its Result atom there: a Ground() scans once, for
/// the Active atoms it inherits (D's facts, a root grounded without
/// choices) and the choices it arrives with; an Extend cascades just its
/// new choice; every other call cascades nothing.
struct EntryCascade {
  bool scan = false;                   ///< every Active atom of the instance
  const GroundAtom* active = nullptr;  ///< just this one (Extend's choice)

  static EntryCascade Scan() { return {true, nullptr}; }
  static EntryCascade Of(const GroundAtom& atom) { return {false, &atom}; }
};

/// Π[D]'s database prefix: every fact of D as a body-less ground rule, the
/// part every G(Σ) starts from. `base` has its matching instance
/// frozen (every column index built) and is shared read-only by every
/// grounding and by the engines later database deltas derive; `tail` holds
/// the facts those deltas appended since `base` was built, as an immutable
/// chain of per-delta chunks that extensions share rather than copy. Once
/// the tail would outgrow `base`, Extended folds it into a new `base` (one
/// segment, so AddAndGet still probes one shared segment). The base at
/// least doubles per fold, so extending costs amortised O(|facts|) and
/// Instantiate's re-added tail never exceeds the base it clones.
struct DatabasePrefix {
  /// One delta's facts on the tail, linked to the chunk before it.
  struct TailChunk {
    std::vector<GroundRule> facts;
    std::shared_ptr<const TailChunk> older;
    size_t total = 0;  ///< Facts in this chunk and every older one.
  };

  std::shared_ptr<const GroundRuleSet> base;
  std::shared_ptr<const TailChunk> tail;  ///< Newest chunk; null if empty.

  /// The prefix of `db`, one rule per fact, predicate by predicate in row
  /// order.
  static DatabasePrefix Of(const FactStore& db);
  /// This prefix with the facts of `facts` it lacks appended to the tail,
  /// or folded into a new base with the tail when the tail would outgrow
  /// the base. A fact already in `base`, already on the tail, or repeated
  /// within `facts` is skipped. `appended` receives the facts appended,
  /// ordered by predicate id and then by their order in `facts`. Costs
  /// O(|facts| + |tail|) without a fold: the tail is walked once, and no
  /// part of the base is copied.
  DatabasePrefix Extended(const std::vector<GroundAtom>& facts,
                          std::vector<GroundAtom>* appended) const;
  /// A fresh grounding holding just the prefix: a clone of `base` (which
  /// shares its rules and indices) with the tail added, oldest fact first.
  GroundRuleSet Instantiate() const;
  /// Facts on the tail.
  size_t tail_size() const { return tail != nullptr ? tail->total : 0; }
};

/// A grounder G of Π[D] (Definition 3.3): a monotone map from functionally
/// consistent sets Σ of ground AtR TGDs (ChoiceSet) to subsets of
/// ground(Σ∄_Π[D]) such that, whenever AtR_Σ is compatible with G(Σ), the
/// stable models of G(Σ) ∪ Σ are exactly those of Σ_Π[D] consistent with
/// the choices in Σ. It depends on Π[D] only through Σ_Π and the database
/// prefix it holds, so the grounder of Π[D ∪ Δ] is the same grounder
/// built on the prefix extended by Δ.
class Grounder {
 public:
  virtual ~Grounder() = default;

  /// The database prefix every Ground() starts from.
  const DatabasePrefix& prefix() const { return prefix_; }

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
  /// its parent's grounding (which shares the parent's rules) instead of
  /// re-deriving it. Only new_active's choice is cascaded: every other
  /// chosen Active atom of `out` already has its Result atom there.
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

 protected:
  explicit Grounder(DatabasePrefix prefix) : prefix_(std::move(prefix)) {}

 private:
  DatabasePrefix prefix_;
};

/// The simple grounder GSimple_Π[D] (Definition 3.4): the least fixpoint of
/// the operator that adds h(σ) whenever the positive body h(B+(σ)) matches
/// heads of the program built so far — negation is ignored while grounding
/// and carried into the ground rules.
class SimpleGrounder : public Grounder {
 public:
  /// `translated` must outlive the grounder. Compiles every Σ∄ rule to
  /// slot form once, here, so chase nodes share the compiled bodies
  /// read-only.
  SimpleGrounder(const TranslatedProgram* translated, DatabasePrefix prefix);

  std::string_view name() const override { return "simple"; }

  Status Ground(const ChoiceSet& choices, GroundRuleSet* out,
                MatchStats* stats = nullptr) const override;

  Status Extend(const ChoiceSet& choices, const GroundAtom& new_active,
                GroundRuleSet* out) const override;

 private:
  /// The saturated root grounding G(∅), built on first use (thread-safely)
  /// and shared by every Ground(): Simple^∞ is monotone, so G(Σ) is the
  /// fixpoint resumed from G(∅) with Σ's Result atoms as the only new
  /// facts — the choice-free core is derived once per engine, not once per
  /// chase node.
  Result<std::shared_ptr<const GroundRuleSet>> RootGrounding(
      MatchStats* stats) const;

  const TranslatedProgram* translated_;
  /// Σ∄ rules compiled to slot form, parallel to sigma().rules().
  std::vector<CompiledRule> compiled_;
  std::vector<const CompiledRule*> all_rules_;
  /// Positive-body predicates of all_rules_, sorted.
  std::vector<uint32_t> body_preds_;
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
  /// strata are computed from; `translated` must outlive the grounder.
  /// Fails when Π is not stratified.
  static Result<std::unique_ptr<PerfectGrounder>> Create(
      const Program& pi, const TranslatedProgram* translated,
      DatabasePrefix prefix);

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
  /// heads(), i.e. every rule head plus the Result atom of every choice
  /// whose Active atom was derived.
  Result<StableModelSet> ReadOffModels(
      const GroundRuleSet& grounding) const override;

  size_t stratum_count() const { return stratum_rules_.size(); }

 private:
  PerfectGrounder(const TranslatedProgram* translated, DatabasePrefix prefix)
      : Grounder(std::move(prefix)), translated_(translated) {}

  /// Grounds strata `first`.. and then the constraints, each from scratch,
  /// into `out` (whose lower strata are complete). Stops at the first
  /// stratum — or the constraint pass — that an unchosen Active atom
  /// stalls, recording it as out's stall stage.
  Status GroundFrom(size_t first, const ChoiceSet& choices,
                    GroundRuleSet* out, MatchStats* stats) const;
  /// Runs stratum `si`'s fixpoint, resumed or from scratch, attributing
  /// the work to `si` in the per-rule profile.
  Status RunStratum(size_t si, const ChoiceSet& choices, EntryCascade entry,
                    bool resume, GroundRuleSet* out, MatchStats* stats) const;

  const TranslatedProgram* translated_;
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
};

/// The triggers of Definition 4.1: Active atoms occurring in heads(G(Σ))
/// with no choice recorded in Σ, in canonical (sorted) order.
std::vector<GroundAtom> FindTriggers(const TranslatedProgram& translated,
                                     const GroundRuleSet& grounding,
                                     const ChoiceSet& choices);

/// Shared Simple^∞ / Perfect^∞ fixpoint machinery (used by both grounders).
/// Starts from the rules/facts already in `out`, whose heads() is the
/// matching instance (it also holds Result atoms contributed by earlier
/// `choices` cascades); cascades the choices `entry` names, then
/// saturates `rules` (compiled to slot form by the owning grounder) and
/// returns. With `check_negative`, a rule instance is added only if its
/// negative body misses the instance (Perfect semantics). With `resume`,
/// only the facts the entry cascade inserts are treated as new
/// (incremental continuation of an earlier fixpoint). With `stats`
/// non-null, compiled-join counters accumulate into it.
/// `body_preds` must list the positive-body predicates of `rules`, sorted
/// and unique (the grounders precompute it once; it drives the delta
/// watermarks).
Status RunGroundingFixpoint(const TranslatedProgram& translated,
                            const std::vector<const CompiledRule*>& rules,
                            const std::vector<uint32_t>& body_preds,
                            const ChoiceSet& choices, bool check_negative,
                            GroundRuleSet* out, EntryCascade entry,
                            bool resume = false, MatchStats* stats = nullptr);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_GROUNDER_H_
