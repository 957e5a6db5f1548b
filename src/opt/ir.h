#ifndef GDLOG_OPT_IR_H_
#define GDLOG_OPT_IR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "ground/fact_store.h"

namespace gdlog {

class TranslatedProgram;

/// The set of constants a predicate column can possibly hold, as an
/// abstract-domain element: either ⊤ (anything) or an explicit set of at
/// most a few values. The pass pipeline uses these both as a database
/// summary (seeded from D's columns) and as the lattice the specialization
/// pass iterates over.
struct ColumnDomain {
  bool top = false;
  std::set<Value> values;  ///< Meaningful only when !top.

  static ColumnDomain Top() {
    ColumnDomain d;
    d.top = true;
    return d;
  }

  bool Contains(const Value& v) const { return top || values.count(v) != 0; }

  /// In-place join (set union, saturating to ⊤ past `cap` values).
  /// Returns true iff this domain changed.
  bool Join(const ColumnDomain& other, size_t cap);
  bool JoinValue(const Value& v, size_t cap);

  bool operator==(const ColumnDomain& other) const {
    if (top != other.top) return false;
    return top || values == other.values;
  }
};

/// What the pass pipeline is allowed to know about the database D: which
/// predicates have rows and the per-column constant domains of the small
/// ones. Passes consume ONLY this summary (never the FactStore), so the
/// optimized program is a pure function of (Σ_Π, DbSummary) — which is what
/// lets the server reuse a pipeline run when a database swap leaves the
/// summary unchanged.
struct DbSummary {
  struct PredicateSummary {
    size_t rows = 0;
    std::vector<ColumnDomain> columns;

    bool operator==(const PredicateSummary& other) const {
      return rows == other.rows && columns == other.columns;
    }
  };

  std::map<uint32_t, PredicateSummary> predicates;

  bool Present(uint32_t pred) const {
    auto it = predicates.find(pred);
    return it != predicates.end() && it->second.rows > 0;
  }

  bool operator==(const DbSummary& other) const {
    return predicates == other.predicates;
  }
  bool operator!=(const DbSummary& other) const { return !(*this == other); }
};

/// Summarizes `db`: per-predicate row counts plus per-column domains,
/// saturated to ⊤ once a column exceeds `max_domain_values` distinct
/// constants.
DbSummary SummarizeDb(const FactStore& db, size_t max_domain_values = 4);

/// True iff two summaries are indistinguishable to the pass pipeline: the
/// same predicates present and the same column domains. Exact row counts
/// are deliberately ignored — no pass consumes them (passes.cc reads only
/// Present() and columns) — so a row-appending delta that stays inside the
/// existing domains keeps the optimized program reusable verbatim.
bool PipelineEquivalent(const DbSummary& a, const DbSummary& b);

/// Folds the rows `db` gained in `ranges` into `summary` in place: row
/// counts bumped, column domains joined with the new values. Equivalent to
/// SummarizeDb(db, max_domain_values) on the post-delta database, at a cost
/// proportional to the delta.
void UpdateSummaryForDelta(DbSummary* summary, const FactStore& db,
                           const DeltaRanges& ranges,
                           size_t max_domain_values = 4);

/// One rule of the program IR. Wraps the AST rule with the annotations the
/// passes read and write: provenance (which Π-rule it came from), stratum
/// membership, the sideways-information-passing adornment, and the
/// execution split introduced by subjoin sharing (match the rewritten body,
/// emit the original one).
struct RuleIr {
  Rule rule;
  /// Index of the originating Π-rule. Synthesized rules inherit their
  /// first consumer's origin.
  size_t origin = 0;
  /// Stratum of the originating rule's head predicate in dg(Π);
  /// kConstraintStratum for constraints.
  size_t stratum = 0;
  /// True for synthesized __join_N rules: their head atoms are matching
  /// state only and must never become ground-rule heads or model facts.
  bool aux_head = false;
  /// When non-empty, the grounder matches `rule.body` but instantiates
  /// ground rules with this body instead (subjoin sharing keeps ground
  /// output byte-identical by re-emitting the pre-rewrite body).
  std::vector<Literal> emit_body;
  /// Left-to-right bound/free adornment, e.g. "p/bf :- q/bf, r/ff, not s/bb".
  /// Recomputed by ProgramIr::RebuildIndexes; purely informational.
  std::string adornment;
};

/// A whole-program IR over Σ_Π: the rule list plus the per-predicate
/// arities the passes navigate with. Passes mutate rules() and call
/// RebuildIndexes() when done.
class ProgramIr {
 public:
  static constexpr size_t kConstraintStratum = static_cast<size_t>(-1);

  /// Lifts Σ_Π: one RuleIr per sigma rule, stratum = stratum of the
  /// originating Π-rule's head in dg(Π). `interner` must be the program's
  /// own name table (passes intern synthesized predicate names into it).
  static ProgramIr LiftSigma(const Program& pi,
                             const TranslatedProgram& translated,
                             Interner* interner);

  std::vector<RuleIr>& rules() { return rules_; }
  const std::vector<RuleIr>& rules() const { return rules_; }

  Interner* interner() { return interner_; }
  const Interner* interner() const { return interner_; }
  /// The Σ_Π this IR was lifted from (Active/Result metadata for the
  /// passes).
  const TranslatedProgram& translated() const { return *translated_; }

  /// Arity of every predicate mentioned by rules(). Valid until rules()
  /// next mutates.
  const std::map<uint32_t, size_t>& arities() const { return arities_; }

  /// Recomputes arities and every rule's adornment annotation.
  void RebuildIndexes();

  /// Deterministic human-readable listing (the --dump-ir format): one line
  /// per rule with origin/stratum/aux annotations and the adornment.
  std::string Dump() const;

  /// Writes the (optimized) rules back into `out`'s Σ∄, preserving origin
  /// provenance and attaching per-rule execution info (aux heads, emit
  /// bodies). `out` is typically the TranslatedProgram this IR was lifted
  /// from.
  void ApplyTo(TranslatedProgram* out) const;

 private:
  ProgramIr() = default;

  std::vector<RuleIr> rules_;
  Interner* interner_ = nullptr;
  const TranslatedProgram* translated_ = nullptr;
  std::map<uint32_t, size_t> arities_;
};

}  // namespace gdlog

#endif  // GDLOG_OPT_IR_H_
