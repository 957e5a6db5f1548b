#ifndef GDLOG_OPT_PASSES_H_
#define GDLOG_OPT_PASSES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "opt/ir.h"

namespace gdlog {

/// Raw rewrite counters the passes accumulate (surfaced through
/// gdlog_cli --stats and gdlogd GET /v1/stats).
struct OptCounters {
  uint64_t rules_eliminated = 0;        ///< Dead-rule pass removals.
  uint64_t rules_specialized = 0;       ///< Rules narrowed or split.
  uint64_t predicates_specialized = 0;  ///< Distinct head preds touched.
  uint64_t subjoins_shared = 0;         ///< Synthesized __join predicates.
  uint64_t demand_eliminated_rules = 0; ///< Rules dropped by demand.
};

struct PassContext {
  /// Database summary; specialization and dead-rule elimination are no-ops
  /// without one (every domain is ⊤ when the database is unknown).
  const DbSummary* db = nullptr;
  /// Column-domain saturation cap (distinct constants per column).
  size_t max_domain = 4;
  /// Maximum number of copies a rule split may produce.
  size_t max_split = 3;
};

/// The forward flow analysis behind specialization and dead-rule
/// elimination: which predicates can have facts at all (presence, an
/// overapproximation that ignores negation), and an overapproximation of
/// the constants each predicate column can hold. Exposed for unit tests.
struct DomainAnalysis {
  std::set<uint32_t> present;
  std::map<uint32_t, std::vector<ColumnDomain>> domains;
};
DomainAnalysis AnalyzeDomains(const ProgramIr& ir, const DbSummary& db,
                              size_t max_domain);

/// Predicate specialization: substitutes variables whose derived domain is
/// a single constant (so join plans check constants instead of binding
/// slots), and splits a rule on one small-domain join variable into one
/// copy per constant. Both rewrites preserve the rule's ground-instance
/// set exactly. Returns the number of rewritten rules.
size_t SpecializationPass(ProgramIr* ir, const PassContext& ctx,
                          OptCounters* counters);

/// Dead-rule elimination: removes rules that can never fire — a positive
/// body predicate can have no facts, or a body constant falls outside a
/// column's derived domain. Exactly semantics-preserving (the removed
/// rules contribute no ground instances). Returns the number of removals.
size_t DeadRuleEliminationPass(ProgramIr* ir, const PassContext& ctx,
                               OptCounters* counters);

/// Magic-sets-style demand transformation: keeps only the rules in the
/// backward closure of `goal_preds` (plus every constraint and the
/// Active↔Result pairing). Changes the derived fact set — callers gate it
/// on "only goal marginals are observed" (see ROADMAP's correctness
/// argument). Returns the number of rules dropped.
size_t DemandPass(ProgramIr* ir, const std::vector<uint32_t>& goal_preds,
                  OptCounters* counters);

/// Cross-rule common-subjoin sharing: when ≥2 rules of a stratum share
/// their entire leading positive join (ignoring the Result literals the
/// translation prepends), the shared join is hoisted into a synthesized
/// __join_N predicate materialized once per fixpoint round. Consumers
/// match the rewritten body but emit their original one, so G(Σ) is
/// byte-identical. Returns the number of synthesized predicates.
size_t SubjoinSharingPass(ProgramIr* ir, OptCounters* counters);

}  // namespace gdlog

#endif  // GDLOG_OPT_PASSES_H_
