#ifndef GDLOG_GDATALOG_TRANSLATION_H_
#define GDLOG_GDATALOG_TRANSLATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ast/program.h"
#include "dist/distribution.h"
#include "util/status.h"

namespace gdlog {

/// Metadata of an Active/Result predicate pair introduced by the
/// translation of §3 for a distribution δ with parameter dimension
/// `param_count` and event-signature length `event_count`:
///
///   Active^δ_{|q̄|}(p̄, q̄)            arity |p̄| + |q̄|
///   Result^δ_{|q̄|}(p̄, q̄, y)         arity |p̄| + |q̄| + 1
struct DeltaSignature {
  uint32_t dist_id = 0;        ///< Interned distribution name.
  const Distribution* dist = nullptr;
  size_t param_count = 0;
  size_t event_count = 0;
  uint32_t active_pred = 0;    ///< Interned Active predicate name.
  uint32_t result_pred = 0;    ///< Interned Result predicate name.
};

/// The TGD¬ program Σ_Π of §3, split as the paper does:
///  * Σ∃ (the active-to-result TGDs) is not materialized as rules — ground
///    AtR TGDs are the chase's choice objects (see ChoiceSet);
///  * Σ∄ = Σ_Π \ Σ∃ is an ordinary (existential-free) TGD¬ program whose
///    rules mention the fresh Active/Result predicates.
///
/// Each rule of Σ∄ remembers the index of the original Π-rule it came
/// from, so the perfect grounder can organize rules by the strata of dg(Π).
class TranslatedProgram {
 public:
  const Program& sigma() const { return sigma_; }

  /// Original-rule index for each rule of sigma() (parallel vector).
  const std::vector<size_t>& origin() const { return origin_; }

  /// Signature lookup by Active predicate id; nullptr if not an Active
  /// predicate.
  const DeltaSignature* SignatureByActive(uint32_t pred) const;
  /// Signature lookup by Result predicate id.
  const DeltaSignature* SignatureByResult(uint32_t pred) const;

  const std::vector<DeltaSignature>& signatures() const { return signatures_; }

  bool IsActivePredicate(uint32_t pred) const {
    return by_active_.count(pred) != 0;
  }
  bool IsResultPredicate(uint32_t pred) const {
    return by_result_.count(pred) != 0;
  }

  /// Replaces Σ∄ with a subset of its rules (RestrictToDemand). `origin`
  /// must be parallel to `rules`; the signature tables are untouched.
  void ReplaceRules(std::vector<Rule> rules, std::vector<size_t> origin);

  /// Structural copy re-pointed at `interner`, which must preserve the ids
  /// of this program's interner (see Interner::Clone). Signature dist
  /// pointers still reference the original DistributionRegistry.
  TranslatedProgram CloneWith(std::shared_ptr<Interner> interner) const;

 private:
  friend Result<TranslatedProgram> TranslateToTgd(
      const Program& pi, const DistributionRegistry& registry);

  Program sigma_;
  std::vector<size_t> origin_;
  std::vector<DeltaSignature> signatures_;
  std::map<uint32_t, size_t> by_active_;
  std::map<uint32_t, size_t> by_result_;
};

/// Translates a validated GDatalog¬[Δ] program Π into Σ_Π per §3:
///
///   body → P0(w̄)  with Δ-terms w_{i_j} = δ_j⟨p̄_j⟩[q̄_j]   becomes
///
///   body → Active^{δ_j}(p̄_j, q̄_j)                 (one per Δ-term)
///   Active^{δ_j}(p̄_j, q̄_j) → ∃y_j Result^{δ_j}(p̄_j, q̄_j, y_j)   [AtR; implicit]
///   Result^{δ_1}(...) , ..., Result^{δ_r}(...), body → P0(w̄')
///
/// Rules without Δ-terms are copied verbatim. Constraints must have been
/// desugared beforehand (Program::DesugarConstraints).
///
/// Fails when a Δ-term names an unknown distribution or uses a parameter
/// dimension the distribution rejects.
Result<TranslatedProgram> TranslateToTgd(const Program& pi,
                                         const DistributionRegistry& registry);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_TRANSLATION_H_
