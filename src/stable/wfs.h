#ifndef GDLOG_STABLE_WFS_H_
#define GDLOG_STABLE_WFS_H_

#include <cstdint>
#include <vector>

#include "stable/normal_program.h"

namespace gdlog {

/// Three-valued truth.
enum class Truth : uint8_t { kFalse = 0, kUndefined = 1, kTrue = 2 };

/// The well-founded model of a ground normal program: a three-valued
/// interpretation that soundly approximates every stable model (true atoms
/// belong to all of them, false atoms to none). For (locally) stratified
/// programs the well-founded model is total and equals the unique stable
/// model. No engine path computes it: stratified leaves are read off the
/// perfect grounder's grounding, and the solver's propagation subsumes it
/// at every search node. Tests and bench_e8 use it as a reference.
struct WellFoundedModel {
  std::vector<Truth> truth;  ///< Indexed by atom id.

  bool IsTotal() const {
    for (Truth t : truth) {
      if (t == Truth::kUndefined) return false;
    }
    return true;
  }

  std::vector<uint32_t> TrueAtoms() const {
    std::vector<uint32_t> out;
    for (uint32_t a = 0; a < truth.size(); ++a) {
      if (truth[a] == Truth::kTrue) out.push_back(a);
    }
    return out;
  }
};

/// Computes the well-founded model via the alternating fixpoint of the
/// Gelfond–Lifschitz operator Γ (Γ² is monotone; lfp gives the true atoms,
/// Γ(lfp) the possibly-true ones).
///
/// `external` optionally conditions negation: for an atom a with
/// external[a] == kTrue every negative literal "not a" is falsified (rules
/// carrying it are blocked); with kFalse the literal is satisfied and
/// dropped; kUndefined leaves it to the alternating fixpoint. Positive
/// occurrences are never conditioned — callers detect conflicts by
/// comparing the returned truth values against their assignment.
WellFoundedModel ComputeWellFounded(const NormalProgram& prog,
                                    const std::vector<Truth>* external = nullptr);

/// Least model of the reduct Σ^ν where ν is a *total* assignment to the
/// atoms occurring negatively ("not a" is satisfied iff external[a] !=
/// kTrue). Returns the set of derived atoms as a bitmask: a one-shot
/// ReductLeastModel::Compute.
std::vector<bool> LeastModelOfReduct(const NormalProgram& prog,
                                     const std::vector<Truth>& external);

/// The Γ operator with its buffers kept across calls: least models of
/// Gelfond–Lifschitz reducts of one program, computed by counting unmet
/// positive body atoms per rule.
class ReductLeastModel {
 public:
  explicit ReductLeastModel(const NormalProgram& prog);

  /// Least model of the reduct in which "not a" is falsified iff a is
  /// assumed true: external[a] == kTrue, or external is absent or
  /// kUndefined at a and assumed[a] is set (assumed may be null). Returns
  /// one 0/1 flag per atom, valid until the next call.
  const std::vector<uint8_t>& Compute(const std::vector<Truth>* external,
                                      const std::vector<uint8_t>* assumed);

 private:
  const NormalProgram& prog_;
  std::vector<uint8_t> derived_;
  std::vector<uint32_t> missing_;  ///< per rule; kBlocked = never fires
  std::vector<uint32_t> ready_;    ///< rules whose body is met, in order
};

}  // namespace gdlog

#endif  // GDLOG_STABLE_WFS_H_
