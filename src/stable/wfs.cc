#include "stable/wfs.h"

#include <algorithm>

namespace gdlog {

namespace {
constexpr uint32_t kBlocked = UINT32_MAX;
}  // namespace

ReductLeastModel::ReductLeastModel(const NormalProgram& prog)
    : prog_(prog),
      derived_(prog.atom_count(), 0),
      missing_(prog.rule_count(), 0) {
  ready_.reserve(prog.rule_count());
}

const std::vector<uint8_t>& ReductLeastModel::Compute(
    const std::vector<Truth>* external, const std::vector<uint8_t>* assumed) {
  std::fill(derived_.begin(), derived_.end(), 0);
  ready_.clear();
  const auto rules = static_cast<uint32_t>(prog_.rule_count());
  for (uint32_t r = 0; r < rules; ++r) {
    missing_[r] = static_cast<uint32_t>(prog_.positive(r).size());
    for (uint32_t a : prog_.negative(r)) {
      const Truth ext =
          external == nullptr ? Truth::kUndefined : (*external)[a];
      if (ext == Truth::kTrue ||
          (ext == Truth::kUndefined && assumed != nullptr && (*assumed)[a])) {
        missing_[r] = kBlocked;
        break;
      }
    }
    if (missing_[r] == 0) ready_.push_back(r);
  }
  // Each rule enters ready_ once, when its last positive atom is derived.
  for (size_t i = 0; i < ready_.size(); ++i) {
    const uint32_t head = prog_.head(ready_[i]);
    if (derived_[head]) continue;
    derived_[head] = 1;
    for (uint32_t rj : prog_.pos_occurrences(head)) {
      if (missing_[rj] == kBlocked || missing_[rj] == 0) continue;
      // pos_occurrences lists a rule once per positive occurrence and
      // missing_ starts at the occurrence count, so decrementing by one
      // per entry is consistent even with duplicated body atoms.
      if (--missing_[rj] == 0) ready_.push_back(rj);
    }
  }
  return derived_;
}

WellFoundedModel ComputeWellFounded(const NormalProgram& prog,
                                    const std::vector<Truth>* external) {
  const size_t n = prog.atom_count();
  ReductLeastModel gamma(prog);
  std::vector<uint8_t> T(n, 0);

  // Alternating fixpoint: U_i = Γ(T_i) (possibly true), T_{i+1} = Γ(U_i)
  // (surely true). T is increasing, U decreasing; both stabilize together.
  std::vector<uint8_t> U = gamma.Compute(external, &T);
  for (;;) {
    const std::vector<uint8_t>& T_next = gamma.Compute(external, &U);
    if (T_next == T) break;
    T = T_next;
    U = gamma.Compute(external, &T);
  }

  WellFoundedModel wfm;
  wfm.truth.resize(n, Truth::kUndefined);
  for (uint32_t a = 0; a < n; ++a) {
    if (T[a]) {
      wfm.truth[a] = Truth::kTrue;
    } else if (!U[a]) {
      wfm.truth[a] = Truth::kFalse;
    }
  }
  return wfm;
}

std::vector<bool> LeastModelOfReduct(const NormalProgram& prog,
                                     const std::vector<Truth>& external) {
  // With a total external assignment over negative atoms, Γ no longer
  // depends on the assumed set.
  ReductLeastModel gamma(prog);
  const std::vector<uint8_t>& derived = gamma.Compute(&external, nullptr);
  return std::vector<bool>(derived.begin(), derived.end());
}

}  // namespace gdlog
