#ifndef GDLOG_STABLE_NORMAL_PROGRAM_H_
#define GDLOG_STABLE_NORMAL_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/ground_rule.h"

namespace gdlog {

/// Interns ground atoms into dense 32-bit ids for the solver's hot paths.
/// Open addressing over the ids with each atom's hash kept beside it: an
/// Intern is one probe sequence, and growing rehashes without rehashing
/// an atom. The table refers to the atoms it interns instead of copying
/// them: each must outlive the table.
class AtomTable {
 public:
  /// Sizes the storage for `atoms` distinct atoms, so that interning up to
  /// that many never reallocates.
  void Reserve(size_t atoms);

  uint32_t Intern(const GroundAtom& atom);

  /// Returns the id of `atom` or kNotFound.
  static constexpr uint32_t kNotFound = UINT32_MAX;
  uint32_t Lookup(const GroundAtom& atom) const;

  const GroundAtom& Get(uint32_t id) const { return *atoms_[id]; }
  size_t size() const { return atoms_.size(); }

 private:
  /// Slot holding `atom` (hash `hash`), or the empty slot ending its probe
  /// sequence. Slots hold id + 1; 0 marks an empty slot.
  size_t Probe(const GroundAtom& atom, size_t hash) const;
  void Rehash(size_t slot_count);

  std::vector<const GroundAtom*> atoms_;
  std::vector<size_t> hashes_;  ///< hashes_[id] = atoms_[id]->Hash()
  std::vector<uint32_t> slots_;  ///< power-of-two size, at most half full
};

/// A contiguous run of ids inside one of NormalProgram's flat arrays.
struct IdRange {
  const uint32_t* first = nullptr;
  const uint32_t* last = nullptr;
  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
};

/// A ground normal logic program: the object SM[Σ] is evaluated on. Built
/// from ground TGD¬ programs (existential-free, as emitted by the paper's
/// grounders). Negation is interpreted under the stable model semantics via
/// the classical Gelfond–Lifschitz reduct, which coincides with the paper's
/// second-order SM[Σ] definition on ground programs.
///
/// Rules and every index over them are flat CSR arrays: rule r's body is
/// one slice of a shared literal array (positive literals first), and an
/// atom's occurrences are one slice of a shared rule-id array. The program
/// refers to the ground atoms of the rules it was built from (see
/// AtomTable): they must outlive it.
class NormalProgram {
 public:
  NormalProgram() = default;

  /// Reserved predicate id for the falsity marker atom ⊥ that ground
  /// constraints derive; a candidate model containing it is rejected.
  static constexpr uint32_t kFalsityPredicate = UINT32_MAX - 1;

  class Builder;

  static NormalProgram FromRules(const std::vector<const GroundRule*>& rules);
  static NormalProgram FromRuleSet(const GroundRuleSet& rules) {
    return FromRules(rules.rules());
  }

  const AtomTable& atoms() const { return atoms_; }
  size_t atom_count() const { return atoms_.size(); }
  size_t rule_count() const { return heads_.size(); }

  uint32_t head(uint32_t rule) const { return heads_[rule]; }
  /// Positive and negative body atoms of `rule`, in rule order
  /// (duplicates kept).
  IdRange positive(uint32_t rule) const {
    return Slice(body_, body_begin_[rule], neg_begin_[rule]);
  }
  IdRange negative(uint32_t rule) const {
    return Slice(body_, neg_begin_[rule], body_begin_[rule + 1]);
  }

  /// Rules where `atom` occurs positively, once per occurrence.
  IdRange pos_occurrences(uint32_t atom) const {
    return Slice(pos_occ_, pos_occ_begin_[atom], pos_occ_begin_[atom + 1]);
  }
  /// Rules where `atom` occurs negatively, once per occurrence.
  IdRange neg_occurrences(uint32_t atom) const {
    return Slice(neg_occ_, neg_occ_begin_[atom], neg_occ_begin_[atom + 1]);
  }
  /// Rules whose head is `atom`.
  IdRange rules_with_head(uint32_t atom) const {
    return Slice(head_rules_, head_rules_begin_[atom],
                 head_rules_begin_[atom + 1]);
  }

  /// Atoms occurring in at least one negative body — the only atoms whose
  /// truth can distinguish stable models ("externals" for the solver), in
  /// ascending id order.
  const std::vector<uint32_t>& negative_atoms() const { return neg_atoms_; }

  /// Atom id of the ⊥ marker, or kNoFalsity if the program has no
  /// constraints.
  static constexpr uint32_t kNoFalsity = UINT32_MAX;
  uint32_t falsity_atom() const { return falsity_atom_; }

  std::string ToString(const Interner* interner = nullptr) const;

 private:
  static IdRange Slice(const std::vector<uint32_t>& ids, uint32_t first,
                       uint32_t last) {
    return IdRange{ids.data() + first, ids.data() + last};
  }
  /// Builds the occurrence indices and negative_atoms() from the rules.
  void BuildIndices();

  AtomTable atoms_;
  std::vector<uint32_t> heads_;       ///< per rule
  std::vector<uint32_t> body_begin_;  ///< per rule, plus one end offset
  std::vector<uint32_t> neg_begin_;   ///< per rule
  std::vector<uint32_t> body_;
  std::vector<uint32_t> pos_occ_begin_, pos_occ_;  ///< per atom, plus end
  std::vector<uint32_t> neg_occ_begin_, neg_occ_;
  std::vector<uint32_t> head_rules_begin_, head_rules_;
  std::vector<uint32_t> neg_atoms_;
  uint32_t falsity_atom_ = kNoFalsity;
};

/// Builds a program rule by rule, interning atoms. Ground constraints
/// become rules deriving the ⊥ marker (see falsity_atom()).
class NormalProgram::Builder {
 public:
  /// Sizes the storage for `rules` rules with `literals` body literals in
  /// all, so that adding that many never reallocates the rule arrays.
  Builder(size_t rules, size_t literals);
  void AddRule(const GroundRule& rule);
  /// The rule head :- positive.
  void AddRule(const GroundAtom& head, const GroundAtom& positive);
  NormalProgram Build() &&;

 private:
  NormalProgram prog_;
};

}  // namespace gdlog

#endif  // GDLOG_STABLE_NORMAL_PROGRAM_H_
