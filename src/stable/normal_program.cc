#include "stable/normal_program.h"

#include <algorithm>

namespace gdlog {

void AtomTable::Reserve(size_t atoms) {
  atoms_.reserve(atoms);
  hashes_.reserve(atoms);
  size_t slot_count = 16;
  while (slot_count < 2 * atoms) slot_count *= 2;
  if (slot_count > slots_.size()) Rehash(slot_count);
}

size_t AtomTable::Probe(const GroundAtom& atom, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) return i;
    if (hashes_[slot - 1] == hash && *atoms_[slot - 1] == atom) return i;
  }
}

void AtomTable::Rehash(size_t slot_count) {
  slots_.assign(slot_count, 0);
  const size_t mask = slot_count - 1;
  for (uint32_t id = 0; id < atoms_.size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }
}

uint32_t AtomTable::Intern(const GroundAtom& atom) {
  if (2 * (atoms_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t hash = atom.Hash();
  const size_t i = Probe(atom, hash);
  if (slots_[i] != 0) return slots_[i] - 1;
  const uint32_t id = static_cast<uint32_t>(atoms_.size());
  atoms_.push_back(&atom);
  hashes_.push_back(hash);
  slots_[i] = id + 1;
  return id;
}

uint32_t AtomTable::Lookup(const GroundAtom& atom) const {
  if (slots_.empty()) return kNotFound;
  const uint32_t slot = slots_[Probe(atom, atom.Hash())];
  return slot == 0 ? kNotFound : slot - 1;
}

namespace {

/// Counting sort of (atom, rule) occurrence pairs into CSR form:
/// `(*ids)[(*begin)[a] .. (*begin)[a + 1])` lists, in ascending order, the
/// rules r for which `for_each_atom(r, f)` calls f(a) (once per call).
template <typename ForEachAtom>
void BuildCsr(size_t atom_count, uint32_t rule_count,
              const ForEachAtom& for_each_atom, std::vector<uint32_t>* begin,
              std::vector<uint32_t>* ids) {
  begin->assign(atom_count + 1, 0);
  for (uint32_t r = 0; r < rule_count; ++r) {
    for_each_atom(r, [&](uint32_t a) { ++(*begin)[a]; });
  }
  // Running sums leave begin[a] at the end of a's slice; filling backwards
  // then moves it down to the slice's start, in ascending rule order.
  uint32_t total = 0;
  for (size_t a = 0; a < atom_count; ++a) {
    total += (*begin)[a];
    (*begin)[a] = total;
  }
  (*begin)[atom_count] = total;
  ids->resize(total);
  for (uint32_t r = rule_count; r-- > 0;) {
    for_each_atom(r, [&](uint32_t a) { (*ids)[--(*begin)[a]] = r; });
  }
}

}  // namespace

NormalProgram::Builder::Builder(size_t rules, size_t literals) {
  // Sized for one atom per head and ⊥: body atoms are mostly heads too.
  prog_.atoms_.Reserve(rules + 1);
  prog_.heads_.reserve(rules);
  prog_.body_begin_.reserve(rules + 1);
  prog_.neg_begin_.reserve(rules);
  prog_.body_.reserve(literals);
}

void NormalProgram::Builder::AddRule(const GroundRule& rule) {
  if (rule.is_constraint) {
    static const GroundAtom kFalsity{kFalsityPredicate, {}};
    if (prog_.falsity_atom_ == kNoFalsity) {
      prog_.falsity_atom_ = prog_.atoms_.Intern(kFalsity);
    }
    prog_.heads_.push_back(prog_.falsity_atom_);
  } else {
    prog_.heads_.push_back(prog_.atoms_.Intern(rule.head));
  }
  prog_.body_begin_.push_back(static_cast<uint32_t>(prog_.body_.size()));
  for (const GroundAtom& a : rule.positive) {
    prog_.body_.push_back(prog_.atoms_.Intern(a));
  }
  prog_.neg_begin_.push_back(static_cast<uint32_t>(prog_.body_.size()));
  for (const GroundAtom& a : rule.negative) {
    prog_.body_.push_back(prog_.atoms_.Intern(a));
  }
}

void NormalProgram::Builder::AddRule(const GroundAtom& head,
                                     const GroundAtom& positive) {
  prog_.heads_.push_back(prog_.atoms_.Intern(head));
  prog_.body_begin_.push_back(static_cast<uint32_t>(prog_.body_.size()));
  prog_.body_.push_back(prog_.atoms_.Intern(positive));
  prog_.neg_begin_.push_back(static_cast<uint32_t>(prog_.body_.size()));
}

NormalProgram NormalProgram::Builder::Build() && {
  prog_.body_begin_.push_back(static_cast<uint32_t>(prog_.body_.size()));
  prog_.BuildIndices();
  return std::move(prog_);
}

NormalProgram NormalProgram::FromRules(
    const std::vector<const GroundRule*>& rules) {
  size_t literals = 0;
  for (const GroundRule* gr : rules) {
    literals += gr->positive.size() + gr->negative.size();
  }
  Builder builder(rules.size(), literals);
  for (const GroundRule* gr : rules) builder.AddRule(*gr);
  return std::move(builder).Build();
}

void NormalProgram::BuildIndices() {
  const size_t n = atoms_.size();
  const auto rules = static_cast<uint32_t>(rule_count());
  BuildCsr(
      n, rules,
      [&](uint32_t r, const auto& f) {
        for (uint32_t a : positive(r)) f(a);
      },
      &pos_occ_begin_, &pos_occ_);
  BuildCsr(
      n, rules,
      [&](uint32_t r, const auto& f) {
        for (uint32_t a : negative(r)) f(a);
      },
      &neg_occ_begin_, &neg_occ_);
  BuildCsr(
      n, rules, [&](uint32_t r, const auto& f) { f(heads_[r]); },
      &head_rules_begin_, &head_rules_);
  neg_atoms_.clear();
  neg_atoms_.reserve(n);
  for (uint32_t a = 0; a < n; ++a) {
    if (neg_occ_begin_[a] != neg_occ_begin_[a + 1]) neg_atoms_.push_back(a);
  }
}

std::string NormalProgram::ToString(const Interner* interner) const {
  std::string out;
  for (uint32_t r = 0; r < rule_count(); ++r) {
    out += atoms_.Get(heads_[r]).ToString(interner);
    if (body_begin_[r] != body_begin_[r + 1]) {
      out += " :- ";
      bool first = true;
      for (uint32_t a : positive(r)) {
        if (!first) out += ", ";
        first = false;
        out += atoms_.Get(a).ToString(interner);
      }
      for (uint32_t a : negative(r)) {
        if (!first) out += ", ";
        first = false;
        out += "not " + atoms_.Get(a).ToString(interner);
      }
    }
    out += ".\n";
  }
  return out;
}

}  // namespace gdlog
