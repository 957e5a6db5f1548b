#include "ground/fact_store.h"

#include <algorithm>
#include <cassert>

#include "ast/parser.h"
#include "util/hash.h"

namespace gdlog {

size_t GroundAtom::Hash() const {
  return HashCombine(Mix64(predicate), HashTuple(args));
}

std::string GroundAtom::ToString(const Interner* interner) const {
  std::string out;
  if (interner != nullptr && predicate < interner->size()) {
    out = interner->Name(predicate);
  } else if (predicate == UINT32_MAX - 1) {
    out = "__bot";  // NormalProgram::kFalsityPredicate
  } else {
    out = "p" + std::to_string(predicate);
  }
  if (args.empty()) return out;
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString(interner);
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

FactStore::Relation::Relation(const Relation& other)
    : rows(other.rows), set(other.set) {
  size_t n = other.arity.load(std::memory_order_acquire);
  if (n != 0 && other.columns != nullptr) {
    arity.store(n, std::memory_order_relaxed);
    columns = std::make_unique<ColumnIndex[]>(n);
    // `columns_once` stays fresh in the clone; EnsureColumns() tolerates an
    // already-populated array (call_once simply re-publishes the same
    // arity).
    for (size_t col = 0; col < n; ++col) {
      if (other.columns[col].built.load(std::memory_order_acquire)) {
        columns[col].map = other.columns[col].map;
        columns[col].built.store(true, std::memory_order_release);
      }
    }
  }
  // Adopt published composite indices (deep copy: a shared CompositeIndex
  // would let this clone's Insert() mutate buckets concurrent readers of
  // the source are iterating). One mid-build in another thread is simply
  // rebuilt lazily by the clone when first needed.
  std::lock_guard<std::mutex> lock(other.composites_mutex);
  for (const auto& [cols, index] : other.composites) {
    if (!index->built.load(std::memory_order_acquire)) continue;
    auto copy = std::make_shared<CompositeIndex>();
    copy->map = index->map;
    copy->built.store(true, std::memory_order_release);
    composites.emplace(cols, std::move(copy));
  }
}

size_t FactStore::Relation::EnsureColumns() const {
  if (rows.empty()) return 0;
  std::call_once(columns_once, [&] {
    if (columns == nullptr) {
      size_t n = rows.front().size();
      if (n == 0) return;
      columns = std::make_unique<ColumnIndex[]>(n);
      arity.store(n, std::memory_order_release);
    }
  });
  return arity.load(std::memory_order_acquire);
}

const FactStore::ColumnIndex& FactStore::Relation::BuiltColumn(
    size_t col) const {
  ColumnIndex& index = columns[col];
  if (!index.built.load(std::memory_order_acquire)) {
    std::call_once(index.once, [&] {
      for (uint32_t row = 0; row < rows.size(); ++row) {
        if (col < rows[row].size()) {
          index.map[rows[row][col]].push_back(row);
        }
      }
      index.built.store(true, std::memory_order_release);
    });
  }
  return index;
}

const FactStore::CompositeIndex& FactStore::Relation::BuiltComposite(
    const std::vector<uint16_t>& cols) const {
  std::shared_ptr<CompositeIndex> index;
  {
    std::lock_guard<std::mutex> lock(composites_mutex);
    auto it = composites.find(cols);
    if (it == composites.end()) {
      it = composites.emplace(cols, std::make_shared<CompositeIndex>()).first;
    }
    index = it->second;
  }
  if (!index->built.load(std::memory_order_acquire)) {
    std::call_once(index->once, [&] {
      Tuple key(cols.size());
      for (uint32_t row = 0; row < rows.size(); ++row) {
        for (size_t k = 0; k < cols.size(); ++k) key[k] = rows[row][cols[k]];
        index->map[key].push_back(row);
      }
      index->built.store(true, std::memory_order_release);
    });
  }
  return *index;
}

// ---------------------------------------------------------------------------
// FactStore
// ---------------------------------------------------------------------------

FactStore::Relation& FactStore::MutableRelation(uint32_t predicate) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) {
    it = relations_.emplace(predicate, std::make_shared<Relation>()).first;
  } else if (it->second.use_count() > 1) {
    // Shared with another store (a chase sibling or our parent): detach.
    it->second = std::make_shared<Relation>(*it->second);
  }
  return *it->second;
}

bool FactStore::Insert(uint32_t predicate, Tuple tuple) {
  assert(!frozen_ && "Insert() on a frozen FactStore");
  // For a shared relation, duplicate-check before detaching: the grounding
  // fixpoint dedups through rejected Inserts, and detaching a copy-on-write
  // relation just to discover the tuple was already there would defeat the
  // cheap-branch design. A uniquely owned relation skips the pre-check —
  // the insert itself is the membership test (one hash, not two).
  auto shared_it = relations_.find(predicate);
  if (shared_it != relations_.end() && shared_it->second.use_count() > 1 &&
      shared_it->second->set.count(tuple) != 0) {
    return false;
  }
  Relation& rel = MutableRelation(predicate);
  auto [it, inserted] = rel.set.insert(tuple);
  (void)it;
  if (!inserted) return false;
  uint32_t row = static_cast<uint32_t>(rel.rows.size());
  rel.rows.push_back(std::move(tuple));
  const Tuple& stored = rel.rows.back();
  // Keep already-built column indices current. (This store is uniquely
  // owned here, so touching built indices cannot race with readers.)
  size_t arity = rel.arity.load(std::memory_order_acquire);
  for (size_t col = 0; col < arity && col < stored.size(); ++col) {
    ColumnIndex& index = rel.columns[col];
    if (index.built.load(std::memory_order_acquire)) {
      index.map[stored[col]].push_back(row);
    }
  }
  // Likewise for built composite indices.
  {
    std::lock_guard<std::mutex> lock(rel.composites_mutex);
    for (auto& [cols, index] : rel.composites) {
      if (!index->built.load(std::memory_order_acquire)) continue;
      if (cols.back() >= stored.size()) continue;
      Tuple key(cols.size());
      for (size_t k = 0; k < cols.size(); ++k) key[k] = stored[cols[k]];
      index->map[std::move(key)].push_back(row);
    }
  }
  ++total_;
  return true;
}

bool FactStore::Contains(uint32_t predicate, const Tuple& tuple) const {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return false;
  return it->second->set.count(tuple) != 0;
}

const std::vector<Tuple>& FactStore::Rows(uint32_t predicate) const {
  static const std::vector<Tuple> kEmpty;
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return kEmpty;
  return it->second->rows;
}

const std::vector<uint32_t>* FactStore::IndexLookup(uint32_t predicate,
                                                    size_t col,
                                                    const Value& v) const {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return nullptr;
  const Relation& rel = *it->second;
  if (col >= rel.EnsureColumns()) return nullptr;
  const ColumnIndex& index = rel.BuiltColumn(col);
  auto hit = index.map.find(v);
  if (hit == index.map.end()) return nullptr;
  return &hit->second;
}

const FactStore::ColumnIndexMap* FactStore::GetColumnIndex(uint32_t predicate,
                                                           size_t col) const {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return nullptr;
  const Relation& rel = *it->second;
  if (col >= rel.EnsureColumns()) return nullptr;
  return &rel.BuiltColumn(col).map;
}

size_t FactStore::DistinctCount(uint32_t predicate, size_t col) const {
  const ColumnIndexMap* index = GetColumnIndex(predicate, col);
  return index == nullptr ? 0 : index->size();
}

const FactStore::CompositeKeyMap* FactStore::GetCompositeIndex(
    uint32_t predicate, const std::vector<uint16_t>& cols) const {
  assert(cols.size() >= 2 && "composite indices span at least two columns");
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return nullptr;
  const Relation& rel = *it->second;
  if (cols.back() >= rel.EnsureColumns()) return nullptr;
  return &rel.BuiltComposite(cols).map;
}

void FactStore::Freeze() {
  for (auto& [pred, rel] : relations_) {
    (void)pred;
    size_t arity = rel->EnsureColumns();
    for (size_t col = 0; col < arity; ++col) rel->BuiltColumn(col);
  }
  frozen_ = true;
}

size_t FactStore::Count(uint32_t predicate) const {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return 0;
  return it->second->rows.size();
}

std::vector<uint32_t> FactStore::Predicates() const {
  std::vector<uint32_t> out;
  for (const auto& [pred, rel] : relations_) {
    if (!rel->rows.empty()) out.push_back(pred);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<GroundAtom> FactStore::AllFacts() const {
  std::vector<GroundAtom> out;
  out.reserve(total_);
  for (uint32_t pred : Predicates()) {
    for (const Tuple& row : Rows(pred)) {
      out.push_back(GroundAtom{pred, row});
    }
  }
  return out;
}

std::string FactStore::ToString(const Interner* interner) const {
  std::string out;
  for (const GroundAtom& atom : AllFacts()) {
    out += atom.ToString(interner);
    out += ".\n";
  }
  return out;
}

Result<FactStore> ParseFacts(std::string_view text, Interner* interner) {
  // Reuse the program parser: a database is a program of facts.
  std::shared_ptr<Interner> shared(interner, [](Interner*) {});
  auto parsed = ParseProgram(text, shared);
  if (!parsed.ok()) return parsed.status();
  FactStore store;
  for (const Rule& rule : parsed->rules()) {
    if (!rule.IsFact()) {
      return Status::InvalidArgument(
          "database text contains a non-fact rule: " +
          rule.ToString(interner));
    }
    Tuple tuple;
    tuple.reserve(rule.head.args.size());
    for (const HeadArg& arg : rule.head.args) {
      tuple.push_back(arg.term().constant());
    }
    store.Insert(rule.head.predicate, std::move(tuple));
  }
  return store;
}

Result<std::vector<GroundAtom>> ParseFactDelta(std::string_view text,
                                               Interner* interner) {
  // Split removal lines ("-fact(...)." with the sign stripped) from the
  // rest, then reuse the program parser on each half so the surface syntax
  // (comments, multi-fact lines) matches ParseFacts exactly.
  std::string added_text;
  std::string removed_text;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string_view::npos && line[first] == '-') {
      removed_text.append(line.substr(first + 1));
      removed_text += '\n';
    } else {
      added_text.append(line);
      added_text += '\n';
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  auto parse_atoms = [&](const std::string& half, const char* what,
                         std::vector<GroundAtom>* atoms) -> Status {
    std::shared_ptr<Interner> shared(interner, [](Interner*) {});
    auto parsed = ParseProgram(half, shared);
    if (!parsed.ok()) return parsed.status();
    for (const Rule& rule : parsed->rules()) {
      if (!rule.IsFact()) {
        return Status::InvalidArgument(std::string("delta ") + what +
                                       " contains a non-fact rule: " +
                                       rule.ToString(interner));
      }
      GroundAtom atom;
      atom.predicate = rule.head.predicate;
      atom.args.reserve(rule.head.args.size());
      for (const HeadArg& arg : rule.head.args) {
        atom.args.push_back(arg.term().constant());
      }
      atoms->push_back(std::move(atom));
    }
    return Status::OK();
  };
  std::vector<GroundAtom> added;
  std::vector<GroundAtom> removed;
  GDLOG_RETURN_IF_ERROR(parse_atoms(added_text, "addition", &added));
  GDLOG_RETURN_IF_ERROR(parse_atoms(removed_text, "removal", &removed));
  if (!removed.empty()) {
    return Status::Unsupported(
        "fact removal is not supported (a database delta only appends; "
        "retraction needs DRed-style re-derivation): got " +
        std::to_string(removed.size()) + " removal(s), first: -" +
        removed.front().ToString(interner));
  }
  return added;
}

}  // namespace gdlog
