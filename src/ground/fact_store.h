#ifndef GDLOG_GROUND_FACT_STORE_H_
#define GDLOG_GROUND_FACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/interner.h"
#include "util/status.h"
#include "util/value.h"

namespace gdlog {

/// A ground atom R(c̄): predicate id plus a flat tuple of constants.
struct GroundAtom {
  uint32_t predicate = 0;
  Tuple args;

  bool operator==(const GroundAtom& other) const {
    return predicate == other.predicate && args == other.args;
  }
  bool operator<(const GroundAtom& other) const {
    if (predicate != other.predicate) return predicate < other.predicate;
    if (args.size() != other.args.size()) return args.size() < other.args.size();
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i] != other.args[i]) return args[i] < other.args[i];
    }
    return false;
  }

  size_t Hash() const;
  std::string ToString(const Interner* interner = nullptr) const;
};

struct GroundAtomHash {
  size_t operator()(const GroundAtom& a) const { return a.Hash(); }
};

/// A relational instance: per-predicate tuple sets with per-column hash
/// indices. This is both the database D and the "heads so far" instance
/// that the grounding operators match against.
///
/// Concurrency and copying contract (the parallel chase relies on both):
///
///  - Copies are copy-on-write: a copy shares the per-predicate relation
///    storage with its source and clones a relation only when it first
///    inserts into it. Branching a chase node therefore costs one pointer
///    per predicate, not one deep copy of every tuple.
///  - All const member functions are safe to call concurrently from any
///    number of threads, including the lazy first build of a column index
///    (guarded by a per-relation std::once_flag) and concurrent
///    copy-construction of the store. Insert() is NOT thread-safe against
///    anything else touching the same FactStore object; stores under
///    construction must be thread-confined (they are: each chase node
///    extends its own copy).
///  - Freeze() builds every column index eagerly so a long-lived shared
///    store (the base of the database prefix) never mutates again, even
///    lazily.
class FactStore {
 public:
  FactStore() = default;

  /// Copies share relation storage copy-on-write. A copy is always
  /// unfrozen, whatever the source: frozen-ness says *this object* will
  /// not mutate; a copy is a new store (the grounding layer clones frozen,
  /// pre-indexed base stores and extends the clones).
  FactStore(const FactStore& other)
      : relations_(other.relations_), total_(other.total_) {}
  FactStore& operator=(const FactStore& other) {
    relations_ = other.relations_;
    total_ = other.total_;
    frozen_ = false;
    return *this;
  }
  FactStore(FactStore&&) = default;
  FactStore& operator=(FactStore&&) = default;

  /// Inserts a fact; returns true iff it was new. Must not be called on a
  /// frozen store, nor concurrently with any other access to this object.
  bool Insert(uint32_t predicate, Tuple tuple);
  bool Insert(const GroundAtom& atom) {
    return Insert(atom.predicate, atom.args);
  }

  bool Contains(uint32_t predicate, const Tuple& tuple) const;
  bool Contains(const GroundAtom& atom) const {
    return Contains(atom.predicate, atom.args);
  }

  /// All rows of `predicate` in insertion order. Unknown predicates yield
  /// a reference to a shared function-local static empty vector — no
  /// allocation per call.
  const std::vector<Tuple>& Rows(uint32_t predicate) const;

  /// Row indices of `predicate` whose column `col` equals `v`.
  /// Builds the column index on first use (thread-safely). Returns nullptr
  /// when no row matches. Invariant (all index buckets, composite ones
  /// included): row indices are strictly ascending — builds scan rows in
  /// order and Insert appends — which the semi-naive old/new cutoff in the
  /// join executor relies on.
  const std::vector<uint32_t>* IndexLookup(uint32_t predicate, size_t col,
                                           const Value& v) const;

  /// One column's complete value → row-indices map. The compiled join
  /// executor resolves this handle once per plan bind and then pays one
  /// hash lookup per candidate fetch (IndexLookup additionally re-finds the
  /// relation every call). Builds the index on first use (thread-safely).
  /// Returns nullptr when the relation is empty or `col` is out of range.
  /// The handle stays valid until this store is next mutated.
  using ColumnIndexMap = std::unordered_map<Value, std::vector<uint32_t>>;
  const ColumnIndexMap* GetColumnIndex(uint32_t predicate, size_t col) const;

  /// Number of distinct values in `predicate`'s column `col` (0 when the
  /// relation is empty). Builds the column index; the join planner uses
  /// this as its cardinality estimator (rows / distinct ≈ bucket size).
  size_t DistinctCount(uint32_t predicate, size_t col) const;

  /// A multi-column hash index over `cols` (strictly ascending, ≥2
  /// columns): composite key tuple → row indices in insertion order. Built
  /// lazily on first use, once per column combination, thread-safely, and
  /// COW-compatibly (clones adopt already-built composites; a composite
  /// mid-build in another thread is rebuilt by the clone). Returns nullptr
  /// when the relation is empty or any column is out of range. The handle
  /// stays valid until this store is next mutated.
  using CompositeKeyMap =
      std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>;
  const CompositeKeyMap* GetCompositeIndex(
      uint32_t predicate, const std::vector<uint16_t>& cols) const;

  /// Builds all column indices eagerly and forbids further Insert()s, so
  /// concurrent readers never mutate even lazily. Idempotent.
  void Freeze();
  bool frozen() const { return frozen_; }

  /// Number of rows for `predicate`.
  size_t Count(uint32_t predicate) const;

  /// Total number of facts.
  size_t size() const { return total_; }

  /// Predicates with at least one row.
  std::vector<uint32_t> Predicates() const;

  /// All facts, as atoms (mainly for tests/printing).
  std::vector<GroundAtom> AllFacts() const;

  std::string ToString(const Interner* interner = nullptr) const;

 private:
  /// One column's value → row-indices hash index. `built` is the
  /// publication flag: set (release) only after `map` is complete, so a
  /// reader that observes it (acquire) may use `map` without locking, and
  /// a relation clone copies `map` only when it observes `built`.
  struct ColumnIndex {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::unordered_map<Value, std::vector<uint32_t>> map;
  };

  /// One composite index (see GetCompositeIndex). Same publication protocol
  /// as ColumnIndex: `built` is set (release) only after `map` is complete.
  struct CompositeIndex {
    std::once_flag once;
    std::atomic<bool> built{false};
    CompositeKeyMap map;
  };

  struct Relation {
    Relation() = default;
    /// Clone for copy-on-write: copies rows and the membership set, and
    /// adopts only column indices already published by the source (an
    /// index mid-build in another thread is simply rebuilt lazily by the
    /// clone when first needed).
    Relation(const Relation& other);
    Relation& operator=(const Relation&) = delete;

    std::vector<Tuple> rows;
    std::unordered_set<Tuple, TupleHash> set;

    /// Fixed-size array of `arity` column indices, allocated on first
    /// index use under `columns_once` (the arity is only known once a row
    /// exists).
    mutable std::once_flag columns_once;
    mutable std::atomic<size_t> arity{0};
    mutable std::unique_ptr<ColumnIndex[]> columns;

    /// Composite indices keyed by their (ascending) column combination,
    /// created on demand under `composites_mutex` (taken only to find or
    /// insert the map entry — the build itself runs under the entry's
    /// once_flag, outside the lock).
    mutable std::mutex composites_mutex;
    mutable std::map<std::vector<uint16_t>, std::shared_ptr<CompositeIndex>>
        composites;

    /// Ensures `columns` is allocated; returns the arity (0 = no rows yet,
    /// nothing to index).
    size_t EnsureColumns() const;
    /// Builds (at most once) and returns column `col`'s index.
    const ColumnIndex& BuiltColumn(size_t col) const;
    /// Builds (at most once) and returns the composite index over `cols`.
    const CompositeIndex& BuiltComposite(
        const std::vector<uint16_t>& cols) const;
  };

  /// The relation for `predicate`, cloned first if shared (copy-on-write).
  Relation& MutableRelation(uint32_t predicate);

  std::unordered_map<uint32_t, std::shared_ptr<Relation>> relations_;
  size_t total_ = 0;
  bool frozen_ = false;
};

/// Parses a database given as newline/whitespace-separated ground atoms in
/// surface syntax ("router(1). connected(1,2).") into a FactStore.
Result<FactStore> ParseFacts(std::string_view text, Interner* interner);

/// Parses a database delta in surface syntax: the facts to add, in source
/// order, duplicates kept (the database prefix skips them). Lines whose
/// first non-blank character is '-' request removals ("-router(3).");
/// a delta with any is rejected with kUnsupported naming the first, since
/// a database only grows by deltas (retraction would need DRed-style
/// re-derivation). Non-fact rules are rejected with kInvalidArgument.
Result<std::vector<GroundAtom>> ParseFactDelta(std::string_view text,
                                               Interner* interner);

}  // namespace gdlog

#endif  // GDLOG_GROUND_FACT_STORE_H_
