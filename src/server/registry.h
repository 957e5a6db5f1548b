#ifndef GDLOG_SERVER_REGISTRY_H_
#define GDLOG_SERVER_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gdatalog/engine.h"
#include "obs/series.h"

namespace gdlog {

/// Everything that determines a registered engine's semantics. Two specs
/// that compare equal produce interchangeable engines, which is what makes
/// registration idempotent (re-POSTing a program returns the existing id).
struct ProgramSpec {
  std::string program_text;
  std::string db_text;
  GrounderKind grounder = GrounderKind::kAuto;
  bool extensions = false;
  /// normalgrid half-width cap; < 0 = library default. Only meaningful
  /// with extensions.
  long long normalgrid_max_cells = -1;

  bool operator==(const ProgramSpec& other) const {
    return program_text == other.program_text && db_text == other.db_text &&
           grounder == other.grounder && extensions == other.extensions &&
           normalgrid_max_cells == other.normalgrid_max_cells;
  }
};

/// The server-side home of parsed programs: clients register a program+DB
/// once — paying for parse/validate/translate/grounder construction a
/// single time — and refer to it by a stable id on every query, so the
/// serving hot path never touches the lexer.
///
/// Entries are immutable once published (the engine inside is only used
/// through const, concurrency-safe entry points) and handed out as
/// shared_ptr<const Entry>: a Remove() or ReplaceDatabase() never
/// invalidates an engine a concurrent query is still chasing.
class ProgramRegistry {
 public:
  struct Entry {
    std::string id;
    /// Bumped by ReplaceDatabase/ApplyDatabaseDelta; (id, revision) names
    /// one exact (program, DB) pair forever, which is what inference-cache
    /// keys build on.
    uint64_t revision = 0;
    ProgramSpec spec;
    GDatalog engine;
    /// Rolling digest over the deltas applied since the last full
    /// registration/replacement (empty right after Register or
    /// ReplaceDatabase); cache fingerprints embed it
    /// (InferenceCache::KeyPrefix) so a delta-produced revision names its
    /// exact derivation history.
    std::string lineage_digest;
    /// SpecHash(spec): this entry's key in the idempotent-registration
    /// index, kept so an update need not rehash the old spec's db_text.
    uint64_t spec_hash = 0;

    Entry(std::string id_in, uint64_t revision_in, ProgramSpec spec_in,
          uint64_t spec_hash_in, GDatalog engine_in,
          std::string lineage_digest_in = {})
        : id(std::move(id_in)),
          revision(revision_in),
          spec(std::move(spec_in)),
          engine(std::move(engine_in)),
          lineage_digest(std::move(lineage_digest_in)),
          spec_hash(spec_hash_in) {}

    /// Demand-transformed sibling engines for marginal queries, keyed by
    /// goal-signature (see DemandSignature), built lazily by
    /// DemandEngine(). Mutable because entries are published as
    /// shared_ptr<const Entry>; a ReplaceDatabase publishes a fresh Entry,
    /// so stale demand engines can never serve a newer database, and an
    /// ApplyDatabaseDelta seeds the new Entry with the old one's engines,
    /// each extended by the same delta.
    mutable std::mutex demand_mu;
    mutable std::unordered_map<std::string, std::shared_ptr<const GDatalog>>
        demand_engines;
  };

  struct Info {
    std::string id;
    uint64_t revision = 0;
    bool stratified = false;
    std::string grounder;
    /// False when Register() matched an existing identical spec.
    bool created = true;
  };

  /// Parses/validates/translates the spec into a live engine and publishes
  /// it under a fresh id — or, when an entry with an identical spec
  /// already exists, returns that entry's info with created == false.
  /// Engine construction runs outside the registry lock.
  Result<Info> Register(ProgramSpec spec);

  /// The entry for `id`, or nullptr.
  std::shared_ptr<const Entry> Find(const std::string& id) const;

  /// Rebuilds `id`'s engine against a new database (same program text and
  /// options) and publishes it under the same id with revision + 1. Starts
  /// a fresh (empty) delta lineage.
  Result<Info> ReplaceDatabase(const std::string& id, std::string db_text);

  /// Everything the serving layer needs to act on an applied delta: the
  /// published entry plus the lineage transition (for cache revalidation)
  /// and the engine's own DeltaStats.
  struct DeltaResult {
    Info info;
    uint64_t base_revision = 0;
    std::string delta_digest;
    /// Lineage digest before/after this delta — the cache's old and new
    /// KeyPrefix inputs.
    std::string old_lineage_digest;
    std::string new_lineage_digest;
    /// True when some delta predicate occurs in a rule body of Π (or is a
    /// reserved "__" predicate): cached spaces for this program must be
    /// evicted, not revalidated.
    bool touches_rule_bodies = false;
    DeltaStats stats;
    /// The facts actually appended (duplicates excluded) — the cache
    /// revalidation patch (AnswerIndex::WithAddedFacts) input.
    std::vector<GroundAtom> added_facts;
    std::shared_ptr<const Entry> entry;
  };

  /// Applies a fact delta to `id`'s database via
  /// GDatalog::WithDatabaseDelta — the base grounder's shared database
  /// prefix with the delta's new facts on its tail, not a rebuild from
  /// the spec — and publishes the result under revision + 1 with the
  /// delta folded into the lineage digest. The demand engines already
  /// built on the old entry are extended the same way and carried to the
  /// new one. Unlike ReplaceDatabase (last writer wins), a delta is
  /// *relative* to the revision it was computed against: if another update
  /// published concurrently, returns kAlreadyExists so the caller can
  /// re-read and retry rather than silently dropping the other update.
  /// `on_publish`, when set, runs inside the critical section
  /// that publishes the new revision — before any Find() can return it —
  /// so the caller can prepare for the new lineage (the serving layer
  /// publishes its cache markers there). It must be cheap and must not
  /// call back into the registry.
  using PublishHook = std::function<void(const DeltaResult&)>;
  Result<DeltaResult> ApplyDatabaseDelta(const std::string& id,
                                         const std::string& delta_text,
                                         const PublishHook& on_publish = {});

  /// Unregisters `id`. In-flight queries holding the entry keep it alive.
  Status Remove(const std::string& id);

  size_t size() const;

  /// Demand engines kept per entry. Each is a full engine with its own
  /// cache entries, so distinct goal signatures must not grow them without
  /// bound; past the cap the base engine answers, with the same marginals.
  static constexpr size_t kMaxDemandEngines = 8;

  /// The engine of `entry` with Σ_Π restricted to the demand of `goals`
  /// (predicate names the caller will observe marginals of), derived by
  /// GDatalog::WithDemand. Cached on the entry per goal signature — the
  /// first marginal query of a signature pays one engine build, repeats
  /// are a map lookup. Returns
  /// nullptr, building nothing, once the entry holds kMaxDemandEngines
  /// engines of other signatures.
  Result<std::shared_ptr<const GDatalog>> DemandEngine(
      const Entry& entry, const std::vector<std::string>& goals);

  /// Canonical cache/fingerprint key for a goal set: sorted, deduplicated,
  /// comma-joined predicate names.
  static std::string DemandSignature(std::vector<std::string> goals);

  /// Database-replacement and demand-engine counters, aggregated across
  /// entries. The live counters and, copied, their snapshot.
  struct OptCounters {
    RelaxedCounter db_replacements;
    RelaxedCounter demand_engines_built;
    RelaxedCounter demand_cache_hits;
  };
  OptCounters opt_counters() const { return opt_; }

  /// Incremental-update observability counters, aggregated across entries.
  struct DeltaCounters {
    RelaxedCounter deltas_applied;
    RelaxedCounter rows_appended;
  };
  DeltaCounters delta_counters() const { return delta_; }

  static Info InfoFor(const Entry& entry, bool created);

 private:
  /// Hashes the whole spec, db_text included: callers compute it before
  /// taking mu_.
  static uint64_t SpecHash(const ProgramSpec& spec);
  /// The live entry whose spec equals `spec`, or nullptr. Requires mu_.
  std::shared_ptr<const Entry> FindSpecLocked(uint64_t hash,
                                              const ProgramSpec& spec) const;
  /// Erases `id`'s own slot under `hash`, never another id's. Requires
  /// mu_.
  void EraseHashSlotLocked(const std::string& id, uint64_t hash);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> by_id_;
  /// Current-content index for idempotent registration: one (spec hash,
  /// id) slot per live entry. A multimap, because a PUT or PATCH can give
  /// two ids the same spec, and each must keep its own slot: whichever
  /// moves away later, a re-POST of that spec still finds the other
  /// (hash collisions are resolved by comparing the stored spec).
  std::unordered_multimap<uint64_t, std::string> by_hash_;
  uint64_t next_id_ = 1;
  OptCounters opt_;
  DeltaCounters delta_;
};

/// Builds an engine for a spec — the one translation of ProgramSpec into
/// GDatalog::Options (distribution extensions included).
Result<GDatalog> BuildEngine(const ProgramSpec& spec);

}  // namespace gdlog

#endif  // GDLOG_SERVER_REGISTRY_H_
