#include "server/registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/hash.h"

namespace gdlog {

namespace {

std::string HexDigest(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return std::string(buf);
}

/// Content digest of a delta text — what a LineageLink records.
std::string DeltaDigest(const std::string& delta_text) {
  return HexDigest(Mix64(std::hash<std::string>{}(delta_text)));
}

/// Rolling lineage digest: folds the previous chain digest, the base
/// revision and the new delta's digest, so equal digests imply equal
/// derivation histories (up to hash collision).
std::string ChainDigest(const std::string& previous, uint64_t base_revision,
                        const std::string& delta_digest) {
  std::hash<std::string> h;
  size_t x = Mix64(h(previous));
  x = HashCombine(x, static_cast<size_t>(base_revision));
  x = HashCombine(x, h(delta_digest));
  return HexDigest(x);
}

}  // namespace

Result<GDatalog> BuildEngine(const ProgramSpec& spec) {
  GDatalog::Options options;
  options.grounder = spec.grounder;
  if (spec.extensions) {
    auto registry = std::make_unique<DistributionRegistry>(
        DistributionRegistry::Builtins());
    ExtensionOptions extension_options;
    if (spec.normalgrid_max_cells >= 0) {
      extension_options.normalgrid_max_half_cells = spec.normalgrid_max_cells;
    }
    GDLOG_RETURN_IF_ERROR(
        RegisterExtensionDistributions(registry.get(), extension_options));
    options.registry = std::move(registry);
  }
  return GDatalog::Create(spec.program_text, spec.db_text,
                          std::move(options));
}

uint64_t ProgramRegistry::SpecHash(const ProgramSpec& spec) {
  std::hash<std::string> h;
  size_t x = Mix64(h(spec.program_text));
  x = HashCombine(x, h(spec.db_text));
  x = HashCombine(x, static_cast<size_t>(spec.grounder));
  x = HashCombine(x, spec.extensions ? 1u : 0u);
  x = HashCombine(x, static_cast<size_t>(spec.normalgrid_max_cells));
  return x;
}

std::shared_ptr<const ProgramRegistry::Entry> ProgramRegistry::FindSpecLocked(
    uint64_t hash, const ProgramSpec& spec) const {
  auto [begin, end] = by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    auto entry = by_id_.find(it->second);
    if (entry != by_id_.end() && entry->second->spec == spec) {
      return entry->second;
    }
  }
  return nullptr;
}

void ProgramRegistry::EraseHashSlotLocked(const std::string& id,
                                          uint64_t hash) {
  auto [begin, end] = by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second == id) {
      by_hash_.erase(it);
      return;
    }
  }
}

ProgramRegistry::Info ProgramRegistry::InfoFor(const Entry& entry,
                                               bool created) {
  Info info;
  info.id = entry.id;
  info.revision = entry.revision;
  info.stratified = entry.engine.stratified();
  info.grounder = std::string(entry.engine.grounder().name());
  info.created = created;
  return info;
}

Result<ProgramRegistry::Info> ProgramRegistry::Register(ProgramSpec spec) {
  uint64_t hash = SpecHash(spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto existing = FindSpecLocked(hash, spec)) {
      return InfoFor(*existing, /*created=*/false);
    }
  }
  // Engine construction (parse/validate/translate/ground setup) is the
  // expensive part; run it unlocked so registrations don't block lookups.
  GDLOG_ASSIGN_OR_RETURN(GDatalog engine, BuildEngine(spec));
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check: another thread may have registered the same spec meanwhile.
  if (auto existing = FindSpecLocked(hash, spec)) {
    return InfoFor(*existing, /*created=*/false);
  }
  std::string id = "p" + std::to_string(next_id_++);
  auto entry = std::make_shared<const Entry>(id, /*revision=*/0,
                                             std::move(spec), hash,
                                             std::move(engine));
  by_id_.emplace(id, entry);
  by_hash_.emplace(hash, id);
  return InfoFor(*entry, /*created=*/true);
}

std::shared_ptr<const ProgramRegistry::Entry> ProgramRegistry::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Result<ProgramRegistry::Info> ProgramRegistry::ReplaceDatabase(
    const std::string& id, std::string db_text) {
  std::shared_ptr<const Entry> current = Find(id);
  if (current == nullptr) {
    return Status::NotFound("unknown program id: " + id);
  }
  ProgramSpec spec = current->spec;
  spec.db_text = std::move(db_text);
  // Only the database changed, so build through WithDatabase, which
  // adopts the current Σ_Π instead of translating Π again.
  GDLOG_ASSIGN_OR_RETURN(GDatalog engine,
                         GDatalog::WithDatabase(current->engine, spec.db_text));
  const uint64_t hash = SpecHash(spec);
  opt_.db_replacements.Add();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("program removed during database replacement: " +
                            id);
  }
  // The revision we publish must supersede whatever is current *now* (a
  // concurrent replace may have won the race since Find()).
  uint64_t revision = it->second->revision + 1;
  EraseHashSlotLocked(id, it->second->spec_hash);
  by_hash_.emplace(hash, id);
  auto entry = std::make_shared<const Entry>(id, revision, std::move(spec),
                                             hash, std::move(engine));
  it->second = entry;
  return InfoFor(*entry, /*created=*/false);
}

Result<ProgramRegistry::DeltaResult> ProgramRegistry::ApplyDatabaseDelta(
    const std::string& id, const std::string& delta_text,
    const PublishHook& on_publish) {
  std::shared_ptr<const Entry> current = Find(id);
  if (current == nullptr) {
    return Status::NotFound("unknown program id: " + id);
  }
  // The engine construction runs unlocked against the snapshot we just
  // read.
  GDLOG_ASSIGN_OR_RETURN(
      GDatalog engine,
      GDatalog::WithDatabaseDelta(current->engine, delta_text));

  DeltaResult result;
  result.base_revision = current->revision;
  result.delta_digest = DeltaDigest(delta_text);
  result.old_lineage_digest = current->lineage_digest;
  result.new_lineage_digest = ChainDigest(
      current->lineage_digest, current->revision, result.delta_digest);
  result.stats = engine.delta_stats();
  result.touches_rule_bodies = result.stats.touches_rule_bodies;
  result.added_facts = engine.delta_added_facts();

  // The published spec's db_text must reproduce the delta-applied store so
  // idempotent registration and demand-engine builds (which parse the spec
  // from scratch) see the same database.
  ProgramSpec spec = current->spec;
  if (!spec.db_text.empty() && spec.db_text.back() != '\n') {
    spec.db_text += '\n';
  }
  spec.db_text += delta_text;
  const uint64_t hash = SpecHash(spec);

  std::vector<LineageLink> lineage = current->lineage;
  lineage.push_back(LineageLink{current->revision, result.delta_digest});

  // Σ_Π of a demand engine depends only on (Π, goals), so each one built on
  // the old entry takes the same delta and seeds the new entry: the next
  // marginal query of its signature does not rebuild it from db_text. One
  // that fails to extend is left out and built again on demand.
  std::unordered_map<std::string, std::shared_ptr<const GDatalog>> demand;
  {
    std::lock_guard<std::mutex> lock(current->demand_mu);
    demand = current->demand_engines;
  }
  for (auto it = demand.begin(); it != demand.end();) {
    auto extended = GDatalog::WithDatabaseDelta(*it->second, delta_text);
    if (extended.ok()) {
      it->second = std::make_shared<const GDatalog>(std::move(*extended));
      ++it;
    } else {
      it = demand.erase(it);
    }
  }

  delta_.deltas_applied.Add();
  delta_.rows_appended.Add(result.stats.rows_appended);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("program removed during delta application: " + id);
  }
  // A delta is relative to the exact entry it was computed against. If a
  // concurrent PUT/PATCH published a different entry meanwhile, applying
  // ours on top would silently drop that update — reject instead.
  if (it->second != current) {
    return Status::AlreadyExists(
        "program " + id + " was updated concurrently (revision is now " +
        std::to_string(it->second->revision) + ", delta was against " +
        std::to_string(current->revision) + "); re-read and retry");
  }
  uint64_t revision = current->revision + 1;
  EraseHashSlotLocked(id, current->spec_hash);
  by_hash_.emplace(hash, id);
  auto entry = std::make_shared<const Entry>(
      id, revision, std::move(spec), hash, std::move(engine),
      std::move(lineage), result.new_lineage_digest);
  entry->demand_engines = std::move(demand);  // unpublished: no lock needed
  it->second = entry;
  result.info = InfoFor(*entry, /*created=*/false);
  result.entry = entry;
  if (on_publish) on_publish(result);
  return result;
}

Status ProgramRegistry::Remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("unknown program id: " + id);
  }
  EraseHashSlotLocked(id, it->second->spec_hash);
  by_id_.erase(it);
  return Status::OK();
}

size_t ProgramRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.size();
}

std::string ProgramRegistry::DemandSignature(std::vector<std::string> goals) {
  std::sort(goals.begin(), goals.end());
  goals.erase(std::unique(goals.begin(), goals.end()), goals.end());
  std::string signature;
  for (const std::string& goal : goals) {
    if (!signature.empty()) signature += ",";
    signature += goal;
  }
  return signature;
}

Result<std::shared_ptr<const GDatalog>> ProgramRegistry::DemandEngine(
    const Entry& entry, const std::vector<std::string>& goals) {
  std::string signature = DemandSignature(goals);
  {
    std::lock_guard<std::mutex> lock(entry.demand_mu);
    auto it = entry.demand_engines.find(signature);
    if (it != entry.demand_engines.end()) {
      opt_.demand_cache_hits.Add();
      return it->second;
    }
    if (entry.demand_engines.size() >= kMaxDemandEngines) {
      return std::shared_ptr<const GDatalog>();
    }
  }
  // Build unlocked; racing queries for the same signature may build twice,
  // the insert below keeps the first. Derived from the entry's engine, the
  // demand engine shares its database and name ids, so the facts a later
  // PATCH adds mean the same in both engines' cached spaces.
  std::vector<std::string> sorted_goals(goals);
  std::sort(sorted_goals.begin(), sorted_goals.end());
  sorted_goals.erase(std::unique(sorted_goals.begin(), sorted_goals.end()),
                     sorted_goals.end());
  GDLOG_ASSIGN_OR_RETURN(GDatalog engine,
                         GDatalog::WithDemand(entry.engine, sorted_goals));
  opt_.demand_engines_built.Add();
  auto built = std::make_shared<const GDatalog>(std::move(engine));
  std::lock_guard<std::mutex> lock(entry.demand_mu);
  auto it = entry.demand_engines.find(signature);
  if (it != entry.demand_engines.end()) return it->second;
  // Racing builds of other signatures may have filled the cap meanwhile.
  if (entry.demand_engines.size() >= kMaxDemandEngines) {
    return std::shared_ptr<const GDatalog>();
  }
  entry.demand_engines.emplace(signature, built);
  return built;
}

}  // namespace gdlog
