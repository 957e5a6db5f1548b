#include "server/cache.h"

#include <cstdio>
#include <utility>
#include <vector>

namespace gdlog {

std::string InferenceCache::KeyPrefix(std::string_view program_id,
                                      uint64_t revision,
                                      std::string_view lineage_digest) {
  std::string key;
  key.reserve(program_id.size() + lineage_digest.size() + 32);
  key += program_id;
  key += "|rev=";
  key += std::to_string(revision);
  key += "|lin=";
  key += lineage_digest;
  key += "|";
  return key;
}

std::string InferenceCache::Fingerprint(std::string_view program_id,
                                        uint64_t revision,
                                        std::string_view lineage_digest,
                                        const ChaseOptions& options) {
  // min_path_prob is a double; %a renders its bits exactly, so two options
  // differing only in the last ulp get distinct keys.
  char mpp[40];
  std::snprintf(mpp, sizeof(mpp), "%a", options.min_path_prob);
  std::string key = KeyPrefix(program_id, revision, lineage_digest);
  key.reserve(key.size() + 96);
  key += "mo=";
  key += std::to_string(options.max_outcomes);
  key += "|md=";
  key += std::to_string(options.max_depth);
  key += "|sl=";
  key += std::to_string(options.support_limit);
  key += "|mpp=";
  key += mpp;
  key += "|ss=";
  key += std::to_string(options.trigger_shuffle_seed);
  key += "|smn=";
  key += std::to_string(options.solver_max_nodes);
  return key;
}

size_t InferenceCache::ApproxBytes(const OutcomeSpace& space) {
  // Heap-node overheads are rough constants; the point is a stable,
  // monotone estimate, not an allocator audit.
  constexpr size_t kNodeOverhead = 48;
  auto atom_bytes = [](const GroundAtom& atom) {
    return sizeof(GroundAtom) + atom.args.capacity() * sizeof(Value);
  };
  // The index: its scalars plus, per outcome, an event row (an upper bound
  // on the rows it may build later), the row's model-set pointer and split
  // (three words) and the outcome's row number.
  size_t bytes = sizeof(OutcomeSpace) + sizeof(AnswerIndex) +
                 space.outcomes.size() * (sizeof(AnswerIndex::EventRow) +
                                          3 * sizeof(void*) + sizeof(uint32_t));
  for (const PossibleOutcome& outcome : space.outcomes) {
    bytes += sizeof(PossibleOutcome);
    for (const auto& [active, value] : outcome.choices.entries()) {
      bytes += kNodeOverhead + atom_bytes(active) + sizeof(value);
    }
    for (const StableModel& model : outcome.models) {
      bytes += kNodeOverhead + sizeof(StableModel);
      for (const GroundAtom& atom : model) bytes += atom_bytes(atom);
    }
  }
  return bytes;
}

size_t InferenceCache::ApproxAddedBytes(const AnswerIndex& index) {
  size_t bytes = 0;
  // size(), not capacity(): a revalidated list holds copies of the source
  // list's atoms, so its estimate never falls below the source's.
  for (const GroundAtom& atom : index.added_facts()) {
    bytes += sizeof(GroundAtom) + atom.args.size() * sizeof(Value);
  }
  return bytes;
}

Result<InferenceCache::IndexPtr> InferenceCache::LookupOrCompute(
    const std::string& key, const ComputeFn& compute,
    const CurrentFn& current) {
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (bool asked = !current;; asked = true) {
      if (const IndexPtr* index = lru_.Find(key)) {
        ++stats_.hits;
        return *index;
      }
      auto in = inflight_.find(key);
      if (in != inflight_.end()) {
        // Someone else is already chasing (or patching) this key: wait for
        // their result instead of burning a second chase on identical work.
        ++stats_.coalesced;
        std::shared_ptr<Inflight> theirs = in->second;
        cv_.wait(lock, [&] { return theirs->done; });
        if (!theirs->status.ok()) return theirs->status;
        return theirs->index;
      }
      if (asked) break;
      // `current` may take the registry lock, which orders before mu_.
      lock.unlock();
      if (!current()) return IndexPtr();
      lock.lock();
    }
    ++stats_.misses;
    flight = std::make_shared<Inflight>();
    inflight_.emplace(key, flight);
  }

  // The chase, the index's scalars and the footprint walk all run without
  // the lock: concurrent lookups of *other* keys proceed, and same-key
  // lookups block on the inflight entry above.
  Result<OutcomeSpace> result = compute();
  IndexPtr index;
  size_t bytes = 0;
  if (result.ok()) {
    index = std::make_shared<const AnswerIndex>(
        std::make_shared<const OutcomeSpace>(std::move(*result)));
    bytes = ApproxBytes(index->space());
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (index != nullptr) {
    flight->index = index;
    InsertLocked(key, std::move(index), bytes);
  } else {
    flight->status = result.status();
  }
  CompleteLocked(key, flight);
  if (!flight->status.ok()) return flight->status;
  return flight->index;
}

void InferenceCache::InsertLocked(const std::string& key, IndexPtr index,
                                  size_t bytes) {
  if (bytes > lru_.capacity()) return;  // ByteLru would not store it
  stats_.evictions += lru_.Insert(key, std::move(index), bytes);
  ++stats_.inserts;
}

void InferenceCache::CompleteLocked(const std::string& key,
                                    const std::shared_ptr<Inflight>& flight) {
  flight->done = true;
  inflight_.erase(key);
  cv_.notify_all();
}

InferenceCache::Revalidation InferenceCache::BeginRevalidate(
    std::string_view program_prefix, std::string_view old_prefix,
    std::string_view new_prefix) {
  Revalidation revalidation;
  std::lock_guard<std::mutex> lock(mu_);
  lru_.ErasePrefix(program_prefix, [&](const std::string& key,
                                       IndexPtr& index, size_t bytes) {
    if (key.compare(0, old_prefix.size(), old_prefix) != 0) {
      ++stats_.evictions;
      ++revalidation.dropped_;
      return;
    }
    std::string new_key(new_prefix);
    new_key += std::string_view(key).substr(old_prefix.size());
    // Skipped when a fresh lookup of the new lineage got there first.
    if (lru_.Contains(new_key) || inflight_.count(new_key) != 0) return;
    auto flight = std::make_shared<Inflight>();
    inflight_.emplace(new_key, flight);
    revalidation.moves_.push_back(
        {std::move(new_key), std::move(index), bytes, std::move(flight)});
  });
  return revalidation;
}

size_t InferenceCache::FinishRevalidate(Revalidation revalidation,
                                        const PatchFn& patch,
                                        size_t* evicted) {
  for (Revalidation::Move& move : revalidation.moves_) {
    IndexPtr patched = patch(*move.index);
    // The patched index shares the space: its charge is the source entry's
    // plus what its added-fact list grew by, with no walk of the models.
    const size_t bytes = move.bytes + ApproxAddedBytes(*patched) -
                         ApproxAddedBytes(*move.index);
    std::lock_guard<std::mutex> lock(mu_);
    move.flight->index = patched;
    InsertLocked(move.key, std::move(patched), bytes);
    ++stats_.revalidated;
    CompleteLocked(move.key, move.flight);
  }
  if (evicted != nullptr) *evicted = revalidation.dropped_;
  return revalidation.moves_.size();
}

size_t InferenceCache::ErasePrefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = lru_.ErasePrefix(prefix);
  stats_.evictions += dropped;
  return dropped;
}

void InferenceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.ErasePrefix("");
}

InferenceCache::Stats InferenceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = lru_.size();
  stats.bytes = lru_.bytes();
  stats.capacity_bytes = lru_.capacity();
  return stats;
}

}  // namespace gdlog
