#ifndef GDLOG_OBS_PROFILE_H_
#define GDLOG_OBS_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gdlog {

/// Accumulated work of one Σ_Π rule across every grounding fixpoint of a
/// chase (or one Materialize run). The counts — calls, bindings,
/// derivations — are exactly reproducible for every thread count: the chase
/// node set and each node's exactly-once semi-naive fixpoint are
/// schedule-independent. time_ns is wall time and NOT deterministic; it is
/// excluded from every byte-identity surface.
struct RuleProfile {
  uint64_t calls = 0;        ///< (rule, pivot) executor invocations
  uint64_t bindings = 0;     ///< join rows enumerated for this rule
  uint64_t derivations = 0;  ///< ground instances emitted (pre-dedup)
  uint64_t time_ns = 0;      ///< wall time in the join executor
  int stratum = -1;          ///< perfect-grounder stratum; -1 = none
  void Add(const RuleProfile& other);
};

/// Per-chase-depth node accounting: how many nodes were expanded at each
/// depth and where their wall time went.
struct DepthProfile {
  uint64_t nodes = 0;
  uint64_t ground_time_ns = 0;
  uint64_t solve_time_ns = 0;
  void Add(const DepthProfile& other);
};

/// One chase's profile: per-rule and per-depth accumulators plus chase-wide
/// totals. Collected lock-free — each chase worker owns one ChaseProfile,
/// merged in worker-index order after the frontier drains, so the merged
/// counts are identical for every schedule.
struct ChaseProfile {
  std::vector<RuleProfile> rules;    ///< indexed by Σ_Π rule index
  std::vector<DepthProfile> depths;  ///< indexed by chase depth
  uint64_t nodes = 0;         ///< chase nodes expanded
  uint64_t ground_calls = 0;  ///< Ground/Extend invocations
  uint64_t ground_time_ns = 0;
  /// The part of ground_time_ns spent branching: cloning the parent's
  /// grounding before an Extend.
  uint64_t branch_time_ns = 0;
  /// Dropping each node's grounding (and, with its last child, its
  /// parent's) once the node is done.
  uint64_t release_time_ns = 0;
  uint64_t solve_calls = 0;  ///< stable-model solves (leaves)
  uint64_t solve_nodes = 0;  ///< solver search nodes over those solves
  uint64_t solve_time_ns = 0;
  /// Attribution state while collecting (set by the perfect grounder around
  /// each stratum's fixpoint); not an accumulator, never merged.
  int current_stratum = -1;

  /// Grow-on-demand accessors for the indexed vectors.
  RuleProfile& Rule(size_t index);
  DepthProfile& Depth(size_t depth);

  /// Folds `other` in; rule/depth vectors extend to the longer length.
  void Merge(const ChaseProfile& other);
  bool empty() const { return nodes == 0 && rules.empty(); }
};

/// Installs a ChaseProfile as the calling thread's profile sink for the
/// scope's lifetime (restoring the previous sink on exit). The grounding
/// fixpoint reads Current() once per invocation; a null sink — the default
/// — costs one thread-local read and a branch, nothing else. The chase
/// installs the worker's accumulator around each node so the virtual
/// Grounder interface needs no signature change.
class ProfileScope {
 public:
  explicit ProfileScope(ChaseProfile* sink);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// The calling thread's current sink, or nullptr.
  static ChaseProfile* Current();

 private:
  ChaseProfile* saved_;
};

/// Renders the per-rule table, sorted by time descending (ties by rule
/// index), for gdlog_cli --profile. `rule_labels` is indexed like
/// profile.rules (missing labels render as "r<i>"). The header flags the
/// time column as non-deterministic.
std::string FormatChaseProfileTable(const ChaseProfile& profile,
                                    const std::vector<std::string>& rule_labels);

}  // namespace gdlog

#endif  // GDLOG_OBS_PROFILE_H_
