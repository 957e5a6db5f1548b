#ifndef GDLOG_OPT_PASS_MANAGER_H_
#define GDLOG_OPT_PASS_MANAGER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "opt/passes.h"

namespace gdlog {

/// Timing and rewrite count of one executed pass.
struct PassStat {
  std::string name;
  uint64_t wall_ns = 0;
  uint64_t rewrites = 0;
};

/// The pipeline's result record: per-pass stats plus the aggregate
/// counters, surfaced through gdlog_cli --stats and gdlogd GET /v1/stats.
struct OptStats {
  bool enabled = false;         ///< A pipeline actually ran.
  bool demand_applied = false;  ///< The demand pass was part of it.
  /// The server adopted a previous pipeline run instead of re-running it
  /// (database swap with an unchanged summary).
  bool pipeline_reused = false;
  uint64_t rules_in = 0;
  uint64_t rules_out = 0;
  uint64_t total_wall_ns = 0;
  OptCounters counters;
  std::vector<PassStat> passes;
  /// (label, ProgramIr::Dump()) snapshots: "initial" plus one per executed
  /// pass. Recorded only when PipelineOptions::record_dumps.
  std::vector<std::pair<std::string, std::string>> dumps;
};

struct PipelineOptions {
  bool specialize = true;
  bool eliminate_dead = true;
  bool share_subjoins = true;
  /// Goal predicate ids; non-empty enables the demand pass (callers gate
  /// this on stratification and on marginals-only observation).
  std::vector<uint32_t> demand_goals;
  bool record_dumps = false;
  size_t max_domain = 4;
  size_t max_split = 3;
};

/// True iff the GDLOG_NO_OPT environment variable disables the pipeline
/// globally (set and neither empty nor "0").
bool OptDisabledByEnv();

/// Runs the pass pipeline over `ir` in its fixed order — demand (when
/// goals are given), specialization, dead-rule elimination, subjoin
/// sharing — timing each pass and recording dumps when asked.
OptStats RunPipeline(ProgramIr* ir, const DbSummary& db,
                     const PipelineOptions& options);

}  // namespace gdlog

#endif  // GDLOG_OPT_PASS_MANAGER_H_
