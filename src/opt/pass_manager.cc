#include "opt/pass_manager.h"

#include <chrono>
#include <cstdlib>
#include <functional>

namespace gdlog {

bool OptDisabledByEnv() {
  const char* value = std::getenv("GDLOG_NO_OPT");
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

OptStats RunPipeline(ProgramIr* ir, const DbSummary& db,
                     const PipelineOptions& options) {
  using Clock = std::chrono::steady_clock;
  OptStats stats;
  stats.enabled = true;
  stats.rules_in = ir->rules().size();
  if (options.record_dumps) stats.dumps.emplace_back("initial", ir->Dump());

  auto run_pass = [&](const char* name, const std::function<size_t()>& pass) {
    Clock::time_point start = Clock::now();
    size_t rewrites = pass();
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    PassStat stat;
    stat.name = name;
    stat.wall_ns = ns;
    stat.rewrites = rewrites;
    stats.passes.push_back(std::move(stat));
    stats.total_wall_ns += ns;
    if (options.record_dumps) {
      stats.dumps.emplace_back(std::string("after ") + name, ir->Dump());
    }
  };

  PassContext ctx;
  ctx.db = &db;

  if (!options.demand_goals.empty()) {
    stats.demand_applied = true;
    run_pass("demand", [&] {
      return DemandPass(ir, options.demand_goals, &stats.counters);
    });
  }
  run_pass("specialize",
           [&] { return SpecializationPass(ir, ctx, &stats.counters); });
  run_pass("dead-rule",
           [&] { return DeadRuleEliminationPass(ir, ctx, &stats.counters); });
  run_pass("subjoin-share",
           [&] { return SubjoinSharingPass(ir, &stats.counters); });
  stats.rules_out = ir->rules().size();
  return stats;
}

}  // namespace gdlog
