// gdlog command-line interface: run a GDatalog¬ program on a database and
// report outcomes, events, and marginal queries — exactly or by sampling.
//
//   gdlog_cli --program prog.gdl --db facts.gdl [options]
//
// Options:
//   --program FILE        program in gdlog surface syntax (required)
//   --db FILE             database of facts ("" = empty database)
//   --db-delta FILE       fact delta applied on top of --db through the
//                         serving layer's PATCH path (GDatalog::
//                         WithDatabaseDelta): the grounder shares the
//                         --db engine's database prefix with the delta's
//                         new facts (those --db lacks, each once) as its
//                         tail; the chase then grounds from that prefix
//                         as it would for the merged database, and the
//                         reported space is identical to running with
//                         the merged database. Lines starting with '-'
//                         request removal, which is rejected (a database
//                         only grows by deltas). With --stats, prints
//                         the DeltaStats counters
//   --grounder MODE       auto | simple | perfect       (default auto)
//   --query ATOM          ground atom to report marginals for (repeatable)
//   --events              print the event table (stable-model sets ↦ mass)
//   --outcomes            print every possible outcome with its choices
//   --mc N                Monte-Carlo mode with N samples (default: exact)
//   --seed S              sampler / trigger seed          (default 2023)
//   --max-outcomes N      exact-mode outcome budget       (default 1<<20)
//   --max-depth N         chase depth budget              (default 4096)
//   --support-limit N     truncation of infinite supports (default 64)
//   --threads N           exact-mode chase workers per process (0 = one per
//                         hardware thread, 1 = serial; default 0). Results
//                         are identical for any N when no budget binds.
//   --shards N            exact mode: decompose the chase tree by
//                         choice-set prefix into N shards (at most 2^20),
//                         explore them one after another in this process
//                         and merge — the merged space (and its --json
//                         export) is byte-identical to the unsharded run
//                         when no budget binds
//   --shard-index I       run only shard I (0-based) of --shards N and
//                         print the partial outcome space as JSON — for
//                         spreading shards across processes or machines
//                         (recombine with --merge)
//   --shard-prefix-depth K  choice-prefix depth of the shard plan
//                         (default 0 = auto-pick from the frontier width)
//   --merge FILE          merge partial-space JSON files (one --merge per
//                         file, one shard each) instead of exploring;
//                         requires the same --program/--db the partials
//                         were produced from
//   --extensions          also register the extension distributions
//                         (zipf, normalgrid)
//   --normalgrid-max-cells K  half-width cap on normalgrid's enumeration
//                         grid, in cells (default 4096, range [1, 2^20];
//                         requires --extensions)
//   --condition           condition marginals on consistency
//   --profile             exact mode: collect the per-rule chase profile
//                         (calls, bindings, derivations, stratum, wall
//                         time per Σ_Π rule; per-depth node/ground/solve
//                         accounting; branch and release totals) and print
//                         it after the report (stderr with --json or
//                         --shard-index, so the JSON stream — which stays
//                         byte-identical to a run without --profile — is
//                         unaffected). With --shards it profiles every
//                         shard's exploration. Counts are exactly
//                         reproducible for any --threads; times are not.
//                         Not with --mc or --merge, which run no profiled
//                         chase
//   --stats               print the demand restriction's rule counts and
//                         wall time, and grounding statistics for G(∅) —
//                         ground rules, complete bindings, index /
//                         composite / scan candidate fetches, plan cache
//                         behavior — after the report (stderr when combined
//                         with --json, so the JSON stream stays parseable)
//   --json                exact mode: emit machine-readable JSON (sections
//                         controlled by --outcomes / --events) and exit
//   --dot                 print the dependency graph in DOT and exit
//
// With --query in plain exact mode (no --json, --outcomes, --events, --mc,
// --shards or --merge) and a stratified program, Σ_Π is restricted to the
// queried predicates' demand (magic sets: their dependency cone plus every
// constraint's): marginals and P(consistent) are exact, the outcome count
// may coarsen. Every other mode runs the whole Σ_Π.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "gdatalog/demand.h"
#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/sampler.h"
#include "gdatalog/shard.h"
#include "ground/dependency_graph.h"
#include "obs/profile.h"

namespace {

constexpr size_t kNoShardIndex = static_cast<size_t>(-1);

struct CliOptions {
  std::string program_path;
  std::string db_path;
  std::string db_delta_path;
  std::string grounder = "auto";
  std::vector<std::string> queries;
  bool print_events = false;
  bool print_outcomes = false;
  bool condition = false;
  bool dot = false;
  bool json = false;
  bool stats = false;
  bool profile = false;
  bool extensions = false;
  size_t mc_samples = 0;  // 0 = exact
  uint64_t seed = 2023;
  size_t max_outcomes = 1u << 20;
  size_t max_depth = 4096;
  size_t support_limit = 64;
  size_t threads = 0;  // 0 = hardware concurrency
  size_t shards = 0;   // 0 = no sharding
  size_t shard_index = kNoShardIndex;  // set = worker mode
  size_t shard_prefix_depth = 0;       // 0 = auto
  std::vector<std::string> merge_files;
  long long normalgrid_max_cells = -1;  // -1 = default
};

[[noreturn]] void Usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s --program FILE [--db FILE] [--db-delta FILE]\n"
               "          [--grounder MODE]\n"
               "          [--query ATOM]... [--events] [--outcomes]\n"
               "          [--mc N] [--seed S] [--max-outcomes N]\n"
               "          [--max-depth N] [--support-limit N] [--condition]\n"
               "          [--threads N] [--shards N [--shard-index I]]\n"
               "          [--shard-prefix-depth K] [--merge FILE]...\n"
               "          [--extensions] [--normalgrid-max-cells K]\n"
               "          [--profile] [--stats] [--json] [--dot]\n",
               argv0);
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions opts;
  const gdlog_tools::FlagReader flags(argc, argv, Usage);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--program")) {
      opts.program_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--db")) {
      opts.db_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--db-delta")) {
      opts.db_delta_path = flags.Value(i);
    } else if (!std::strcmp(arg, "--grounder")) {
      opts.grounder = flags.Value(i);
    } else if (!std::strcmp(arg, "--query")) {
      opts.queries.push_back(flags.Value(i));
    } else if (!std::strcmp(arg, "--events")) {
      opts.print_events = true;
    } else if (!std::strcmp(arg, "--outcomes")) {
      opts.print_outcomes = true;
    } else if (!std::strcmp(arg, "--condition")) {
      opts.condition = true;
    } else if (!std::strcmp(arg, "--dot")) {
      opts.dot = true;
    } else if (!std::strcmp(arg, "--json")) {
      opts.json = true;
    } else if (!std::strcmp(arg, "--stats")) {
      opts.stats = true;
    } else if (!std::strcmp(arg, "--profile")) {
      opts.profile = true;
    } else if (!std::strcmp(arg, "--mc")) {
      opts.mc_samples = flags.Count(i);
    } else if (!std::strcmp(arg, "--seed")) {
      opts.seed = flags.Count(i);
    } else if (!std::strcmp(arg, "--max-outcomes")) {
      opts.max_outcomes = flags.Count(i);
    } else if (!std::strcmp(arg, "--max-depth")) {
      opts.max_depth = flags.Count(i);
    } else if (!std::strcmp(arg, "--support-limit")) {
      opts.support_limit = flags.Count(i);
    } else if (!std::strcmp(arg, "--threads")) {
      opts.threads = flags.Count(i);
    } else if (!std::strcmp(arg, "--shards")) {
      opts.shards = flags.Count(i);
    } else if (!std::strcmp(arg, "--shard-index")) {
      opts.shard_index = flags.Count(i, kNoShardIndex - 1);
    } else if (!std::strcmp(arg, "--shard-prefix-depth")) {
      opts.shard_prefix_depth = flags.Count(i);
    } else if (!std::strcmp(arg, "--merge")) {
      opts.merge_files.push_back(flags.Value(i));
    } else if (!std::strcmp(arg, "--extensions")) {
      opts.extensions = true;
    } else if (!std::strcmp(arg, "--normalgrid-max-cells")) {
      opts.normalgrid_max_cells = static_cast<long long>(
          flags.Count(i, std::numeric_limits<long long>::max()));
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      Usage(argv[0]);
    } else {
      Usage(argv[0], (std::string("unknown flag: ") + arg).c_str());
    }
  }
  if (opts.program_path.empty()) Usage(argv[0], "--program is required");
  if (opts.shards > gdlog::kMaxShards) {
    Usage(argv[0], ("--shards must be at most " +
                    std::to_string(gdlog::kMaxShards))
                       .c_str());
  }
  if (opts.shard_index != kNoShardIndex) {
    if (opts.shards < 1) Usage(argv[0], "--shard-index requires --shards");
    if (opts.shard_index >= opts.shards) {
      Usage(argv[0], "--shard-index must be < --shards");
    }
  }
  if (!opts.merge_files.empty() && opts.shards > 0) {
    Usage(argv[0], "--merge and --shards are mutually exclusive");
  }
  if (opts.mc_samples > 0 && (opts.shards > 0 || !opts.merge_files.empty())) {
    Usage(argv[0], "sharding applies to exact mode only (drop --mc)");
  }
  if (opts.profile && (opts.mc_samples > 0 || !opts.merge_files.empty())) {
    Usage(argv[0], "--profile applies to exact exploration only "
                   "(drop --mc / --merge)");
  }
  if (opts.normalgrid_max_cells >= 0 && !opts.extensions) {
    Usage(argv[0], "--normalgrid-max-cells requires --extensions");
  }
  return opts;
}

gdlog::ChaseOptions MakeChaseOptions(const CliOptions& opts) {
  gdlog::ChaseOptions chase;
  chase.max_outcomes = opts.max_outcomes;
  chase.max_depth = opts.max_depth;
  chase.support_limit = opts.support_limit;
  chase.num_threads = opts.threads;
  chase.profile = opts.profile;
  return chase;
}

int ReportSpace(const gdlog::GDatalog& engine, const gdlog::OutcomeSpace& space,
                const CliOptions& opts);

// --profile: prints the chase profile after the report — to stderr when
// stdout carries JSON (a --json document or a --shard-index partial), so
// that stream stays byte-identical to a run without --profile.
void PrintProfile(const gdlog::GDatalog& engine,
                  const gdlog::ChaseProfile& profile, bool to_stderr) {
  std::fputs(
      gdlog::FormatChaseProfileTable(profile, engine.SigmaRuleLabels())
          .c_str(),
      to_stderr ? stderr : stdout);
}

// --stats: what the demand restriction did at engine construction.
void PrintDemandStats(const gdlog::GDatalog& engine, const CliOptions& opts) {
  const gdlog::OptStats& os = engine.opt_stats();
  std::FILE* dst = opts.json ? stderr : stdout;
  if (!os.demand_applied) {
    std::fprintf(dst, "\ndemand restriction: off (%llu rules)\n",
                 static_cast<unsigned long long>(os.rules_out));
    return;
  }
  std::fprintf(dst, "\ndemand restriction: %llu -> %llu rules (%.3f ms)\n",
               static_cast<unsigned long long>(os.rules_in),
               static_cast<unsigned long long>(os.rules_out),
               static_cast<double>(os.total_wall_ns) / 1e6);
}

// --stats: grounds once under the empty choice set with counters enabled
// and prints the compiled-join statistics — the per-Ground shape of the
// work every chase node repeats.
void PrintGroundStats(const gdlog::GDatalog& engine, const CliOptions& opts) {
  gdlog::GroundRuleSet out;
  gdlog::MatchStats stats;
  auto st = engine.grounder().Ground(gdlog::ChoiceSet(), &out, &stats);
  std::FILE* dst = opts.json ? stderr : stdout;
  if (!st.ok()) {
    std::fprintf(dst, "grounding stats unavailable: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::fprintf(dst,
               "\ngrounding stats (G(empty)):\n"
               "  ground rules         : %zu\n"
               "  bindings             : %llu\n"
               "  index_hits           : %llu\n"
               "  composite_index_hits : %llu\n"
               "  full_scans           : %llu\n"
               "  plans_compiled       : %llu\n"
               "  plan_cache_hits      : %llu\n",
               out.size(),
               static_cast<unsigned long long>(stats.bindings),
               static_cast<unsigned long long>(stats.index_hits),
               static_cast<unsigned long long>(stats.composite_index_hits),
               static_cast<unsigned long long>(stats.full_scans),
               static_cast<unsigned long long>(stats.plans_compiled),
               static_cast<unsigned long long>(stats.plan_cache_hits));
}

// --stats with --db-delta: what the incremental update path did.
void PrintDeltaStats(const gdlog::GDatalog& engine, const CliOptions& opts) {
  const gdlog::DeltaStats& ds = engine.delta_stats();
  if (!ds.applied) return;
  std::FILE* dst = opts.json ? stderr : stdout;
  std::fprintf(dst,
               "\ndelta update:\n"
               "  rows appended      : %zu (+%zu duplicates skipped)\n"
               "  predicates touched : %zu\n"
               "  touches rule bodies: %s\n",
               ds.rows_appended, ds.duplicates_skipped, ds.predicates_touched,
               ds.touches_rule_bodies ? "yes" : "no");
}

int RunExact(const gdlog::GDatalog& engine, const CliOptions& opts) {
  gdlog::ChaseOptions chase = MakeChaseOptions(opts);
  gdlog::ChaseProfile profile;
  auto space = opts.profile ? engine.Infer(chase, &profile)
                            : engine.Infer(chase);
  if (!space.ok()) {
    std::fprintf(stderr, "inference error: %s\n",
                 space.status().ToString().c_str());
    return 1;
  }
  int code = ReportSpace(engine, *space, opts);
  if (code == 0 && opts.profile) PrintProfile(engine, profile, opts.json);
  if (code == 0 && opts.stats) {
    PrintDemandStats(engine, opts);
    PrintDeltaStats(engine, opts);
    PrintGroundStats(engine, opts);
  }
  return code;
}

int ReportSpace(const gdlog::GDatalog& engine, const gdlog::OutcomeSpace& space,
                const CliOptions& opts) {
  const gdlog::AnswerIndex answers(space);
  if (opts.json) {
    gdlog::JsonExportOptions json_options;
    json_options.include_outcomes = opts.print_outcomes;
    json_options.include_models = opts.print_outcomes;
    json_options.include_events = opts.print_events;
    std::printf("%s\n",
                gdlog::OutcomeSpaceToJson(answers, engine.translated(),
                                          engine.program().interner(),
                                          json_options)
                    .c_str());
    return 0;
  }

  std::printf("possible outcomes : %zu%s\n", space.outcomes.size(),
              space.complete ? "" : " (exploration truncated)");
  std::printf("finite mass       : %s\n",
              space.finite_mass.ToString().c_str());
  if (!space.complete) {
    std::printf("residual (Ω∞+unexplored): %s\n",
                space.residual_mass().ToString().c_str());
  }
  std::printf("P(consistent)     : %s (= %.6f)\n",
              answers.prob_consistent().ToString().c_str(),
              answers.prob_consistent().value());
  std::printf("P(no stable model): %s\n",
              answers.prob_inconsistent().ToString().c_str());

  const gdlog::Interner* names = engine.program().interner();

  if (opts.print_events) {
    std::printf("\nevents (stable-model sets -> mass):\n");
    for (const gdlog::AnswerIndex::EventRow& row : answers.events()) {
      std::printf("  mass %-10s |sms| = %zu\n", row.mass.ToString().c_str(),
                  row.num_models);
    }
  }

  if (opts.print_outcomes) {
    std::printf("\noutcomes:\n");
    for (const gdlog::PossibleOutcome& o : space.outcomes) {
      std::printf("  Pr = %-10s |sms| = %zu, choices:\n",
                  o.prob.ToString().c_str(), o.models.size());
      for (const auto& [active, value] : o.choices.entries()) {
        std::printf("    %s -> %s\n", active.ToString(names).c_str(),
                    value.ToString(names).c_str());
      }
    }
  }

  for (const std::string& query : opts.queries) {
    auto atom = engine.ParseGroundAtom(query);
    if (!atom.ok()) {
      std::fprintf(stderr, "bad query '%s': %s\n", query.c_str(),
                   atom.status().ToString().c_str());
      return 1;
    }
    if (opts.condition) {
      auto bounds = answers.MarginalGivenConsistent(*atom);
      if (!bounds) {
        std::printf("P(%s | consistent) undefined (P(consistent) = 0)\n",
                    query.c_str());
      } else {
        std::printf("P(%s | consistent) in [%s, %s]\n", query.c_str(),
                    bounds->lower.ToString().c_str(),
                    bounds->upper.ToString().c_str());
      }
    } else {
      gdlog::OutcomeSpace::Bounds bounds = answers.Marginal(*atom);
      std::printf("P(%s) in [%s, %s]\n", query.c_str(),
                  bounds.lower.ToString().c_str(),
                  bounds.upper.ToString().c_str());
    }
  }
  return 0;
}

// Worker mode (--shards N --shard-index I): recompute the deterministic
// shard plan, explore shard I, and print the partial outcome space as a
// single JSON line on stdout — the only stdout output, so piping it to a
// file for a later --merge (on this or another machine) captures it cleanly.
int RunShardWorker(const gdlog::GDatalog& engine, const CliOptions& opts) {
  gdlog::ChaseOptions chase = MakeChaseOptions(opts);
  auto plan = engine.chase().PlanShards(chase, opts.shards,
                                        opts.shard_prefix_depth);
  if (!plan.ok()) {
    std::fprintf(stderr, "shard planning error: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  gdlog::ChaseProfile profile;
  auto partial = engine.chase().ExploreShard(*plan, opts.shard_index, chase,
                                             &profile);
  if (!partial.ok()) {
    std::fprintf(stderr, "shard %zu error: %s\n", opts.shard_index,
                 partial.status().ToString().c_str());
    return 1;
  }
  gdlog::ShardPartialMeta meta =
      gdlog::MakeShardPartialMeta(*plan, opts.shard_index, chase);
  std::printf("%s\n",
              gdlog::PartialSpaceToJson(*partial, meta,
                                        engine.program().interner())
                  .c_str());
  if (opts.profile) PrintProfile(engine, profile, /*to_stderr=*/true);
  return 0;
}

/// Validates the partials — mutually consistent plan and budgets, budgets
/// matching this invocation's flags, every shard 0..N-1 exactly once —
/// then merges and reports. Returns the process exit code.
int MergeAndReport(const gdlog::GDatalog& engine, const CliOptions& opts,
                   std::vector<gdlog::PartialSpace> partials,
                   const std::vector<gdlog::ShardPartialMeta>& metas) {
  // Partials produced under different budgets describe different outcome
  // spaces; so do partials produced under budgets other than the ones this
  // merge invocation will report against.
  gdlog::ShardPartialMeta expected = metas.front();
  expected.max_outcomes = opts.max_outcomes;
  expected.max_depth = opts.max_depth;
  expected.support_limit = opts.support_limit;
  expected.trigger_shuffle_seed = 0;  // not exposed by the CLI
  expected.min_path_prob = 0.0;
  std::vector<bool> seen(expected.num_shards, false);
  for (const gdlog::ShardPartialMeta& meta : metas) {
    if (!meta.SamePlanAndBudgets(expected)) {
      std::fprintf(stderr,
                   "error: partial for shard %zu was produced under a "
                   "different shard plan or different exploration budgets "
                   "than this invocation\n",
                   meta.shard_index);
      return 1;
    }
    if (seen[meta.shard_index]) {
      std::fprintf(stderr, "error: duplicate partial for shard %zu\n",
                   meta.shard_index);
      return 1;
    }
    seen[meta.shard_index] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      std::fprintf(stderr, "error: missing partial for shard %zu of %zu\n",
                   i, seen.size());
      return 1;
    }
  }
  gdlog::OutcomeSpace space =
      gdlog::MergePartialSpaces(std::move(partials), opts.max_outcomes);
  return ReportSpace(engine, space, opts);
}

// Sharded mode (--shards N without --shard-index): plan, explore every
// shard in this process and merge (ShardedExplore), then report exactly
// like an unsharded run.
int RunSharded(const gdlog::GDatalog& engine, const CliOptions& opts) {
  gdlog::ChaseProfile profile;
  auto space =
      gdlog::ShardedExplore(engine.chase(), MakeChaseOptions(opts),
                            opts.shards, opts.shard_prefix_depth, &profile);
  if (!space.ok()) {
    std::fprintf(stderr, "sharded inference error: %s\n",
                 space.status().ToString().c_str());
    return 1;
  }
  int code = ReportSpace(engine, *space, opts);
  if (code == 0 && opts.profile) PrintProfile(engine, profile, opts.json);
  return code;
}

// Merge mode (--merge FILE...): recombine partials written by workers run
// elsewhere (other machines, earlier invocations) against the same program.
int RunMerge(const gdlog::GDatalog& engine, const CliOptions& opts) {
  std::vector<gdlog::PartialSpace> partials;
  std::vector<gdlog::ShardPartialMeta> metas;
  for (const std::string& path : opts.merge_files) {
    std::string text = ReadFile(path);
    gdlog::ShardPartialMeta meta;
    auto partial = gdlog::PartialSpaceFromJson(
        text, *engine.program().interner(), &meta);
    if (!partial.ok()) {
      std::fprintf(stderr, "bad partial '%s': %s\n", path.c_str(),
                   partial.status().ToString().c_str());
      return 1;
    }
    partials.push_back(std::move(*partial));
    metas.push_back(meta);
  }
  return MergeAndReport(engine, opts, std::move(partials), metas);
}

int RunMonteCarlo(const gdlog::GDatalog& engine, const CliOptions& opts) {
  // Every query parses before the first walk; one pass then estimates
  // P(consistent) and both bounds of every queried atom.
  std::vector<gdlog::GroundAtom> atoms;
  for (const std::string& query : opts.queries) {
    auto atom = engine.ParseGroundAtom(query);
    if (!atom.ok()) {
      std::fprintf(stderr, "bad query '%s': %s\n", query.c_str(),
                   atom.status().ToString().c_str());
      return 1;
    }
    atoms.push_back(std::move(*atom));
  }
  gdlog::ChaseOptions chase;
  chase.max_depth = opts.max_depth;
  chase.support_limit = opts.support_limit;
  auto result = gdlog::EstimateByMonteCarlo(engine.chase(), chase,
                                            opts.mc_samples, opts.seed, atoms);
  if (!result.ok()) {
    std::fprintf(stderr, "sampling error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("samples            : %zu (+%zu truncated)\n", result->samples,
              result->truncated);
  std::printf("P(consistent)      : %.6f +- %.6f\n", result->consistent.mean,
              2 * result->consistent.std_error);
  for (size_t q = 0; q < opts.queries.size(); ++q) {
    const gdlog::MonteCarloResult::Bounds& bounds = result->marginals[q];
    std::printf("P(%s) in [%.6f, %.6f] (+- %.6f)\n", opts.queries[q].c_str(),
                bounds.lower.mean, bounds.upper.mean,
                2 * std::max(bounds.lower.std_error, bounds.upper.std_error));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = ParseArgs(argc, argv);

  std::string program_text = ReadFile(opts.program_path);
  std::string db_text = opts.db_path.empty() ? "" : ReadFile(opts.db_path);

  gdlog::GDatalog::Options engine_options;
  if (opts.extensions) {
    auto registry = std::make_unique<gdlog::DistributionRegistry>(
        gdlog::DistributionRegistry::Builtins());
    gdlog::ExtensionOptions extension_options;
    if (opts.normalgrid_max_cells >= 0) {
      extension_options.normalgrid_max_half_cells = opts.normalgrid_max_cells;
    }
    auto st = gdlog::RegisterExtensionDistributions(registry.get(),
                                                    extension_options);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    engine_options.registry = std::move(registry);
  }
  if (opts.grounder == "simple") {
    engine_options.grounder = gdlog::GrounderKind::kSimple;
  } else if (opts.grounder == "perfect") {
    engine_options.grounder = gdlog::GrounderKind::kPerfect;
  } else if (opts.grounder != "auto") {
    Usage(argv[0], "grounder must be auto, simple or perfect");
  }
  // Demand restriction: only on the plain exact --query path, where the
  // observables (marginals of the queried atoms, P(consistent)) are
  // provably preserved. Every mode that exposes the raw outcome space
  // (--json, --outcomes, --events, sharding/merge, sampling) keeps the
  // whole Σ_Π.
  if (!opts.queries.empty() && !opts.json && !opts.print_events &&
      !opts.print_outcomes && opts.mc_samples == 0 && opts.shards == 0 &&
      opts.shard_index == kNoShardIndex && opts.merge_files.empty()) {
    for (const std::string& query : opts.queries) {
      std::string name = gdlog::QueryPredicateName(query);
      if (!name.empty()) engine_options.demand_goals.push_back(name);
    }
  }

  auto engine = gdlog::GDatalog::Create(program_text, db_text,
                                        std::move(engine_options));
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  if (!opts.db_delta_path.empty()) {
    // Exercise the PATCH path: append the delta to the already-built
    // engine instead of parsing a merged database — same reported space.
    std::string delta_text = ReadFile(opts.db_delta_path);
    auto updated = gdlog::GDatalog::WithDatabaseDelta(*engine, delta_text);
    if (!updated.ok()) {
      std::fprintf(stderr, "error applying --db-delta: %s\n",
                   updated.status().ToString().c_str());
      return 1;
    }
    engine = std::move(updated);
  }

  if (opts.dot) {
    gdlog::DependencyGraph dg(engine->program());
    std::fputs(dg.ToDot(engine->program().interner()).c_str(), stdout);
    return 0;
  }

  // Worker mode prints nothing on stdout but the partial-space JSON.
  if (opts.shard_index != kNoShardIndex) return RunShardWorker(*engine, opts);

  if (!opts.json) {
    std::printf("grounder          : %.*s (stratified: %s)\n",
                static_cast<int>(engine->grounder().name().size()),
                engine->grounder().name().data(),
                engine->stratified() ? "yes" : "no");
  }

  if (opts.mc_samples > 0) return RunMonteCarlo(*engine, opts);
  if (!opts.merge_files.empty()) return RunMerge(*engine, opts);
  if (opts.shards > 0) return RunSharded(*engine, opts);
  return RunExact(*engine, opts);
}
