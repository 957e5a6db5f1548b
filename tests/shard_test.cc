// Sharded exact inference: decomposing the chase tree by choice-set prefix
// (PlanShards), exploring each shard independently (ExploreShard) and
// recombining (MergePartialSpaces) must reproduce the single-process
// outcome space bit-identically — same outcomes in the same canonical
// order, same probabilities, masses and models — for every combination of
// shard count and per-shard thread count, with and without trigger
// shuffling, under explicit prefix depths and non-binding budgets, and
// through the lossless JSON partial serialization that carries shards
// across process (or machine) boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/shard.h"

namespace gdlog {
namespace {

constexpr const char* kNetworkProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

std::string Clique(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + ", " + std::to_string(j) +
              ").\n";
      }
    }
  }
  db += "infected(1, 1).\n";
  return db;
}

constexpr const char* kDimeQuarterProgram = R"(
  dimetail(X, flip<0.5>[X]) :- dime(X).
  somedimetail :- dimetail(X, 1).
  quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.
)";
constexpr const char* kDimeQuarterDb = "dime(1). dime(2). quarter(3).";

void ExpectIdenticalSpaces(const OutcomeSpace& a, const OutcomeSpace& b,
                           const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_TRUE(a.outcomes[i].choices == b.outcomes[i].choices)
        << "outcome " << i;
    EXPECT_EQ(a.outcomes[i].prob, b.outcomes[i].prob) << "outcome " << i;
    EXPECT_EQ(a.outcomes[i].models, b.outcomes[i].models) << "outcome " << i;
  }
  EXPECT_EQ(a.finite_mass, b.finite_mass);
  EXPECT_EQ(a.residual_mass(), b.residual_mass());
  EXPECT_EQ(a.support_truncation_mass, b.support_truncation_mass);
  EXPECT_EQ(a.depth_truncated_paths, b.depth_truncated_paths);
  EXPECT_EQ(a.pruned_paths, b.pruned_paths);
  EXPECT_EQ(a.complete, b.complete);
}

struct ShardCase {
  const char* label;
  const char* program;
  std::string db;
  uint64_t trigger_shuffle_seed;
  GrounderKind grounder;
};

class ShardDeterminismTest : public ::testing::TestWithParam<ShardCase> {};

// The paper's network and dime/quarter examples: {1,2,4} shards x {1,2}
// threads must all be bit-identical to the serial single-process space —
// including with a (non-binding) max_outcomes budget set and with trigger
// shuffling on.
TEST_P(ShardDeterminismTest, MergedSpaceMatchesSingleProcess) {
  const ShardCase& c = GetParam();
  GDatalog::Options options;
  options.grounder = c.grounder;
  auto engine = GDatalog::Create(c.program, c.db, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  ChaseOptions serial;
  serial.num_threads = 1;
  serial.trigger_shuffle_seed = c.trigger_shuffle_seed;
  serial.max_outcomes = 1u << 20;  // set, but never binding here
  auto base = engine->Infer(serial);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base->complete);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      ChaseOptions opts = serial;
      opts.num_threads = threads;
      auto merged = ShardedExplore(engine->chase(), opts, shards);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      ExpectIdenticalSpaces(
          *base, *merged,
          std::string(c.label) + " shards=" + std::to_string(shards) +
              " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperExamples, ShardDeterminismTest,
    ::testing::Values(
        ShardCase{"network-auto", kNetworkProgram, Clique(3), 0,
                  GrounderKind::kAuto},
        ShardCase{"network-simple-incremental", kNetworkProgram, Clique(3),
                  0, GrounderKind::kSimple},
        ShardCase{"network-shuffled", kNetworkProgram, Clique(3), 31337,
                  GrounderKind::kAuto},
        ShardCase{"network-n4-shuffled", kNetworkProgram, Clique(4), 99,
                  GrounderKind::kSimple},
        ShardCase{"dime-quarter", kDimeQuarterProgram, kDimeQuarterDb, 0,
                  GrounderKind::kAuto},
        ShardCase{"dime-quarter-shuffled", kDimeQuarterProgram,
                  kDimeQuarterDb, 17, GrounderKind::kSimple}));

TEST(ShardPlanTest, PlanIsDeterministic) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.num_threads = 1;
  auto a = engine->chase().PlanShards(options, 4);
  auto b = engine->chase().PlanShards(options, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->prefix_depth, b->prefix_depth);
  ASSERT_EQ(a->tasks.size(), b->tasks.size());
  for (size_t i = 0; i < a->tasks.size(); ++i) {
    EXPECT_TRUE(a->tasks[i].choices == b->tasks[i].choices) << "task " << i;
    EXPECT_EQ(a->tasks[i].path_prob, b->tasks[i].path_prob) << "task " << i;
  }
}

TEST(ShardPlanTest, ExplicitPrefixDepthsAllMatch) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.num_threads = 1;
  auto base = engine->Infer(options);
  ASSERT_TRUE(base.ok());
  for (size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    auto merged = ShardedExplore(engine->chase(), options, 2, depth);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ExpectIdenticalSpaces(*base, *merged,
                          "prefix depth " + std::to_string(depth));
  }
}

TEST(ShardPlanTest, MoreShardsThanTasksLeavesSomeShardsEmpty) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.num_threads = 1;
  auto base = engine->Infer(options);
  ASSERT_TRUE(base.ok());
  auto merged = ShardedExplore(engine->chase(), options, 64);
  ASSERT_TRUE(merged.ok());
  ExpectIdenticalSpaces(*base, *merged, "64 shards");
}

TEST(ShardPlanTest, ShardIndexOutOfRangeIsRejected) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  auto plan = engine->chase().PlanShards(options, 2);
  ASSERT_TRUE(plan.ok());
  auto partial = engine->chase().ExploreShard(*plan, 2, options);
  EXPECT_FALSE(partial.ok());
}

TEST(ShardPlanTest, PlanWithoutShardMapIsRejected) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  auto plan = engine->chase().PlanShards(options, 2);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->tasks.empty());
  plan->shard_of.clear();
  auto partial = engine->chase().ExploreShard(*plan, 0, options);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kInvalidArgument);
}

// Countably infinite supports: the truncation tail mass must be counted
// exactly once globally and summed in canonical order, whichever shard (or
// the planner itself) truncated the node.
TEST(ShardTruncationTest, SupportTruncationMassIsShardInvariant) {
  auto engine = GDatalog::Create(
      "n(X, geometric<0.5>[X]) :- item(X).", "item(1). item(2). item(3).");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.num_threads = 1;
  options.support_limit = 6;
  auto base = engine->Infer(options);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base->complete);
  EXPECT_LT(base->finite_mass.value(), 1.0);
  for (size_t shards : {size_t{2}, size_t{4}}) {
    for (size_t depth : {size_t{0}, size_t{1}, size_t{2}}) {
      auto merged = ShardedExplore(engine->chase(), options, shards, depth);
      ASSERT_TRUE(merged.ok());
      ExpectIdenticalSpaces(*base, *merged,
                            "truncation shards=" + std::to_string(shards) +
                                " depth=" + std::to_string(depth));
    }
  }
}

// A binding max_outcomes budget: which outcomes a single process keeps is
// schedule-dependent, but the merged count must respect the global budget
// and the space must be flagged incomplete.
TEST(ShardBudgetTest, MaxOutcomesBudgetIsRespectedAcrossShards) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ChaseOptions options;
    options.num_threads = 1;
    options.max_outcomes = 3;
    auto merged = ShardedExplore(engine->chase(), options, shards);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged->outcomes.size(), 3u) << "shards=" << shards;
    EXPECT_FALSE(merged->complete) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Serialization: partials must cross a process boundary losslessly.
// ---------------------------------------------------------------------------

TEST(ShardSerializationTest, JsonRoundTripMergesBitIdentically) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.num_threads = 1;
  auto base = engine->Infer(options);
  ASSERT_TRUE(base.ok());

  auto plan = engine->chase().PlanShards(options, 3);
  ASSERT_TRUE(plan.ok());
  const Interner* interner = engine->program().interner();
  std::vector<PartialSpace> partials;
  for (size_t shard = 0; shard < plan->num_shards; ++shard) {
    auto partial = engine->chase().ExploreShard(*plan, shard, options);
    ASSERT_TRUE(partial.ok());
    ShardPartialMeta meta = MakeShardPartialMeta(*plan, shard, options);
    std::string json = PartialSpaceToJson(*partial, meta, interner);
    ShardPartialMeta parsed_meta;
    auto parsed = PartialSpaceFromJson(json, *interner, &parsed_meta);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed_meta.num_shards, meta.num_shards);
    EXPECT_EQ(parsed_meta.shard_index, meta.shard_index);
    EXPECT_EQ(parsed_meta.prefix_depth, meta.prefix_depth);
    EXPECT_TRUE(parsed_meta.SamePlanAndBudgets(meta));
    // The round trip itself must be lossless: re-serializing the parsed
    // partial reproduces the document byte for byte.
    EXPECT_EQ(json, PartialSpaceToJson(*parsed, parsed_meta, interner));
    partials.push_back(std::move(*parsed));
  }
  OutcomeSpace merged =
      MergePartialSpaces(std::move(partials), options.max_outcomes);
  ExpectIdenticalSpaces(*base, merged, "json round trip");

  // And the reporting export — the CLI's --json surface — is byte-identical
  // too (the acceptance criterion for the sharded driver).
  JsonExportOptions export_options;
  export_options.include_models = true;
  EXPECT_EQ(OutcomeSpaceToJson(*base, engine->translated(), interner,
                               export_options),
            OutcomeSpaceToJson(merged, engine->translated(), interner,
                               export_options));
}

// The serialized partial is canonical: per-shard thread counts must not
// change a single byte (this is what makes cross-machine artifacts
// diffable and cacheable).
TEST(ShardSerializationTest, SerializedPartialIsThreadCountInvariant) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  ChaseOptions serial;
  serial.num_threads = 1;
  auto plan = engine->chase().PlanShards(serial, 2);
  ASSERT_TRUE(plan.ok());
  const Interner* interner = engine->program().interner();
  for (size_t shard = 0; shard < 2; ++shard) {
    ShardPartialMeta meta = MakeShardPartialMeta(*plan, shard, serial);
    auto one = engine->chase().ExploreShard(*plan, shard, serial);
    ASSERT_TRUE(one.ok());
    ChaseOptions threaded = serial;
    threaded.num_threads = 4;
    auto four = engine->chase().ExploreShard(*plan, shard, threaded);
    ASSERT_TRUE(four.ok());
    EXPECT_EQ(PartialSpaceToJson(*one, meta, interner),
              PartialSpaceToJson(*four, meta, interner))
        << "shard " << shard;
  }
}

// ---------------------------------------------------------------------------
// MergePartialSpaces / StreamingMerger edge cases and equivalence
// ---------------------------------------------------------------------------

TEST(ShardMergeTest, MergingNoPartialsYieldsTheEmptyCompleteSpace) {
  OutcomeSpace merged = MergePartialSpaces({}, /*max_outcomes=*/0);
  EXPECT_TRUE(merged.outcomes.empty());
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.depth_truncated_paths, 0u);
  EXPECT_EQ(merged.pruned_paths, 0u);
  EXPECT_TRUE(merged.finite_mass == Prob::Zero());
}

TEST(ShardMergeTest, ZeroOutcomeShardsFoldAsNoOps) {
  // 64 shards over dime/quarter: most shard tasks are empty, so many
  // partials carry zero outcomes. Folding them — in any position — must
  // neither perturb the merge nor count toward the budget.
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.num_threads = 1;
  auto base = engine->Infer(options);
  ASSERT_TRUE(base.ok());
  auto plan = engine->chase().PlanShards(options, 64);
  ASSERT_TRUE(plan.ok());

  size_t empty_shards = 0;
  StreamingMerger merger;
  for (size_t index = 0; index < plan->num_shards; ++index) {
    auto partial = engine->chase().ExploreShard(*plan, index, options);
    ASSERT_TRUE(partial.ok()) << index;
    empty_shards += partial->outcomes.empty();
    merger.Add(std::move(*partial));
  }
  ASSERT_GT(empty_shards, 0u) << "case no longer exercises empty shards";
  EXPECT_EQ(merger.partials_folded(), plan->num_shards);
  OutcomeSpace merged = merger.Finish(options.max_outcomes);
  ExpectIdenticalSpaces(*base, merged, "64 shards, mostly empty");
}

// The tentpole equivalence: folding partials one at a time, in ANY arrival
// order, must be byte-identical to the buffered all-at-once merge — this
// is what lets the coordinator hold O(1) partials while stolen and
// re-dispatched shards arrive interleaved and out of plan order.
TEST(ShardMergeTest, StreamedMergeMatchesBufferedMergeUnderRandomOrder) {
  struct Case {
    const char* program;
    std::string db;
  };
  for (const Case& c : {Case{kNetworkProgram, Clique(3)},
                        Case{kDimeQuarterProgram, kDimeQuarterDb}}) {
    auto engine = GDatalog::Create(c.program, c.db);
    ASSERT_TRUE(engine.ok());
    ChaseOptions options;
    options.num_threads = 1;
    auto plan = engine->chase().PlanShards(options, 6);
    ASSERT_TRUE(plan.ok());
    std::vector<PartialSpace> partials;
    for (size_t index = 0; index < plan->num_shards; ++index) {
      auto partial = engine->chase().ExploreShard(*plan, index, options);
      ASSERT_TRUE(partial.ok());
      partials.push_back(std::move(*partial));
    }
    std::vector<PartialSpace> buffered_input = partials;
    OutcomeSpace buffered =
        MergePartialSpaces(std::move(buffered_input), options.max_outcomes);

    const std::string reference = OutcomeSpaceToJson(
        buffered, engine->translated(), engine->program().interner(), {});
    std::mt19937 rng(0xf1ee7);
    StreamingMerger merger;  // reused across rounds: Finish() resets it
    for (int round = 0; round < 8; ++round) {
      std::vector<PartialSpace> shuffled = partials;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      for (PartialSpace& partial : shuffled) {
        merger.Add(std::move(partial));
      }
      OutcomeSpace streamed = merger.Finish(options.max_outcomes);
      ExpectIdenticalSpaces(buffered, streamed,
                            "round " + std::to_string(round));
      EXPECT_EQ(reference,
                OutcomeSpaceToJson(streamed, engine->translated(),
                                   engine->program().interner(), {}))
          << "round " << round;
    }
  }
}

TEST(ShardSerializationTest, RejectsForeignAndMalformedPartials) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  const Interner& interner = *engine->program().interner();
  ShardPartialMeta meta;
  EXPECT_FALSE(PartialSpaceFromJson("not json", interner, &meta).ok());
  EXPECT_FALSE(PartialSpaceFromJson("{}", interner, &meta).ok());
  EXPECT_FALSE(PartialSpaceFromJson(
                   R"({"format":"gdlog.partial.v1","num_shards":2,)"
                   R"("shard_index":5,"prefix_depth":1,"budget_hit":false,)"
                   R"("depth_truncated_paths":0,"pruned_paths":0,)"
                   R"("outcomes":[],"truncations":[]})",
                   interner, &meta)
                   .ok());
  // Unknown predicate: a partial from a different program must be refused.
  EXPECT_FALSE(
      PartialSpaceFromJson(
          R"({"format":"gdlog.partial.v1","num_shards":1,"shard_index":0,)"
          R"("prefix_depth":0,"max_outcomes":0,"max_depth":4096,)"
          R"("support_limit":64,"trigger_shuffle_seed":"0",)"
          R"("min_path_prob":"0x0p+0","budget_hit":false,)"
          R"("depth_truncated_paths":0,"pruned_paths":0,)"
          R"("outcomes":[{"prob":{"n":1,"d":2},)"
          R"("choices":[{"active":{"p":"no_such_predicate","a":[]},)"
          R"("outcome":{"t":"i","v":1}}],"models":[]}],"truncations":[]})",
          interner, &meta)
          .ok());
}

}  // namespace
}  // namespace gdlog
