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
#include <optional>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "gdatalog/shard.h"
#include "util/json.h"

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

/// The network program with an even negation loop: an infected router is
/// quarantined or free, so an outcome has several stable models.
constexpr const char* kQuarantineProgram = R"(
  infected(Y, flip<0.1>[X, Y]) :- infected(X, 1), connected(X, Y),
                                  not quarantined(X).
  quarantined(X) :- infected(X, 1), not free(X).
  free(X) :- infected(X, 1), not quarantined(X).
  uninfected(X) :- router(X), not infected(X, 1).
  :- uninfected(X), uninfected(Y), connected(X, Y).
)";

/// The E14 skewed tree: a 12-way discrete pick unlocks 9 fair coins on
/// every fourth branch and 6 elsewhere, each branch weighted by its leaves.
constexpr const char* kSkewedProgram =
    "pick(discrete<1, 64.0, 2, 64.0, 3, 64.0, 4, 512.0, 5, 64.0, 6, 64.0, "
    "7, 64.0, 8, 512.0, 9, 64.0, 10, 64.0, 11, 64.0, 12, 512.0>).\n"
    "coin(J, flip<0.5>[J]) :- pick(I), unlocks(I, J).\n";

std::string SkewedDb() {
  std::string db;
  for (int i = 1; i <= 12; ++i) {
    for (int j = 1; j <= (i % 4 == 0 ? 9 : 6); ++j) {
      db += "unlocks(" + std::to_string(i) + "," + std::to_string(j) + ").\n";
    }
  }
  return db;
}

/// A Δ-free program: one outcome, so every shard but one is empty.
constexpr const char* kReachIslandsProgram = R"(
  reach(X) :- start(X).
  reach(Y) :- reach(X), link(X, Y).
  link(X, Y) :- edge(X, Y).
  link(X, Y) :- edge(Y, X).
  island(X) :- node(X), not reach(X).
)";
constexpr const char* kReachIslandsDb =
    "node(1). node(2). node(3). edge(1, 2). start(1).";

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

// The one placement rule, on a hand-built task list: heaviest task first
// (ties: lower task index), each onto the lightest shard (ties: lower shard
// index). Masses are powers of two, so every load sum is exact.
TEST(ShardPlanTest, AssignTasksToShardsPlacesHeaviestFirstOnTheLightest) {
  std::vector<ShardTask> tasks(6);
  const Rational masses[] = {Rational(1, 8),  Rational(1, 2),
                             Rational(1, 8),  Rational(1, 4),
                             Rational(1, 16), Rational(1, 4)};
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].path_prob = Prob(masses[i]);
  }
  // Visit order 1, 3, 5, 0, 2, 4. Loads after each step: {1/2, 0, 0},
  // {1/2, 1/4, 0}, {1/2, 1/4, 1/4}, {1/2, 3/8, 1/4}, {1/2, 3/8, 3/8},
  // {1/2, 7/16, 3/8}.
  EXPECT_EQ(AssignTasksToShards(tasks, 3),
            (std::vector<uint32_t>{1, 0, 2, 1, 1, 2}));
  EXPECT_EQ(AssignTasksToShards(tasks, 2),
            (std::vector<uint32_t>{0, 0, 1, 1, 0, 1}));
  EXPECT_EQ(AssignTasksToShards(tasks, 1), std::vector<uint32_t>(6, 0));
  // More shards than tasks: one task per shard, in visit order.
  EXPECT_EQ(AssignTasksToShards(tasks, 8),
            (std::vector<uint32_t>{3, 0, 4, 1, 5, 2}));
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

/// The JSON partials of every shard of a `num_shards`-way plan, each
/// checked to round-trip byte for byte, and the merge of the parsed
/// partials checked bit-identical to a single-process run, down to the
/// CLI's --json export.
std::vector<std::string> ExpectJsonRoundTrip(const char* program,
                                             const std::string& db,
                                             size_t num_shards,
                                             const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<std::string> lines;
  auto engine = GDatalog::Create(program, db);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return lines;
  ChaseOptions options;
  options.num_threads = 1;
  auto base = engine->Infer(options);
  EXPECT_TRUE(base.ok());
  auto plan = engine->chase().PlanShards(options, num_shards);
  EXPECT_TRUE(plan.ok());
  if (!base.ok() || !plan.ok()) return lines;
  const Interner* interner = engine->program().interner();
  std::vector<PartialSpace> partials;
  for (size_t shard = 0; shard < plan->num_shards; ++shard) {
    auto partial = engine->chase().ExploreShard(*plan, shard, options);
    EXPECT_TRUE(partial.ok());
    if (!partial.ok()) return lines;
    ShardPartialMeta meta = MakeShardPartialMeta(*plan, shard, options);
    std::string json = PartialSpaceToJson(*partial, meta, interner);
    ShardPartialMeta parsed_meta;
    auto parsed = PartialSpaceFromJson(json, *interner, &parsed_meta);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return lines;
    EXPECT_EQ(parsed_meta.num_shards, meta.num_shards);
    EXPECT_EQ(parsed_meta.shard_index, meta.shard_index);
    EXPECT_EQ(parsed_meta.prefix_depth, meta.prefix_depth);
    EXPECT_TRUE(parsed_meta.SamePlanAndBudgets(meta));
    // The round trip itself must be lossless: re-serializing the parsed
    // partial reproduces the document byte for byte.
    EXPECT_EQ(json, PartialSpaceToJson(*parsed, parsed_meta, interner));
    lines.push_back(std::move(json));
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
  return lines;
}

/// The predicate names of a partial's base atoms.
std::vector<std::string> BasePredicates(const std::string& json) {
  std::vector<std::string> names;
  auto doc = JsonValue::Parse(json);
  EXPECT_TRUE(doc.ok());
  if (!doc.ok()) return names;
  const std::vector<JsonValue>& atoms = doc->Find("atoms")->array();
  for (const JsonValue& index : doc->Find("base")->array()) {
    names.push_back(atoms[*index.NumberAsInt()].Find("p")->string_value());
  }
  return names;
}

TEST(ShardSerializationTest, JsonRoundTripMergesBitIdentically) {
  ExpectJsonRoundTrip(kNetworkProgram, Clique(3), 3, "network clique-3");
}

// On the E14 tree every model of a shard holds D, and D is most of it: the
// base carries all 81 'unlocks' facts.
TEST(ShardSerializationTest, JsonRoundTripOfTheSkewedTreeSharesD) {
  for (const std::string& json :
       ExpectJsonRoundTrip(kSkewedProgram, SkewedDb(), 4, "E14 tree")) {
    std::vector<std::string> base = BasePredicates(json);
    EXPECT_EQ(std::count(base.begin(), base.end(), "unlocks"), 81);
  }
}

// Quarantine clique-3: an outcome where router 2 or 3 is infected has one
// model with it quarantined and one with it free, so those loop atoms stay
// out of the base. (Router 1 is free in every model: quarantining it leaves
// the others uninfected, which the constraint kills.)
TEST(ShardSerializationTest, JsonRoundTripKeepsLoopAtomsOutOfTheBase) {
  size_t with_several_models = 0;
  for (const std::string& json : ExpectJsonRoundTrip(
           kQuarantineProgram, Clique(3), 3, "quarantine clique-3")) {
    auto doc = JsonValue::Parse(json);
    ASSERT_TRUE(doc.ok());
    bool has_model = false;
    bool several = false;
    for (const JsonValue& outcome : doc->Find("outcomes")->array()) {
      const size_t models = outcome.Find("models")->array().size();
      has_model |= models > 0;
      several |= models > 1;
    }
    with_several_models += several;
    if (!has_model) continue;
    std::vector<std::string> base = BasePredicates(json);
    EXPECT_EQ(std::count(base.begin(), base.end(), "router"), 3);
    EXPECT_EQ(std::count(base.begin(), base.end(), "quarantined"), 0);
  }
  EXPECT_GT(with_several_models, 0u);
}

// A Δ-free program has one outcome, so 3 of 4 shards hold no model and
// write an empty base.
TEST(ShardSerializationTest, JsonRoundTripOfModelFreeShards) {
  size_t model_free = 0;
  for (const std::string& json : ExpectJsonRoundTrip(
           kReachIslandsProgram, kReachIslandsDb, 4, "reach islands")) {
    if (json.find("\"outcomes\":[]") != std::string::npos) {
      ++model_free;
      EXPECT_NE(json.find("\"base\":[]"), std::string::npos) << json;
    } else {
      EXPECT_EQ(json.find("\"base\":[]"), std::string::npos) << json;
    }
  }
  EXPECT_EQ(model_free, 3u);
}

// A database delta interns its new names after the program's own on an
// engine built by WithDatabaseDelta (a fleet coordinator after a PATCH),
// and before them on one that parsed D and the delta together (a worker
// re-reading the shipped database text). The reader must rank the sender's
// atoms under its own ids: every parsed model sorted, the merge equal to
// the receiver's own run.
TEST(ShardSerializationTest, ReceiverWithOtherInternOrderRanksAtomsLocally) {
  constexpr const char* kDelta = "audit(1).\n";
  for (const char* program : {kNetworkProgram, kQuarantineProgram}) {
    const std::string db = Clique(3);
    auto base = GDatalog::Create(program, db);
    ASSERT_TRUE(base.ok());
    auto coordinator = GDatalog::WithDatabaseDelta(*base, kDelta);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    auto worker = GDatalog::Create(program, db + kDelta);
    ASSERT_TRUE(worker.ok());
    const Interner& local = *coordinator->program().interner();
    const Interner& remote = *worker->program().interner();
    ASSERT_NE(local.Lookup("audit"), remote.Lookup("audit"))
        << "case no longer interns the delta in a different order";

    ChaseOptions options;
    options.num_threads = 1;
    auto expected = coordinator->Infer(options);
    ASSERT_TRUE(expected.ok());
    auto plan = worker->chase().PlanShards(options, 3);
    ASSERT_TRUE(plan.ok());
    std::vector<PartialSpace> partials;
    for (size_t shard = 0; shard < plan->num_shards; ++shard) {
      auto partial = worker->chase().ExploreShard(*plan, shard, options);
      ASSERT_TRUE(partial.ok());
      ShardPartialMeta meta;
      auto parsed = PartialSpaceFromJson(
          PartialSpaceToJson(*partial,
                             MakeShardPartialMeta(*plan, shard, options),
                             &remote),
          local, &meta);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      for (const PossibleOutcome& outcome : parsed->outcomes) {
        for (const StableModel& model : outcome.models) {
          ASSERT_TRUE(std::is_sorted(model.begin(), model.end()));
        }
      }
      partials.push_back(std::move(*parsed));
    }
    OutcomeSpace merged =
        MergePartialSpaces(std::move(partials), options.max_outcomes);
    ExpectIdenticalSpaces(*expected, merged, program);
    GroundAtom audit{local.Lookup("audit"), {Value::Int(1)}};
    OutcomeSpace::Bounds got = merged.Marginal(audit);
    OutcomeSpace::Bounds want = expected->Marginal(audit);
    EXPECT_EQ(got.lower, want.lower);
    EXPECT_EQ(got.upper, want.upper);
    EXPECT_EQ(want.lower, expected->ProbConsistent());
  }
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

// ---------------------------------------------------------------------------
// The canonical order, checked against ChoiceSet::operator< itself
// ---------------------------------------------------------------------------
//
// Every merge test above compares one configuration of the engine against
// another, and all of them sort through the same ranked keys. These check
// the keys' order against the definition: ChoiceSet::operator< on the
// choice sets, and std::sort by it as the reference merge.

/// Negative uniformint outcomes, double parameters (flip<0.1>, flip<0.25>,
/// poisson<0.5>), a symbol and int constants in one argument position, and
/// a poisson support that a small support_limit truncates.
constexpr const char* kMixedProgram = R"(
  shift(X, uniformint<-2, 1>[X]) :- kind(X).
  light(X, flip<0.1>[X]) :- shift(X, -2).
  heavy(X, flip<0.25>[X]) :- shift(X, 1).
  burst(X, poisson<0.5>[X]) :- light(X, 1).
)";
constexpr const char* kMixedDb = "kind(a). kind(1). kind(b).";

using Truncation = std::pair<ChoiceSet, Prob>;

const ChoiceSet& ChoicesOf(const PossibleOutcome& outcome) {
  return outcome.choices;
}
const ChoiceSet& ChoicesOf(const Truncation& truncation) {
  return truncation.first;
}

template <typename T>
void ExpectStrictlyAscending(const std::vector<T>& items,
                             const std::string& label) {
  for (size_t i = 1; i < items.size(); ++i) {
    ASSERT_TRUE(ChoicesOf(items[i - 1]) < ChoicesOf(items[i]))
        << label << ": item " << i << " is not above item " << i - 1;
  }
}

template <typename T>
void SortByChoiceSets(std::vector<T>* items) {
  std::sort(items->begin(), items->end(), [](const T& a, const T& b) {
    return ChoicesOf(a) < ChoicesOf(b);
  });
}

/// `merged` must hold exactly `outcomes` (any order) in ChoiceSet order,
/// with both masses summed in that order, bit for bit.
void ExpectReferenceMerge(const OutcomeSpace& merged,
                          std::vector<PossibleOutcome> outcomes,
                          std::vector<Truncation> truncations,
                          const std::string& label) {
  SCOPED_TRACE(label);
  SortByChoiceSets(&outcomes);
  SortByChoiceSets(&truncations);
  ASSERT_EQ(merged.outcomes.size(), outcomes.size());
  Prob finite = Prob::Zero();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(merged.outcomes[i].choices == outcomes[i].choices)
        << "outcome " << i;
    EXPECT_EQ(merged.outcomes[i].prob, outcomes[i].prob) << "outcome " << i;
    finite = finite + outcomes[i].prob;
  }
  Prob truncated = Prob::Zero();
  for (const Truncation& truncation : truncations) {
    truncated = truncated + truncation.second;
  }
  EXPECT_EQ(merged.finite_mass, finite);
  EXPECT_EQ(merged.finite_mass.value(), finite.value());
  EXPECT_EQ(merged.support_truncation_mass, truncated);
  EXPECT_EQ(merged.support_truncation_mass.value(), truncated.value());
}

TEST(CanonicalOrderTest, InferAndShardMergesAscendUnderChoiceSetOrder) {
  struct Case {
    const char* label;
    const char* program;
    std::string db;
    size_t support_limit;
    /// The order never reads models; quarantine's leaves would each run
    /// the stable-model solver, which would dominate the test.
    bool compute_models;
  };
  const Case cases[] = {
      {"E1 network", kNetworkProgram, Clique(4), 64, true},
      {"quarantine", kQuarantineProgram, Clique(4), 64, false},
      {"E3 dime/quarter", kDimeQuarterProgram, kDimeQuarterDb, 64, true},
      {"mixed", kMixedProgram, kMixedDb, 3, true},
  };
  for (const Case& c : cases) {
    auto engine = GDatalog::Create(c.program, c.db);
    ASSERT_TRUE(engine.ok()) << c.label << ": "
                             << engine.status().ToString();
    size_t truncations_seen = 0;
    for (size_t threads : {1, 3, 4, 8}) {
      ChaseOptions options;
      options.num_threads = threads;
      options.support_limit = c.support_limit;
      options.compute_models = c.compute_models;
      const std::string label =
          std::string(c.label) + ", " + std::to_string(threads) + " threads";
      auto space = engine->Infer(options);
      ASSERT_TRUE(space.ok()) << label;
      ExpectStrictlyAscending(space->outcomes, label + ", Infer");

      for (size_t shards : {1, 3}) {
        const std::string sharded =
            label + ", " + std::to_string(shards) + " shards";
        // ShardedExplore's steps, one at a time, so each shard's
        // truncations (which the merged space only sums) can be checked.
        auto plan = engine->chase().PlanShards(options, shards);
        ASSERT_TRUE(plan.ok()) << sharded;
        std::vector<PartialSpace> partials;
        std::vector<PossibleOutcome> outcomes;
        std::vector<Truncation> truncations;
        for (size_t shard = 0; shard < plan->num_shards; ++shard) {
          auto partial = engine->chase().ExploreShard(*plan, shard, options);
          ASSERT_TRUE(partial.ok()) << sharded;
          const std::string where = sharded + ", shard " +
                                    std::to_string(shard);
          ExpectStrictlyAscending(partial->outcomes, where + " outcomes");
          ExpectStrictlyAscending(partial->truncations,
                                  where + " truncations");
          outcomes.insert(outcomes.end(), partial->outcomes.begin(),
                          partial->outcomes.end());
          truncations.insert(truncations.end(), partial->truncations.begin(),
                             partial->truncations.end());
          partials.push_back(std::move(*partial));
        }
        truncations_seen += truncations.size();
        OutcomeSpace merged =
            MergePartialSpaces(std::move(partials), options.max_outcomes);
        ExpectStrictlyAscending(merged.outcomes, sharded);
        ExpectReferenceMerge(merged, std::move(outcomes),
                             std::move(truncations), sharded);
        ExpectIdenticalSpaces(*space, merged, sharded + " vs Infer");
      }
    }
    if (c.support_limit == 3) {
      EXPECT_GT(truncations_seen, 0u) << c.label << " no longer truncates";
    }
  }
}

/// A hand-made outcome: `prob` is inexact, so the order masses are summed
/// in shows in their bits.
PossibleOutcome MadeOutcome(ChoiceSet choices, double prob) {
  PossibleOutcome outcome;
  outcome.choices = std::move(choices);
  outcome.prob = Prob(Rational::Approx(prob));
  return outcome;
}

GroundAtom MadeAtom(uint32_t predicate, Tuple args) {
  GroundAtom atom;
  atom.predicate = predicate;
  atom.args = std::move(args);
  return atom;
}

/// `count` distinct random choice sets over `actives`, each Active atom
/// chosen or not at random, with an outcome drawn from a pool that mixes
/// negative ints, doubles, symbols and booleans.
std::vector<ChoiceSet> RandomChoiceSets(const std::vector<GroundAtom>& actives,
                                        size_t count, std::mt19937* rng) {
  const Value pool[] = {Value::Int(-3),       Value::Int(0),
                        Value::Int(2),        Value::Double(-0.5),
                        Value::Double(0.25),  Value::Symbol(4),
                        Value::Symbol(1),     Value::Bool(true)};
  std::set<ChoiceSet> seen;
  std::vector<ChoiceSet> out;
  while (out.size() < count) {
    ChoiceSet choices;
    for (const GroundAtom& active : actives) {
      if ((*rng)() % 3 == 0) continue;
      choices.Assign(active, pool[(*rng)() % std::size(pool)]);
    }
    if (seen.insert(choices).second) out.push_back(std::move(choices));
  }
  return out;
}

std::vector<GroundAtom> RandomActives(uint32_t predicate) {
  return {MadeAtom(predicate, {Value::Double(0.1), Value::Int(1)}),
          MadeAtom(predicate, {Value::Double(0.1), Value::Symbol(2)}),
          MadeAtom(predicate, {Value::Double(0.25), Value::Int(-1)}),
          MadeAtom(predicate, {Value::Double(0.25), Value::Symbol(3)}),
          MadeAtom(predicate + 1, {Value::Int(7)})};
}

/// Deals `sets` into `runs` partials at random, with random inexact masses
/// and every fifth set also a truncation entry. Unsorted on purpose.
std::vector<PartialSpace> DealPartials(const std::vector<ChoiceSet>& sets,
                                       size_t runs, std::mt19937* rng) {
  std::vector<PartialSpace> partials(runs);
  std::uniform_real_distribution<double> mass(1e-9, 1e-3);
  for (size_t i = 0; i < sets.size(); ++i) {
    PartialSpace& partial = partials[(*rng)() % runs];
    if (i % 5 == 0) {
      partial.truncations.emplace_back(sets[i], Prob(Rational::Approx(mass(*rng))));
    } else {
      partial.outcomes.push_back(MadeOutcome(sets[i], mass(*rng)));
    }
  }
  return partials;
}

void ExpectMergeMatchesOneSort(std::vector<PartialSpace> partials,
                               const std::string& label) {
  std::vector<PossibleOutcome> outcomes;
  std::vector<Truncation> truncations;
  for (const PartialSpace& partial : partials) {
    outcomes.insert(outcomes.end(), partial.outcomes.begin(),
                    partial.outcomes.end());
    truncations.insert(truncations.end(), partial.truncations.begin(),
                       partial.truncations.end());
  }
  OutcomeSpace merged =
      MergePartialSpaces(std::move(partials), /*max_outcomes=*/0);
  ExpectStrictlyAscending(merged.outcomes, label);
  ExpectReferenceMerge(merged, std::move(outcomes), std::move(truncations),
                       label);
}

TEST(CanonicalOrderTest, DisjointAndOverlappingEntryTablesMergeLikeOneSort) {
  std::mt19937 rng(0x5eed);
  for (int round = 0; round < 20; ++round) {
    const std::string label = "round " + std::to_string(round);
    // Disjoint: each run's choices range over Active atoms of its own
    // predicates, so the runs' entry tables share nothing.
    std::vector<PartialSpace> disjoint;
    for (uint32_t predicate : {10u, 20u, 30u}) {
      std::vector<ChoiceSet> sets =
          RandomChoiceSets(RandomActives(predicate), 40, &rng);
      disjoint.push_back(std::move(DealPartials(sets, 1, &rng).front()));
    }
    ExpectMergeMatchesOneSort(std::move(disjoint), label + ", disjoint");
    // Overlapping: every run draws from the same Active atoms and
    // outcomes, so the tables mostly coincide and interleave.
    std::vector<ChoiceSet> sets = RandomChoiceSets(RandomActives(10), 150, &rng);
    ExpectMergeMatchesOneSort(DealPartials(sets, 4, &rng),
                              label + ", overlapping");
  }
}

TEST(CanonicalOrderTest, NegativeAndPositiveZeroRankAsOneEntry) {
  // std::map and Value::Hash treat -0.0 and 0.0 as one outcome, so a
  // choice set holding either compares by its other entries: {a→-0.0, b→1}
  // sorts after {a→0.0, b→0}. Ranking the two zeros apart would flip it.
  const GroundAtom a = MadeAtom(5, {Value::Int(1)});
  const GroundAtom b = MadeAtom(5, {Value::Int(2)});
  auto made = [&](double zero, int64_t b_outcome) {
    ChoiceSet choices;
    choices.Assign(a, Value::Double(zero));
    choices.Assign(b, Value::Int(b_outcome));
    return choices;
  };
  const ChoiceSet negative_zero = made(-0.0, 1);
  const ChoiceSet positive_zero = made(0.0, 0);
  ASSERT_TRUE(positive_zero < negative_zero);

  // Both zeros in one run, and one in each run.
  std::vector<PartialSpace> one_run(1);
  one_run[0].outcomes.push_back(MadeOutcome(negative_zero, 0.5));
  one_run[0].outcomes.push_back(MadeOutcome(positive_zero, 0.25));
  std::vector<PartialSpace> two_runs(2);
  two_runs[0].outcomes.push_back(MadeOutcome(negative_zero, 0.5));
  two_runs[1].outcomes.push_back(MadeOutcome(positive_zero, 0.25));
  for (auto* partials : {&one_run, &two_runs}) {
    OutcomeSpace merged = MergePartialSpaces(*partials, /*max_outcomes=*/0);
    ASSERT_EQ(merged.outcomes.size(), 2u);
    EXPECT_EQ(merged.outcomes[0].choices.Lookup(b), Value::Int(0));
    EXPECT_EQ(merged.outcomes[1].choices.Lookup(b), Value::Int(1));
  }
}

TEST(CanonicalOrderTest, ShuffledPartialFoldsToTheSortedBytes) {
  auto engine = GDatalog::Create(kMixedProgram, kMixedDb);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ChaseOptions options;
  options.num_threads = 2;
  options.support_limit = 3;
  auto plan = engine->chase().PlanShards(options, 2);
  ASSERT_TRUE(plan.ok());
  std::vector<PartialSpace> sorted;
  for (size_t shard = 0; shard < plan->num_shards; ++shard) {
    auto partial = engine->chase().ExploreShard(*plan, shard, options);
    ASSERT_TRUE(partial.ok());
    sorted.push_back(std::move(*partial));
  }
  ASSERT_FALSE(sorted[0].truncations.empty());
  const std::string reference = OutcomeSpaceToJson(
      MergePartialSpaces(sorted, options.max_outcomes), engine->translated(),
      engine->program().interner(), {});

  std::mt19937 rng(0x5bf);
  for (int round = 0; round < 4; ++round) {
    StreamingMerger merger;
    for (PartialSpace partial : sorted) {
      std::shuffle(partial.outcomes.begin(), partial.outcomes.end(), rng);
      std::shuffle(partial.truncations.begin(), partial.truncations.end(),
                   rng);
      merger.Add(std::move(partial));
    }
    EXPECT_EQ(reference,
              OutcomeSpaceToJson(merger.Finish(options.max_outcomes),
                                 engine->translated(),
                                 engine->program().interner(), {}))
        << "round " << round;
  }
}

TEST(CanonicalOrderTest, BindingMaxOutcomesKeepsTheCanonicallyFirst) {
  std::mt19937 rng(0xb0d9e7);
  std::vector<ChoiceSet> sets = RandomChoiceSets(RandomActives(10), 120, &rng);
  std::vector<PartialSpace> partials = DealPartials(sets, 3, &rng);
  std::vector<PossibleOutcome> reference;
  for (const PartialSpace& partial : partials) {
    reference.insert(reference.end(), partial.outcomes.begin(),
                     partial.outcomes.end());
  }
  SortByChoiceSets(&reference);
  constexpr size_t kBudget = 17;
  ASSERT_GT(reference.size(), kBudget);
  OutcomeSpace merged = MergePartialSpaces(std::move(partials), kBudget);
  EXPECT_FALSE(merged.complete);
  ASSERT_EQ(merged.outcomes.size(), kBudget);
  Prob finite = Prob::Zero();
  for (size_t i = 0; i < kBudget; ++i) {
    EXPECT_TRUE(merged.outcomes[i].choices == reference[i].choices) << i;
    finite = finite + reference[i].prob;
  }
  EXPECT_EQ(merged.finite_mass.value(), finite.value());
}

TEST(ShardSerializationTest, RejectsForeignAndMalformedPartials) {
  auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
  ASSERT_TRUE(engine.ok());
  const Interner& interner = *engine->program().interner();
  ShardPartialMeta meta;
  EXPECT_FALSE(PartialSpaceFromJson("not json", interner, &meta).ok());
  EXPECT_FALSE(PartialSpaceFromJson("{}", interner, &meta).ok());
  EXPECT_FALSE(PartialSpaceFromJson(
                   R"({"format":"gdlog.partial.v2","num_shards":2,)"
                   R"("shard_index":5,"prefix_depth":1,"budget_hit":false,)"
                   R"("depth_truncated_paths":0,"pruned_paths":0,)"
                   R"("atoms":[],"base":[],"outcomes":[],"truncations":[]})",
                   interner, &meta)
                   .ok());
  // Unknown predicate: a partial from a different program must be refused.
  EXPECT_FALSE(
      PartialSpaceFromJson(
          R"({"format":"gdlog.partial.v2","num_shards":1,"shard_index":0,)"
          R"("prefix_depth":0,"assignment":"weighted","max_outcomes":0,)"
          R"("max_depth":4096,"support_limit":64,)"
          R"("trigger_shuffle_seed":"0","min_path_prob":"0x0p+0",)"
          R"("budget_hit":false,"depth_truncated_paths":0,"pruned_paths":0,)"
          R"("atoms":[{"p":"no_such_predicate","a":[]}],"base":[],)"
          R"("outcomes":[{"prob":{"n":1,"d":2},)"
          R"("choices":[{"active":0,"outcome":{"t":"i","v":1}}],)"
          R"("models":[]}],"truncations":[]})",
          interner, &meta)
          .ok());
}

// ---------------------------------------------------------------------------
// Partial reader conformance: PartialSpaceFromJson reads the partial grammar
// straight off the JSON reader, so it must accept every document the JSON
// DOM reading did (any member order, unknown members, duplicate keys with
// the first taken) and reject everything it rejected.
// ---------------------------------------------------------------------------

/// A one-shard partial over kDimeQuarterProgram holding every construct of
/// the grammar: an atom table, a base, an exact and an inexact mass, a
/// choice set, an empty and a non-empty model list, and a truncation. Atom
/// 1 appears only as a choice's Active atom.
constexpr const char* kMinimalPartial =
    R"({"format":"gdlog.partial.v2","num_shards":1,"shard_index":0,)"
    R"("prefix_depth":0,"assignment":"weighted","max_outcomes":0,)"
    R"("max_depth":4096,"support_limit":64,"trigger_shuffle_seed":"7",)"
    R"("min_path_prob":"0x0p+0","budget_hit":true,)"
    R"("depth_truncated_paths":0,"pruned_paths":0,)"
    R"("atoms":[{"p":"dime","a":[{"t":"i","v":1}]},)"
    R"({"p":"dime","a":[{"t":"i","v":2}]},)"
    R"({"p":"quarter","a":[{"t":"b","v":true},{"t":"d","v":"0x1p-1"}]}],)"
    R"("base":[0],)"
    R"("outcomes":[{"prob":{"n":1,"d":2},)"
    R"("choices":[{"active":1,"outcome":{"t":"i","v":1}}],)"
    R"("models":[[],[2]]}],)"
    R"("truncations":[{"choices":[{"active":1,"outcome":{"t":"i","v":0}}],)"
    R"("mass":{"x":"0x1p-2"}}]})";

/// How RewritePartial re-renders a parsed document.
struct Rewrite {
  /// Members of every object in reverse order.
  bool reverse = false;
  /// An unknown member, itself holding nested objects and arrays, first in
  /// every object.
  bool unknown = false;
  /// Every member followed by a second one of the same key whose value is
  /// malformed for every field (so it fails unless the first is taken).
  bool duplicate = false;
  /// A key dropped from every object.
  std::string drop;
};

void EmitRewritten(const JsonValue& value, const Rewrite& how,
                   JsonWriter* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      out->BeginObject();
      if (how.unknown) {
        out->Key("zz_unknown").BeginObject().Key("nested").BeginArray();
        out->Int(1).BeginObject().KV("p", "no_such_predicate").EndObject();
        out->EndArray().EndObject();
      }
      std::vector<std::pair<std::string, JsonValue>> members =
          value.members();
      if (how.reverse) std::reverse(members.begin(), members.end());
      for (const auto& [key, member] : members) {
        if (key == how.drop) continue;
        out->Key(key);
        EmitRewritten(member, how, out);
        if (how.duplicate) out->Key(key).BeginArray().Null().EndArray();
      }
      out->EndObject();
      return;
    }
    case JsonValue::Kind::kArray:
      out->BeginArray();
      for (const JsonValue& element : value.array()) {
        EmitRewritten(element, how, out);
      }
      out->EndArray();
      return;
    case JsonValue::Kind::kString:
      out->String(value.string_value());
      return;
    case JsonValue::Kind::kNumber:
      // Every number in a partial is an integer.
      out->Int(*value.NumberAsInt());
      return;
    case JsonValue::Kind::kBool:
      out->Bool(value.bool_value());
      return;
    case JsonValue::Kind::kNull:
      out->Null();
      return;
  }
}

std::string RewritePartial(const std::string& json, const Rewrite& how) {
  JsonParseOptions lenient;
  lenient.strict_strings = false;
  auto doc = JsonValue::Parse(json, lenient);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return "";
  JsonWriter out;
  EmitRewritten(*doc, how, &out);
  return out.str();
}

/// Parses `json` and re-serializes it, or returns the parse error.
Result<std::string> ReserializePartial(std::string_view json,
                                       const Interner& interner) {
  ShardPartialMeta meta;
  GDLOG_ASSIGN_OR_RETURN(PartialSpace partial,
                         PartialSpaceFromJson(json, interner, &meta));
  return PartialSpaceToJson(partial, meta, &interner);
}

/// The clique-3 network partial of shard `shard` out of `num_shards`.
std::string NetworkPartial(const GDatalog& engine, size_t num_shards,
                           size_t shard) {
  ChaseOptions options;
  options.num_threads = 1;
  auto plan = engine.chase().PlanShards(options, num_shards);
  EXPECT_TRUE(plan.ok());
  if (!plan.ok()) return "";
  auto partial = engine.chase().ExploreShard(*plan, shard, options);
  EXPECT_TRUE(partial.ok());
  if (!partial.ok()) return "";
  return PartialSpaceToJson(*partial,
                            MakeShardPartialMeta(*plan, shard, options),
                            engine.program().interner());
}

class PartialReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = GDatalog::Create(kDimeQuarterProgram, kDimeQuarterDb);
    ASSERT_TRUE(engine.ok());
    engine_.emplace(std::move(*engine));
    auto network = GDatalog::Create(kNetworkProgram, Clique(3));
    ASSERT_TRUE(network.ok());
    network_.emplace(std::move(*network));
  }

  const Interner& interner() const { return *engine_->program().interner(); }
  const Interner& network_interner() const {
    return *network_->program().interner();
  }

  /// Every rewrite of both a real clique-3 partial and kMinimalPartial must
  /// parse back to the original bytes.
  void ExpectRewriteRoundTrips(const Rewrite& how) {
    const std::string network = NetworkPartial(*network_, 1, 0);
    auto back = ReserializePartial(RewritePartial(network, how),
                                   network_interner());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, network);
    back = ReserializePartial(RewritePartial(kMinimalPartial, how),
                              interner());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, kMinimalPartial);
  }

  std::optional<GDatalog> engine_;
  std::optional<GDatalog> network_;
};

TEST_F(PartialReaderTest, MinimalPartialRoundTrips) {
  auto back = ReserializePartial(kMinimalPartial, interner());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, kMinimalPartial);
}

TEST_F(PartialReaderTest, AcceptsMembersInAnyOrder) {
  Rewrite how;
  how.reverse = true;
  ExpectRewriteRoundTrips(how);
}

TEST_F(PartialReaderTest, SkipsUnknownMembersIncludingNestedOnes) {
  Rewrite how;
  how.unknown = true;
  ExpectRewriteRoundTrips(how);
}

TEST_F(PartialReaderTest, TakesTheFirstOfDuplicateKeys) {
  Rewrite how;
  how.duplicate = true;
  ExpectRewriteRoundTrips(how);
  how.reverse = true;
  how.unknown = true;
  ExpectRewriteRoundTrips(how);

  // As JsonValue::Find does: a later, well-formed value is ignored too.
  std::string doc = kMinimalPartial;
  doc.insert(doc.size() - 1, R"(,"shard_index":3,"num_shards":9)");
  ShardPartialMeta meta;
  auto partial = PartialSpaceFromJson(doc, interner(), &meta);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(meta.num_shards, 1u);
  EXPECT_EQ(meta.shard_index, 0u);
}

TEST_F(PartialReaderTest, RejectsEachMissingRequiredField) {
  for (const char* key :
       {"format", "num_shards", "shard_index", "prefix_depth", "assignment",
        "max_outcomes", "max_depth", "support_limit", "trigger_shuffle_seed",
        "min_path_prob", "budget_hit", "depth_truncated_paths",
        "pruned_paths", "atoms", "base", "outcomes", "truncations", "prob",
        "n", "d", "x",
        "choices", "active", "outcome", "p", "a", "t", "v", "models",
        "mass"}) {
    Rewrite how;
    how.drop = key;
    std::string doc = RewritePartial(kMinimalPartial, how);
    ASSERT_NE(doc, kMinimalPartial) << key;
    ShardPartialMeta meta;
    EXPECT_FALSE(PartialSpaceFromJson(doc, interner(), &meta).ok())
        << "accepted a partial without '" << key << "'";
  }
}

TEST_F(PartialReaderTest, RejectsNonIntegerAndOutOfRangeIntegers) {
  const std::string good = kMinimalPartial;
  auto with = [&](const std::string& from, const std::string& to) {
    std::string doc = good;
    size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? doc : doc.replace(at, from.size(), to);
  };
  ShardPartialMeta meta;
  for (const char* depth : {"4096.0", "4.096e3", "4096e0", "-1",
                            "9223372036854775808", "1e400"}) {
    EXPECT_FALSE(PartialSpaceFromJson(
                     with("\"max_depth\":4096",
                          std::string("\"max_depth\":") + depth),
                     interner(), &meta)
                     .ok())
        << depth;
  }
  EXPECT_TRUE(PartialSpaceFromJson(
                  with("\"max_depth\":4096",
                       "\"max_depth\":9223372036854775807"),
                  interner(), &meta)
                  .ok());
  // Integer constants and rational masses are integer fields too.
  const std::string outcome = R"("outcome":{"t":"i","v":1})";
  EXPECT_FALSE(PartialSpaceFromJson(
                   with(outcome, R"("outcome":{"t":"i","v":1.5})"),
                   interner(), &meta)
                   .ok());
  EXPECT_FALSE(
      PartialSpaceFromJson(
          with(outcome,
               R"("outcome":{"t":"i","v":-9223372036854775809})"),
          interner(), &meta)
          .ok());
  EXPECT_FALSE(PartialSpaceFromJson(with(R"({"n":1,"d":2})",
                                         R"({"n":1,"d":2e0})"),
                                    interner(), &meta)
                   .ok());
}

// The earlier format wrote every model atom in full. Its documents are
// refused outright, with an error that names the format expected.
TEST_F(PartialReaderTest, RejectsVersionOneDocuments) {
  constexpr const char* kVersionOne =
      R"({"format":"gdlog.partial.v1","num_shards":1,"shard_index":0,)"
      R"("prefix_depth":0,"assignment":"weighted","max_outcomes":0,)"
      R"("max_depth":4096,"support_limit":64,"trigger_shuffle_seed":"7",)"
      R"("min_path_prob":"0x0p+0","budget_hit":true,)"
      R"("depth_truncated_paths":0,"pruned_paths":0,)"
      R"("outcomes":[{"prob":{"n":1,"d":2},)"
      R"("choices":[{"active":{"p":"dime","a":[{"t":"i","v":1}]},)"
      R"("outcome":{"t":"i","v":1}}],)"
      R"("models":[[{"p":"dime","a":[{"t":"i","v":1}]}]]}],)"
      R"("truncations":[]})";
  ShardPartialMeta meta;
  auto partial = PartialSpaceFromJson(kVersionOne, interner(), &meta);
  ASSERT_FALSE(partial.ok());
  EXPECT_NE(partial.status().message().find("gdlog.partial.v2"),
            std::string::npos)
      << partial.status().ToString();
}

// Shard placement is always mass-weighted. A partial that names another
// policy covers other tasks per shard index, so it is refused by name.
TEST_F(PartialReaderTest, RejectsAnyAssignmentButWeighted) {
  std::string doc = kMinimalPartial;
  const std::string weighted = R"("assignment":"weighted")";
  doc.replace(doc.find(weighted), weighted.size(),
              R"("assignment":"round_robin")");
  ShardPartialMeta meta;
  auto partial = PartialSpaceFromJson(doc, interner(), &meta);
  ASSERT_FALSE(partial.ok());
  EXPECT_NE(partial.status().message().find("round_robin"),
            std::string::npos)
      << partial.status().ToString();
}

// Every model, choice and truncation names atoms by table index, and a
// model's own list holds what the base does not. A document that breaks
// either rule is refused, not read as some other model set.
TEST_F(PartialReaderTest, RejectsNonCanonicalAtomReferences) {
  struct Case {
    const char* from;
    const char* to;
    const char* error;
  };
  const std::string choice = R"("active":1,"outcome":{"t":"i","v":1})";
  const std::string truncation = R"("active":1,"outcome":{"t":"i","v":0})";
  const Case cases[] = {
      {R"("base":[0])", R"("base":[3])", "in 'base' out of range"},
      {R"("models":[[],[2]])", R"("models":[[],[3]])",
       "in a model out of range"},
      {choice.c_str(), R"("active":3,"outcome":{"t":"i","v":1})",
       "in a choice out of range"},
      {truncation.c_str(), R"("active":7,"outcome":{"t":"i","v":0})",
       "in a truncation out of range"},
      {R"("models":[[],[2]])", R"("models":[[],[2,1]])",
       "not strictly ascending"},
      // A repeated atom: two copies of quarter(...) in one model.
      {R"("models":[[],[2]])", R"("models":[[],[2,2]])",
       "not strictly ascending"},
      {R"("models":[[],[2]])", R"("models":[[],[0,2]])",
       "lists base atom 0"},
      {R"("base":[0])", R"("base":[0,0])", "'base' indices are not strictly"},
      {R"("models":[[],[2]])", R"("models":[])", "has no model"},
      {R"("models":[[],[2]])", R"("models":[[2],[2]])", "repeats a model"},
      {R"("atoms":[)", R"("atoms":[{"p":"dime","a":[{"t":"i","v":2}]},)",
       "atom table repeats dime(2)"},
      {choice.c_str(), R"("active":1.5,"outcome":{"t":"i","v":1})",
       "integer"},
      {choice.c_str(), R"("active":-1,"outcome":{"t":"i","v":1})",
       "out of range"},
      {choice.c_str(), R"("active":"1","outcome":{"t":"i","v":1})",
       "malformed atom index"},
      {R"("base":[0])", R"("base":[4294967296])", "out of range"},
  };
  for (const Case& c : cases) {
    std::string doc = kMinimalPartial;
    size_t at = doc.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    doc.replace(at, std::string_view(c.from).size(), c.to);
    ShardPartialMeta meta;
    auto partial = PartialSpaceFromJson(doc, interner(), &meta);
    ASSERT_FALSE(partial.ok()) << c.to;
    EXPECT_NE(partial.status().message().find(c.error), std::string::npos)
        << c.to << ": " << partial.status().ToString();
  }
}

TEST_F(PartialReaderTest, RejectsTrailingContent) {
  ShardPartialMeta meta;
  const std::string good = kMinimalPartial;
  EXPECT_TRUE(PartialSpaceFromJson(good + " \n\t", interner(), &meta).ok());
  for (const char* trailing : {"x", "{}", ",", " 1", "\n[]"}) {
    EXPECT_FALSE(
        PartialSpaceFromJson(good + trailing, interner(), &meta).ok())
        << trailing;
  }
}

TEST_F(PartialReaderTest, RejectsDeeplyNestedUnknownMembers) {
  const std::string good = kMinimalPartial;
  auto nested = [&](size_t depth) {
    std::string doc = good;
    doc.insert(doc.size() - 1, ",\"zz\":" + std::string(depth, '[') +
                                   std::string(depth, ']'));
    return doc;
  };
  ShardPartialMeta meta;
  // The document object is one level, so 96 levels of arrays reach the
  // limit and one more passes it.
  EXPECT_TRUE(PartialSpaceFromJson(nested(96), interner(), &meta).ok());
  EXPECT_FALSE(PartialSpaceFromJson(nested(97), interner(), &meta).ok());
  // Far past the limit: rejected without recursing a million frames deep.
  EXPECT_FALSE(
      PartialSpaceFromJson(nested(1000000), interner(), &meta).ok());
}

// Symbol names holding a quote, a backslash, multi-byte UTF-8 and a raw
// byte that is not UTF-8 at all: the writer copies the bytes verbatim
// (escaping only '"' and '\'), the lenient reader must read them back
// exactly, and \u escapes of the same characters — including a surrogate
// pair — must decode to the same bytes.
TEST(PartialReaderEscapes, SymbolNamesRoundTripThroughEscapes) {
  const std::string program =
      "name(\"a\\\"b\"). name(\"c\\\\d\"). name(\"caf\xC3\xA9\").\n"
      "name(\"\xE9\"). name(\"\xF0\x9F\x98\x80\").\n"
      "tag(X, flip<0.5>[X]) :- name(X).\n";
  auto engine = GDatalog::Create(program, "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Interner& interner = *engine->program().interner();
  const std::string json = NetworkPartial(*engine, 1, 0);
  ASSERT_NE(json.find("a\\\"b"), std::string::npos);
  ASSERT_NE(json.find("c\\\\d"), std::string::npos);
  ASSERT_NE(json.find("\"\xE9\""), std::string::npos);

  auto back = ReserializePartial(json, interner);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, json);

  std::string escaped = json;
  auto replace_all = [&](const std::string& from, const std::string& to) {
    size_t count = 0;
    for (size_t at = escaped.find(from); at != std::string::npos;
         at = escaped.find(from, at + to.size())) {
      escaped.replace(at, from.size(), to);
      ++count;
    }
    EXPECT_GT(count, 0u) << from;
  };
  replace_all("a\\\"b", "\\u0061\\u0022b");
  replace_all("c\\\\d", "\\u0063\\u005Cd");
  replace_all("caf\xC3\xA9", "caf\\u00e9");
  replace_all("\xF0\x9F\x98\x80", "\\ud83d\\ude00");
  back = ReserializePartial(escaped, interner);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, json);
}

// Bounded mutation testing of the partial reader: every strict prefix of a
// clique-3 partial is an error, and seeded single-byte mutations of it,
// table indices included, either parse or fail cleanly, never crash (the
// sanitizer jobs run this too). A mutation that parses must re-serialize.
TEST(PartialReaderMutation, PrefixesFailAndMutationsNeverCrash) {
  auto engine = GDatalog::Create(kNetworkProgram, Clique(3));
  ASSERT_TRUE(engine.ok());
  const Interner& interner = *engine->program().interner();
  // The smallest shard of a 6-way plan with more than one outcome: every
  // construct but a truncation, in a few kilobytes, so the quadratic
  // prefix sweep stays well under a second even under sanitizers.
  std::string json;
  for (size_t shard = 0; shard < 6; ++shard) {
    std::string candidate = NetworkPartial(*engine, 6, shard);
    ShardPartialMeta meta;
    auto partial = PartialSpaceFromJson(candidate, interner, &meta);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    if (partial->outcomes.size() > 1 &&
        (json.empty() || candidate.size() < json.size())) {
      json = candidate;
    }
  }
  ASSERT_FALSE(json.empty());
  ASSERT_LT(json.size(), 20000u);
  // Mutated indices reach the table, base and model-list checks.
  ASSERT_NE(json.find("\"gdlog.partial.v2\""), std::string::npos);
  ASSERT_EQ(json.find("\"base\":[]"), std::string::npos);

  ShardPartialMeta meta;
  for (size_t length = 0; length < json.size(); ++length) {
    ASSERT_FALSE(PartialSpaceFromJson(std::string_view(json).substr(0, length),
                                      interner, &meta)
                     .ok())
        << "prefix of length " << length << " parsed";
  }

  std::mt19937 rng(0x9a27);
  // Bytes the grammar gives meaning to, so mutations reach deep paths,
  // plus arbitrary ones.
  const std::string structural = "{}[]\":,\\-0123456789.eEtfnu ";
  size_t parsed = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = json;
    size_t at = rng() % mutated.size();
    mutated[at] = round % 2 == 0
                      ? structural[rng() % structural.size()]
                      : static_cast<char>(rng() % 256);
    auto partial = PartialSpaceFromJson(mutated, interner, &meta);
    if (partial.ok()) {
      ++parsed;
      PartialSpaceToJson(*partial, meta, &interner);
    }
  }
  // Most mutations break the document; some (a digit for a digit) do not.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 3000u);
}

}  // namespace
}  // namespace gdlog
