// JsonWriter and outcome-space export tests, including the AnswerIndex
// the export renders from and its added-fact overlay.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gdatalog/engine.h"
#include "gdatalog/export.h"
#include "util/json.h"

namespace gdlog {
namespace {

TEST(JsonWriter, ObjectsAndArrays) {
  JsonWriter json;
  json.BeginObject()
      .KV("a", 1.5)
      .KV("b", std::string_view("x"))
      .Key("c")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .KV("d", true)
      .Key("e")
      .Null()
      .EndObject();
  EXPECT_EQ(json.str(), R"({"a":1.5,"b":"x","c":[1,2],"d":true,"e":null})");
}

TEST(JsonWriter, EscapesSpecials) {
  JsonWriter json;
  json.BeginArray().String("a\"b\\c\nd\te").EndArray();
  EXPECT_EQ(json.str(), "[\"a\\\"b\\\\c\\nd\\te\"]");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter json;
  json.BeginArray();
  for (int i = 0; i < 2; ++i) {
    json.BeginObject().KV("i", static_cast<long long>(i)).EndObject();
  }
  json.EndArray();
  EXPECT_EQ(json.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter a;
  a.BeginObject().EndObject();
  EXPECT_EQ(a.str(), "{}");
  JsonWriter b;
  b.BeginArray().EndArray();
  EXPECT_EQ(b.str(), "[]");
  JsonWriter c;
  c.BeginObject().Key("x").BeginArray().EndArray().EndObject();
  EXPECT_EQ(c.str(), R"({"x":[]})");
}

TEST(JsonParse, Scalars) {
  auto t = JsonValue::Parse("true");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->is_bool());
  EXPECT_TRUE(t->bool_value());
  auto n = JsonValue::Parse(" null ");
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->is_null());
  auto s = JsonValue::Parse(R"("a\"b\nA")");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->string_value(), "a\"b\nA");
  auto num = JsonValue::Parse("-1.5e3");
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(num->number_text(), "-1.5e3");
  EXPECT_DOUBLE_EQ(num->NumberAsDouble(), -1500.0);
}

TEST(JsonParse, IntegersAreExact) {
  auto big = JsonValue::Parse("9223372036854775807");
  ASSERT_TRUE(big.ok());
  auto value = big->NumberAsInt();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, INT64_MAX);
  // Fractions and overflow are rejected, not silently rounded.
  auto frac = JsonValue::Parse("1.5");
  ASSERT_TRUE(frac.ok());
  EXPECT_FALSE(frac->NumberAsInt().ok());
  auto over = JsonValue::Parse("9223372036854775808");
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->NumberAsInt().ok());
}

TEST(JsonParse, ObjectsArraysAndFind) {
  auto doc = JsonValue::Parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":false},"e":null})");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[2].Find("b")->string_value(), "x");
  EXPECT_FALSE(doc->Find("c")->Find("d")->bool_value());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter json;
  json.BeginObject()
      .KV("s", "tricky \"\\\n\t chars")
      .KV("n", 0.1)
      .KV("i", static_cast<long long>(-42))
      .KV("b", false)
      .Key("a")
      .BeginArray()
      .Null()
      .EndArray()
      .EndObject();
  auto doc = JsonValue::Parse(json.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value(), "tricky \"\\\n\t chars");
  EXPECT_DOUBLE_EQ(doc->Find("n")->NumberAsDouble(), 0.1);
  EXPECT_EQ(*doc->Find("i")->NumberAsInt(), -42);
  EXPECT_TRUE(doc->Find("a")->array()[0].is_null());
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", R"({"a")", R"({"a":})", "tru", "01x", "[1] extra",
        R"("unterminated)", R"({"a":1,})", "[,]", "nan",
        // RFC 8259 number grammar: no leading '+', no leading zeros, no
        // bare or trailing decimal point, no hex.
        "[+1]", "[01]", "[.5]", "[1.]", "[1e]", "[0x1p3]"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "input: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Wire hardening: server request bodies are untrusted, so the parser
// enforces RFC 8259 strings in full — escaped control characters only,
// paired surrogates, shortest-form UTF-8.
// ---------------------------------------------------------------------------

TEST(JsonParse, RejectsUnescapedControlCharacters) {
  std::string ctrl = "\"a";
  ctrl += '\x01';
  ctrl += "b\"";
  EXPECT_FALSE(JsonValue::Parse(ctrl).ok());
  std::string nul = "\"a";
  nul += '\0';
  nul += "b\"";
  EXPECT_FALSE(JsonValue::Parse(nul).ok());
  EXPECT_FALSE(JsonValue::Parse("\"line\nbreak\"").ok());
  // The escaped forms of the same characters are fine.
  auto ok = JsonValue::Parse(R"("a\u0001b\nc\u0000")");
  ASSERT_TRUE(ok.ok());
  std::string expected = "a";
  expected += '\x01';
  expected += "b\nc";
  expected += '\0';
  EXPECT_EQ(ok->string_value(), expected);
}

TEST(JsonParse, RejectsInvalidUtf8) {
  for (const char* bad : {
           "\"\x80\"",          // lone continuation byte
           "\"\xC3(\"",         // 2-byte lead without continuation
           "\"\xC0\xAF\"",      // overlong '/' (2 bytes)
           "\"\xC1\x81\"",      // overlong 'A'-range lead
           "\"\xE0\x80\xAF\"",  // overlong (3 bytes)
           "\"\xF0\x80\x80\xAF\"",  // overlong (4 bytes)
           "\"\xED\xA0\x80\"",  // UTF-8-encoded surrogate U+D800
           "\"\xF4\x90\x80\x80\"",  // > U+10FFFF
           "\"\xF5\x80\x80\x80\"",  // invalid lead byte
           "\"\xE2\x82\"",      // truncated at end of string
       }) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParse, AcceptsValidUtf8Verbatim) {
  // 2-, 3- and 4-byte sequences pass through untouched.
  std::string s = "\"\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80\"";
  auto doc = JsonValue::Parse(s);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), s.substr(1, s.size() - 2));
}

TEST(JsonParse, SurrogatePairEscapes) {
  // \uD83D\uDE00 is the surrogate-pair escape of U+1F600, which must
  // come back combined, as 4-byte UTF-8.
  auto pair = JsonValue::Parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->string_value(), "\xF0\x9F\x98\x80");
  // Lone or mispaired surrogate escapes are rejected.
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83D")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uDE00")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83Dx")").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("\uD83DA")").ok());
}

TEST(JsonWriter, EscapesAllControlCharacters) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw += static_cast<char>(c);
  JsonWriter json;
  json.String(raw);
  // Nothing below 0x20 may appear raw in the output...
  for (char c : json.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  // ...and the hardened parser round-trips it back byte-for-byte.
  auto parsed = JsonValue::Parse(json.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), raw);
}

TEST(JsonParse, LenientModeRoundTripsArbitraryWriterBytes) {
  // Program string constants may hold arbitrary bytes (the surface lexer
  // does not restrict them); JsonWriter emits them verbatim, and the
  // shard partial-space import must read back exactly what was written —
  // that is what strict_strings=false exists for.
  std::string raw = "caf";
  raw += '\xE9';  // Latin-1 é: invalid as UTF-8
  raw += '\x80';  // lone continuation byte
  JsonWriter writer;
  writer.BeginObject().KV("s", raw).EndObject();
  EXPECT_FALSE(JsonValue::Parse(writer.str()).ok());  // strict: rejected
  JsonParseOptions lenient;
  lenient.strict_strings = false;
  auto doc = JsonValue::Parse(writer.str(), lenient);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value(), raw);
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  std::string shallow(20, '[');
  shallow += std::string(20, ']');
  EXPECT_TRUE(JsonValue::Parse(shallow).ok());
}

TEST(JsonExport, CoinOutcomeSpace) {
  auto engine = GDatalog::Create(
      "coin(flip<0.5>). :- coin(0).\n"
      "aux1 :- coin(1), not aux2. aux2 :- coin(1), not aux1.",
      "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  JsonExportOptions options;
  options.include_models = true;
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner(), options);
  // Structural spot checks (kept robust to field ordering of maps).
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"num_outcomes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rational\":\"1/2\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("coin(1)"), std::string::npos);
  // Auxiliary Active/Result atoms are stripped from exported models.
  EXPECT_EQ(json.find("\"models\":[[\"__"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonExport, OptionsControlSections) {
  auto engine = GDatalog::Create("c(flip<0.5>).", "");
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());

  JsonExportOptions no_outcomes;
  no_outcomes.include_outcomes = false;
  no_outcomes.include_events = false;
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner(),
                                        no_outcomes);
  EXPECT_EQ(json.find("\"outcomes\""), std::string::npos);
  EXPECT_EQ(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"prob_consistent\""), std::string::npos);
}

TEST(JsonExport, InexactMassesExportNullRational) {
  // Poisson masses are irrational: rational field must be null.
  auto engine = GDatalog::Create("n(poisson<2.0>).", "");
  ASSERT_TRUE(engine.ok());
  ChaseOptions options;
  options.support_limit = 4;
  auto space = engine->Infer(options);
  ASSERT_TRUE(space.ok());
  std::string json = OutcomeSpaceToJson(*space, engine->translated(),
                                        engine->program().interner());
  EXPECT_NE(json.find("\"rational\":null"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
}


// ---------------------------------------------------------------------------
// AnswerIndex: index-rendered bodies against a reference that re-derives
// every answer from Events(), ProbConsistent() and ProbInconsistent().
// ---------------------------------------------------------------------------

/// The export rendered the slow way: masses re-summed per call and the event
/// table read off Events() plus a second map of outcome counts.
std::string ReferenceJson(const OutcomeSpace& space,
                          const TranslatedProgram& translated,
                          const Interner* interner,
                          const JsonExportOptions& options) {
  JsonWriter json;
  json.BeginObject();
  json.KV("complete", space.complete);
  json.KV("num_outcomes", static_cast<long long>(space.outcomes.size()));
  json.Key("finite_mass");
  WriteProbJson(json, space.finite_mass);
  json.Key("residual_mass");
  WriteProbJson(json, space.residual_mass());
  json.Key("prob_consistent");
  WriteProbJson(json, space.ProbConsistent());
  json.Key("prob_inconsistent");
  WriteProbJson(json, space.ProbInconsistent());
  json.KV("depth_truncated_paths",
          static_cast<long long>(space.depth_truncated_paths));
  json.KV("pruned_paths", static_cast<long long>(space.pruned_paths));
  if (options.include_outcomes) {
    json.Key("outcomes").BeginArray();
    for (const PossibleOutcome& outcome : space.outcomes) {
      json.BeginObject();
      json.Key("prob");
      WriteProbJson(json, outcome.prob);
      json.KV("num_models", static_cast<long long>(outcome.models.size()));
      json.Key("choices").BeginArray();
      for (const auto& [active, value] : outcome.choices.entries()) {
        json.BeginObject();
        json.KV("active", active.ToString(interner));
        json.KV("outcome", value.ToString(interner));
        json.EndObject();
      }
      json.EndArray();
      if (options.include_models) {
        json.Key("models").BeginArray();
        for (const StableModel& model : outcome.models) {
          json.BeginArray();
          for (const GroundAtom& atom :
               OutcomeSpace::StripAuxiliary(model, translated)) {
            json.String(atom.ToString(interner));
          }
          json.EndArray();
        }
        json.EndArray();
      }
      json.EndObject();
    }
    json.EndArray();
  }
  if (options.include_events) {
    std::map<StableModelSet, size_t> outcome_counts;
    for (const PossibleOutcome& outcome : space.outcomes) {
      ++outcome_counts[outcome.models];
    }
    json.Key("events").BeginArray();
    for (const auto& [models, mass] : space.Events()) {
      json.BeginObject();
      json.Key("mass");
      WriteProbJson(json, mass);
      json.KV("num_models", static_cast<long long>(models.size()));
      json.KV("num_outcomes", static_cast<long long>(outcome_counts[models]));
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

std::string CliqueDb(int n) {
  std::string db;
  for (int i = 1; i <= n; ++i) db += "router(" + std::to_string(i) + ").\n";
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      if (i != j) {
        db += "connected(" + std::to_string(i) + "," + std::to_string(j) +
              ").\n";
      }
    }
  }
  return db + "infected(1, 1).\n";
}

std::string NetworkProgram(const char* rate) {
  return std::string("infected(Y, flip<") + rate +
         ">[X, Y]) :- infected(X, 1), connected(X, Y).\n"
         "uninfected(X) :- router(X), not infected(X, 1).\n"
         ":- uninfected(X), uninfected(Y), connected(X, Y).\n";
}

struct IndexCase {
  const char* name;
  std::string program;
  std::string db;
};

std::vector<IndexCase> IndexCases() {
  return {
      {"E1 clique-4", NetworkProgram("0.1"), CliqueDb(4)},
      {"E3 dime/quarter",
       "dimetail(X, flip<0.5>[X]) :- dime(X).\n"
       "somedimetail :- dimetail(X, 1).\n"
       "quartertail(X, flip<0.5>[X]) :- quarter(X), not somedimetail.\n",
       "dime(1).\ndime(2).\nquarter(3).\n"},
      // 0.123456789012345 has no exact decimal rational of at most nine
      // places, so every mass is an inexact double. The constraint makes
      // 128 of the 256 outcomes inconsistent, and the order in which their
      // masses are summed shows in the bits of P(inconsistent) and of the
      // empty-model-set event.
      {"inexact coins",
       "coin(X, flip<0.123456789012345>[X]) :- item(X).\n:- coin(1, 1).\n",
       "item(1).\nitem(2).\nitem(3).\nitem(4).\n"
       "item(5).\nitem(6).\nitem(7).\nitem(8).\n"},
  };
}

TEST(AnswerIndex, RenderedBodiesEqualTheEventsReference) {
  for (const IndexCase& c : IndexCases()) {
    SCOPED_TRACE(c.name);
    auto engine = GDatalog::Create(c.program, c.db);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto space = engine->Infer();
    ASSERT_TRUE(space.ok());
    auto shared = std::make_shared<const OutcomeSpace>(std::move(*space));
    AnswerIndex index(shared);
    const Interner* interner = engine->program().interner();

    JsonExportOptions summary;
    summary.include_outcomes = false;
    summary.include_events = false;
    JsonExportOptions events = summary;
    events.include_events = true;
    JsonExportOptions outcomes;
    outcomes.include_outcomes = true;
    outcomes.include_models = true;
    outcomes.include_events = true;
    for (const JsonExportOptions& options : {summary, events, outcomes}) {
      std::string reference =
          ReferenceJson(*shared, engine->translated(), interner, options);
      EXPECT_EQ(OutcomeSpaceToJson(index, engine->translated(), interner,
                                   options),
                reference);
      EXPECT_EQ(OutcomeSpaceToJson(*shared, engine->translated(), interner,
                                   options),
                reference);
    }
    // The rows are Events() in order, with the per-event outcome counts.
    std::map<StableModelSet, Prob> expected = shared->Events();
    ASSERT_EQ(index.events().size(), expected.size());
    size_t i = 0;
    size_t outcomes_seen = 0;
    for (const auto& [models, mass] : expected) {
      const AnswerIndex::EventRow& row = index.events()[i++];
      EXPECT_EQ(row.mass.value(), mass.value());
      EXPECT_EQ(row.mass.exact(), mass.exact());
      EXPECT_EQ(row.num_models, models.size());
      outcomes_seen += row.num_outcomes;
    }
    EXPECT_EQ(outcomes_seen, shared->outcomes.size());
  }
}

TEST(AnswerIndex, InexactCasePinsTheSummationOrder) {
  // Guards the case above: it only pins the order if some inexact event
  // really sums more than one outcome.
  IndexCase c = IndexCases().back();
  auto engine = GDatalog::Create(c.program, c.db);
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  AnswerIndex index(*space);
  EXPECT_FALSE(index.prob_consistent().exact());
  bool summed_inexact = false;
  for (const AnswerIndex::EventRow& row : index.events()) {
    summed_inexact |= row.num_outcomes > 1 && !row.mass.exact();
  }
  EXPECT_TRUE(summed_inexact);
}

TEST(AnswerIndex, ConcurrentFirstEventsReadsBuildTheRowsOnce) {
  IndexCase c = IndexCases().front();
  auto engine = GDatalog::Create(c.program, c.db);
  ASSERT_TRUE(engine.ok());
  auto space = engine->Infer();
  ASSERT_TRUE(space.ok());
  JsonExportOptions events;
  events.include_outcomes = false;
  events.include_events = true;
  const Interner* interner = engine->program().interner();
  const std::string reference =
      ReferenceJson(*space, engine->translated(), interner, events);

  AnswerIndex index(*space);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::string> bodies(kThreads);
  std::vector<const AnswerIndex::EventRow*> rows(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      bodies[t] =
          OutcomeSpaceToJson(index, engine->translated(), interner, events);
      rows[t] = index.events().data();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bodies[t], reference) << "thread " << t;
    EXPECT_EQ(rows[t], rows[0]) << "one row vector, built once";
  }
}

// ---------------------------------------------------------------------------
// The added-fact overlay (AnswerIndex::WithAddedFacts) against the space it
// stands for, materialized by OutcomeSpace::WithAddedFacts.
// ---------------------------------------------------------------------------

std::string BoundsBits(const std::optional<OutcomeSpace::Bounds>& bounds) {
  if (!bounds) return "undefined";
  auto bits = [](const Prob& p) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", p.value());
    return std::string(buf) + (p.exact() ? "=" + p.ToString() : "~");
  };
  return "[" + bits(bounds->lower) + ", " + bits(bounds->upper) + "]";
}

/// Every answer of `overlay` equals the one the index of the materialized
/// space gives: both export bodies, and the plain and conditioned marginals
/// of `atoms`.
void ExpectOverlayMatches(const AnswerIndex& overlay,
                          const OutcomeSpace& materialized,
                          const GDatalog& engine,
                          const std::vector<GroundAtom>& atoms) {
  AnswerIndex reference(materialized);
  JsonExportOptions models;
  models.include_outcomes = true;
  models.include_models = true;
  JsonExportOptions events;
  events.include_events = true;
  for (const JsonExportOptions& options : {models, events}) {
    EXPECT_EQ(OutcomeSpaceToJson(overlay, engine.translated(),
                                 engine.program().interner(), options),
              OutcomeSpaceToJson(reference, engine.translated(),
                                 engine.program().interner(), options));
  }
  for (const GroundAtom& atom : atoms) {
    SCOPED_TRACE(atom.ToString(engine.program().interner()));
    EXPECT_EQ(BoundsBits(overlay.Marginal(atom)),
              BoundsBits(reference.Marginal(atom)));
    EXPECT_EQ(BoundsBits(overlay.MarginalGivenConsistent(atom)),
              BoundsBits(reference.MarginalGivenConsistent(atom)));
  }
}

TEST(AnswerIndexOverlay, ReorderedAndCollapsedModelSets) {
  // Only the interner and Σ_Π matter here: the space below is built by
  // hand over the predicates a < b < c < d.
  auto engine = GDatalog::Create("a. b. c. d.", "");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto atom = [&](const char* text) {
    auto parsed = engine->LookupGroundAtom(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return parsed.ok() ? *parsed : GroundAtom{};
  };
  const GroundAtom a = atom("a"), b = atom("b"), c = atom("c"), d = atom("d");
  OutcomeSpace space;
  auto add = [&](double prob, StableModelSet models) {
    PossibleOutcome& outcome = space.outcomes.emplace_back();
    outcome.prob = Prob::FromDouble(prob);
    outcome.models = std::move(models);
    space.finite_mass = space.finite_mass + outcome.prob;
  };
  // Inexact masses, so the summation order shows in the bits. With d
  // added, [a] < [a, c] flips within the first outcome ([a, c, d] <
  // [a, d]), and {[b]} and {[b, d]} become one event.
  add(0.123456789012345, {{a}, {a, c}});
  add(0.234567890123456, {{b}});
  add(0.111111111111111, {});
  add(0.345678901234567, {{b, d}});
  add(0.185185185185185, {{c}});
  auto shared = std::make_shared<const OutcomeSpace>(space);
  AnswerIndex chased(shared);
  ASSERT_EQ(chased.events().size(), 5u);

  auto overlay = chased.WithAddedFacts({d});
  OutcomeSpace materialized = space.WithAddedFacts({d});
  ExpectOverlayMatches(*overlay, materialized, *engine, {a, b, c, d});
  EXPECT_EQ(overlay->events().size(), 4u) << "the two b events merge";
  EXPECT_EQ(&overlay->space(), shared.get()) << "the space is shared";
  EXPECT_EQ(chased.events().size(), 5u) << "the chased rows are untouched";

  // Without the collapse, the reordered rows are the chased rows re-sorted.
  OutcomeSpace apart = space;
  apart.outcomes[3].models = {{b, c}};
  AnswerIndex chased_apart(apart);
  auto sorted = chased_apart.WithAddedFacts({d});
  ExpectOverlayMatches(*sorted, apart.WithAddedFacts({d}), *engine,
                       {a, b, c, d});
  EXPECT_EQ(sorted->events().size(), 5u);
}

TEST(AnswerIndexOverlay, PrefixRowsFlipOnlyWhenAnAddedAtomFollows) {
  // [b] < [b, d]: adding c keeps the order ([b, c] < [b, c, d]) and the
  // chased rows are read in place; adding e flips it ([b, d, e] < [b, e]).
  auto engine = GDatalog::Create("a. b. c. d. e.", "");
  ASSERT_TRUE(engine.ok());
  auto atom = [&](const char* text) { return *engine->LookupGroundAtom(text); };
  const GroundAtom b = atom("b"), c = atom("c"), d = atom("d"), e = atom("e");
  OutcomeSpace space;
  for (const StableModel& model : {StableModel{b}, StableModel{b, d}}) {
    PossibleOutcome& outcome = space.outcomes.emplace_back();
    outcome.prob = Prob::FromDouble(model.size() == 1 ? 0.3 : 0.7);
    outcome.models = {model};
  }
  space.finite_mass = Prob::One();
  AnswerIndex chased(space);
  const std::vector<GroundAtom> atoms = {b, c, d, e};
  auto before = chased.WithAddedFacts({c});
  ExpectOverlayMatches(*before, space.WithAddedFacts({c}), *engine, atoms);
  EXPECT_EQ(before->events().data(), chased.events().data());
  auto after = chased.WithAddedFacts({e});
  ExpectOverlayMatches(*after, space.WithAddedFacts({e}), *engine, atoms);
  EXPECT_NE(after->events().data(), chased.events().data());
}

TEST(AnswerIndexOverlay, ChainsMergeIntoOneSortedList) {
  auto engine = GDatalog::Create("a. b. c. d.", "");
  ASSERT_TRUE(engine.ok());
  auto atom = [&](const char* text) { return *engine->LookupGroundAtom(text); };
  OutcomeSpace space;
  PossibleOutcome& outcome = space.outcomes.emplace_back();
  outcome.prob = Prob::One();
  outcome.models = {{atom("a")}};
  space.finite_mass = Prob::One();
  AnswerIndex chased(space);
  auto first = chased.WithAddedFacts({atom("d"), atom("b")});
  auto second = first->WithAddedFacts({atom("c"), atom("b")});
  auto none = second->WithAddedFacts({});
  const std::vector<GroundAtom> want = {atom("b"), atom("c"), atom("d")};
  EXPECT_EQ(second->added_facts(), want);
  EXPECT_EQ(&none->added_facts(), &second->added_facts()) << "shared";
  EXPECT_TRUE(chased.added_facts().empty());
  // With nothing reordered, every overlay reads the chased rows in place.
  EXPECT_EQ(second->events().data(), chased.events().data());
  ExpectOverlayMatches(*second,
                       space.WithAddedFacts({atom("d"), atom("b")})
                           .WithAddedFacts({atom("c"), atom("b")}),
                       *engine, {atom("a"), atom("b"), atom("c"), atom("d")});
}

}  // namespace
}  // namespace gdlog
