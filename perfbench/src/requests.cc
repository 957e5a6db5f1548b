#include "requests.h"

#include "gdatalog/export.h"
#include "server/http.h"

namespace perfbench {

std::string RegisterBody(const std::string& program, const std::string& db) {
  gdlog::JsonWriter json;
  json.BeginObject().KV("program", program).KV("db", db).EndObject();
  return json.str();
}

std::string QueryBody(const std::string& id, uint64_t shuffle_seed,
                      bool include_events,
                      const std::vector<std::string>& queries) {
  gdlog::JsonWriter json;
  json.BeginObject().KV("program_id", id);
  if (shuffle_seed != 0) {
    json.Key("options").BeginObject();
    json.KV("trigger_shuffle_seed", static_cast<long long>(shuffle_seed));
    json.EndObject();
  }
  if (include_events) json.KV("include_events", true);
  if (!queries.empty()) {
    json.Key("queries").BeginArray();
    for (const std::string& q : queries) json.String(q);
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

std::string PatchBody(const std::string& facts) {
  gdlog::JsonWriter json;
  json.BeginObject().KV("delta", facts).EndObject();
  return json.str();
}

std::string JobBody(const std::string& id, size_t shards,
                    uint64_t shuffle_seed) {
  gdlog::JsonWriter json;
  json.BeginObject().KV("program_id", id);
  json.KV("shards", static_cast<long long>(shards));
  json.Key("options").BeginObject();
  json.KV("trigger_shuffle_seed", static_cast<long long>(shuffle_seed));
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string ProgramId(const std::string& response_body) {
  auto doc = gdlog::JsonValue::Parse(response_body);
  if (!doc.ok()) return "";
  const gdlog::JsonValue* id = doc->Find("id");
  return id != nullptr && id->is_string() ? id->string_value() : "";
}

std::string ExpectedQueryBody(const gdlog::GDatalog& engine,
                              const gdlog::OutcomeSpace& space,
                              bool include_events) {
  gdlog::JsonExportOptions options;
  options.include_outcomes = false;
  options.include_events = include_events;
  return gdlog::OutcomeSpaceToJson(space, engine.translated(),
                                   engine.program().interner(), options) +
         "\n";
}

MarginalsExpectation ExpectMarginals(const gdlog::GDatalog& engine,
                                     const gdlog::OutcomeSpace& space,
                                     const std::vector<std::string>& queries) {
  MarginalsExpectation out;
  out.queries = queries;
  out.prob_consistent = space.ProbConsistent().rational().ToString();
  for (const std::string& q : queries) {
    auto atom = engine.LookupGroundAtom(q);
    gdlog::OutcomeSpace::Bounds bounds;
    if (atom.ok()) bounds = space.Marginal(*atom);
    out.lower.push_back(bounds.lower.rational().ToString());
    out.upper.push_back(bounds.upper.rational().ToString());
  }
  return out;
}

namespace {

std::string Rational(const gdlog::JsonValue* prob) {
  const gdlog::JsonValue* r =
      prob != nullptr ? prob->Find("rational") : nullptr;
  return r != nullptr && r->is_string() ? r->string_value() : "?";
}

}  // namespace

bool MarginalsMatch(const std::string& response_body,
                    const MarginalsExpectation& expected) {
  auto doc = gdlog::JsonValue::Parse(response_body);
  if (!doc.ok()) return false;
  if (Rational(doc->Find("prob_consistent")) != expected.prob_consistent) {
    return false;
  }
  const gdlog::JsonValue* marginals = doc->Find("marginals");
  if (marginals == nullptr || !marginals->is_array() ||
      marginals->array().size() != expected.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < expected.queries.size(); ++i) {
    const gdlog::JsonValue& m = marginals->array()[i];
    const gdlog::JsonValue* atom = m.Find("atom");
    if (atom == nullptr || !atom->is_string() ||
        atom->string_value() != expected.queries[i] ||
        Rational(m.Find("lower")) != expected.lower[i] ||
        Rational(m.Find("upper")) != expected.upper[i]) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> QueryAtoms(const gdlog::GDatalog& engine,
                                    const gdlog::OutcomeSpace& space,
                                    size_t count) {
  std::vector<std::string> atoms;
  for (const gdlog::PossibleOutcome& outcome : space.outcomes) {
    for (const gdlog::StableModel& model : outcome.models) {
      gdlog::StableModel user =
          gdlog::OutcomeSpace::StripAuxiliary(model, engine.translated());
      for (size_t i = 0; i < user.size() && atoms.size() < count; ++i) {
        atoms.push_back(user[user.size() - 1 - i].ToString(
            engine.program().interner()));
      }
      if (!atoms.empty()) return atoms;
    }
  }
  return atoms;
}

std::optional<gdlog::JsonValue> FetchStats(int port) {
  auto client = gdlog::HttpClient::Connect("127.0.0.1", port, 10'000);
  if (!client.ok()) return std::nullopt;
  auto response = client->Request("GET", "/v1/stats");
  if (!response.ok() || response->status != 200) return std::nullopt;
  auto doc = gdlog::JsonValue::Parse(response->body);
  if (!doc.ok()) return std::nullopt;
  return std::move(*doc);
}

double StatsCounter(const gdlog::JsonValue& stats, const char* section,
                    const char* key) {
  const gdlog::JsonValue* s = stats.Find(section);
  const gdlog::JsonValue* v = s != nullptr ? s->Find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->NumberAsDouble() : 0.0;
}

}  // namespace perfbench
