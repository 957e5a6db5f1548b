#include "gdatalog/export.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "util/json.h"

namespace gdlog {

void WriteProbJson(JsonWriter& json, const Prob& prob) {
  json.BeginObject();
  json.KV("value", prob.value());
  json.Key("rational");
  if (prob.exact()) {
    json.String(prob.ToString());
  } else {
    json.Null();
  }
  json.EndObject();
}

namespace {

// ---------------------------------------------------------------------------
// Lossless partial-space encoding (PartialSpaceToJson / FromJson). Unlike
// the reporting export above, every field must round-trip exactly: rationals
// as numerator/denominator, inexact masses and double constants as hex-float
// strings (%a renders the significand bits verbatim; strtod restores them).
// ---------------------------------------------------------------------------

constexpr const char* kPartialFormat = "gdlog.partial.v1";

std::string HexDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

void WriteExactProb(JsonWriter& json, const Prob& prob) {
  json.BeginObject();
  if (prob.exact()) {
    json.KV("n", static_cast<long long>(prob.rational().numerator()));
    json.KV("d", static_cast<long long>(prob.rational().denominator()));
  } else {
    json.KV("x", HexDouble(prob.value()));
  }
  json.EndObject();
}

void WriteValue(JsonWriter& json, const Value& value,
                const Interner* interner) {
  json.BeginObject();
  switch (value.kind()) {
    case Value::Kind::kBool:
      json.KV("t", "b").KV("v", value.bool_value());
      break;
    case Value::Kind::kInt:
      json.KV("t", "i").KV("v", static_cast<long long>(value.int_value()));
      break;
    case Value::Kind::kDouble:
      json.KV("t", "d").KV("v", HexDouble(value.double_value()));
      break;
    case Value::Kind::kSymbol:
      json.KV("t", "s").KV("v", interner->Name(value.symbol_id()));
      break;
  }
  json.EndObject();
}

void WriteAtom(JsonWriter& json, const GroundAtom& atom,
               const Interner* interner) {
  json.BeginObject();
  json.KV("p", interner->Name(atom.predicate));
  json.Key("a").BeginArray();
  for (const Value& arg : atom.args) WriteValue(json, arg, interner);
  json.EndArray();
  json.EndObject();
}

void WriteChoices(JsonWriter& json, const ChoiceSet& choices,
                  const Interner* interner) {
  json.BeginArray();
  for (const auto& [active, outcome] : choices.entries()) {
    json.BeginObject();
    json.Key("active");
    WriteAtom(json, active, interner);
    json.Key("outcome");
    WriteValue(json, outcome, interner);
    json.EndObject();
  }
  json.EndArray();
}

Status FieldError(const std::string& what) {
  return Status::InvalidArgument("partial space: " + what);
}

Result<size_t> ReadSize(const JsonValue& obj, std::string_view key) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || !field->is_number()) {
    return FieldError("missing numeric field '" + std::string(key) + "'");
  }
  GDLOG_ASSIGN_OR_RETURN(long long value, field->NumberAsInt());
  if (value < 0) return FieldError("negative '" + std::string(key) + "'");
  return static_cast<size_t>(value);
}

/// Parses a full hex-float (or decimal) double; rejects trailing garbage.
Result<double> ParseDouble(const std::string& text) {
  if (text.empty()) return FieldError("empty floating-point literal");
  char* end = nullptr;
  double d = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return FieldError("malformed floating-point literal '" + text + "'");
  }
  return d;
}

Result<Prob> ReadProb(const JsonValue& value) {
  if (!value.is_object()) return FieldError("malformed probability");
  if (const JsonValue* hex = value.Find("x"); hex != nullptr) {
    if (!hex->is_string()) return FieldError("malformed inexact mass");
    GDLOG_ASSIGN_OR_RETURN(double d, ParseDouble(hex->string_value()));
    // A corrupt partial must not smuggle in an out-of-range "probability"
    // that silently skews the merged masses.
    if (!(d >= 0.0) || !(d <= 1.0)) {
      return FieldError("mass outside [0, 1]: " + hex->string_value());
    }
    return Prob(Rational::Approx(d));
  }
  const JsonValue* num = value.Find("n");
  const JsonValue* den = value.Find("d");
  if (num == nullptr || den == nullptr || !num->is_number() ||
      !den->is_number()) {
    return FieldError("malformed rational mass");
  }
  GDLOG_ASSIGN_OR_RETURN(long long n, num->NumberAsInt());
  GDLOG_ASSIGN_OR_RETURN(long long d, den->NumberAsInt());
  if (d <= 0) return FieldError("non-positive denominator");
  if (n < 0 || n > d) return FieldError("rational mass outside [0, 1]");
  return Prob(Rational(n, d));
}

Result<Value> ReadValue(const JsonValue& value, const Interner& interner) {
  const JsonValue* tag = value.is_object() ? value.Find("t") : nullptr;
  const JsonValue* payload = value.is_object() ? value.Find("v") : nullptr;
  if (tag == nullptr || payload == nullptr || !tag->is_string()) {
    return FieldError("malformed constant");
  }
  const std::string& t = tag->string_value();
  if (t == "b") {
    if (!payload->is_bool()) return FieldError("malformed bool constant");
    return Value::Bool(payload->bool_value());
  }
  if (t == "i") {
    if (!payload->is_number()) return FieldError("malformed int constant");
    GDLOG_ASSIGN_OR_RETURN(long long i, payload->NumberAsInt());
    return Value::Int(i);
  }
  if (t == "d") {
    if (!payload->is_string()) return FieldError("malformed double constant");
    GDLOG_ASSIGN_OR_RETURN(double d, ParseDouble(payload->string_value()));
    return Value::Double(d);
  }
  if (t == "s") {
    if (!payload->is_string()) return FieldError("malformed symbol constant");
    uint32_t id = interner.Lookup(payload->string_value());
    if (id == Interner::kNotFound) {
      return FieldError("unknown symbol '" + payload->string_value() +
                        "' (partial produced by a different program?)");
    }
    return Value::Symbol(id);
  }
  return FieldError("unknown constant tag '" + t + "'");
}

Result<GroundAtom> ReadAtom(const JsonValue& value,
                            const Interner& interner) {
  const JsonValue* pred = value.is_object() ? value.Find("p") : nullptr;
  const JsonValue* args = value.is_object() ? value.Find("a") : nullptr;
  if (pred == nullptr || args == nullptr || !pred->is_string() ||
      !args->is_array()) {
    return FieldError("malformed atom");
  }
  GroundAtom atom;
  atom.predicate = interner.Lookup(pred->string_value());
  if (atom.predicate == Interner::kNotFound) {
    return FieldError("unknown predicate '" + pred->string_value() +
                      "' (partial produced by a different program?)");
  }
  atom.args.reserve(args->array().size());
  for (const JsonValue& arg : args->array()) {
    GDLOG_ASSIGN_OR_RETURN(Value v, ReadValue(arg, interner));
    atom.args.push_back(v);
  }
  return atom;
}

Result<ChoiceSet> ReadChoices(const JsonValue& value,
                              const Interner& interner) {
  if (!value.is_array()) return FieldError("malformed choice set");
  ChoiceSet choices;
  for (const JsonValue& entry : value.array()) {
    const JsonValue* active = entry.is_object() ? entry.Find("active")
                                                : nullptr;
    const JsonValue* outcome = entry.is_object() ? entry.Find("outcome")
                                                 : nullptr;
    if (active == nullptr || outcome == nullptr) {
      return FieldError("malformed choice entry");
    }
    GDLOG_ASSIGN_OR_RETURN(GroundAtom atom, ReadAtom(*active, interner));
    GDLOG_ASSIGN_OR_RETURN(Value v, ReadValue(*outcome, interner));
    if (!choices.Assign(atom, v)) {
      return FieldError("functionally inconsistent serialized choice set");
    }
  }
  return choices;
}

}  // namespace

std::string OutcomeSpaceToJson(const AnswerIndex& index,
                               const TranslatedProgram& translated,
                               const Interner* interner,
                               const JsonExportOptions& options) {
  const OutcomeSpace& space = index.space();
  JsonWriter json;
  json.BeginObject();
  json.KV("complete", space.complete);
  json.KV("num_outcomes", static_cast<long long>(space.outcomes.size()));
  json.Key("finite_mass");
  WriteProbJson(json, space.finite_mass);
  json.Key("residual_mass");
  WriteProbJson(json, space.residual_mass());
  json.Key("prob_consistent");
  WriteProbJson(json, index.prob_consistent());
  json.Key("prob_inconsistent");
  WriteProbJson(json, index.prob_inconsistent());
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
    json.Key("events").BeginArray();
    for (const AnswerIndex::EventRow& row : index.events()) {
      json.BeginObject();
      json.Key("mass");
      WriteProbJson(json, row.mass);
      json.KV("num_models", static_cast<long long>(row.num_models));
      json.KV("num_outcomes", static_cast<long long>(row.num_outcomes));
      json.EndObject();
    }
    json.EndArray();
  }

  json.EndObject();
  return json.str();
}

std::string OutcomeSpaceToJson(const OutcomeSpace& space,
                               const TranslatedProgram& translated,
                               const Interner* interner,
                               const JsonExportOptions& options) {
  return OutcomeSpaceToJson(AnswerIndex(space), translated, interner,
                            options);
}

std::string PartialSpaceToJson(const PartialSpace& partial,
                               const ShardPartialMeta& meta,
                               const Interner* interner) {
  JsonWriter json;
  json.BeginObject();
  json.KV("format", kPartialFormat);
  json.KV("num_shards", static_cast<long long>(meta.num_shards));
  json.KV("shard_index", static_cast<long long>(meta.shard_index));
  json.KV("prefix_depth", static_cast<long long>(meta.prefix_depth));
  json.KV("assignment", ShardAssignmentName(meta.assignment));
  json.KV("max_outcomes", static_cast<long long>(meta.max_outcomes));
  json.KV("max_depth", static_cast<long long>(meta.max_depth));
  json.KV("support_limit", static_cast<long long>(meta.support_limit));
  // As a string: a shuffle seed is a full uint64, which a JSON number
  // read back through int64 could not represent.
  json.KV("trigger_shuffle_seed", std::to_string(meta.trigger_shuffle_seed));
  json.KV("min_path_prob", HexDouble(meta.min_path_prob));
  json.KV("budget_hit", partial.budget_hit);
  json.KV("depth_truncated_paths",
          static_cast<long long>(partial.depth_truncated_paths));
  json.KV("pruned_paths", static_cast<long long>(partial.pruned_paths));

  json.Key("outcomes").BeginArray();
  for (const PossibleOutcome& outcome : partial.outcomes) {
    json.BeginObject();
    json.Key("prob");
    WriteExactProb(json, outcome.prob);
    json.Key("choices");
    WriteChoices(json, outcome.choices, interner);
    json.Key("models").BeginArray();
    for (const StableModel& model : outcome.models) {
      json.BeginArray();
      for (const GroundAtom& atom : model) WriteAtom(json, atom, interner);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("truncations").BeginArray();
  for (const auto& [choices, mass] : partial.truncations) {
    json.BeginObject();
    json.Key("choices");
    WriteChoices(json, choices, interner);
    json.Key("mass");
    WriteExactProb(json, mass);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

Result<PartialSpace> PartialSpaceFromJson(std::string_view json_text,
                                          const Interner& interner,
                                          ShardPartialMeta* meta) {
  // Partials come from a JsonWriter in a sibling worker process, which
  // copies symbol-name bytes verbatim — and the surface lexer admits
  // arbitrary bytes in string constants — so strings here must read back
  // exactly as written rather than pass the untrusted-wire UTF-8 checks.
  JsonParseOptions parse_options;
  parse_options.strict_strings = false;
  GDLOG_ASSIGN_OR_RETURN(JsonValue doc,
                         JsonValue::Parse(json_text, parse_options));
  if (!doc.is_object()) return FieldError("document is not an object");
  const JsonValue* format = doc.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->string_value() != kPartialFormat) {
    return FieldError(std::string("expected format '") + kPartialFormat +
                      "'");
  }
  GDLOG_ASSIGN_OR_RETURN(meta->num_shards, ReadSize(doc, "num_shards"));
  GDLOG_ASSIGN_OR_RETURN(meta->shard_index, ReadSize(doc, "shard_index"));
  GDLOG_ASSIGN_OR_RETURN(meta->prefix_depth, ReadSize(doc, "prefix_depth"));
  // Mergers size per-shard bookkeeping by num_shards; an absurd value from
  // a corrupt file must fail here, not as an allocation crash downstream.
  if (meta->num_shards < 1 || meta->num_shards > kMaxShards ||
      meta->shard_index >= meta->num_shards) {
    return FieldError("shard coordinates out of range");
  }
  const JsonValue* assignment = doc.Find("assignment");
  if (assignment == nullptr || !assignment->is_string()) {
    return FieldError("missing 'assignment'");
  }
  {
    auto parsed = ParseShardAssignment(assignment->string_value());
    if (!parsed.ok()) return FieldError("malformed 'assignment'");
    meta->assignment = *parsed;
  }
  GDLOG_ASSIGN_OR_RETURN(meta->max_outcomes, ReadSize(doc, "max_outcomes"));
  GDLOG_ASSIGN_OR_RETURN(meta->max_depth, ReadSize(doc, "max_depth"));
  GDLOG_ASSIGN_OR_RETURN(meta->support_limit, ReadSize(doc, "support_limit"));
  const JsonValue* seed = doc.Find("trigger_shuffle_seed");
  if (seed == nullptr || !seed->is_string()) {
    return FieldError("missing 'trigger_shuffle_seed'");
  }
  {
    const std::string& text = seed->string_value();
    errno = 0;
    char* end = nullptr;
    meta->trigger_shuffle_seed = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || text.empty() ||
        end != text.c_str() + text.size()) {
      return FieldError("malformed 'trigger_shuffle_seed'");
    }
  }
  const JsonValue* min_prob = doc.Find("min_path_prob");
  if (min_prob == nullptr || !min_prob->is_string()) {
    return FieldError("missing 'min_path_prob'");
  }
  GDLOG_ASSIGN_OR_RETURN(meta->min_path_prob,
                         ParseDouble(min_prob->string_value()));

  PartialSpace partial;
  const JsonValue* budget = doc.Find("budget_hit");
  if (budget == nullptr || !budget->is_bool()) {
    return FieldError("missing 'budget_hit'");
  }
  partial.budget_hit = budget->bool_value();
  GDLOG_ASSIGN_OR_RETURN(partial.depth_truncated_paths,
                         ReadSize(doc, "depth_truncated_paths"));
  GDLOG_ASSIGN_OR_RETURN(partial.pruned_paths, ReadSize(doc, "pruned_paths"));

  const JsonValue* outcomes = doc.Find("outcomes");
  if (outcomes == nullptr || !outcomes->is_array()) {
    return FieldError("missing 'outcomes'");
  }
  partial.outcomes.reserve(outcomes->array().size());
  for (const JsonValue& entry : outcomes->array()) {
    if (!entry.is_object()) return FieldError("malformed outcome");
    const JsonValue* prob = entry.Find("prob");
    const JsonValue* choices = entry.Find("choices");
    const JsonValue* models = entry.Find("models");
    if (prob == nullptr || choices == nullptr || models == nullptr ||
        !models->is_array()) {
      return FieldError("malformed outcome");
    }
    PossibleOutcome outcome;
    GDLOG_ASSIGN_OR_RETURN(outcome.prob, ReadProb(*prob));
    GDLOG_ASSIGN_OR_RETURN(outcome.choices, ReadChoices(*choices, interner));
    for (const JsonValue& model_entry : models->array()) {
      if (!model_entry.is_array()) return FieldError("malformed model");
      StableModel model;
      model.reserve(model_entry.array().size());
      for (const JsonValue& atom_entry : model_entry.array()) {
        GDLOG_ASSIGN_OR_RETURN(GroundAtom atom,
                               ReadAtom(atom_entry, interner));
        model.push_back(std::move(atom));
      }
      outcome.models.insert(std::move(model));
    }
    partial.outcomes.push_back(std::move(outcome));
  }

  const JsonValue* truncations = doc.Find("truncations");
  if (truncations == nullptr || !truncations->is_array()) {
    return FieldError("missing 'truncations'");
  }
  partial.truncations.reserve(truncations->array().size());
  for (const JsonValue& entry : truncations->array()) {
    if (!entry.is_object()) return FieldError("malformed truncation");
    const JsonValue* choices = entry.Find("choices");
    const JsonValue* mass = entry.Find("mass");
    if (choices == nullptr || mass == nullptr) {
      return FieldError("malformed truncation");
    }
    GDLOG_ASSIGN_OR_RETURN(ChoiceSet cs, ReadChoices(*choices, interner));
    GDLOG_ASSIGN_OR_RETURN(Prob tail, ReadProb(*mass));
    partial.truncations.emplace_back(std::move(cs), tail);
  }
  return partial;
}

}  // namespace gdlog
