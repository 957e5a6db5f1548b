#include "gdatalog/export.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <numeric>
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
// Each distinct ground atom is written once, in an atom table; models,
// the base they share and choice entries name atoms by table index.
// ---------------------------------------------------------------------------

constexpr const char* kPartialFormat = "gdlog.partial.v2";
/// The one shard placement (AssignTasksToShards). Every partial names it,
/// so a reader can refuse one planned under another policy.
constexpr const char* kPartialAssignment = "weighted";

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

/// The atoms of one partial as the v2 encoding names them: every distinct
/// atom the partial mentions, indexed in ascending atom order, and the base,
/// the atoms in every model of the partial.
///
/// A StableModel is sorted, so one forward walk over the table finds a
/// model's atoms; models mostly repeat atoms already in the table, which
/// only grows for the few that do not. Nothing is hashed.
class PartialAtoms {
 public:
  explicit PartialAtoms(const PartialSpace& partial) {
    size_t num_models = 0;
    for (const PossibleOutcome& outcome : partial.outcomes) {
      for (const auto& entry : outcome.choices.entries()) Add(entry.first);
      for (const StableModel& model : outcome.models) {
        AddModel(model);
        ++num_models;
      }
    }
    for (const auto& truncation : partial.truncations) {
      for (const auto& entry : truncation.first.entries()) Add(entry.first);
    }
    std::vector<size_t> models_holding(atoms_.size());
    for (const PossibleOutcome& outcome : partial.outcomes) {
      for (const StableModel& model : outcome.models) {
        uint32_t at = 0;
        for (const GroundAtom& atom : model) {
          at = Find(atom, at);
          model_atoms_.push_back(at);
          ++models_holding[at];
        }
      }
    }
    in_base_.resize(atoms_.size());
    for (uint32_t index = 0; index < atoms_.size(); ++index) {
      in_base_[index] = num_models > 0 && models_holding[index] == num_models;
      if (in_base_[index]) base_.push_back(index);
    }
  }

  /// The table, in index order.
  const std::vector<const GroundAtom*>& atoms() const { return atoms_; }
  const std::vector<uint32_t>& base() const { return base_; }

  uint32_t Index(const GroundAtom& atom) const {
    return static_cast<uint32_t>(LowerBound(atom) - atoms_.begin());
  }

  /// Writes the non-base indices of each model in turn, in the order the
  /// constructor visited them: outcome by outcome, model by model.
  void WriteModels(JsonWriter& json, const StableModelSet& models) {
    json.BeginArray();
    for (const StableModel& model : models) {
      json.BeginArray();
      for (size_t i = 0; i < model.size(); ++i) {
        const uint32_t index = model_atoms_[next_model_atom_++];
        if (!in_base_[index]) json.Int(index);
      }
      json.EndArray();
    }
    json.EndArray();
  }

 private:
  std::vector<const GroundAtom*>::const_iterator LowerBound(
      const GroundAtom& atom) const {
    return std::lower_bound(
        atoms_.begin(), atoms_.end(), &atom,
        [](const GroundAtom* a, const GroundAtom* b) { return *a < *b; });
  }

  void Add(const GroundAtom& atom) {
    auto it = LowerBound(atom);
    if (it == atoms_.end() || !(**it == atom)) atoms_.insert(it, &atom);
  }

  void AddModel(const StableModel& model) {
    uint32_t at = 0;
    for (const GroundAtom& atom : model) {
      while (at < atoms_.size() && !(*atoms_[at] == atom)) ++at;
      if (at == atoms_.size()) {
        for (const GroundAtom& each : model) Add(each);
        return;
      }
      ++at;
    }
  }

  /// The index of a table atom, scanning forward from `from`: a sorted
  /// model's atoms come in table order. AddModel put every model atom in
  /// the table, so only an unsorted model needs the second scan.
  uint32_t Find(const GroundAtom& atom, uint32_t from) const {
    for (uint32_t index = from; index < atoms_.size(); ++index) {
      if (*atoms_[index] == atom) return index;
    }
    return from == 0 ? 0 : Find(atom, 0);
  }

  std::vector<const GroundAtom*> atoms_;
  /// By table index.
  std::vector<bool> in_base_;
  std::vector<uint32_t> base_;
  /// Every model atom's table index, in visiting order.
  std::vector<uint32_t> model_atoms_;
  size_t next_model_atom_ = 0;
};

void WriteChoices(JsonWriter& json, const ChoiceSet& choices,
                  const PartialAtoms& table, const Interner* interner) {
  json.BeginArray();
  for (const auto& [active, outcome] : choices.entries()) {
    json.BeginObject();
    json.KV("active", static_cast<long long>(table.Index(active)));
    json.Key("outcome");
    WriteValue(json, outcome, interner);
    json.EndObject();
  }
  json.EndArray();
}

Status FieldError(const std::string& what) {
  return Status::InvalidArgument("partial space: " + what);
}

/// A member value read before the member that says how to take it: a
/// constant's "v" may precede its "t". A container is skipped and only its
/// kind kept, which every use rejects.
struct Scalar {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  bool flag = false;
  /// A number's source text, or a string's payload.
  std::string_view text;
};

/// Reads the PartialSpaceToJson grammar straight off a JsonReader into a
/// PartialSpace, with no JSON tree in between. Members may come in any
/// order; each is taken at its first occurrence, as JsonValue::Find would,
/// and repeats and unknown members are skipped (their syntax still
/// checked). Names resolve against `interner` by lookup only.
///
/// Schema errors go through the reader's sticky status (Fail), so the first
/// error of either kind is the one reported, and every read after it is an
/// empty no-op: the functions below just return a default value once the
/// reader has failed.
class PartialReader {
 public:
  PartialReader(std::string_view text, const Interner& interner)
      : reader_(text, LenientStrings()), interner_(interner) {}

  Result<PartialSpace> Read(ShardPartialMeta* meta) {
    enum Field {
      kFormat, kNumShards, kShardIndex, kPrefixDepth, kAssignment,
      kMaxOutcomes, kMaxDepth, kSupportLimit, kSeed, kMinPathProb,
      kBudgetHit, kDepthTruncated, kPruned, kAtoms, kBase, kOutcomes,
      kTruncations,
    };
    const std::initializer_list<std::string_view> names = {
        "format", "num_shards", "shard_index", "prefix_depth", "assignment",
        "max_outcomes", "max_depth", "support_limit", "trigger_shuffle_seed",
        "min_path_prob", "budget_hit", "depth_truncated_paths",
        "pruned_paths", "atoms", "base", "outcomes", "truncations"};
    PartialSpace partial;
    uint32_t seen = ReadFields("document", names, [&](size_t field) {
      switch (field) {
        case kFormat: {
          std::string_view format =
              ReadScalar(JsonValue::Kind::kString, "format").text;
          if (format != kPartialFormat) {
            Fail(std::string("expected format '") + kPartialFormat +
                 "', got '" + std::string(format) + "'");
          }
          return;
        }
        case kNumShards:
          return ReadSize("num_shards", &meta->num_shards);
        case kShardIndex:
          return ReadSize("shard_index", &meta->shard_index);
        case kPrefixDepth:
          return ReadSize("prefix_depth", &meta->prefix_depth);
        case kAssignment: {
          // Placement is always mass-weighted. A partial planned under
          // another policy (an older build's round-robin) covers other
          // tasks per shard index and must never merge with these.
          std::string_view assignment =
              ReadScalar(JsonValue::Kind::kString, "assignment").text;
          if (assignment != kPartialAssignment) {
            Fail(std::string("expected assignment '") + kPartialAssignment +
                 "', got '" + std::string(assignment) + "'");
          }
          return;
        }
        case kMaxOutcomes:
          return ReadSize("max_outcomes", &meta->max_outcomes);
        case kMaxDepth:
          return ReadSize("max_depth", &meta->max_depth);
        case kSupportLimit:
          return ReadSize("support_limit", &meta->support_limit);
        case kSeed:
          return ReadSeed(&meta->trigger_shuffle_seed);
        case kMinPathProb:
          meta->min_path_prob = ParseDouble(
              ReadScalar(JsonValue::Kind::kString, "min_path_prob").text);
          return;
        case kBudgetHit:
          partial.budget_hit =
              ReadScalar(JsonValue::Kind::kBool, "budget_hit").flag;
          return;
        case kDepthTruncated:
          return ReadSize("depth_truncated_paths",
                          &partial.depth_truncated_paths);
        case kPruned:
          return ReadSize("pruned_paths", &partial.pruned_paths);
        case kAtoms:
          return ReadArray("missing 'atoms'",
                           [&] { table_.push_back(ReadAtom()); });
        case kBase:
          return ReadArray("missing 'base'",
                           [&] { base_.push_back(ReadIndex()); });
        case kOutcomes:
          return ReadArray("missing 'outcomes'", [&] { ReadOutcome(); });
        case kTruncations:
          return ReadArray("missing 'truncations'", [&] { ReadTruncation(); });
      }
    });
    reader_.Finish();
    for (size_t field = 0; field < names.size(); ++field) {
      if ((seen & (1u << field)) == 0) {
        Fail("missing '" + std::string(names.begin()[field]) + "'");
      }
    }
    // Mergers size per-shard bookkeeping by num_shards; an absurd value
    // from a corrupt file must fail here, not as an allocation crash
    // downstream.
    if (meta->num_shards < 1 || meta->num_shards > kMaxShards ||
        meta->shard_index >= meta->num_shards) {
      Fail("shard coordinates out of range");
    }
    // Indices resolve only now: the table may come after its uses.
    if (reader_.ok()) Resolve(&partial);
    if (!reader_.ok()) return reader_.status();
    return partial;
  }

 private:
  /// Positions [begin, end) of one of the flat vectors at the end.
  struct Run {
    size_t begin = 0;
    size_t end = 0;
  };

  // Partials come from a JsonWriter in a sibling worker process, which
  // copies symbol-name bytes verbatim — and the surface lexer admits
  // arbitrary bytes in string constants — so strings here must read back
  // exactly as written rather than pass the untrusted-wire UTF-8 checks.
  static JsonParseOptions LenientStrings() {
    JsonParseOptions options;
    options.strict_strings = false;
    return options;
  }

  void Fail(const std::string& what) { reader_.Fail(FieldError(what)); }

  /// Walks the object at the cursor: calls `on_field(i)` to consume the
  /// value of the first member named `names[i]`, skips every other member,
  /// and returns the set of fields seen (bit i for names[i]). `what` names
  /// the object in the error when the value is not one.
  template <typename OnField>
  uint32_t ReadFields(const char* what,
                      std::initializer_list<std::string_view> names,
                      OnField&& on_field) {
    uint32_t seen = 0;
    if (reader_.Peek() != JsonValue::Kind::kObject) {
      Fail(std::string("malformed ") + what);
      return seen;
    }
    std::string key_scratch;
    for (bool more = reader_.BeginObject(); more;
         more = reader_.NextMember()) {
      std::string_view key = reader_.ReadKey(&key_scratch);
      size_t field = static_cast<size_t>(
          std::find(names.begin(), names.end(), key) - names.begin());
      uint32_t bit = field < names.size() ? 1u << field : 0;
      if (bit != 0 && (seen & bit) == 0) {
        seen |= bit;
        on_field(field);
      } else {
        reader_.Skip();
      }
    }
    return seen;
  }

  /// Calls `on_element()` to consume each element of the array at the
  /// cursor; `error` is the message when the value is not an array.
  template <typename OnElement>
  void ReadArray(const char* error, OnElement&& on_element) {
    if (reader_.Peek() != JsonValue::Kind::kArray) return Fail(error);
    for (bool more = reader_.BeginArray(); more;
         more = reader_.NextElement()) {
      on_element();
    }
  }

  /// Any scalar; a string with escapes is decoded into `*scratch`.
  Scalar ReadScalar(std::string* scratch) {
    Scalar scalar;
    scalar.kind = reader_.Peek();
    if (scalar.kind == JsonValue::Kind::kString) {
      scalar.text = reader_.ReadString(scratch);
    } else if (scalar.kind == JsonValue::Kind::kNumber) {
      scalar.text = reader_.ReadNumber();
    } else if (scalar.kind == JsonValue::Kind::kBool) {
      scalar.flag = reader_.ReadBool();
    } else {
      reader_.Skip();
    }
    return scalar;
  }

  /// A scalar of kind `kind`, used before the next read; anything else
  /// fails as a missing `key`.
  Scalar ReadScalar(JsonValue::Kind kind, const char* key) {
    Scalar scalar = ReadScalar(&scratch_);
    if (scalar.kind != kind) Fail(std::string("missing '") + key + "'");
    return scalar;
  }

  long long ToInt(std::string_view text) {
    Result<long long> value = JsonNumberToInt(text);
    if (value.ok()) return *value;
    reader_.Fail(value.status());
    return 0;
  }

  /// Parses a full hex-float (or decimal) double; rejects trailing garbage.
  double ParseDouble(std::string_view text) {
    if (text.empty()) {
      Fail("empty floating-point literal");
      return 0;
    }
    const std::string terminated(text);
    char* end = nullptr;
    double d = std::strtod(terminated.c_str(), &end);
    if (end != terminated.c_str() + terminated.size()) {
      Fail("malformed floating-point literal '" + terminated + "'");
    }
    return d;
  }

  void ReadSize(const char* key, size_t* out) {
    long long value = ToInt(ReadScalar(JsonValue::Kind::kNumber, key).text);
    if (value < 0) return Fail(std::string("negative '") + key + "'");
    *out = static_cast<size_t>(value);
  }

  /// The shuffle seed travels as a decimal string: a full uint64, which a
  /// JSON number read back through int64 could not represent.
  void ReadSeed(uint64_t* out) {
    const std::string text(
        ReadScalar(JsonValue::Kind::kString, "trigger_shuffle_seed").text);
    errno = 0;
    char* end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || text.empty() ||
        end != text.c_str() + text.size()) {
      Fail("malformed 'trigger_shuffle_seed'");
    }
  }

  Prob ReadProb() {
    enum { kHex, kNum, kDen };
    Scalar scalars[3];
    std::string hex_scratch;
    uint32_t seen =
        ReadFields("probability", {"x", "n", "d"}, [&](size_t field) {
          scalars[field] =
              ReadScalar(field == kHex ? &hex_scratch : &scratch_);
        });
    if ((seen & (1u << kHex)) != 0) {
      const Scalar& hex = scalars[kHex];
      if (hex.kind != JsonValue::Kind::kString) {
        Fail("malformed inexact mass");
        return Prob();
      }
      double d = ParseDouble(hex.text);
      // A corrupt partial must not smuggle in an out-of-range
      // "probability" that silently skews the merged masses.
      if (!(d >= 0.0) || !(d <= 1.0)) {
        Fail("mass outside [0, 1]: " + std::string(hex.text));
        return Prob();
      }
      return Prob(Rational::Approx(d));
    }
    // An absent member keeps kind kNull, so this also rejects a missing one.
    if (scalars[kNum].kind != JsonValue::Kind::kNumber ||
        scalars[kDen].kind != JsonValue::Kind::kNumber) {
      Fail("malformed rational mass");
      return Prob();
    }
    long long n = ToInt(scalars[kNum].text);
    long long d = ToInt(scalars[kDen].text);
    if (!reader_.ok()) return Prob();
    if (d <= 0) {
      Fail("non-positive denominator");
      return Prob();
    }
    if (n < 0 || n > d) {
      Fail("rational mass outside [0, 1]");
      return Prob();
    }
    return Prob(Rational(n, d));
  }

  Value ReadValue() {
    enum { kTag, kPayload };
    Scalar tag, payload;
    std::string tag_scratch, payload_scratch;
    ReadFields("constant", {"t", "v"}, [&](size_t field) {
      if (field == kTag) {
        tag = ReadScalar(&tag_scratch);
      } else {
        payload = ReadScalar(&payload_scratch);
      }
    });
    if (tag.kind != JsonValue::Kind::kString) {
      Fail("malformed constant");
      return Value();
    }
    const std::string_view t = tag.text;
    if (t == "b") {
      if (payload.kind == JsonValue::Kind::kBool) {
        return Value::Bool(payload.flag);
      }
      Fail("malformed bool constant");
    } else if (t == "i") {
      if (payload.kind == JsonValue::Kind::kNumber) {
        return Value::Int(ToInt(payload.text));
      }
      Fail("malformed int constant");
    } else if (t == "d") {
      if (payload.kind == JsonValue::Kind::kString) {
        return Value::Double(ParseDouble(payload.text));
      }
      Fail("malformed double constant");
    } else if (t == "s") {
      if (payload.kind == JsonValue::Kind::kString) {
        uint32_t id = interner_.Lookup(payload.text);
        if (id != Interner::kNotFound) return Value::Symbol(id);
        Fail("unknown symbol '" + std::string(payload.text) +
             "' (partial produced by a different program?)");
      } else {
        Fail("malformed symbol constant");
      }
    } else {
      Fail("unknown constant tag '" + std::string(t) + "'");
    }
    return Value();
  }

  GroundAtom ReadAtom() {
    enum { kPred, kArgs };
    GroundAtom atom;
    uint32_t seen = ReadFields("atom", {"p", "a"}, [&](size_t field) {
      if (field == kArgs) {
        // Collected in a reused buffer so the atom allocates its
        // arguments once, at their exact count.
        args_.clear();
        ReadArray("malformed atom", [&] { args_.push_back(ReadValue()); });
        atom.args.assign(args_.begin(), args_.end());
        return;
      }
      Scalar name = ReadScalar(&scratch_);
      if (name.kind != JsonValue::Kind::kString) return Fail("malformed atom");
      // The table lists its atoms grouped by predicate, so the last name
      // resolved is usually the next one.
      if (name.text != last_predicate_) {
        last_predicate_.assign(name.text);
        last_predicate_id_ = interner_.Lookup(name.text);
      }
      atom.predicate = last_predicate_id_;
      if (atom.predicate == Interner::kNotFound) {
        Fail("unknown predicate '" + std::string(name.text) +
             "' (partial produced by a different program?)");
      }
    });
    if (seen != 0b11) Fail("malformed atom");
    return atom;
  }

  /// An atom table index; whether it is in range is known only once the
  /// table has been read.
  uint32_t ReadIndex() {
    Scalar index = ReadScalar(&scratch_);
    if (index.kind != JsonValue::Kind::kNumber) {
      Fail("malformed atom index");
      return 0;
    }
    long long value = ToInt(index.text);
    if (value < 0 || value > static_cast<long long>(UINT32_MAX)) {
      Fail("atom index " + std::string(index.text) + " out of range");
      return 0;
    }
    return static_cast<uint32_t>(value);
  }

  /// Reads a choice set into choice_entries_ and returns its run there.
  Run ReadChoices() {
    Run choices{choice_entries_.size(), 0};
    ReadArray("malformed choice set", [&] {
      enum { kActive, kOutcome };
      uint32_t active = 0;
      Value outcome;
      uint32_t seen = ReadFields("choice entry", {"active", "outcome"},
                                 [&](size_t field) {
                                   if (field == kActive) {
                                     active = ReadIndex();
                                   } else {
                                     outcome = ReadValue();
                                   }
                                 });
      if (seen != 0b11) return Fail("malformed choice entry");
      choice_entries_.emplace_back(active, outcome);
    });
    choices.end = choice_entries_.size();
    return choices;
  }

  void ReadOutcome() {
    enum { kProb, kChoices, kModels };
    PendingOutcome outcome;
    uint32_t seen = ReadFields(
        "outcome", {"prob", "choices", "models"}, [&](size_t field) {
          if (field == kProb) {
            outcome.prob = ReadProb();
          } else if (field == kChoices) {
            outcome.choices = ReadChoices();
          } else {
            outcome.models.begin = models_.size();
            ReadArray("malformed outcome", [&] {
              Run model{model_indices_.size(), 0};
              ReadArray("malformed model", [&] {
                model_indices_.push_back(ReadIndex());
              });
              model.end = model_indices_.size();
              models_.push_back(model);
            });
            outcome.models.end = models_.size();
          }
        });
    if (seen != 0b111) Fail("malformed outcome");
    outcomes_.push_back(std::move(outcome));
  }

  void ReadTruncation() {
    enum { kChoices, kMass };
    PendingTruncation truncation;
    uint32_t seen =
        ReadFields("truncation", {"choices", "mass"}, [&](size_t field) {
          if (field == kChoices) {
            truncation.choices = ReadChoices();
          } else {
            truncation.mass = ReadProb();
          }
        });
    if (seen != 0b11) return Fail("malformed truncation");
    truncations_.push_back(std::move(truncation));
  }

  // --- Resolution: from table indices to this process's atoms. ----------

  /// Sorts the table under local ids: atoms_[rank_[i]] is table entry i.
  /// The sender sorted it under its own ids, which order the atoms as the
  /// local ones do unless the two processes interned names in a different
  /// order (a database delta interns its new names after the program's on
  /// the coordinator, before them on a worker that parsed D whole).
  bool RankTable() {
    const size_t size = table_.size();
    std::vector<uint32_t> order(size);
    std::iota(order.begin(), order.end(), 0u);
    in_order_ = std::is_sorted(table_.begin(), table_.end());
    if (!in_order_) {
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return table_[a] < table_[b];
      });
    }
    for (size_t i = 1; i < size; ++i) {
      if (table_[order[i - 1]] == table_[order[i]]) {
        Fail("atom table repeats " +
             table_[order[i]].ToString(&interner_));
        return false;
      }
    }
    rank_.resize(size);
    atoms_.reserve(size);
    for (uint32_t position = 0; position < size; ++position) {
      rank_[order[position]] = position;
      atoms_.push_back(std::move(table_[order[position]]));
    }
    return true;
  }

  bool CheckIndex(uint32_t index, const char* where) {
    if (index < atoms_.size()) return true;
    Fail("atom index " + std::to_string(index) + " in " + where +
         " out of range (the table has " + std::to_string(atoms_.size()) +
         " atoms)");
    return false;
  }

  /// Validates the base: strictly ascending indices, and none without a
  /// model to be the base of.
  bool CheckBase() {
    in_base_.assign(atoms_.size(), false);
    for (size_t i = 0; i < base_.size(); ++i) {
      if (!CheckIndex(base_[i], "'base'")) return false;
      if (i > 0 && base_[i - 1] >= base_[i]) {
        Fail("'base' indices are not strictly ascending");
        return false;
      }
      in_base_[base_[i]] = true;
    }
    if (!base_.empty() && models_.empty()) {
      Fail("'base' lists atoms but the partial has no model");
      return false;
    }
    return true;
  }

  /// A model is the base plus its own list: strictly ascending indices,
  /// none of them in the base.
  bool Materialise(Run run, StableModel* model) {
    const uint32_t* list = model_indices_.data() + run.begin;
    const size_t size = run.end - run.begin;
    for (size_t i = 0; i < size; ++i) {
      if (!CheckIndex(list[i], "a model")) return false;
      if (i > 0 && list[i - 1] >= list[i]) {
        Fail("model indices are not strictly ascending");
        return false;
      }
      if (in_base_[list[i]]) {
        Fail("a model lists base atom " + std::to_string(list[i]));
        return false;
      }
    }
    merged_.clear();
    std::merge(base_.begin(), base_.end(), list, list + size,
               std::back_inserter(merged_));
    for (uint32_t& index : merged_) index = rank_[index];
    if (!in_order_) std::sort(merged_.begin(), merged_.end());
    model->reserve(merged_.size());
    for (uint32_t position : merged_) model->push_back(atoms_[position]);
    return true;
  }

  bool ResolveChoices(Run run, const char* where, ChoiceSet* choices) {
    for (size_t i = run.begin; i < run.end; ++i) {
      const auto& [index, outcome] = choice_entries_[i];
      if (!CheckIndex(index, where)) return false;
      if (!choices->Assign(atoms_[rank_[index]], outcome)) {
        Fail("functionally inconsistent serialized choice set");
        return false;
      }
    }
    return true;
  }

  /// Fills `partial` from the pending outcomes and truncations; stops at
  /// the first error.
  void Resolve(PartialSpace* partial) {
    if (!RankTable() || !CheckBase()) return;
    partial->outcomes.reserve(outcomes_.size());
    for (const PendingOutcome& pending : outcomes_) {
      PossibleOutcome outcome;
      outcome.prob = pending.prob;
      if (!ResolveChoices(pending.choices, "a choice", &outcome.choices)) {
        return;
      }
      for (size_t i = pending.models.begin; i < pending.models.end; ++i) {
        StableModel model;
        if (!Materialise(models_[i], &model)) return;
        const size_t size = outcome.models.size();
        // The sender's model order is the local one unless the table was
        // re-ranked, so its end is the usual hint.
        outcome.models.insert(outcome.models.end(), std::move(model));
        if (outcome.models.size() == size) {
          Fail("an outcome repeats a model");
          return;
        }
      }
      partial->outcomes.push_back(std::move(outcome));
    }
    partial->truncations.reserve(truncations_.size());
    for (const PendingTruncation& pending : truncations_) {
      ChoiceSet choices;
      if (!ResolveChoices(pending.choices, "a truncation", &choices)) return;
      partial->truncations.emplace_back(std::move(choices), pending.mass);
    }
  }

  struct PendingOutcome {
    Prob prob;
    Run choices;  ///< Of choice_entries_.
    Run models;   ///< Of models_.
  };
  struct PendingTruncation {
    Run choices;
    Prob mass;
  };

  JsonReader reader_;
  const Interner& interner_;
  /// As read, in the sender's order.
  std::vector<GroundAtom> table_;
  std::vector<uint32_t> base_;
  std::vector<PendingOutcome> outcomes_;
  std::vector<PendingTruncation> truncations_;
  /// Every choice entry of the document as read: the table index of its
  /// Active atom, and its outcome.
  std::vector<std::pair<uint32_t, Value>> choice_entries_;
  /// Every model's run of model_indices_: its non-base table indices.
  std::vector<Run> models_;
  std::vector<uint32_t> model_indices_;
  /// The table in local order, and each table index's position in it.
  std::vector<GroundAtom> atoms_;
  std::vector<uint32_t> rank_;
  /// True iff rank_ is the identity.
  bool in_order_ = true;
  /// By table index.
  std::vector<bool> in_base_;
  /// One model's positions in atoms_, reused across models.
  std::vector<uint32_t> merged_;
  /// Decodes escaped strings that are used before the next read.
  std::string scratch_;
  std::vector<Value> args_;
  std::string last_predicate_;
  uint32_t last_predicate_id_ = Interner::kNotFound;
};

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
        // Each model as the index reads it (with any facts added since the
        // chase merged in), modulo the Active/Result bookkeeping atoms.
        json.Key("models").BeginArray();
        index.ForEachModel(outcome.models, [&](const StableModel& model) {
          json.BeginArray();
          index.ForEachAtom(model, [&](const GroundAtom& atom) {
            if (!translated.IsActivePredicate(atom.predicate) &&
                !translated.IsResultPredicate(atom.predicate)) {
              json.String(atom.ToString(interner));
            }
          });
          json.EndArray();
        });
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
  json.KV("assignment", kPartialAssignment);
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

  PartialAtoms table(partial);
  json.Key("atoms").BeginArray();
  for (const GroundAtom* atom : table.atoms()) {
    WriteAtom(json, *atom, interner);
  }
  json.EndArray();
  json.Key("base").BeginArray();
  for (uint32_t index : table.base()) json.Int(index);
  json.EndArray();

  json.Key("outcomes").BeginArray();
  for (const PossibleOutcome& outcome : partial.outcomes) {
    json.BeginObject();
    json.Key("prob");
    WriteExactProb(json, outcome.prob);
    json.Key("choices");
    WriteChoices(json, outcome.choices, table, interner);
    json.Key("models");
    table.WriteModels(json, outcome.models);
    json.EndObject();
  }
  json.EndArray();

  json.Key("truncations").BeginArray();
  for (const auto& [choices, mass] : partial.truncations) {
    json.BeginObject();
    json.Key("choices");
    WriteChoices(json, choices, table, interner);
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
  return PartialReader(json_text, interner).Read(meta);
}

}  // namespace gdlog
