#ifndef GDLOG_GDATALOG_EXPORT_H_
#define GDLOG_GDATALOG_EXPORT_H_

#include <string>
#include <string_view>

#include "gdatalog/outcome.h"
#include "gdatalog/shard.h"
#include "gdatalog/translation.h"
#include "util/json.h"

namespace gdlog {

/// Writes a probability in the reporting-export shape —
/// {"value": <double>, "rational": "a/b" | null} — used by the CLI's
/// --json export and the serving layer's marginal responses (which must
/// render masses identically).
void WriteProbJson(JsonWriter& json, const Prob& prob);

/// Options for OutcomeSpaceToJson.
struct JsonExportOptions {
  /// Include every possible outcome (choices, probability, model count).
  bool include_outcomes = true;
  /// Include the stable models themselves (stripped of Active/Result
  /// bookkeeping atoms).
  bool include_models = false;
  /// Include the event table (model-set size ↦ mass).
  bool include_events = true;
};

/// Serializes an outcome space to a single-line JSON document for
/// scripting (the CLI's --json mode):
///
/// {
///   "complete": true,
///   "finite_mass": {"value": 1.0, "rational": "1"},
///   "residual_mass": {...},
///   "prob_consistent": {...},
///   "outcomes": [{"prob": {...}, "num_models": 2,
///                 "choices": [{"active": "...", "outcome": "..."}], ...}],
///   "events": [{"mass": {...}, "num_models": 0, "num_outcomes": 1}]
/// }
///
/// Masses, event rows and models come from `index` (see AnswerIndex), so a
/// cached index renders without re-summing anything, and a revalidated one
/// renders each model with the facts added since its chase.
std::string OutcomeSpaceToJson(const AnswerIndex& index,
                               const TranslatedProgram& translated,
                               const Interner* interner,
                               const JsonExportOptions& options =
                                   JsonExportOptions{});

/// The same document for a space with no index at hand: builds a local
/// one and renders from it.
std::string OutcomeSpaceToJson(const OutcomeSpace& space,
                               const TranslatedProgram& translated,
                               const Interner* interner,
                               const JsonExportOptions& options =
                                   JsonExportOptions{});

/// Serializes one shard's partial outcome space (plus its plan coordinates)
/// to a single-line `gdlog.partial.v2` document (grammar in docs/API.md).
/// The encoding is lossless — exact rationals as numerator/denominator,
/// inexact masses and double constants as hex-float strings, symbols by
/// name — so a partial can cross a process (or machine) boundary and merge
/// into a space bit-identical to a single-process run. Each distinct atom
/// is written once, in an atom table; models are the table's `base` (the
/// atoms in every model, D among them) plus a list of indices each, and
/// choice entries name their Active atom by index.
std::string PartialSpaceToJson(const PartialSpace& partial,
                               const ShardPartialMeta& meta,
                               const Interner* interner);

/// Parses a document produced by PartialSpaceToJson, in one pass over the
/// bytes (no JSON tree is built). It accepts the members of every object in
/// any order and ignores unknown members (whose JSON syntax is still
/// checked); of duplicate keys the first counts. Trailing content after the
/// document, a missing or ill-typed required member, a non-integer or
/// out-of-int64 number in an integer field and nesting past
/// JsonReader::kMaxDepth are errors. Strings are read back byte for byte
/// (JsonParseOptions::strict_strings off), as the writer copies them.
/// Names are resolved against `interner` by lookup only: the caller must
/// have loaded the same program (and hence interned the same
/// predicates/symbols) that produced the partial; unknown names are an
/// error, not an extension point. The atom table is ranked under the local
/// ids, so every model comes back sorted even when the sender interned
/// names in another order. A table index out of range, a `base` or model
/// list that is not strictly ascending, a model list that repeats a base
/// atom, a repeated table atom or model, a non-empty base with no model,
/// and any other format (`gdlog.partial.v1` included) are errors.
Result<PartialSpace> PartialSpaceFromJson(std::string_view json,
                                          const Interner& interner,
                                          ShardPartialMeta* meta);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_EXPORT_H_
