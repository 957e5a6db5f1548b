#ifndef GDLOG_GDATALOG_ENGINE_H_
#define GDLOG_GDATALOG_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gdatalog/chase.h"
#include "gdatalog/outcome.h"

namespace gdlog {

/// Which grounder drives the semantics (§3/§5: the semantics is a family
/// parameterized by the grounder).
enum class GrounderKind {
  kAuto,     ///< Perfect when Π is stratified, simple otherwise.
  kSimple,   ///< GSimple (Definition 3.4).
  kPerfect,  ///< GPerfect (Definition 5.1); fails if Π is not stratified.
};

/// What the demand restriction did at construction (GDatalog::opt_stats()).
struct OptStats {
  bool demand_applied = false;  ///< Goals resolved and RestrictToDemand ran.
  uint64_t rules_in = 0;        ///< Σ_Π rules before the restriction.
  uint64_t rules_out = 0;       ///< Σ_Π rules after it.
  uint64_t total_wall_ns = 0;   ///< Wall time of the restriction.
};

/// Observability counters for a WithDatabaseDelta construction — surfaced
/// on gdlog_cli --stats and the server's GET /v1/stats.
struct DeltaStats {
  bool applied = false;  ///< This engine was built by WithDatabaseDelta.
  size_t rows_appended = 0;
  size_t duplicates_skipped = 0;
  size_t predicates_touched = 0;
  /// Some delta predicate occurs in a rule body of Π (or collides with a
  /// translation-synthesized "__" name) — reachability that forbids the
  /// serving layer's cache revalidation.
  bool touches_rule_bodies = false;
};

/// The top-level engine: parse → validate → desugar constraints → translate
/// to Σ_Π → pick a grounder → chase. This is the API the examples and most
/// tests use; the lower layers remain public for fine-grained control.
class GDatalog {
 public:
  struct Options {
    GrounderKind grounder = GrounderKind::kAuto;
    /// Distribution set Δ; defaults to DistributionRegistry::Builtins().
    /// Moved into the engine when provided.
    std::unique_ptr<DistributionRegistry> registry;
    /// Goal predicate names; non-empty restricts Σ_Π to the goals'
    /// demand (RestrictToDemand; applied only when Π is stratified — see
    /// ROADMAP's correctness argument — and only observing goal marginals
    /// stays sound; exact outcome/model listings are coarsened). Unknown
    /// names resolve to no goals and leave the restriction off.
    std::vector<std::string> demand_goals;
  };

  /// Builds an engine from program text and database text (facts in surface
  /// syntax). Fails on parse errors, safety violations, unknown
  /// distributions, or requesting the perfect grounder for a
  /// non-stratified program.
  static Result<GDatalog> Create(std::string_view program_text,
                                 std::string_view database_text);
  static Result<GDatalog> Create(std::string_view program_text,
                                 std::string_view database_text,
                                 Options options);

  /// Builds an engine from an already-parsed program and database. The
  /// program may still contain ⊥-constraints; they are desugared here.
  /// The grounder's database prefix (DatabasePrefix::Of) is the only copy
  /// of `db` the engine keeps.
  static Result<GDatalog> FromProgram(Program pi, FactStore db);
  static Result<GDatalog> FromProgram(Program pi, FactStore db,
                                      Options options);

  /// Builds an engine for `base`'s program with a different database. The
  /// distribution registry is shared and `base`'s Σ_Π (a function of Π and
  /// the demand goals alone) is adopted, not re-translated. The serving
  /// layer's PUT /db path.
  static Result<GDatalog> WithDatabase(const GDatalog& base,
                                       std::string_view database_text);

  /// Builds an engine for `base`'s program and database with Σ_Π
  /// restricted to the demand of `goals` (as Options::demand_goals; `base`
  /// itself must be unrestricted). The database prefix is `base`'s,
  /// shared, and the name table's ids are `base`'s, so an atom or fact
  /// read off either engine names the same thing on the other, and
  /// nothing is re-parsed or copied.
  /// The serving layer's per-signature marginal engines.
  static Result<GDatalog> WithDemand(const GDatalog& base,
                                     const std::vector<std::string>& goals);

  /// Builds an engine for `base`'s program with `base`'s database extended
  /// by a delta (see ParseFactDelta for the syntax; removals are rejected
  /// with kUnsupported). `base`'s Σ_Π is adopted, and the grounder is
  /// built like any other on `base`'s database prefix, shared, with the
  /// delta's new facts appended to its tail (DatabasePrefix::Extended,
  /// which skips the facts D or an earlier delta already holds): no part
  /// of D is copied or re-indexed. Each Ground() still grounds the rules
  /// from that prefix: nothing grounded by `base` is resumed.
  /// delta_stats() on the result reports what was appended. The serving
  /// layer's PATCH /db path.
  static Result<GDatalog> WithDatabaseDelta(const GDatalog& base,
                                            std::string_view delta_text);

  GDatalog(GDatalog&&) noexcept;
  GDatalog& operator=(GDatalog&&) noexcept;
  ~GDatalog();

  /// The desugared program Π.
  const Program& program() const;
  /// Σ_Π with Active/Result metadata.
  const TranslatedProgram& translated() const;
  const DistributionRegistry& registry() const;
  /// The grounder driving the semantics.
  const Grounder& grounder() const;
  /// True iff Π has stratified negation.
  bool stratified() const;
  /// What the demand restriction did at construction (carried over by
  /// WithDatabase and WithDatabaseDelta).
  const OptStats& opt_stats() const;
  /// Delta counters (applied == false unless this engine came from
  /// WithDatabaseDelta).
  const DeltaStats& delta_stats() const;
  /// The facts the delta actually appended (duplicates excluded), ordered
  /// by predicate id and then by delta order. Empty unless built by
  /// WithDatabaseDelta.
  /// The serving layer patches revalidated outcome spaces with these.
  const std::vector<GroundAtom>& delta_added_facts() const;

  /// The chase engine (Explore/SamplePath live there).
  const ChaseEngine& chase() const;

  /// Exhaustive inference: explores the chase tree and returns the outcome
  /// space (Definition 3.8, up to the exploration budgets). Runs the
  /// parallel frontier chase per ChaseOptions::num_threads (default: one
  /// worker per hardware thread; 1 = serial); the result is deterministic
  /// across thread counts whenever no budget binds.
  Result<OutcomeSpace> Infer(const ChaseOptions& options = ChaseOptions{}) const;

  /// Like Infer(), additionally merging the chase profile into *profile
  /// when options.profile is set (see ChaseEngine::Explore). Counts in the
  /// profile are deterministic across thread counts; timings are not.
  Result<OutcomeSpace> Infer(const ChaseOptions& options,
                             ChaseProfile* profile) const;

  /// Display labels for Σ_Π's rules, indexed like ChaseProfile::rules:
  /// "r<i>:<head atom>" ("r<i>:constraint" for constraints). Stable for a
  /// given engine — the profiler's join key between runs.
  std::vector<std::string> SigmaRuleLabels() const;

  /// Parses a ground atom in surface syntax ("infected(2, 1)") against this
  /// engine's interner, for use with OutcomeSpace::Marginal. Interns names
  /// the program never mentioned, so it must not run concurrently with
  /// anything else reading this engine.
  Result<GroundAtom> ParseGroundAtom(std::string_view text) const;

  /// Like ParseGroundAtom, but resolves names by lookup only — it parses
  /// against a private interner and remaps onto the engine's, never
  /// mutating shared state, so any number of threads may call it while
  /// others run Infer() or export results (the serving layer's contract).
  /// A predicate or symbol the program never interned cannot occur in any
  /// outcome; it is reported as kNotFound and callers may treat the
  /// atom's marginal as trivially zero.
  Result<GroundAtom> LookupGroundAtom(std::string_view text) const;

 private:
  struct State;
  explicit GDatalog(std::unique_ptr<State> state);
  /// Builds the grounder on `prefix` and the chase over it: the one
  /// construction step every factory ends in.
  static Result<GDatalog> FinishEngine(std::unique_ptr<State> state,
                                       DatabasePrefix prefix);
  std::unique_ptr<State> state_;
};

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_ENGINE_H_
