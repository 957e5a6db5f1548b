#include "gdatalog/engine.h"

#include <utility>

#include "ast/parser.h"

namespace gdlog {

struct GDatalog::State {
  Program program;  // desugared
  FactStore db;
  // Shared (not owned) so that WithDatabase engines can point their
  // Σ_Π delta-signature metadata at the same distribution objects.
  std::shared_ptr<DistributionRegistry> registry;
  TranslatedProgram translated;
  bool stratified = false;
  GrounderKind effective_grounder = GrounderKind::kSimple;
  DbSummary db_summary;
  OptStats opt_stats;
  DeltaStats delta_stats;
  /// Facts a WithDatabaseDelta construction appended (duplicates
  /// excluded), for the serving layer's outcome-space patching.
  std::vector<GroundAtom> delta_added;
  std::unique_ptr<Grounder> grounder;
  std::unique_ptr<ChaseEngine> chase;
};

GDatalog::GDatalog(std::unique_ptr<State> state) : state_(std::move(state)) {}
GDatalog::GDatalog(GDatalog&&) noexcept = default;
GDatalog& GDatalog::operator=(GDatalog&&) noexcept = default;
GDatalog::~GDatalog() = default;

Result<GDatalog> GDatalog::Create(std::string_view program_text,
                                  std::string_view database_text) {
  return Create(program_text, database_text, Options{});
}

Result<GDatalog> GDatalog::FromProgram(Program pi, FactStore db) {
  return FromProgram(std::move(pi), std::move(db), Options{});
}

Result<GDatalog> GDatalog::Create(std::string_view program_text,
                                  std::string_view database_text,
                                  Options options) {
  GDLOG_ASSIGN_OR_RETURN(Program pi, ParseProgram(program_text));
  GDLOG_ASSIGN_OR_RETURN(FactStore db,
                         ParseFacts(database_text, pi.interner()));
  return FromProgram(std::move(pi), std::move(db), std::move(options));
}

Result<GDatalog> GDatalog::FromProgram(Program pi, FactStore db,
                                       Options options) {
  auto state = std::make_unique<State>();
  state->program = std::move(pi);
  // Constraints are handled natively end-to-end (a ground constraint
  // rejects candidate stable models); the paper's Fail/Aux desugaring
  // remains available via Program::DesugarConstraints but would make every
  // constraint-bearing program non-stratified.
  GDLOG_RETURN_IF_ERROR(state->program.Validate());
  state->db = std::move(db);
  // The database D is shared read-only by every chase worker; building its
  // column indices eagerly means concurrent readers never mutate it, even
  // lazily.
  state->db.Freeze();
  state->registry =
      options.registry != nullptr
          ? std::shared_ptr<DistributionRegistry>(std::move(options.registry))
          : std::make_shared<DistributionRegistry>(
                DistributionRegistry::Builtins());

  GDLOG_ASSIGN_OR_RETURN(
      state->translated,
      TranslateToTgd(state->program, *state->registry));

  DependencyGraph dg(state->program);
  state->stratified = dg.IsStratified();

  state->db_summary = SummarizeDb(state->db);
  if (options.optimize && !OptDisabledByEnv()) {
    ProgramIr ir = ProgramIr::LiftSigma(state->program, state->translated,
                                        state->program.interner());
    PipelineOptions popts;
    popts.record_dumps = options.record_ir_dumps;
    if (state->stratified) {
      // The demand pass changes the outcome space away from the goals, so
      // it is only sound under stratification (splitting-set argument in
      // ROADMAP) and only requested by callers observing goal marginals.
      for (const std::string& goal : options.demand_goals) {
        uint32_t id = state->program.interner()->Lookup(goal);
        if (id != Interner::kNotFound) popts.demand_goals.push_back(id);
      }
    }
    state->opt_stats = RunPipeline(&ir, state->db_summary, popts);
    ir.ApplyTo(&state->translated);
    // The passes preserve range-restriction and arity by construction;
    // re-validating is cheap insurance against a pass bug silently
    // producing an unsafe Σ_Π.
    GDLOG_RETURN_IF_ERROR(state->translated.sigma().Validate());
  }

  GrounderKind kind = options.grounder;
  if (kind == GrounderKind::kAuto) {
    kind = state->stratified ? GrounderKind::kPerfect : GrounderKind::kSimple;
  }
  state->effective_grounder = kind;
  return FinishEngine(std::move(state));
}

Result<GDatalog> GDatalog::FinishEngine(std::unique_ptr<State> state) {
  if (state->effective_grounder == GrounderKind::kPerfect) {
    GDLOG_ASSIGN_OR_RETURN(
        state->grounder,
        PerfectGrounder::Create(state->program, &state->translated,
                                &state->db));
  } else {
    state->grounder =
        std::make_unique<SimpleGrounder>(&state->translated, &state->db);
  }
  state->chase = std::make_unique<ChaseEngine>(&state->translated, &state->db,
                                               state->grounder.get());
  return GDatalog(std::move(state));
}

Result<GDatalog> GDatalog::WithDatabase(const GDatalog& base,
                                        std::string_view database_text) {
  const State& bs = *base.state_;
  auto state = std::make_unique<State>();
  // Clone the interner so the new engine can intern database-only symbols
  // without mutating the base engine (which may be serving concurrently).
  std::shared_ptr<Interner> interner = bs.program.interner()->Clone();
  state->program = bs.program.CloneWith(interner);
  GDLOG_ASSIGN_OR_RETURN(state->db, ParseFacts(database_text, interner.get()));
  state->db.Freeze();
  state->registry = bs.registry;
  state->stratified = bs.stratified;
  state->effective_grounder = bs.effective_grounder;
  state->db_summary = SummarizeDb(state->db);

  // The pass pipeline consumes only the database summary — and of the
  // summary only predicate presence and column domains, never exact row
  // counts — so a pipeline-equivalent summary makes the optimized Σ_Π a
  // pure function of inputs that did not change: adopt it. Note the base's
  // demand transformation (if any) carries over: it depends only on the
  // program and goals, never the db.
  if (!bs.opt_stats.enabled ||
      PipelineEquivalent(state->db_summary, bs.db_summary)) {
    state->translated = bs.translated.CloneWith(interner);
    state->opt_stats = bs.opt_stats;
    state->opt_stats.pipeline_reused = bs.opt_stats.enabled;
    state->opt_stats.dumps.clear();
    return FinishEngine(std::move(state));
  }

  GDLOG_ASSIGN_OR_RETURN(
      state->translated, TranslateToTgd(state->program, *state->registry));
  if (!OptDisabledByEnv()) {
    ProgramIr ir = ProgramIr::LiftSigma(state->program, state->translated,
                                        state->program.interner());
    PipelineOptions popts;
    // Demand goals deliberately do not carry over: this path serves generic
    // engines whose query set is unknown (the registry layers demand on top
    // per query signature).
    state->opt_stats = RunPipeline(&ir, state->db_summary, popts);
    ir.ApplyTo(&state->translated);
    GDLOG_RETURN_IF_ERROR(state->translated.sigma().Validate());
  }
  return FinishEngine(std::move(state));
}

Result<GDatalog> GDatalog::WithDatabaseDelta(const GDatalog& base,
                                             std::string_view delta_text) {
  const State& bs = *base.state_;
  auto state = std::make_unique<State>();
  std::shared_ptr<Interner> interner = bs.program.interner()->Clone();
  state->program = bs.program.CloneWith(interner);
  GDLOG_ASSIGN_OR_RETURN(FactDelta delta,
                         ParseFactDelta(delta_text, interner.get()));

  // COW-extend the base database: the copy shares row storage and adopts
  // the already-built indices, so applying the delta costs O(|delta|) plus
  // one relation detach per touched predicate — never O(|D|) re-parsing.
  state->db = bs.db;
  DeltaRanges ranges;
  GDLOG_RETURN_IF_ERROR(state->db.ApplyDelta(delta, &ranges));
  state->db.Freeze();

  state->registry = bs.registry;
  state->stratified = bs.stratified;
  state->effective_grounder = bs.effective_grounder;

  state->delta_stats.applied = true;
  state->delta_stats.rows_appended = ranges.rows_appended;
  state->delta_stats.duplicates_skipped = ranges.duplicates_skipped;
  state->delta_stats.predicates_touched = ranges.ranges.size();
  state->delta_added.reserve(ranges.rows_appended);
  for (const auto& [pred, range] : ranges.ranges) {
    const std::vector<Tuple>& rows = state->db.Rows(pred);
    for (uint32_t r = range.begin; r < range.end && r < rows.size(); ++r) {
      state->delta_added.push_back(GroundAtom{pred, rows[r]});
    }
  }

  // Incremental summary maintenance: equal to SummarizeDb on the
  // post-delta database by construction (delta_test pins this), at cost
  // proportional to the delta.
  state->db_summary = bs.db_summary;
  UpdateSummaryForDelta(&state->db_summary, state->db, ranges);
  bool equivalent = PipelineEquivalent(state->db_summary, bs.db_summary);
  state->delta_stats.summary_changed = !equivalent;

  // Does the delta touch any rule body of Π — a positive or negated
  // literal, constraints included? Checked against Π itself, which is
  // conservative for every derived engine variant: a transformed body only
  // ever mentions Π body predicates plus synthesized "__"-prefixed ones,
  // which the name guard covers. The serving layer keys cache revalidation
  // off this bit.
  bool& touches = state->delta_stats.touches_rule_bodies;
  for (const Rule& rule : state->program.rules()) {
    for (const Literal& lit : rule.body) {
      touches |= ranges.ranges.count(lit.atom.predicate) != 0;
    }
  }
  for (const auto& [pred, range] : ranges.ranges) {
    (void)range;
    touches |= interner->Name(pred).rfind("__", 0) == 0;
  }

  bool reuse_pipeline = !bs.opt_stats.enabled || equivalent;
  if (reuse_pipeline) {
    state->translated = bs.translated.CloneWith(interner);
    state->opt_stats = bs.opt_stats;
    state->opt_stats.pipeline_reused = bs.opt_stats.enabled;
    state->opt_stats.dumps.clear();
  } else {
    GDLOG_ASSIGN_OR_RETURN(
        state->translated, TranslateToTgd(state->program, *state->registry));
    if (!OptDisabledByEnv()) {
      ProgramIr ir = ProgramIr::LiftSigma(state->program, state->translated,
                                          state->program.interner());
      PipelineOptions popts;
      state->opt_stats = RunPipeline(&ir, state->db_summary, popts);
      ir.ApplyTo(&state->translated);
      GDLOG_RETURN_IF_ERROR(state->translated.sigma().Validate());
    }
  }
  state->delta_stats.pipeline_reused = state->opt_stats.pipeline_reused;

  // Grounders share the base's database-prefix grounding (COW-extension)
  // instead of rebuilding it fact by fact. The simple grounder additionally
  // resumes the base's saturated root grounding from the delta ranges —
  // sound only when the rule sets are identical, which pipeline reuse (or
  // the pipeline being off) guarantees.
  if (state->effective_grounder == GrounderKind::kPerfect) {
    const auto& base_grounder =
        static_cast<const PerfectGrounder&>(*bs.grounder);
    GDLOG_ASSIGN_OR_RETURN(
        state->grounder,
        PerfectGrounder::CreateDelta(state->program, &state->translated,
                                     &state->db, base_grounder, ranges));
  } else {
    const auto& base_grounder =
        static_cast<const SimpleGrounder&>(*bs.grounder);
    state->grounder = std::make_unique<SimpleGrounder>(
        &state->translated, &state->db, base_grounder, ranges,
        /*resume_root=*/reuse_pipeline, &state->delta_stats.root_resumed,
        &state->delta_stats.rules_refired);
  }
  state->chase = std::make_unique<ChaseEngine>(&state->translated, &state->db,
                                               state->grounder.get());
  return GDatalog(std::move(state));
}

const Program& GDatalog::program() const { return state_->program; }
const TranslatedProgram& GDatalog::translated() const {
  return state_->translated;
}
const FactStore& GDatalog::database() const { return state_->db; }
const DistributionRegistry& GDatalog::registry() const {
  return *state_->registry;
}
const Grounder& GDatalog::grounder() const { return *state_->grounder; }
bool GDatalog::stratified() const { return state_->stratified; }
const OptStats& GDatalog::opt_stats() const { return state_->opt_stats; }
const DbSummary& GDatalog::db_summary() const { return state_->db_summary; }
const DeltaStats& GDatalog::delta_stats() const { return state_->delta_stats; }
const std::vector<GroundAtom>& GDatalog::delta_added_facts() const {
  return state_->delta_added;
}
const ChaseEngine& GDatalog::chase() const { return *state_->chase; }

Result<OutcomeSpace> GDatalog::Infer(const ChaseOptions& options) const {
  return state_->chase->Explore(options);
}

Result<OutcomeSpace> GDatalog::Infer(const ChaseOptions& options,
                                     ChaseProfile* profile) const {
  return state_->chase->Explore(options, profile);
}

std::vector<std::string> GDatalog::SigmaRuleLabels() const {
  const Program& sigma = state_->translated.sigma();
  std::vector<std::string> labels;
  labels.reserve(sigma.rules().size());
  for (size_t i = 0; i < sigma.rules().size(); ++i) {
    const Rule& rule = sigma.rules()[i];
    std::string label = "r" + std::to_string(i) + ":";
    label += rule.is_constraint ? "constraint"
                                : rule.head.ToString(sigma.interner());
    labels.push_back(std::move(label));
  }
  return labels;
}

Result<GroundAtom> GDatalog::ParseGroundAtom(std::string_view text) const {
  std::string rule_text = std::string(text);
  if (rule_text.empty() || rule_text.back() != '.') rule_text += ".";
  auto parsed = ParseProgram(rule_text, state_->program.shared_interner());
  if (!parsed.ok()) return parsed.status();
  if (parsed->rules().size() != 1 || !parsed->rules()[0].IsFact()) {
    return Status::InvalidArgument("expected a single ground atom: " +
                                   std::string(text));
  }
  const HeadAtom& head = parsed->rules()[0].head;
  GroundAtom atom;
  atom.predicate = head.predicate;
  for (const HeadArg& arg : head.args) {
    atom.args.push_back(arg.term().constant());
  }
  return atom;
}

Result<GroundAtom> GDatalog::LookupGroundAtom(std::string_view text) const {
  std::string rule_text = std::string(text);
  if (rule_text.empty() || rule_text.back() != '.') rule_text += ".";
  auto local_interner = std::make_shared<Interner>();
  auto parsed = ParseProgram(rule_text, local_interner);
  if (!parsed.ok()) return parsed.status();
  if (parsed->rules().size() != 1 || !parsed->rules()[0].IsFact()) {
    return Status::InvalidArgument("expected a single ground atom: " +
                                   std::string(text));
  }
  const Interner& names = *state_->program.interner();
  auto remap = [&](uint32_t local_id) -> Result<uint32_t> {
    const std::string& name = local_interner->Name(local_id);
    uint32_t id = names.Lookup(name);
    if (id == Interner::kNotFound) {
      return Status::NotFound("name never occurs in the program: " + name);
    }
    return id;
  };
  const HeadAtom& head = parsed->rules()[0].head;
  GroundAtom atom;
  GDLOG_ASSIGN_OR_RETURN(atom.predicate, remap(head.predicate));
  for (const HeadArg& arg : head.args) {
    Value value = arg.term().constant();
    if (value.kind() == Value::Kind::kSymbol) {
      GDLOG_ASSIGN_OR_RETURN(uint32_t id, remap(value.symbol_id()));
      value = Value::Symbol(id);
    }
    atom.args.push_back(value);
  }
  return atom;
}

}  // namespace gdlog
