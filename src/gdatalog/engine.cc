#include "gdatalog/engine.h"

#include <algorithm>
#include <utility>

#include "ast/parser.h"
#include "gdatalog/demand.h"
#include "obs/histogram.h"

namespace gdlog {

struct GDatalog::State {
  Program program;  // desugared
  // Shared (not owned) so that WithDatabase engines can point their
  // Σ_Π delta-signature metadata at the same distribution objects.
  std::shared_ptr<DistributionRegistry> registry;
  TranslatedProgram translated;
  bool stratified = false;
  GrounderKind effective_grounder = GrounderKind::kSimple;
  OptStats opt_stats;
  DeltaStats delta_stats;
  /// Facts a WithDatabaseDelta construction appended (duplicates
  /// excluded), for the serving layer's outcome-space patching.
  std::vector<GroundAtom> delta_added;
  std::unique_ptr<Grounder> grounder;
  std::unique_ptr<ChaseEngine> chase;

  /// The state of an engine for this one's program and another database:
  /// everything but the grounder and chase, which FinishEngine builds on
  /// the caller's database prefix. The interner is cloned so the new
  /// engine can intern database-only symbols without mutating this one
  /// (which may be serving concurrently); Σ_Π, a function of Π and the
  /// demand goals alone, is adopted.
  std::unique_ptr<State> Derive() const {
    auto out = std::make_unique<State>();
    std::shared_ptr<Interner> interner = program.interner()->Clone();
    out->program = program.CloneWith(interner);
    out->registry = registry;
    out->translated = translated.CloneWith(std::move(interner));
    out->stratified = stratified;
    out->effective_grounder = effective_grounder;
    out->opt_stats = opt_stats;
    return out;
  }

  /// Restricts Σ_Π to the demand of the goal predicates that resolve, and
  /// records what it did in opt_stats. Demand restriction changes the
  /// outcome space away from the goals, so it is only sound under
  /// stratification (splitting-set argument in ROADMAP) and only requested
  /// by callers observing goal marginals.
  void RestrictToGoals(const std::vector<std::string>& names) {
    OptStats& os = opt_stats;
    os = OptStats{};
    os.rules_in = translated.sigma().rules().size();
    std::vector<uint32_t> goals;
    if (stratified) {
      for (const std::string& goal : names) {
        uint32_t id = program.interner()->Lookup(goal);
        if (id != Interner::kNotFound) goals.push_back(id);
      }
    }
    if (!goals.empty()) {
      const uint64_t start_ns = MonotonicNanos();
      RestrictToDemand(&translated, goals);
      os.total_wall_ns = MonotonicNanos() - start_ns;
      os.demand_applied = true;
    }
    os.rules_out = translated.sigma().rules().size();
  }
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

  state->RestrictToGoals(options.demand_goals);

  GrounderKind kind = options.grounder;
  if (kind == GrounderKind::kAuto) {
    kind = state->stratified ? GrounderKind::kPerfect : GrounderKind::kSimple;
  }
  state->effective_grounder = kind;
  // The prefix is the engine's one copy of D; `db` is dropped on return.
  return FinishEngine(std::move(state), DatabasePrefix::Of(db));
}

Result<GDatalog> GDatalog::FinishEngine(std::unique_ptr<State> state,
                                        DatabasePrefix prefix) {
  if (state->effective_grounder == GrounderKind::kPerfect) {
    GDLOG_ASSIGN_OR_RETURN(
        state->grounder,
        PerfectGrounder::Create(state->program, &state->translated,
                                std::move(prefix)));
  } else {
    state->grounder = std::make_unique<SimpleGrounder>(&state->translated,
                                                       std::move(prefix));
  }
  state->chase = std::make_unique<ChaseEngine>(&state->translated,
                                               state->grounder.get());
  return GDatalog(std::move(state));
}

Result<GDatalog> GDatalog::WithDatabase(const GDatalog& base,
                                        std::string_view database_text) {
  std::unique_ptr<State> state = base.state_->Derive();
  GDLOG_ASSIGN_OR_RETURN(FactStore db,
                         ParseFacts(database_text, state->program.interner()));
  return FinishEngine(std::move(state), DatabasePrefix::Of(db));
}

Result<GDatalog> GDatalog::WithDemand(const GDatalog& base,
                                      const std::vector<std::string>& goals) {
  const State& bs = *base.state_;
  std::unique_ptr<State> state = bs.Derive();
  state->RestrictToGoals(goals);
  return FinishEngine(std::move(state), bs.grounder->prefix());
}

Result<GDatalog> GDatalog::WithDatabaseDelta(const GDatalog& base,
                                             std::string_view delta_text) {
  const State& bs = *base.state_;
  std::unique_ptr<State> state = bs.Derive();
  Interner* interner = state->program.interner();
  GDLOG_ASSIGN_OR_RETURN(std::vector<GroundAtom> facts,
                         ParseFactDelta(delta_text, interner));

  // Π[D ∪ Δ]'s prefix is D's, shared, with Δ's new facts on its tail: the
  // prefix skips the facts it already holds and reports the rest.
  DatabasePrefix prefix =
      bs.grounder->prefix().Extended(facts, &state->delta_added);
  const std::vector<GroundAtom>& added = state->delta_added;
  std::vector<uint32_t> touched;  // sorted: `added` is by predicate
  for (const GroundAtom& atom : added) {
    if (touched.empty() || touched.back() != atom.predicate) {
      touched.push_back(atom.predicate);
    }
  }
  state->delta_stats.applied = true;
  state->delta_stats.rows_appended = added.size();
  state->delta_stats.duplicates_skipped = facts.size() - added.size();
  state->delta_stats.predicates_touched = touched.size();

  // Does the delta touch any rule body of Π — a positive or negated
  // literal, constraints included? Checked against Π itself, which covers
  // Σ_Π too: a translated body only ever mentions Π body predicates plus
  // the translation's "__"-prefixed Active/Result ones, which the name
  // guard covers. The serving layer keys cache revalidation off this bit.
  bool& touches = state->delta_stats.touches_rule_bodies;
  for (const Rule& rule : state->program.rules()) {
    for (const Literal& lit : rule.body) {
      touches |= std::binary_search(touched.begin(), touched.end(),
                                    lit.atom.predicate);
    }
  }
  for (uint32_t pred : touched) {
    touches |= interner->Name(pred).rfind("__", 0) == 0;
  }
  return FinishEngine(std::move(state), std::move(prefix));
}

const Program& GDatalog::program() const { return state_->program; }
const TranslatedProgram& GDatalog::translated() const {
  return state_->translated;
}
const DistributionRegistry& GDatalog::registry() const {
  return *state_->registry;
}
const Grounder& GDatalog::grounder() const { return *state_->grounder; }
bool GDatalog::stratified() const { return state_->stratified; }
const OptStats& GDatalog::opt_stats() const { return state_->opt_stats; }
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
