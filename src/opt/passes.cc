#include "opt/passes.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gdatalog/translation.h"

namespace gdlog {

namespace {

/// Meet (intersection) of the column domains over every positive-body
/// occurrence of `var`: an overapproximation of the values any match can
/// bind `var` to. ⊤ when no occurrence constrains it.
ColumnDomain MeetVarDomain(
    const Rule& rule, uint32_t var,
    const std::map<uint32_t, std::vector<ColumnDomain>>& domains) {
  ColumnDomain acc = ColumnDomain::Top();
  for (const Literal& lit : rule.body) {
    if (lit.negated) continue;
    auto it = domains.find(lit.atom.predicate);
    if (it == domains.end()) continue;
    for (size_t c = 0; c < lit.atom.args.size() && c < it->second.size();
         ++c) {
      const Term& t = lit.atom.args[c];
      if (!t.is_variable() || t.var_id() != var) continue;
      const ColumnDomain& d = it->second[c];
      if (d.top) continue;
      if (acc.top) {
        acc = d;
        continue;
      }
      std::set<Value> intersection;
      for (const Value& v : acc.values) {
        if (d.values.count(v) != 0) intersection.insert(v);
      }
      acc.values = std::move(intersection);
    }
  }
  return acc;
}

/// Replaces every occurrence of `var` (body, head, Δ-term parameters and
/// the emit body) by the constant `value`.
void SubstituteVar(RuleIr* rule, uint32_t var, const Value& value) {
  auto fix_term = [&](Term& t) {
    if (t.is_variable() && t.var_id() == var) t = Term::Constant(value);
  };
  auto fix_body = [&](std::vector<Literal>* body) {
    for (Literal& lit : *body) {
      for (Term& t : lit.atom.args) fix_term(t);
    }
  };
  fix_body(&rule->rule.body);
  fix_body(&rule->emit_body);
  if (rule->rule.is_constraint) return;
  for (HeadArg& arg : rule->rule.head.args) {
    if (arg.is_delta()) {
      DeltaTerm dt = arg.delta();
      for (Term& t : dt.params) fix_term(t);
      for (Term& t : dt.events) fix_term(t);
      arg = HeadArg(std::move(dt));
    } else if (arg.term().is_variable() && arg.term().var_id() == var) {
      arg = HeadArg(Term::Constant(value));
    }
  }
}

/// All positive-body variables of `rule` with their meet domains, keyed by
/// interned id (deterministic iteration order).
std::map<uint32_t, ColumnDomain> PositiveVarDomains(
    const Rule& rule,
    const std::map<uint32_t, std::vector<ColumnDomain>>& domains) {
  std::map<uint32_t, ColumnDomain> out;
  for (const Literal& lit : rule.body) {
    if (lit.negated) continue;
    for (const Term& t : lit.atom.args) {
      if (t.is_variable() && out.count(t.var_id()) == 0) {
        out.emplace(t.var_id(), MeetVarDomain(rule, t.var_id(), domains));
      }
    }
  }
  return out;
}

bool PositiveBodyPresent(const Rule& rule, const std::set<uint32_t>& present) {
  for (const Literal& lit : rule.body) {
    if (!lit.negated && present.count(lit.atom.predicate) == 0) return false;
  }
  return true;
}

}  // namespace

DomainAnalysis AnalyzeDomains(const ProgramIr& ir, const DbSummary& db,
                              size_t max_domain) {
  DomainAnalysis out;
  const TranslatedProgram& translated = ir.translated();

  // Presence: a predicate may have facts iff the database has rows for it,
  // a rule with an all-present positive body derives it, or it is the
  // Result partner of a present Active predicate (choices cascade Active
  // atoms into Result facts). Negation is ignored — sound overapproximation.
  for (const auto& [pred, summary] : db.predicates) {
    if (summary.rows > 0) out.present.insert(pred);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const RuleIr& rule : ir.rules()) {
      if (rule.rule.is_constraint) continue;
      if (out.present.count(rule.rule.head.predicate) != 0) continue;
      if (PositiveBodyPresent(rule.rule, out.present)) {
        out.present.insert(rule.rule.head.predicate);
        changed = true;
      }
    }
    for (const DeltaSignature& sig : translated.signatures()) {
      if (out.present.count(sig.active_pred) != 0 &&
          out.present.insert(sig.result_pred).second) {
        changed = true;
      }
    }
  }

  // Column domains, to a fixpoint: seeded from the database summary, grown
  // through the heads of rules whose body is satisfiable, and through the
  // Active → Result pairing (Result copies Active's columns; the sampled
  // y column is unconstrained).
  for (const auto& [pred, arity] : ir.arities()) {
    out.domains[pred].assign(arity, ColumnDomain{});
  }
  for (const auto& [pred, summary] : db.predicates) {
    auto it = out.domains.find(pred);
    if (it == out.domains.end()) continue;
    if (summary.columns.size() != it->second.size()) {
      for (ColumnDomain& col : it->second) col = ColumnDomain::Top();
      continue;
    }
    for (size_t c = 0; c < it->second.size(); ++c) {
      it->second[c].Join(summary.columns[c], max_domain);
    }
  }
  changed = true;
  while (changed) {
    changed = false;
    for (const RuleIr& rule : ir.rules()) {
      if (rule.rule.is_constraint) continue;
      if (!PositiveBodyPresent(rule.rule, out.present)) continue;
      auto it = out.domains.find(rule.rule.head.predicate);
      if (it == out.domains.end()) continue;
      std::vector<ColumnDomain>& head_domains = it->second;
      for (size_t i = 0;
           i < rule.rule.head.args.size() && i < head_domains.size(); ++i) {
        const HeadArg& arg = rule.rule.head.args[i];
        if (arg.is_delta()) {
          // Δ-terms only survive in unlifted heads; their sampled value is
          // unconstrained.
          changed |= head_domains[i].Join(ColumnDomain::Top(), max_domain);
          continue;
        }
        const Term& t = arg.term();
        if (t.is_constant()) {
          changed |= head_domains[i].JoinValue(t.constant(), max_domain);
        } else {
          changed |= head_domains[i].Join(
              MeetVarDomain(rule.rule, t.var_id(), out.domains), max_domain);
        }
      }
    }
    for (const DeltaSignature& sig : translated.signatures()) {
      auto active = out.domains.find(sig.active_pred);
      auto result = out.domains.find(sig.result_pred);
      if (active == out.domains.end() || result == out.domains.end()) {
        continue;
      }
      size_t n = active->second.size();
      for (size_t c = 0; c < n && c < result->second.size(); ++c) {
        changed |= result->second[c].Join(active->second[c], max_domain);
      }
      if (result->second.size() == n + 1) {
        changed |= result->second[n].Join(ColumnDomain::Top(), max_domain);
      }
    }
  }
  return out;
}

size_t SpecializationPass(ProgramIr* ir, const PassContext& ctx,
                          OptCounters* counters) {
  if (ctx.db == nullptr) return 0;
  DomainAnalysis analysis = AnalyzeDomains(*ir, *ctx.db, ctx.max_domain);
  std::vector<RuleIr> out;
  out.reserve(ir->rules().size());
  std::set<uint32_t> touched;
  size_t rewrites = 0;
  for (RuleIr& rule : ir->rules()) {
    std::map<uint32_t, ColumnDomain> var_domains =
        PositiveVarDomains(rule.rule, analysis.domains);

    // Narrowing: a variable whose meet is one constant always binds to it;
    // substituting turns the join plan's slot ops into constant checks.
    bool narrowed = false;
    std::set<uint32_t> substituted;
    for (const auto& [var, dom] : var_domains) {
      if (dom.top || dom.values.size() != 1) continue;
      SubstituteVar(&rule, var, *dom.values.begin());
      substituted.insert(var);
      narrowed = true;
    }

    // Splitting: one small-domain join variable per rule, one copy per
    // constant. Every actual match binds the variable inside its domain,
    // so the copies produce exactly the original instance set.
    uint32_t split_var = 0;
    const std::set<Value>* split_values = nullptr;
    for (const auto& [var, dom] : var_domains) {
      if (substituted.count(var) != 0 || dom.top) continue;
      if (dom.values.size() < 2 || dom.values.size() > ctx.max_split) continue;
      size_t atoms_with_var = 0;
      for (const Literal& lit : rule.rule.body) {
        if (lit.negated) continue;
        for (const Term& t : lit.atom.args) {
          if (t.is_variable() && t.var_id() == var) {
            ++atoms_with_var;
            break;
          }
        }
      }
      if (atoms_with_var < 2) continue;  // only join variables pay for it
      split_var = var;
      split_values = &dom.values;
      break;
    }

    if (!rule.rule.is_constraint && (narrowed || split_values != nullptr)) {
      touched.insert(rule.rule.head.predicate);
    }
    if (split_values != nullptr) {
      for (const Value& v : *split_values) {
        RuleIr copy = rule;
        SubstituteVar(&copy, split_var, v);
        out.push_back(std::move(copy));
      }
      ++counters->rules_specialized;
      ++rewrites;
      continue;
    }
    if (narrowed) {
      ++counters->rules_specialized;
      ++rewrites;
    }
    out.push_back(std::move(rule));
  }
  ir->rules() = std::move(out);
  ir->RebuildIndexes();
  counters->predicates_specialized += touched.size();
  return rewrites;
}

size_t DeadRuleEliminationPass(ProgramIr* ir, const PassContext& ctx,
                               OptCounters* counters) {
  if (ctx.db == nullptr) return 0;
  size_t removed_total = 0;
  // Constant-vs-domain removals can expose more dead rules (the removed
  // rule was a predicate's only producer); iterate to a fixpoint.
  for (;;) {
    DomainAnalysis analysis = AnalyzeDomains(*ir, *ctx.db, ctx.max_domain);
    std::vector<bool> dead_flags(ir->rules().size(), false);
    size_t removed = 0;
    for (size_t i = 0; i < ir->rules().size(); ++i) {
      const RuleIr& rule = ir->rules()[i];
      bool dead = false;
      for (const Literal& lit : rule.rule.body) {
        if (lit.negated) continue;
        if (analysis.present.count(lit.atom.predicate) == 0) {
          dead = true;
          break;
        }
        auto it = analysis.domains.find(lit.atom.predicate);
        if (it == analysis.domains.end()) continue;
        for (size_t c = 0; c < lit.atom.args.size() && c < it->second.size();
             ++c) {
          const Term& t = lit.atom.args[c];
          if (t.is_constant() && !it->second[c].Contains(t.constant())) {
            dead = true;
            break;
          }
        }
        if (dead) break;
      }
      if (!dead) {
        // A positive variable with an empty meet can never bind.
        std::map<uint32_t, ColumnDomain> var_domains =
            PositiveVarDomains(rule.rule, analysis.domains);
        for (const auto& [var, dom] : var_domains) {
          (void)var;
          if (!dom.top && dom.values.empty()) {
            dead = true;
            break;
          }
        }
      }
      if (dead) {
        dead_flags[i] = true;
        ++removed;
      }
    }
    if (removed == 0) break;
    std::vector<RuleIr> kept;
    kept.reserve(ir->rules().size() - removed);
    for (size_t i = 0; i < ir->rules().size(); ++i) {
      if (!dead_flags[i]) kept.push_back(std::move(ir->rules()[i]));
    }
    ir->rules() = std::move(kept);
    ir->RebuildIndexes();
    removed_total += removed;
  }
  counters->rules_eliminated += removed_total;
  return removed_total;
}

size_t DemandPass(ProgramIr* ir, const std::vector<uint32_t>& goal_preds,
                  OptCounters* counters) {
  if (goal_preds.empty()) return 0;
  const TranslatedProgram& translated = ir->translated();
  std::set<uint32_t> live(goal_preds.begin(), goal_preds.end());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const RuleIr& rule : ir->rules()) {
      // Constraints are always demanded: they decide model existence and
      // P(consistent), which every marginal report conditions on.
      bool relevant = rule.rule.is_constraint ||
                      live.count(rule.rule.head.predicate) != 0;
      if (!relevant) continue;
      for (const Literal& lit : rule.rule.body) {
        changed |= live.insert(lit.atom.predicate).second;
      }
    }
    for (const DeltaSignature& sig : translated.signatures()) {
      if (live.count(sig.active_pred) != 0) {
        changed |= live.insert(sig.result_pred).second;
      }
      if (live.count(sig.result_pred) != 0) {
        changed |= live.insert(sig.active_pred).second;
      }
    }
  }
  size_t removed = 0;
  for (const RuleIr& rule : ir->rules()) {
    if (!rule.rule.is_constraint &&
        live.count(rule.rule.head.predicate) == 0) {
      ++removed;
    }
  }
  if (removed != 0) {
    std::vector<RuleIr> kept;
    kept.reserve(ir->rules().size() - removed);
    for (RuleIr& rule : ir->rules()) {
      if (rule.rule.is_constraint ||
          live.count(rule.rule.head.predicate) != 0) {
        kept.push_back(std::move(rule));
      }
    }
    ir->rules() = std::move(kept);
    ir->RebuildIndexes();
  }
  counters->demand_eliminated_rules += removed;
  return removed;
}

size_t SubjoinSharingPass(ProgramIr* ir, OptCounters* counters) {
  const TranslatedProgram& translated = ir->translated();
  Interner* interner = ir->interner();
  if (interner == nullptr) return 0;

  // The shareable shape of a rule body: skip the Result literals the
  // translation prepends (so an Active rule and its paired head rule align
  // on the original Π body), then take the maximal leading run of positive
  // literals.
  auto shape_of = [&](const Rule& rule, size_t* skip, size_t* run) {
    size_t i = 0;
    while (i < rule.body.size() && !rule.body[i].negated &&
           translated.IsResultPredicate(rule.body[i].atom.predicate)) {
      ++i;
    }
    *skip = i;
    size_t j = i;
    while (j < rule.body.size() && !rule.body[j].negated) ++j;
    *run = j - i;
  };

  struct Group {
    size_t stratum;
    std::vector<Literal> run;
    std::vector<size_t> members;
    std::vector<size_t> skips;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < ir->rules().size(); ++i) {
    const RuleIr& rule = ir->rules()[i];
    if (rule.rule.is_constraint || rule.aux_head || !rule.emit_body.empty()) {
      continue;
    }
    size_t skip = 0, run = 0;
    shape_of(rule.rule, &skip, &run);
    if (run < 2) continue;  // single-atom prefixes save no join work
    std::vector<Literal> run_lits(rule.rule.body.begin() + skip,
                                  rule.rule.body.begin() + skip + run);
    bool found = false;
    for (Group& group : groups) {
      if (group.stratum == rule.stratum && group.run == run_lits) {
        group.members.push_back(i);
        group.skips.push_back(skip);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.push_back(Group{rule.stratum, std::move(run_lits), {i}, {skip}});
    }
  }

  struct Rewrite {
    Atom aux_atom;
    size_t skip;
    size_t run;
  };
  std::map<size_t, RuleIr> aux_by_position;  // first-consumer index → aux rule
  std::map<size_t, Rewrite> rewrites;
  size_t shared = 0;
  for (Group& group : groups) {
    if (group.members.size() < 2) continue;
    std::string name = "__join_" + std::to_string(shared);
    while (interner->Lookup(name) != Interner::kNotFound) name += "_";
    uint32_t aux_pred = interner->Intern(name);

    // Project every variable of the shared run, in first-occurrence order:
    // consumers' heads, negatives and tails may use any of them.
    std::vector<uint32_t> vars;
    for (const Literal& lit : group.run) {
      for (const Term& t : lit.atom.args) {
        if (t.is_variable() &&
            std::find(vars.begin(), vars.end(), t.var_id()) == vars.end()) {
          vars.push_back(t.var_id());
        }
      }
    }

    RuleIr aux;
    aux.rule.head.predicate = aux_pred;
    for (uint32_t v : vars) {
      aux.rule.head.args.push_back(HeadArg(Term::Variable(v)));
    }
    aux.rule.body = group.run;
    aux.aux_head = true;
    aux.origin = ir->rules()[group.members.front()].origin;
    aux.stratum = group.stratum;

    Atom aux_atom;
    aux_atom.predicate = aux_pred;
    for (uint32_t v : vars) aux_atom.args.push_back(Term::Variable(v));
    aux_by_position.emplace(group.members.front(), std::move(aux));
    for (size_t k = 0; k < group.members.size(); ++k) {
      rewrites.emplace(group.members[k],
                       Rewrite{aux_atom, group.skips[k], group.run.size()});
    }
    ++shared;
  }
  if (shared == 0) return 0;

  std::vector<RuleIr> out;
  out.reserve(ir->rules().size() + shared);
  for (size_t i = 0; i < ir->rules().size(); ++i) {
    auto aux = aux_by_position.find(i);
    if (aux != aux_by_position.end()) out.push_back(std::move(aux->second));
    RuleIr rule = std::move(ir->rules()[i]);
    auto rewrite = rewrites.find(i);
    if (rewrite != rewrites.end()) {
      const Rewrite& r = rewrite->second;
      rule.emit_body = rule.rule.body;  // ground output keeps this form
      std::vector<Literal> body(rule.rule.body.begin(),
                                rule.rule.body.begin() + r.skip);
      body.push_back(Literal{r.aux_atom, /*negated=*/false});
      body.insert(body.end(), rule.rule.body.begin() + r.skip + r.run,
                  rule.rule.body.end());
      rule.rule.body = std::move(body);
    }
    out.push_back(std::move(rule));
  }
  ir->rules() = std::move(out);
  ir->RebuildIndexes();
  counters->subjoins_shared += shared;
  return shared;
}

}  // namespace gdlog
