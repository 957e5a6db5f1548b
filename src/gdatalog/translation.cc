#include "gdatalog/translation.h"

namespace gdlog {

const DeltaSignature* TranslatedProgram::SignatureByActive(
    uint32_t pred) const {
  auto it = by_active_.find(pred);
  if (it == by_active_.end()) return nullptr;
  return &signatures_[it->second];
}

const DeltaSignature* TranslatedProgram::SignatureByResult(
    uint32_t pred) const {
  auto it = by_result_.find(pred);
  if (it == by_result_.end()) return nullptr;
  return &signatures_[it->second];
}

void TranslatedProgram::ReplaceRules(std::vector<Rule> rules,
                                     std::vector<size_t> origin) {
  Program replacement(sigma_.shared_interner());
  for (Rule& rule : rules) replacement.AddRule(std::move(rule));
  sigma_ = std::move(replacement);
  origin_ = std::move(origin);
}

TranslatedProgram TranslatedProgram::CloneWith(
    std::shared_ptr<Interner> interner) const {
  TranslatedProgram copy;
  copy.sigma_ = sigma_.CloneWith(std::move(interner));
  copy.origin_ = origin_;
  copy.signatures_ = signatures_;
  copy.by_active_ = by_active_;
  copy.by_result_ = by_result_;
  return copy;
}

Result<TranslatedProgram> TranslateToTgd(const Program& pi,
                                         const DistributionRegistry& registry) {
  TranslatedProgram out;
  out.sigma_ = Program(pi.shared_interner());
  Interner* interner = out.sigma_.interner();

  // Keyed by (dist_id, param_count, event_count).
  std::map<std::tuple<uint32_t, size_t, size_t>, size_t> sig_index;

  auto get_signature =
      [&](const DeltaTerm& dt) -> Result<const DeltaSignature*> {
    const std::string& dist_name = interner->Name(dt.dist_id);
    const Distribution* dist = registry.Lookup(dist_name);
    if (dist == nullptr) {
      return Status::NotFound("unknown distribution '" + dist_name + "'");
    }
    if (!dist->AcceptsDim(dt.params.size())) {
      return Status::InvalidArgument(
          "distribution '" + dist_name + "' rejects parameter dimension " +
          std::to_string(dt.params.size()));
    }
    auto key = std::make_tuple(dt.dist_id, dt.params.size(), dt.events.size());
    auto it = sig_index.find(key);
    if (it == sig_index.end()) {
      DeltaSignature sig;
      sig.dist_id = dt.dist_id;
      sig.dist = dist;
      sig.param_count = dt.params.size();
      sig.event_count = dt.events.size();
      std::string suffix = dist_name + "_" + std::to_string(dt.params.size()) +
                           "_" + std::to_string(dt.events.size());
      sig.active_pred = interner->Intern("__active_" + suffix);
      sig.result_pred = interner->Intern("__result_" + suffix);
      size_t idx = out.signatures_.size();
      out.signatures_.push_back(sig);
      out.by_active_.emplace(sig.active_pred, idx);
      out.by_result_.emplace(sig.result_pred, idx);
      it = sig_index.emplace(key, idx).first;
    }
    return &out.signatures_[it->second];
  };

  // Fresh existential variables y_1, y_2, ... for Result positions. Using
  // reserved names keeps them distinct from user variables.
  size_t fresh_counter = 0;
  auto fresh_var = [&]() {
    return Term::Variable(
        interner->Intern("__y" + std::to_string(fresh_counter++)));
  };

  for (size_t ri = 0; ri < pi.rules().size(); ++ri) {
    const Rule& rule = pi.rules()[ri];
    if (rule.is_constraint) {
      // Constraints carry no head (and hence no Δ-terms); they pass through
      // verbatim. (The paper treats ⊥ as sugar for the Fail/Aux encoding —
      // Program::DesugarConstraints materializes that encoding; keeping
      // constraints native is semantically equivalent and preserves
      // stratification.)
      out.sigma_.AddRule(rule);
      out.origin_.push_back(ri);
      continue;
    }
    if (rule.head.IsPlain()) {
      out.sigma_.AddRule(rule);
      out.origin_.push_back(ri);
      continue;
    }

    // One Active-head rule per Δ-term, plus the Result-joined head rule.
    Rule head_rule;
    head_rule.body = rule.body;
    head_rule.head.predicate = rule.head.predicate;

    for (const HeadArg& arg : rule.head.args) {
      if (!arg.is_delta()) {
        head_rule.head.args.push_back(arg);
        continue;
      }
      const DeltaTerm& dt = arg.delta();
      GDLOG_ASSIGN_OR_RETURN(const DeltaSignature* sig, get_signature(dt));

      // body → Active(p̄, q̄)
      Rule active_rule;
      active_rule.body = rule.body;
      active_rule.head.predicate = sig->active_pred;
      for (const Term& t : dt.params) active_rule.head.args.push_back(HeadArg(t));
      for (const Term& t : dt.events) active_rule.head.args.push_back(HeadArg(t));
      out.sigma_.AddRule(std::move(active_rule));
      out.origin_.push_back(ri);

      // Result(p̄, q̄, y_j) joins into the head rule's body.
      Term y = fresh_var();
      Atom result_atom;
      result_atom.predicate = sig->result_pred;
      for (const Term& t : dt.params) result_atom.args.push_back(t);
      for (const Term& t : dt.events) result_atom.args.push_back(t);
      result_atom.args.push_back(y);
      head_rule.body.insert(head_rule.body.begin(),
                            Literal{std::move(result_atom), /*negated=*/false});
      head_rule.head.args.push_back(HeadArg(y));
    }

    out.sigma_.AddRule(std::move(head_rule));
    out.origin_.push_back(ri);
  }

  GDLOG_RETURN_IF_ERROR(out.sigma_.Validate());
  return out;
}

}  // namespace gdlog
