#include "opt/ir.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "gdatalog/translation.h"
#include "ground/dependency_graph.h"

namespace gdlog {

bool ColumnDomain::Join(const ColumnDomain& other, size_t cap) {
  if (top) return false;
  if (other.top) {
    top = true;
    values.clear();
    return true;
  }
  bool changed = false;
  for (const Value& v : other.values) changed |= JoinValue(v, cap);
  return changed;
}

bool ColumnDomain::JoinValue(const Value& v, size_t cap) {
  if (top) return false;
  if (!values.insert(v).second) return false;
  if (values.size() > cap) {
    top = true;
    values.clear();
  }
  return true;
}

DbSummary SummarizeDb(const FactStore& db, size_t max_domain_values) {
  DbSummary out;
  std::vector<uint32_t> preds = db.Predicates();
  std::sort(preds.begin(), preds.end());
  for (uint32_t pred : preds) {
    const std::vector<Tuple>& rows = db.Rows(pred);
    DbSummary::PredicateSummary& summary = out.predicates[pred];
    summary.rows = rows.size();
    if (rows.empty()) continue;
    summary.columns.assign(rows[0].size(), ColumnDomain{});
    for (const Tuple& row : rows) {
      if (row.size() != summary.columns.size()) {
        // Ragged relation (cannot happen through the parser, but stay
        // sound): give up on column precision entirely.
        for (ColumnDomain& col : summary.columns) col = ColumnDomain::Top();
        break;
      }
      for (size_t c = 0; c < row.size(); ++c) {
        summary.columns[c].JoinValue(row[c], max_domain_values);
      }
    }
  }
  return out;
}

bool PipelineEquivalent(const DbSummary& a, const DbSummary& b) {
  if (a.predicates.size() != b.predicates.size()) return false;
  auto ia = a.predicates.begin();
  auto ib = b.predicates.begin();
  for (; ia != a.predicates.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    if ((ia->second.rows > 0) != (ib->second.rows > 0)) return false;
    if (!(ia->second.columns == ib->second.columns)) return false;
  }
  return true;
}

void UpdateSummaryForDelta(DbSummary* summary, const FactStore& db,
                           const DeltaRanges& ranges,
                           size_t max_domain_values) {
  for (const auto& [pred, range] : ranges.ranges) {
    if (range.end <= range.begin) continue;
    const std::vector<Tuple>& rows = db.Rows(pred);
    DbSummary::PredicateSummary& s = summary->predicates[pred];
    for (uint32_t r = range.begin; r < range.end && r < rows.size(); ++r) {
      const Tuple& row = rows[r];
      if (s.rows == 0 && s.columns.empty()) {
        s.columns.assign(row.size(), ColumnDomain{});
      }
      ++s.rows;
      if (row.size() != s.columns.size()) {
        // Ragged relation: mirror SummarizeDb's fallback.
        for (ColumnDomain& col : s.columns) col = ColumnDomain::Top();
        continue;
      }
      for (size_t c = 0; c < row.size(); ++c) {
        s.columns[c].JoinValue(row[c], max_domain_values);
      }
    }
  }
}

namespace {

size_t StratumOfOrigin(const Program& pi, const std::map<uint32_t, size_t>& strata,
                       size_t origin) {
  const Rule& rule = pi.rules()[origin];
  if (rule.is_constraint) return ProgramIr::kConstraintStratum;
  auto it = strata.find(rule.head.predicate);
  return it == strata.end() ? 0 : it->second;
}

/// "p/bf" for one literal given the variables bound so far.
std::string AdornLiteral(const Atom& atom, const std::set<uint32_t>& bound,
                         const Interner* interner) {
  std::string out =
      interner != nullptr ? interner->Name(atom.predicate) : "?";
  out += "/";
  for (const Term& t : atom.args) {
    out += (t.is_constant() || bound.count(t.var_id()) != 0) ? 'b' : 'f';
  }
  return out;
}

std::string AdornRule(const Rule& rule, const Interner* interner) {
  std::set<uint32_t> bound;
  std::string body;
  for (const Literal& lit : rule.body) {
    if (!body.empty()) body += ", ";
    if (lit.negated) body += "not ";
    body += AdornLiteral(lit.atom, bound, interner);
    if (!lit.negated) {
      for (const Term& t : lit.atom.args) {
        if (t.is_variable()) bound.insert(t.var_id());
      }
    }
  }
  if (rule.is_constraint) return "<- " + body;
  std::string head =
      interner != nullptr ? interner->Name(rule.head.predicate) : "?";
  head += "/";
  for (const HeadArg& arg : rule.head.args) {
    if (arg.is_delta()) {
      head += 'd';
    } else {
      const Term& t = arg.term();
      head += (t.is_constant() || bound.count(t.var_id()) != 0) ? 'b' : 'f';
    }
  }
  return head + " <- " + body;
}

}  // namespace

ProgramIr ProgramIr::LiftSigma(const Program& pi,
                               const TranslatedProgram& translated,
                               Interner* interner) {
  ProgramIr ir;
  ir.interner_ = interner;
  ir.translated_ = &translated;
  DependencyGraph dg(pi);
  const std::map<uint32_t, size_t>& strata = dg.Strata();
  const Program& sigma = translated.sigma();
  ir.rules_.reserve(sigma.rules().size());
  for (size_t i = 0; i < sigma.rules().size(); ++i) {
    RuleIr rule;
    rule.rule = sigma.rules()[i];
    rule.origin = translated.origin()[i];
    rule.stratum = rule.rule.is_constraint
                       ? kConstraintStratum
                       : StratumOfOrigin(pi, strata, rule.origin);
    if (i < translated.exec_info().size()) {
      rule.aux_head = translated.exec_info()[i].aux_head;
      rule.emit_body = translated.exec_info()[i].emit_body;
    }
    ir.rules_.push_back(std::move(rule));
  }
  ir.RebuildIndexes();
  return ir;
}

void ProgramIr::RebuildIndexes() {
  arities_.clear();
  for (RuleIr& rule_ir : rules_) {
    const Rule& rule = rule_ir.rule;
    if (!rule.is_constraint) {
      arities_[rule.head.predicate] = rule.head.args.size();
    }
    for (const Literal& lit : rule.body) {
      arities_[lit.atom.predicate] = lit.atom.args.size();
    }
    rule_ir.adornment = AdornRule(rule, interner_);
  }
}

std::string ProgramIr::Dump() const {
  std::ostringstream out;
  out << "ProgramIr: " << rules_.size() << " rules\n";
  for (size_t i = 0; i < rules_.size(); ++i) {
    const RuleIr& rule = rules_[i];
    out << "r" << i << " [o" << rule.origin << " s";
    if (rule.stratum == kConstraintStratum) {
      out << "C";
    } else {
      out << rule.stratum;
    }
    if (rule.aux_head) out << " aux";
    out << "] " << rule.rule.ToString(interner_) << "\n";
    out << "    adorn: " << rule.adornment << "\n";
    if (!rule.emit_body.empty()) {
      out << "    emit:";
      for (const Literal& lit : rule.emit_body) {
        out << " " << lit.ToString(interner_);
      }
      out << "\n";
    }
  }
  return out.str();
}

void ProgramIr::ApplyTo(TranslatedProgram* out) const {
  std::vector<Rule> rules;
  std::vector<size_t> origin;
  std::vector<RuleExecInfo> exec_info;
  rules.reserve(rules_.size());
  origin.reserve(rules_.size());
  exec_info.reserve(rules_.size());
  for (const RuleIr& rule : rules_) {
    rules.push_back(rule.rule);
    origin.push_back(rule.origin);
    RuleExecInfo info;
    info.aux_head = rule.aux_head;
    info.emit_body = rule.emit_body;
    exec_info.push_back(std::move(info));
  }
  out->ReplaceRules(std::move(rules), std::move(origin), std::move(exec_info));
}

}  // namespace gdlog
