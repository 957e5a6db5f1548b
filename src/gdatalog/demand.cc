#include "gdatalog/demand.h"

#include <set>
#include <utility>

namespace gdlog {

size_t RestrictToDemand(TranslatedProgram* translated,
                        const std::vector<uint32_t>& goal_preds) {
  if (goal_preds.empty()) return 0;
  const std::vector<Rule>& rules = translated->sigma().rules();
  std::set<uint32_t> live(goal_preds.begin(), goal_preds.end());
  auto demanded = [&](const Rule& rule) {
    return rule.is_constraint || live.count(rule.head.predicate) != 0;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules) {
      if (!demanded(rule)) continue;
      for (const Literal& lit : rule.body) {
        changed |= live.insert(lit.atom.predicate).second;
      }
    }
    for (const DeltaSignature& sig : translated->signatures()) {
      if (live.count(sig.active_pred) != 0) {
        changed |= live.insert(sig.result_pred).second;
      }
      if (live.count(sig.result_pred) != 0) {
        changed |= live.insert(sig.active_pred).second;
      }
    }
  }
  std::vector<Rule> kept;
  std::vector<size_t> origin;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!demanded(rules[i])) continue;
    kept.push_back(rules[i]);
    origin.push_back(translated->origin()[i]);
  }
  size_t dropped = rules.size() - kept.size();
  if (dropped != 0) translated->ReplaceRules(std::move(kept), std::move(origin));
  return dropped;
}

}  // namespace gdlog
