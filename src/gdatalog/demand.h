#ifndef GDLOG_GDATALOG_DEMAND_H_
#define GDLOG_GDATALOG_DEMAND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gdatalog/translation.h"

namespace gdlog {

/// Magic-sets demand restriction of Σ_Π: keeps only the rules in the
/// backward closure of `goal_preds` through rule bodies, plus every
/// constraint (constraints decide model existence, which P(consistent)
/// and every conditioned marginal read) and, for each Active or Result
/// predicate the closure reaches, its partner of the pair. Rules keep
/// their order and origin. Drops derived facts outside the closure, so
/// callers apply it only to a stratified Π whose observers read goal
/// marginals and P(consistent) alone (see ROADMAP's correctness
/// argument). Returns the number of rules dropped; empty goals drop none.
size_t RestrictToDemand(TranslatedProgram* translated,
                        const std::vector<uint32_t>& goal_preds);

/// The predicate name of a query atom in surface syntax ("infected(2, 1)"
/// → "infected"); empty when the text has no leading name. How gdlog_cli
/// and the serving layer turn queried atoms into demand goals.
std::string QueryPredicateName(std::string_view text);

}  // namespace gdlog

#endif  // GDLOG_GDATALOG_DEMAND_H_
