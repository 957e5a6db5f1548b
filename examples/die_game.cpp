// The Appendix-B biased die, in a small game: two players roll dice with
// different biases; the higher roll wins; ties are re-rolled... except
// GDatalog¬ has no recursion over re-rolls with fresh randomness per
// attempt unless we index the event signature by attempt — which is
// exactly what Δ-term event signatures are for. We bound attempts and
// condition on the game finishing.
//
//   $ ./build/examples/die_game
#include <cstdio>

#include "gdatalog/engine.h"

int main() {
  // Player 1 rolls a fair-ish die, player 2 a loaded one (6 with p=1/2).
  // attempt(A) enumerates bounded retry rounds; the game resolves at the
  // first attempt whose rolls differ; a constraint conditions on the game
  // resolving within the bound.
  const char* program = R"(
    roll(1, A, die<0.2, 0.2, 0.2, 0.2, 0.1, 0.1>[1, A]) :- attempt(A).
    roll(2, A, die<0.1, 0.1, 0.1, 0.1, 0.1, 0.5>[2, A]) :- attempt(A).

    tie(A) :- roll(1, A, V), roll(2, A, V).
    % The first non-tie attempt decides the game: attempt A is decisive if
    % it is not a tie and all earlier attempts were ties.
    earlier_nontie(A) :- attempt(A), attempt(B), before(B, A), not tie(B).
    decisive(A) :- attempt(A), not tie(A), not earlier_nontie(A).

    wins(1) :- decisive(A), roll(1, A, V1), roll(2, A, V2), greater(V1, V2).
    wins(2) :- decisive(A), roll(1, A, V1), roll(2, A, V2), greater(V2, V1).

    resolved :- decisive(A).
    :- not resolved.
  )";

  // Two attempts; greater/2 as an explicit EDB relation over die faces.
  std::string db = "attempt(1). attempt(2). before(1, 2).\n";
  for (int i = 1; i <= 6; ++i) {
    for (int j = 1; j < i; ++j) {
      db += "greater(" + std::to_string(i) + "," + std::to_string(j) + ").\n";
    }
  }

  auto engine = gdlog::GDatalog::Create(program, db);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("grounder: %.*s, stratified: %s\n",
              static_cast<int>(engine->grounder().name().size()),
              engine->grounder().name().data(),
              engine->stratified() ? "yes" : "no");

  auto space = engine->Infer();
  if (!space.ok()) {
    std::fprintf(stderr, "error: %s\n", space.status().ToString().c_str());
    return 1;
  }
  const gdlog::Prob resolved = space->ProbConsistent();
  std::printf("outcomes: %zu, P(resolved within 2 attempts) = %s\n",
              space->outcomes.size(), resolved.ToString().c_str());

  auto p1 = engine->ParseGroundAtom("wins(1)");
  auto p2 = engine->ParseGroundAtom("wins(2)");
  auto w1 = space->MarginalGivenConsistent(*p1, resolved);
  auto w2 = space->MarginalGivenConsistent(*p2, resolved);
  if (w1 && w2) {
    std::printf("P(player 1 wins | resolved) = %s (= %.4f)\n",
                w1->lower.ToString().c_str(), w1->lower.value());
    std::printf("P(player 2 wins | resolved) = %s (= %.4f)\n",
                w2->lower.ToString().c_str(), w2->lower.value());
    double total = w1->lower.value() + w2->lower.value();
    std::printf("sanity: winners partition resolved games: %.6f (expect 1)\n",
                total);
    return total > 0.999999 && total < 1.000001 ? 0 : 1;
  }
  return 1;
}
