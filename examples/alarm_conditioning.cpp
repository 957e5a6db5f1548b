// Bayesian-style conditioning with the PPDL constraint component: the
// classic burglary/earthquake/alarm network. Constraints encode observed
// evidence; conditioning on "some stable model exists" (= evidence holds)
// turns the prior chase distribution into the posterior.
//
//   $ ./build/examples/alarm_conditioning
#include <cstdio>

#include "gdatalog/engine.h"

int main() {
  const char* program = R"(
    burglary(flip<0.1>).
    earthquake(flip<0.2>).
    alarm :- burglary(1).
    alarm :- earthquake(1).
    % Each neighbour independently calls when the alarm rings.
    calls(X, flip<0.7>[X]) :- neighbor(X), alarm.
    % Observed evidence: john called. Outcomes violating the evidence have
    % no stable model and are conditioned away.
    :- not calls(john, 1).
  )";
  const char* db = "neighbor(john). neighbor(mary).";

  auto engine = gdlog::GDatalog::Create(program, db);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto space = engine->Infer();
  if (!space.ok()) {
    std::fprintf(stderr, "error: %s\n", space.status().ToString().c_str());
    return 1;
  }

  const gdlog::Prob evidence = space->ProbConsistent();
  std::printf("outcomes: %zu, evidence probability P(john calls) = %s\n",
              space->outcomes.size(), evidence.ToString().c_str());

  auto report = [&](const char* label, const char* atom_text) {
    auto atom = engine->ParseGroundAtom(atom_text);
    if (!atom.ok()) return;
    auto posterior = space->MarginalGivenConsistent(*atom, evidence);
    auto prior = space->Marginal(*atom);
    if (posterior) {
      std::printf("%-28s prior(joint)=%-8s posterior=%s (= %.5f)\n", label,
                  prior.lower.ToString().c_str(),
                  posterior->lower.ToString().c_str(),
                  posterior->lower.value());
    }
  };

  // P(burglary | john calls), P(earthquake | john calls),
  // P(mary also calls | john calls).
  report("P(burglary | evidence)", "burglary(1)");
  report("P(earthquake | evidence)", "earthquake(1)");
  report("P(mary calls | evidence)", "calls(mary, 1)");

  // Sanity: P(alarm | john calls) must be 1 — john cannot call otherwise.
  auto alarm = engine->ParseGroundAtom("alarm");
  auto posterior = space->MarginalGivenConsistent(*alarm, evidence);
  std::printf("P(alarm | evidence)          = %s\n",
              posterior->lower.ToString().c_str());
  return 0;
}
