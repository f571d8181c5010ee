// Test oracles: the reference implementations the suite checks the
// library against. They are linked into hbct_tests only; no library code
// calls them.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/brute_force.h"
#include "detect/detector.h"
#include "predicate/conjunctive.h"

namespace hbct {

/// Reference implementation of A3's Step 2, the test oracle for
/// detect_eu_at / EgPrefixState: the literal frontier sweep, one
/// sequential EG(p) scan of each sub-computation E' = I_q \ {e} in
/// frontier order, committing to the first that holds. Same contract and
/// result — verdict, witnesses, BoundReason and DetectStats — as
/// detect_eu_at; no production code calls it.
DetectResult detect_eu_at_reference(const Computation& c,
                                    const ConjunctivePredicate& p,
                                    const Cut& iq, const Budget& budget = {});

/// Ground-truth membership of a predicate's satisfying set in the
/// lattice-theoretic classes, by exhaustive check on the explicit lattice.
/// O(S^2) for the semilattice checks (S = number of satisfying cuts).
struct BruteClassCheck {
  bool linear = false;        // meet-closed
  bool post_linear = false;   // join-closed
  bool regular = false;       // both
  bool stable = false;        // up-closed
  bool observer_independent = false;  // EF(p) == AF(p) on this computation
};

BruteClassCheck brute_check_classes(const LatticeChecker& chk,
                                    const Predicate& p);

/// Reference reverse clocks: the whole n-wide row of every event, derived
/// by one backward pass over the linearization (a row copies its
/// same-process successor's row, a send merges its receive's row, and the
/// event's own process counts its suffix). rows[i][k - 1] is rvc((i, k)).
/// The test oracle for Computation::reverse_clocks' column blocks.
std::vector<std::vector<std::vector<std::int32_t>>> reverse_clock_rows(
    const Computation& c);

/// rvc((i, idx)) read entry by entry through Computation::reverse_clocks
/// (every column).
std::vector<std::int32_t> reverse_clock_row(const Computation& c, ProcId i,
                                            EventIndex idx);

}  // namespace hbct
