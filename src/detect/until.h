// Algorithm A3 (Fig. 5): E[p U q] for p conjunctive and q linear, and the
// derived A[p U q] for disjunctive p, q.
//
// Theorem 7: E[p U q] holds iff there is a cut sequence from the initial cut
// to I_q (the least cut satisfying q) with p holding before I_q. So it
// suffices to (1) compute I_q by Chase–Garg advancement and (2) decide
// EG(p) inside one of the sub-computations E' = I_q \ {e}, e ∈ frontier(I_q)
// — and EG of a conjunctive predicate is an O(|E|) position scan. Overall
// O(n|E|).
//
// AU uses the CTL identity
//   A[p U q] ⟺ ¬( EG(¬q) ∨ E[¬q U (¬p ∧ ¬q)] )
// which for disjunctive p, q turns both operands into conjunctive-input
// problems (¬q conjunctive; ¬p ∧ ¬q conjunctive hence linear).
#pragma once

#include "detect/detector.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"

namespace hbct {

/// E[p U q], p conjunctive, q linear (q must carry a linear-advancement
/// oracle; any class whose closure includes kClassLinear works).
/// On success witness_cut = I_q and witness_path is a full witness prefix
/// ∅ … I_q.
DetectResult detect_eu(const Computation& c, const ConjunctivePredicate& p,
                       const Predicate& q, const Budget& budget = {});

/// Theorem 7's footnote: q need not be linear — a least satisfying cut
/// suffices. This entry point runs A3's Step 2 with a caller-supplied I_q
/// (computed by any means, e.g. brute force or domain knowledge). I_q must
/// be consistent; pass the initial cut when q holds initially. Step 2
/// decides through one transient EgPrefixState (detect/until_inc.h), so
/// the overlapping per-frontier-event EG(p) sweeps scan each position once.
DetectResult detect_eu_at(const Computation& c, const ConjunctivePredicate& p,
                          const Cut& iq, const Budget& budget = {});

/// A[p U q], p and q disjunctive: holds unless one of the two refuters
/// EG(¬q) or E[¬q U (¬p ∧ ¬q)] holds, tried in that order.
DetectResult detect_au_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const DisjunctivePredicate& q,
                                   const Budget& budget = {});

}  // namespace hbct
