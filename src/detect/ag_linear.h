// Algorithm A2 (Fig. 1): AG(p) — invariant: p — for linear predicates.
//
// By Birkhoff's representation theorem every consistent cut except the final
// cut is the meet of the meet-irreducible cuts above it (Corollary 4), and
// for a linear (meet-closed) predicate truth at the meet-irreducibles
// implies truth at all their meets. So AG(p) ⟺ p holds at every
// M(e) = E \ up-set(e) and at the final cut: |E| + 1 evaluations. The
// meet-irreducibles come straight from the reverse vector clocks
// (M(e)[j] = N_j - rvc(e)[j]), improving on the O(n^2|E|) slicing route
// the paper cites.
//
// The sweep reads only what the predicate reads. It visits the M(e_{i,k})
// process by process in k order and moves only the components of the
// predicate's support S (Predicate::support). For a non-send event
// e_{i,k}, up-set(e_{i,k}) = {e_{i,k}} ∪ up-set(e_{i,k+1}), so M(i,k) and
// M(i,k+1) differ only in component i; the sweep therefore re-reads the
// support's reverse-clock entries only at k = 1 and after a send, and
// otherwise moves component i alone. Cost: the reverse-clock column blocks
// that hold S (Computation::reverse_clocks; O(|E|) per block of 8
// processes, derived once per computation), plus O(|E| + sends·|S|) entry
// reads and cursor updates. A violating irreducible's witness is searched
// from forward clocks (Computation::meet_irreducible_of), so it derives no
// further block.
//
// The dual detects post-linear predicates on the join-irreducibles
// J(e) = down-set(e) plus the initial cut. J(i,k) = vc(i,k), and J(i,k+1)
// differs from J(i,k) outside component i only when e_{i,k+1} is a
// receive, so the dual re-reads a clock row only at k = 1 and at receives.
//
// Both report the same verdict, witness and DetectStats as a sweep that
// moves every component to the full irreducible: the evaluation order and
// counts are those of the |E| + 1 irreducibles, and a violating
// irreducible is rebuilt in full for the witness.
#pragma once

#include "detect/detector.h"

namespace hbct {

/// AG(p) for linear p. On failure witness_cut is a violating cut.
DetectResult detect_ag_linear(const Computation& c, const Predicate& p,
                              const Budget& budget = {});

/// AG(p) for post-linear p (join-irreducibles + initial cut).
DetectResult detect_ag_post_linear(const Computation& c,
                                   const Predicate& p,
                                   const Budget& budget = {});

}  // namespace hbct
