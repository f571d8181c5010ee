// Join- and meet-irreducible elements of an explicit lattice, plus direct
// O(n|E|) extraction from a computation without building the lattice.
//
// Birkhoff's representation theorem (Theorem 3 in the paper) makes the
// irreducibles the "primes" of a finite distributive lattice: every element
// is the meet of the meet-irreducibles above it (Corollary 4), and the
// meet-irreducibles of C(E) correspond one-to-one with the events of E via
// M(e) = E \ up-set(e). Algorithm A2 rests on this.
#pragma once

#include <vector>

#include "lattice/lattice.h"
#include "poset/computation.h"

namespace hbct {

/// Cover-degree extraction on the explicit lattice: an element is
/// meet-irreducible iff it has exactly one upper cover (and is not the top).
std::vector<NodeId> meet_irreducibles(const Lattice& lat);
/// Dually: exactly one lower cover and not the bottom.
std::vector<NodeId> join_irreducibles(const Lattice& lat);

/// Direct extraction from the computation: the cuts M(e) = E \ up-set(e)
/// for every event e, read off every reverse-clock column block
/// (Computation::reverse_clocks) in O(n|E|) — no lattice construction.
/// A2 reads the same columns, but only its predicate's support.
std::vector<Cut> meet_irreducible_cuts(const Computation& c);
/// Dually the cuts J(e) = down-set(e) (the events' vector clocks).
std::vector<Cut> join_irreducible_cuts(const Computation& c);

/// Birkhoff reconstruction: the meet of all meet-irreducible cuts that
/// contain `g` (Corollary 4 evaluates to `g` itself for every consistent g
/// except the final cut, for which the meet over the empty set is E).
Cut birkhoff_meet_reconstruction(const Computation& c, const Cut& g);
/// Dually: join of all join-irreducible cuts below `g`.
Cut birkhoff_join_reconstruction(const Computation& c, const Cut& g);

}  // namespace hbct
