// Detection of disjunctive predicates.
//
//  EF — position scan: some disjunct holds at some local position (every
//       local position occurs in a consistent cut). The scan is the
//       resumable DisjunctiveScan below: detect_ef_disjunctive runs it once
//       to the final cut, and the online monitor's disjunctive watches run
//       the same machine to the frozen limits as events arrive.
//  AF — disjunctive predicates are observer-independent, so AF ⟺ EF.
//  EG — interval-chain search: a maximal cut sequence on which "some
//       disjunct always holds" exists iff there is a chain of true-intervals
//       (maximal runs of positions where one disjunct holds) that starts at
//       an interval containing position 0, ends at an interval containing a
//       process's final position, and where the path can switch from holding
//       interval I = (i, [a,b]) to J = (j, [c,d]) — possible iff event
//       (j, c) does not causally require event (i, b+1). Reachability is
//       computed as a fixpoint over per-process hold bounds.
//  AG — ¬EF(¬p) with ¬p conjunctive (Chase–Garg).
#pragma once

#include "detect/detector.h"
#include "predicate/disjunctive.h"

namespace hbct {

/// The first-true scan behind EF(p) for disjunctive p, as a resumable state
/// machine: disjuncts in process order, each scanned up to its process's
/// limit, stopping at the first true local state. Disjuncts on processes
/// outside the computation are ignored. Lifetimes and growth as for
/// WeakConjunctiveSearch.
class DisjunctiveScan {
 public:
  void bind(const Computation& c, const DisjunctivePredicate& p);

  /// As WeakConjunctiveSearch::advance_to.
  SearchStatus advance_to(const Cut& limits, DetectStats& st,
                          BudgetTracker& t);

  /// After kFound: the least cut containing the true local state, J(e) (the
  /// initial cut for position 0).
  Cut witness() const;

  /// As WeakConjunctiveSearch::scan_floor / state_bytes.
  EventIndex scan_floor(ProcId i, EventIndex floor) const;
  std::size_t state_bytes() const;

 private:
  const Computation* c_ = nullptr;
  std::vector<const LocalPredicate*> locals_;  // sorted by process
  std::vector<EventIndex> scan_;               // per disjunct
  std::size_t found_ = 0;                      // the true disjunct
};

/// EF(p) for disjunctive p. witness_cut = least cut J(e) making a disjunct
/// true (or the initial cut).
DetectResult detect_ef_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget = {});

/// AF(p) ⟺ EF(p) (observer independence).
DetectResult detect_af_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget = {});

/// EG(p) via the true-interval chain fixpoint. Polynomial in the number of
/// true-intervals (≤ |E| + n).
DetectResult detect_eg_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget = {});

/// AG(p) = ¬EF(¬p) via Chase–Garg on the conjunctive negation.
DetectResult detect_ag_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget = {});

}  // namespace hbct
