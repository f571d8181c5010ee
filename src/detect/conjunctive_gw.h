// Detection of conjunctive predicates (Garg–Waldecker and consequences).
//
//  EF — the weak-conjunctive algorithm: per-process candidate positions
//       advanced by vector-clock consistency violations until the least
//       satisfying cut is found. Independent of (and cross-checked against)
//       the Chase–Garg linear route. The search is the resumable
//       WeakConjunctiveSearch below: detect_ef_conjunctive runs it once to
//       the final cut, and the online monitor's conjunctive and invariant
//       watches run the same machine to the frozen limits as events arrive.
//  EG/AG — for conjunctive p both collapse to "every conjunct holds at every
//       local position": any maximal cut sequence drives every process
//       through every local position, so one false position kills EG; and
//       every local position occurs in some consistent cut (J(e)), so one
//       false position kills AG too. O(|E|) local evaluations. This scan is
//       the O(|E|) step the paper's A3 cites from the slicing literature.
//  AF — Garg–Waldecker strong conjunctive detection: AF(p) holds iff an
//       *unavoidable box* of true-intervals exists (one interval per
//       process, with every pair forced to overlap in every execution).
//       The disjunctive EG detector is its dual (EG(q) = ¬AF(¬q)).
#pragma once

#include <vector>

#include "detect/detector.h"
#include "predicate/conjunctive.h"

namespace hbct {

/// Garg–Waldecker weak-conjunctive candidate search as a resumable state
/// machine: per process a candidate position (-1: unset) and the next
/// position to scan. A found cut is the least satisfying cut below the
/// limits, so it never changes when they grow. Not thread-safe; the
/// computation and predicate must outlive the search. The computation may
/// grow between calls (and be prefix-collected below scan_floor()), but
/// not during one.
class WeakConjunctiveSearch {
 public:
  /// `streaming` selects the online watch conventions. An exhausted
  /// process then leaves the search waiting for events while the other
  /// processes keep scanning (so their GC pins advance), and a repair is
  /// charged one cut step when made. Offline, the search ends at the first
  /// exhausted process, and a repair is charged only once it finds a new
  /// candidate.
  void bind(const Computation& c, const ConjunctivePredicate& p,
            bool streaming);

  /// Resumes the search with positions up to limits[i] (inclusive)
  /// available on each process. Every evaluation is charged to `st` and
  /// gated on `t`; a tripped tracker suspends the search where it stopped.
  SearchStatus advance_to(const Cut& limits, DetectStats& st,
                          BudgetTracker& t);

  /// The candidate cut; the least satisfying cut after kFound.
  const Cut& cut() const { return cand_; }

  /// The least of `floor` and the least position of process i the search
  /// may still read: its candidate when set (the repair reads its clock),
  /// else its scan position.
  EventIndex scan_floor(ProcId i, EventIndex floor) const;

  /// Approximate heap footprint, for the watch-state sizing gauge.
  std::size_t state_bytes() const;

 private:
  /// Scans process i up to `limit`; kFound sets its candidate.
  SearchStatus scan(ProcId i, EventIndex limit, DetectStats& st,
                    BudgetTracker& t);

  const Computation* c_ = nullptr;
  bool streaming_ = false;
  std::vector<const LocalPredicate*> locals_;  // nullptr: vacuously true
  Cut cand_;
  Cut scan_;
  ProcId repairing_ = -1;  // offline: the repair charged when it succeeds
};

/// The canonical maximal cut sequence of the prefix sublattice below `k`:
/// c's linearization restricted to the events inside k, as cuts from the
/// initial cut up to k.
std::vector<Cut> linearization_path(const Computation& c, const Cut& k);

/// EF(p): least cut where every conjunct holds; Garg–Waldecker weak
/// conjunctive detection. witness_cut = the least satisfying cut.
DetectResult detect_ef_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget = {});

/// EG(p) for conjunctive p: all-local-positions scan; witness_path is the
/// canonical linearization when it holds.
DetectResult detect_eg_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget = {});

/// AG(p) for conjunctive p: same scan; witness_cut = J(e) of a violating
/// local position when it fails.
DetectResult detect_ag_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget = {});

/// AF(p) — definitely: p — via the unavoidable-box search (GW96).
DetectResult detect_af_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget = {});

/// EG(p) restricted to the prefix sublattice below cut k (inclusive):
/// verdict, witness path and stats are identical to running
/// detect_eg_conjunctive on c.prefix(k), but no prefix computation is
/// materialized. The A3 frontier fan-out calls this once per frontier cut.
DetectResult detect_eg_conjunctive_within(const Computation& c,
                                          const ConjunctivePredicate& p,
                                          const Cut& k,
                                          const Budget& budget = {});

}  // namespace hbct
