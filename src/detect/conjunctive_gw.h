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
/// machine. For each process it tracks, it keeps the next position to scan
/// and a queue of the true positions scanned and not yet ruled out, each
/// with a copy of its clock row: the GW checker's queue, which holds the
/// first true position after each send. The queue's front is the process's
/// candidate, and a repair pops the entries below the position another
/// candidate's row requires, so the search reads no clock row below its
/// scan positions. A found cut is the least satisfying cut below
/// the limits, so it never changes when they grow. Not thread-safe; the
/// computation and predicate must outlive the search. The computation may
/// grow between calls (and be prefix-collected below scan_floor()), but
/// not during one.
class WeakConjunctiveSearch {
 public:
  /// `streaming` selects the online watch conventions. The search then
  /// tracks only the processes with a conjunct and scans each of them to
  /// its limit; an exhausted process leaves the search waiting for events,
  /// and a repair is charged one cut step when made. Offline, every process
  /// is tracked (a process without a conjunct is vacuously true), a scan
  /// stops at the first true position, the search ends at the first
  /// exhausted process, a repair is charged only once it finds a new
  /// candidate, and rows are read in place (nothing is collected).
  void bind(const Computation& c, const ConjunctivePredicate& p,
            bool streaming);

  /// Resumes the search with positions up to limits[i] (inclusive)
  /// available on each process. Every evaluation is charged to `st` and
  /// gated on `t`; a tripped tracker suspends the search where it stopped.
  SearchStatus advance_to(const Cut& limits, DetectStats& st,
                          BudgetTracker& t);

  /// After kFound: the least satisfying cut, the join of the candidates'
  /// clock rows. A tracked process sits at its candidate; an untracked one
  /// at the latest of its events some candidate has seen, which may lie
  /// above its limit (the predicate reads none of its state).
  const Cut& cut() const { return cut_; }

  /// The least of `floor` and the last position the search has scanned on
  /// process i (the next scan reads the event after it; an exhausted
  /// process's clock there bounds the others' queues). The repairs read
  /// only queued rows and an untracked process is never read, so once the
  /// scans have caught up with the limits the search pins nothing below
  /// them.
  EventIndex scan_floor(ProcId i, EventIndex floor) const;

  /// Approximate heap footprint, for the watch-state sizing gauge.
  std::size_t state_bytes() const;

 private:
  /// The queue of one tracked process: the clock rows of its queued true
  /// positions above 0, ascending, num_procs entries each (a row's own
  /// entry is its position); entries before offset `head` are popped. The
  /// initial state, position 0, has a zero row and requires nothing of the
  /// other candidates, so it is queued in cand_ alone. Offline the queue
  /// holds at most the candidate and the computation is never collected,
  /// so the rows stay empty and the candidate's row is read in place.
  struct Track {
    const LocalPredicate* local = nullptr;  // nullptr: vacuously true
    EventIndex scan = 0;                    // next position to scan
    std::vector<std::int32_t> rows;
    std::size_t head = 0;
    bool after_send = false;  // a send follows the last queued position
  };

  /// Scans tracked process `a` up to `limit`, queueing its true positions:
  /// all of them when `fill`, else only the first. kTripped, else kFound
  /// iff it has a candidate.
  SearchStatus scan(std::size_t a, EventIndex limit, bool fill,
                    DetectStats& st, BudgetTracker& t);
  /// Drops the queued positions of tracked process `a` below `need` (>= 1);
  /// later scans start at `need` at the earliest.
  void pop_below(std::size_t a, EventIndex need);
  /// The clock row of tracked process a's candidate, which is above 0.
  const std::int32_t* cand_row(std::size_t a) const;
  /// Sets cut_ from the candidates, which are pairwise consistent; kFound.
  SearchStatus found();

  const Computation* c_ = nullptr;
  bool streaming_ = false;
  std::vector<ProcId> procs_;  // the tracked processes, ascending
  std::vector<Track> tracks_;  // parallel to procs_
  Cut cand_;  // per process: its candidate (queue front), -1 when none
  Cut cut_;
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
