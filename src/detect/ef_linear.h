// Chase–Garg detection of EF(p) (possibly: p) for linear predicates, and the
// dual for post-linear predicates.
//
// The advancement algorithm walks a single cut from the initial cut upward.
// Whenever p is false, the linear-advancement oracle names a forbidden
// process i: no satisfying cut above the current one freezes i, so the next
// event of i — together with its causal past J(e) — is added. Because the
// satisfying set of a linear predicate is meet-closed, the walk terminates at
// the *least* satisfying cut I_p, or proves none exists. O(n|E|) cut work
// plus one predicate evaluation per advancement.
//
// The upward walk is the resumable ChaseGargSearch below, the third machine
// beside WeakConjunctiveSearch and DisjunctiveScan. least_satisfying_cut
// runs it once to the final cut; through it so do EF(linear), A3's I_q,
// AG(disjunctive) and the slicer's J_p(e). The online until watch runs the
// same machine to the frozen limits as events arrive. The downward dual
// (greatest_satisfying_cut) stays a plain loop.
#pragma once

#include "detect/detector.h"

namespace hbct {

/// The Chase–Garg walk toward the least satisfying cut of a linear q, as a
/// resumable state machine. Its state is the walk's cut plus the forbidden
/// process that suspended it: a resumed call evaluates nothing until that
/// process has a new event below the limits, or until a join that reached
/// past the limits lies below them. q is evaluated through a CountingEval
/// cursor bound inside each advance_to call that evaluates, so growth and
/// prefix GC between calls never leave it stale. Not thread-safe; the
/// computation and predicate must outlive the search. The computation may
/// grow between calls (and be prefix-collected below scan_floor()), but not
/// during one.
class ChaseGargSearch {
 public:
  /// Starts the walk at `start` (a consistent cut; nullptr = the initial
  /// cut). Pass J(e) to compute the slice element J_p(e).
  void bind(const Computation& c, const Predicate& q,
            const Cut* start = nullptr);

  /// Resumes the walk with positions up to limits[i] (inclusive) available
  /// on each process. kFound: cut() is the least cut above the start that
  /// satisfies q. kExhausted: the forbidden process has no event left below
  /// its limit, or the last join reached past the limits; at the final cut
  /// this means no satisfying cut exists. Every evaluation and cut step
  /// (summed component deltas) is charged to `st` and gated on `t`; a
  /// tripped tracker suspends the walk where it stopped.
  SearchStatus advance_to(const Cut& limits, DetectStats& st,
                          BudgetTracker& t);

  /// The walk's cut; the least satisfying cut after kFound.
  const Cut& cut() const { return cut_; }

  /// The least of `floor` and the position of process i the walk reads
  /// next: its cut (q and forbidden() read there; the next join reads the
  /// clock of the event above it).
  EventIndex scan_floor(ProcId i, EventIndex floor) const;

  /// Approximate heap footprint, for the watch-state sizing gauge.
  std::size_t state_bytes() const;

  /// True when the last bound cursor was incremental (for span tagging).
  bool incremental() const { return incremental_; }

 private:
  const Computation* c_ = nullptr;
  const Predicate* q_ = nullptr;
  Cut cut_;
  ProcId forbidden_ = -1;  // q is false at cut_ and this process must move
  bool incremental_ = false;
};

/// Least consistent cut satisfying linear p, or nullopt. `start` (default:
/// the initial cut) restricts the search to cuts above `start`; pass J(e)
/// to compute the slice element J_p(e). Precondition: p is linear on c.
/// An optional BudgetTracker bounds the walk: a nullopt return with the
/// tracker tripped means the walk was cut short, not that no cut exists.
std::optional<Cut> least_satisfying_cut(const Computation& c,
                                        const Predicate& p, DetectStats& st,
                                        const Cut* start = nullptr,
                                        BudgetTracker* budget = nullptr);

/// Greatest consistent cut satisfying post-linear p (dual walk downward
/// from the final cut), or nullopt. Budget semantics as above.
std::optional<Cut> greatest_satisfying_cut(const Computation& c,
                                           const Predicate& p,
                                           DetectStats& st,
                                           const Cut* start = nullptr,
                                           BudgetTracker* budget = nullptr);

/// EF(p) for linear p; witness_cut = I_p when holds.
DetectResult detect_ef_linear(const Computation& c, const Predicate& p,
                              const Budget& budget = {});

/// EF(p) for post-linear p; witness_cut = greatest satisfying cut.
DetectResult detect_ef_post_linear(const Computation& c, const Predicate& p,
                                   const Budget& budget = {});

}  // namespace hbct
