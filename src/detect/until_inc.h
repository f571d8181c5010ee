// Incremental until evaluation: amortizing A3's decision-time walk.
//
// Theorem 7 decides E[p U q] at I_q by sweeping the frontier of I_q and
// running EG(p) over each prefix sublattice E' = I_q \ {e}. For a
// conjunctive p those EG sweeps are linear scans of the conjuncts'
// timelines — and they overlap almost completely: branch k asks "is every
// conjunct true at every local position 0..sub_k[i]", which is fully
// determined by each conjunct's *least false position*. Conjunctive
// predicates are canonicalized to at most one conjunct per process, so the
// whole family of sweeps collapses into one tiny table:
//
//   first_false[l] — least position where conjunct l is false (none yet),
//   scanned[l]     — exclusive upper bound of the range evaluated so far.
//
// EgPrefixState maintains that table. It can be advanced as events arrive
// (the online monitor feeds newly frozen positions in µs-sized slices under
// its round budget), and a decision at any cut then costs O(frontier)
// table lookups plus a lazy extension of whatever tail the feed has not
// reached — instead of a full prefix sweep at fire time.
//
// Bit-identity contract. decide_at() returns exactly what the reference
// frontier sweep detect_eu_at_reference() (tests/oracle.h) would: same
// verdict, same witness cut and path, same BoundReason, and the same
// DetectStats — under every budget. Stats parity is achieved by
// *replaying* the reference sweep's accounting: spans whose outcome the
// table already knows are charged arithmetically through
// BudgetTracker::charge_evals (which reproduces the per-evaluation
// checkpoint semantics, including the trip point), so the reported
// predicate_evals/cut_steps equal the reference scan's logical work even
// though far fewer physical evaluations ran. The physical work is visible
// separately through the until_inc_evals / until_dec_evals counters, which
// only the instrumented (online) mode bumps — the offline decision in
// detect_eu_at is stats-invisible.
//
// GC interaction (online). The table only ever reads local positions
// >= scanned[l], and a conjunct whose first false position is known is
// never read again (the decision consumes the stored index, not the
// timeline). This is what lets OnlineMonitor::min_watch_frontier pin an
// undecided until watch at min(q-walk cut, scan floor) instead of 0 — see
// scan_floor() and DESIGN.md §18 for the soundness argument.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "predicate/conjunctive.h"

namespace hbct {

/// Shared EG(p)-over-prefix decision state for one (computation, predicate)
/// pair. Cheap to construct; bind() before use. Not thread-safe — each
/// online watch owns one, and the offline path creates a transient one per
/// detection.
class EgPrefixState {
 public:
  EgPrefixState() = default;

  /// Binds the table to `c` and `p` (both must outlive the state; online
  /// use relies on OnlineAppender's Computation being a stable member).
  /// `instrumented` turns on the physical-work counters
  /// (until_inc_evals/until_dec_evals); the offline decision leaves it off
  /// so golden stats stay byte-identical to the reference sweep's.
  void bind(const Computation& c, const ConjunctivePredicate& p,
            bool instrumented);
  bool bound() const { return pred_ != nullptr; }

  /// Feed-time amortization: evaluates the not-yet-scanned positions of
  /// every undecided conjunct up to limits[proc] (inclusive), charging one
  /// predicate_evals (+ until_inc_evals when instrumented) per physical
  /// evaluation into `st`. When `t` is non-null every evaluation is gated
  /// on t->ok(); a tripped tracker suspends the advance mid-scan, and the
  /// next call resumes where it left off. A conjunct whose first false
  /// position is found stops scanning permanently.
  void advance_to(const Cut& limits, DetectStats& st, BudgetTracker* t);

  /// Replays detect_eu_at_reference(c, p, iq, budget) off the table:
  /// bit-identical verdict, witness cut, BoundReason and DetectStats.
  /// `want_path` additionally rebuilds the reference witness path (offline
  /// only — the online monitor passes false because prefix GC may have
  /// trimmed the linearization the path is built from, and WatchFire does
  /// not carry paths).
  DetectResult decide_at(const Cut& iq, const Budget& budget, bool want_path);

  /// Least local position of process i the table may still physically
  /// read: the scan resume point of i's conjunct, or `fallback` when i has
  /// no conjunct or its conjunct is already decided. Monotone
  /// nondecreasing; the online GC frontier uses it to pin only the
  /// still-needed prefix.
  EventIndex scan_floor(ProcId i, EventIndex fallback) const;

  /// Approximate heap footprint of the table, for the watch-state sizing
  /// gauge.
  std::size_t state_bytes() const;

 private:
  enum class Sim : std::uint8_t { kAllTrue, kFalse, kTripped };

  /// Replays the reference scan of conjunct l over positions 0..last.
  /// Spans with a known outcome are charged arithmetically; the unknown
  /// tail is evaluated for real (extending the table). On kFalse,
  /// *false_pos is the position the reference would have reported.
  Sim sim_scan(std::size_t l, EventIndex last, DetectStats& st,
               BudgetTracker& t, EventIndex* false_pos);

  /// One replayed EG(p) branch over the prefix sublattice below `k`
  /// (detect_eg_conjunctive_within equivalent).
  DetectResult eg_within(const Cut& k, const Budget& budget, bool want_path);

  const Computation* c_ = nullptr;
  const ConjunctivePredicate* pred_ = nullptr;
  bool instrumented_ = false;
  // Parallel arrays over pred_->locals() (sorted by proc, <=1 per proc).
  std::vector<ProcId> procs_;
  std::vector<EventIndex> first_false_;  // -1: none in the scanned range
  std::vector<EventIndex> scanned_;      // next unevaluated position
};

}  // namespace hbct
