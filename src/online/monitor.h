// Online predicate detection — the paper's "future work" realized for the
// classes where online algorithms are known:
//
//  - possibly(conjunctive): incremental Garg–Waldecker weak detection. The
//    candidate cut advances as events stream in; the watch fires the moment
//    the observed prefix contains a satisfying consistent cut, and the
//    fired cut is the *least* satisfying cut (it never changes later,
//    because new events only extend the order upward).
//  - possibly(disjunctive): fire on the first local position satisfying a
//    disjunct.
//  - invariant(disjunctive): AG(p) violations are EF(¬p) hits with ¬p
//    conjunctive — the same incremental machinery, reporting the violating
//    cut.
//  - stable predicates: evaluated on the frozen frontier after each event
//    and, on a hit, confirmed at the greatest consistent cut beneath it;
//    once true they stay true, so the first hit decides EF (= AF).
//
// The first three and the until watch run the offline detectors' own
// searches, resumed each round to the frozen limits: WeakConjunctiveSearch
// (detect/conjunctive_gw.h), DisjunctiveScan (detect/disjunctive.h) and
// ChaseGargSearch (detect/ef_linear.h), so a fired cut is the one
// detect_ef_conjunctive / detect_ef_disjunctive / least_satisfying_cut
// returns on the frozen prefix. Every watch kind goes through one
// registration path and one step loop; its search state also gives its GC
// pin and its state size.
//
// All verdicts are *prefix-stable*: once fired they remain correct for
// every extension of the computation.
//
// Freeze rule: a process's newest event may still receive variable writes
// (writes are fed after the event, as in the builder API), so watches only
// evaluate local states up to each process's second-newest event; the tail
// thaws when the next event of that process arrives, or when finish()
// declares the stream complete. This keeps every fired verdict valid
// regardless of how late the writes trail their events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "detect/budget.h"
#include "detect/conjunctive_gw.h"
#include "detect/disjunctive.h"
#include "detect/ef_linear.h"
#include "detect/until_inc.h"
#include "online/appender.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/stats.h"

namespace hbct {

using WatchId = std::int32_t;

/// The algorithmic class a watch runs under — the label observability
/// aggregates by (per-class fire counters/latency histograms in the serve
/// layer, per-class SLOs, bench_watch's mixed-class rows). Bounded, fixed
/// cardinality by construction.
enum class WatchKind : std::uint8_t {
  kConjunctive,  // watch_possibly(conjunctive)
  kInvariant,    // watch_invariant (AG via the conjunctive machinery)
  kDisjunctive,  // watch_possibly(disjunctive)
  kStable,       // watch_stable (channel/relational predicates ride here)
  kUntil,        // watch_until (streaming A3)
};
const char* to_string(WatchKind k);

struct WatchFire {
  WatchId watch = -1;
  /// The verdict this fire reports. Most watches only fire positively;
  /// until-watches also fire when the verdict becomes definitively false
  /// (I_q is known and no p-path reaches it — stable under extensions).
  /// Under a monitor budget (set_budget) a watch may also fire with
  /// kUnknown: the evaluation was cut short and `bound` says why.
  Verdict verdict = Verdict::kHolds;
  BoundReason bound = BoundReason::kNone;
  /// The cut exhibiting the watched condition (satisfying cut, violating
  /// cut, I_q for until-watches, or for stable watches the greatest
  /// consistent cut under the frozen frontier). Always a consistent cut.
  Cut cut;
  /// Sequence number of the event (1-based index into the observation)
  /// whose arrival triggered the fire; 0 when fired at registration.
  std::int64_t at_event = 0;
  /// Class of the watch that fired (== watch_class(watch)).
  WatchKind kind = WatchKind::kConjunctive;
  std::string description;
};

class OnlineMonitor {
 public:
  explicit OnlineMonitor(std::int32_t num_procs);

  // ---- Event feed (same contract as OnlineAppender) -----------------------
  VarId var(std::string_view name) { return app_.var(name); }
  void set_initial(ProcId i, VarId v, std::int64_t value) {
    app_.set_initial(i, v, value);
  }
  void internal(ProcId i);
  MsgId send(ProcId from, ProcId to);
  void receive(ProcId to, MsgId m);
  /// Writes apply to the latest event of proc i (call before the next
  /// event of that process, as with OnlineAppender).
  void write(ProcId i, std::string_view name, std::int64_t value);
  void write(ProcId i, VarId v, std::int64_t value) { app_.write(i, v, value); }

  // ---- Guarded feed (serve layer / untrusted streams) ---------------------
  // AppendError instead of asserting; kFinished after finish(). A rejected
  // feed leaves the computation and every watch untouched.
  AppendError try_var(std::string_view name, VarId* out) {
    return finished_ ? AppendError::kFinished : app_.try_var(name, out);
  }
  AppendError try_set_initial(ProcId i, VarId v, std::int64_t value);
  AppendError try_internal(ProcId i);
  AppendError try_send(ProcId from, ProcId to, MsgId* out = nullptr);
  AppendError try_receive(ProcId to, MsgId m);
  AppendError try_write(ProcId i, VarId v, std::int64_t value);

  /// Declares the stream complete: no further events or writes. Unfreezes
  /// the per-process tail events (see below) so every watch reaches its
  /// final verdict. When the final evaluation round trips the budget, the
  /// still-undecided watches fire with Verdict::kUnknown instead of staying
  /// silent. Idempotent.
  void finish();

  /// Caps the work (predicate evaluations + cut steps, shared across all
  /// watches) each event's evaluation round may perform, plus deadline and
  /// cancellation. A watch whose step runs out of budget simply suspends —
  /// its incremental state is resumable — and retries on the next event
  /// with a fresh work allowance. Default: unlimited.
  void set_budget(const Budget& b) { budget_ = b; }
  const Budget& budget() const { return budget_; }

  // ---- Watches -------------------------------------------------------------
  /// EF(p), p conjunctive. Fires once with the least satisfying cut.
  WatchId watch_possibly(ConjunctivePredicatePtr p);
  /// EF(p), p disjunctive. Fires once with a witness cut J(e).
  WatchId watch_possibly(DisjunctivePredicatePtr p);
  /// AG(p), p disjunctive: fires on violation with the violating cut.
  WatchId watch_invariant(DisjunctivePredicatePtr p);
  /// Stable p: fires when p first holds at the greatest consistent cut
  /// under the frozen frontier.
  WatchId watch_stable(PredicatePtr p);

  /// E[p U q], p conjunctive, q linear: streaming A3. The Chase–Garg walk
  /// toward I_q (ChaseGargSearch) resumes as events arrive; once I_q lies inside the observed
  /// prefix the verdict is decided (Theorem 7 depends only on events below
  /// I_q) and the watch fires with holds = true or false. Prefix-stable
  /// both ways.
  WatchId watch_until(ConjunctivePredicatePtr p, PredicatePtr q);

  /// Audits every registered watch's predicates against the computation
  /// observed so far (analysis/audit.h). Each incremental algorithm is only
  /// prefix-stable because of a class claim — conjunctive/disjunctive
  /// structure, stability, and (load-bearing for streaming A3) the linear
  /// class and forbidden() oracle of until-watch q operands. Returns E1xx
  /// findings with messages prefixed by the watch id; empty means every
  /// claim held on the observed prefix. After collect_prefix() only the
  /// resident cuts, from the trim cut up, are audited. Read-only; safe
  /// between events.
  std::vector<Diagnostic> audit_watches(const AuditOptions& opt = {}) const;

  // ---- Prefix garbage collection ------------------------------------------

  /// Per-process minimum position any live watch may still need to read.
  /// Starts at the frozen limits and is pulled down by every undecided
  /// watch's scan_floor(): a conjunctive or invariant watch keeps its
  /// candidates' clock rows in its own queues and pins only a scan that a
  /// tripped budget left behind, a disjunctive watch the scan positions of
  /// its disjuncts, and an until watch the scan floors of its Chase–Garg
  /// walk (the walk's cut) and of its EG table (the decision replays off
  /// the table, so the already-scanned prefix is never re-read; DESIGN.md
  /// §18). Monotone nondecreasing over the session's lifetime.
  Cut min_watch_frontier() const;

  /// A process held below its frozen limit by one watch's GC pin.
  struct GcPin {
    ProcId proc = -1;
    /// The watch whose scan_floor sets min_watch_frontier()[proc] (the first
    /// in step order on a tie) and its class.
    WatchId watch = -1;
    WatchKind kind = WatchKind::kConjunctive;
    /// Resident events of `proc` the pin keeps from collection: those
    /// between the pinned position and the frozen limit.
    std::int64_t held_events = 0;
  };
  /// One entry per process a live watch holds below its frozen limit, in
  /// process order; empty when nothing pins. Explains min_watch_frontier();
  /// the consistent-cut rollback of collect_prefix() is not attributed.
  std::vector<GcPin> gc_pins() const;

  /// Reclaims the computation prefix below the min-watch frontier (lowered
  /// to the greatest consistent cut under it). Verdicts, fire order and
  /// witness cuts are unaffected — the collected prefix is exactly the part
  /// no live watch can reference again. Returns events reclaimed.
  std::int64_t collect_prefix();

  std::int64_t resident_events() const { return app_.resident_events(); }

  /// Cumulative watch-evaluation work, including the incremental until
  /// counters (until_inc_evals = feed-time table advances, until_dec_evals
  /// = decision-time lazy extensions). The serve layer absorbs deltas of
  /// this into its metrics registry.
  const DetectStats& work() const { return work_; }

  /// Approximate heap footprint of all live watch state (scan vectors,
  /// candidate cuts, incremental until tables) — the serve layer's
  /// watch-state sizing gauge.
  std::size_t watch_state_bytes() const;

  /// Drains the fires triggered since the last poll.
  std::vector<WatchFire> poll();

  /// True when watch `w` has fired (whether or not polled yet).
  bool fired(WatchId w) const;

  /// The class `w` was registered under.
  WatchKind watch_class(WatchId w) const;

  const Computation& computation() const { return app_.computation(); }
  Cut current_cut() const { return app_.current_cut(); }
  std::int64_t events_seen() const { return computation().total_events(); }

 private:
  /// One registered watch. Its kind selects the live state: the
  /// Garg–Waldecker search (conjunctive, invariant), the first-true scan
  /// (disjunctive), or the Chase–Garg walk toward I_q and the EG(p) table
  /// (until). Each is the offline detector's own resumable machine. Stable
  /// watches keep none: they re-evaluate the frozen frontier.
  struct Watch {
    WatchId id = -1;
    WatchKind kind = WatchKind::kConjunctive;
    bool done = false;
    /// The predicate the watch evaluates: p, ¬p for an invariant (the
    /// search looks for violations), p of E[p U q].
    PredicatePtr pred;
    PredicatePtr q;            // until
    WeakConjunctiveSearch gw;  // conjunctive, invariant
    DisjunctiveScan disj;      // disjunctive
    ChaseGargSearch cg;        // until: the walk toward I_q
    /// until: EG(p) decision table, advanced at feed time; the Theorem-7
    /// decision replays off it, so the fire costs O(frontier) new work
    /// instead of a prefix sweep.
    EgPrefixState eg;
  };

  /// Largest local position of proc i whose state can no longer change.
  EventIndex frozen_limit(ProcId i) const;
  /// Lowers b to the greatest consistent cut beneath it (the standard
  /// rollback fixpoint). b must dominate the last trim cut, which is
  /// consistent, so the rollback never drops below it and every clock row
  /// it reads is resident.
  void roll_back_to_consistent(Cut& b) const;
  /// min_watch_frontier(); when `by` is given, also the watch that set each
  /// process's entry (nullptr where the frozen limit stands).
  Cut watch_frontier(std::vector<const Watch*>* by) const;

  /// Registers `w` (id assigned here) and steps it once.
  WatchId add_watch(Watch w);
  void on_event();
  /// One evaluation round under a fresh budget allowance: steps `only`, or
  /// every watch in step order. Returns the bound that tripped, if any.
  BoundReason run_round(Watch* only);
  void step(Watch& w);
  void step_conj(Watch& w);
  void step_disj(Watch& w);
  void step_stable(Watch& w);
  void step_until(Watch& w);
  void fire(WatchId id, Cut cut, const std::string& what,
            Verdict verdict = Verdict::kHolds,
            BoundReason bound = BoundReason::kNone);
  /// Budget checkpoint for the current evaluation round.
  bool round_ok() { return round_->ok(); }

  OnlineAppender app_;
  /// Step order: conjunctive and invariant, then disjunctive, stable,
  /// until; registration order within a kind. Fire order within a round and
  /// which watches a tripped budget suspends both follow it.
  std::vector<Watch> watches_;
  std::vector<WatchFire> pending_;
  std::vector<bool> fired_;
  std::vector<WatchKind> kinds_;  // indexed by WatchId
  WatchId next_id_ = 0;
  bool finished_ = false;
  Budget budget_;
  /// Cumulative watch-evaluation work; each round's tracker is based here.
  DetectStats work_;
  /// The current round's tracker and frozen limits.
  BudgetTracker* round_ = nullptr;
  Cut limits_;
};

}  // namespace hbct
