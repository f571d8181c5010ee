#include "online/monitor.h"

#include "obs/flight.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

const char* to_string(WatchKind k) {
  switch (k) {
    case WatchKind::kConjunctive: return "conjunctive";
    case WatchKind::kInvariant: return "invariant";
    case WatchKind::kDisjunctive: return "disjunctive";
    case WatchKind::kStable: return "stable";
    case WatchKind::kUntil: return "until";
  }
  return "?";
}

OnlineMonitor::OnlineMonitor(std::int32_t num_procs) : app_(num_procs) {}

void OnlineMonitor::internal(ProcId i) {
  app_.internal(i);
  on_event(i);
}

MsgId OnlineMonitor::send(ProcId from, ProcId to) {
  const MsgId m = app_.send(from, to);
  on_event(from);
  return m;
}

void OnlineMonitor::receive(ProcId to, MsgId m) {
  app_.receive(to, m);
  on_event(to);
}

void OnlineMonitor::write(ProcId i, std::string_view name,
                          std::int64_t value) {
  // The freeze rule guarantees no watch has examined the tail position yet,
  // so the write needs no rewinding.
  app_.write(i, name, value);
}

AppendError OnlineMonitor::try_set_initial(ProcId i, VarId v,
                                           std::int64_t value) {
  if (finished_) return AppendError::kFinished;
  return app_.try_set_initial(i, v, value);
}

AppendError OnlineMonitor::try_internal(ProcId i) {
  if (finished_) return AppendError::kFinished;
  const AppendError e = app_.try_internal(i);
  if (e == AppendError::kNone) on_event(i);
  return e;
}

AppendError OnlineMonitor::try_send(ProcId from, ProcId to, MsgId* out) {
  if (finished_) return AppendError::kFinished;
  const AppendError e = app_.try_send(from, to, out);
  if (e == AppendError::kNone) on_event(from);
  return e;
}

AppendError OnlineMonitor::try_receive(ProcId to, MsgId m) {
  if (finished_) return AppendError::kFinished;
  const AppendError e = app_.try_receive(to, m);
  if (e == AppendError::kNone) on_event(to);
  return e;
}

AppendError OnlineMonitor::try_write(ProcId i, VarId v, std::int64_t value) {
  if (finished_) return AppendError::kFinished;
  return app_.try_write(i, v, value);
}

void OnlineMonitor::finish() {
  if (finished_) return;
  finished_ = true;
  static const std::uint16_t kFinish =
      FlightRecorder::intern("monitor.finish", "events", "watches");
  FlightScope flight(FlightRecorder::global(), kFinish, budget_.trace);
  flight.args(events_seen(),
              static_cast<std::int64_t>(conj_.size() + disj_.size() +
                                        stable_.size() + until_.size()));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  for (auto& w : conj_) step_conj(w);
  for (auto& w : disj_) step_disj(w);
  for (auto& w : stable_) step_stable(w);
  for (auto& w : until_) step_until(w);
  round_ = nullptr;
  if (t.exceeded()) {
    // The final round ran out of budget: watches still undecided can no
    // longer be resumed (no further events arrive), so they report kUnknown
    // rather than staying silent as if the condition never occurred.
    const auto give_up = [&](WatchId id, auto& w, const char* kind) {
      if (w.done) return;
      w.done = true;
      fire(id, app_.current_cut(),
           std::string("undecided (budget): ") + kind, Verdict::kUnknown,
           t.reason());
    };
    for (auto& w : conj_) give_up(w.id, w, "conjunctive watch");
    for (auto& w : disj_) give_up(w.id, w, "disjunctive watch");
    for (auto& w : stable_) give_up(w.id, w, "stable watch");
    for (auto& w : until_) give_up(w.id, w, "until watch");
  }
  // Fire-once hardening: nothing can legally change after the final round,
  // so every watch is closed out — a stray late feed can never resume one
  // into a second (possibly contradictory) verdict.
  for (auto& w : conj_) w.done = true;
  for (auto& w : disj_) w.done = true;
  for (auto& w : stable_) w.done = true;
  for (auto& w : until_) w.done = true;
}

EventIndex OnlineMonitor::frozen_limit(ProcId i) const {
  const EventIndex n = app_.computation().num_events(i);
  if (finished_) return n;
  // The newest event may still receive writes; position 0 (initial values)
  // is always frozen because set_initial precedes the first event globally.
  return n > 0 ? n - 1 : 0;
}

void OnlineMonitor::on_event(ProcId) {
  // Each event's evaluation round gets a fresh work allowance; the tracker
  // bases itself on the cumulative counters, so only this round's work is
  // charged. A tripped round suspends the remaining steps; every watch's
  // incremental state resumes on the next event.
  ScopedSpan span(budget_.trace, "monitor.round");
  BudgetTracker t(budget_, work_);
  round_ = &t;
  for (auto& w : conj_) step_conj(w);
  for (auto& w : disj_) step_disj(w);
  for (auto& w : stable_) step_stable(w);
  for (auto& w : until_) step_until(w);
  round_ = nullptr;
}

void OnlineMonitor::fire(WatchId id, Cut cut, const std::string& what,
                         Verdict verdict, BoundReason bound) {
  // Fire-once discipline: every fired verdict is prefix-stable, so a second
  // fire could only repeat or contradict the first. The done flags make a
  // re-fire unreachable in normal operation; this guard pins the invariant
  // against any future stepping bug (notably the budget-kUnknown fast path,
  // which must not be resumed into a definite verdict later).
  if (fired_[sz(id)]) return;
  WatchFire f;
  f.watch = id;
  f.verdict = verdict;
  f.bound = bound;
  f.cut = std::move(cut);
  f.at_event = events_seen();
  f.kind = kinds_[sz(id)];
  f.description = what;
  pending_.push_back(std::move(f));
  fired_[sz(id)] = true;
  static const std::uint16_t kFire =
      FlightRecorder::intern("watch.fire", "watch", "verdict");
  FlightRecorder::global().instant(kFire, id,
                                   static_cast<std::int64_t>(verdict));
}

WatchId OnlineMonitor::watch_possibly(ConjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  HBCT_ASSERT_MSG(app_.computation().trimmed_events() == 0,
                  "scanning watches must be registered before prefix GC");
  const std::int32_t n = app_.computation().num_procs();
  for (const auto& l : p->locals())
    HBCT_ASSERT_MSG(l->proc() < n, "conjunct references an unknown process");
  ConjWatch w;
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(WatchKind::kConjunctive);
  w.pred = std::move(p);
  w.violation_of_invariant = false;
  w.cand.assign(sz(n), -1);
  w.scan.assign(sz(n), 0);
  conj_.push_back(std::move(w));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  step_conj(conj_.back());
  round_ = nullptr;
  return conj_.back().id;
}

WatchId OnlineMonitor::watch_invariant(DisjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  HBCT_ASSERT_MSG(app_.computation().trimmed_events() == 0,
                  "scanning watches must be registered before prefix GC");
  auto notp = as_conjunctive(p->negate());
  HBCT_ASSERT(notp);
  const std::int32_t n = app_.computation().num_procs();
  ConjWatch w;
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(WatchKind::kInvariant);
  w.pred = notp;
  w.violation_of_invariant = true;
  w.cand.assign(sz(n), -1);
  w.scan.assign(sz(n), 0);
  conj_.push_back(std::move(w));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  step_conj(conj_.back());
  round_ = nullptr;
  return conj_.back().id;
}

WatchId OnlineMonitor::watch_possibly(DisjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  HBCT_ASSERT_MSG(app_.computation().trimmed_events() == 0,
                  "scanning watches must be registered before prefix GC");
  const std::int32_t n = app_.computation().num_procs();
  DisjWatch w;
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(WatchKind::kDisjunctive);
  w.pred = std::move(p);
  w.scan.assign(sz(n), 0);
  disj_.push_back(std::move(w));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  step_disj(disj_.back());
  round_ = nullptr;
  return disj_.back().id;
}

WatchId OnlineMonitor::watch_until(ConjunctivePredicatePtr p,
                                   PredicatePtr q) {
  HBCT_ASSERT(p);
  HBCT_ASSERT(q);
  HBCT_ASSERT_MSG(app_.computation().trimmed_events() == 0,
                  "scanning watches must be registered before prefix GC");
  UntilWatch w;
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(WatchKind::kUntil);
  w.p = std::move(p);
  w.q = std::move(q);
  w.cand = app_.computation().initial_cut();
  // The computation is a stable member and the predicate lives on the
  // heap, so the binding survives moves of the watch vector.
  w.eg.bind(app_.computation(), *w.p, /*instrumented=*/true);
  until_.push_back(std::move(w));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  step_until(until_.back());
  round_ = nullptr;
  return until_.back().id;
}

WatchId OnlineMonitor::watch_stable(PredicatePtr p) {
  HBCT_ASSERT(p);
  StableWatch w;
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(WatchKind::kStable);
  w.pred = std::move(p);
  stable_.push_back(std::move(w));
  BudgetTracker t(budget_, work_);
  round_ = &t;
  step_stable(stable_.back());
  round_ = nullptr;
  return stable_.back().id;
}

void OnlineMonitor::step_conj(ConjWatch& w) {
  if (w.done) return;
  ScopedSpan span(budget_.trace, "monitor.watch.conj");
  span.arg("watch", w.id);
  const Computation& c = app_.computation();
  const std::int32_t n = c.num_procs();

  // Advance any unset candidate through the newly frozen positions. The
  // scan position persists, so a budget-suspended advance resumes exactly
  // where it stopped.
  auto advance = [&](ProcId i) {
    auto& pos = w.scan[sz(i)];
    while (w.cand[sz(i)] < 0 && pos <= frozen_limit(i)) {
      if (!round_ok()) return false;
      ++work_.predicate_evals;
      if (w.pred->eval_local(c, i, pos)) w.cand[sz(i)] = pos;
      ++pos;
    }
    return w.cand[sz(i)] >= 0;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Advance every process even once one is known to be stuck: a position
    // where the local predicate is false can never become a candidate, so
    // pre-scanning the other timelines is free — and min_watch_frontier
    // pins at `scan`, so a timeline left at 0 would hold the whole prefix
    // resident until this watch fires.
    bool stuck = false;
    for (ProcId i = 0; i < n; ++i)
      if (!advance(i)) stuck = true;  // more events (or budget) needed on i
    if (stuck) return;
    // All candidates set: repair pairwise consistency (GW weak).
    for (ProcId i = 0; i < n && !changed; ++i) {
      if (w.cand[sz(i)] == 0) continue;
      const VClockView vc = c.vclock(i, w.cand[sz(i)]);
      for (ProcId j = 0; j < n; ++j) {
        if (j == i || vc[sz(j)] <= w.cand[sz(j)]) continue;
        // The candidate of j must move to a true position at or after the
        // clock demand; restart its scan there.
        ++work_.cut_steps;
        w.scan[sz(j)] = std::max(w.scan[sz(j)], vc[sz(j)]);
        w.cand[sz(j)] = -1;
        changed = true;
        break;
      }
    }
  }

  Cut cut(sz(n));
  for (ProcId i = 0; i < n; ++i) cut[sz(i)] = w.cand[sz(i)];
  HBCT_DASSERT(c.is_consistent(cut));
  w.done = true;
  fire(w.id, std::move(cut),
       w.violation_of_invariant
           ? "invariant violated: " + w.pred->describe()
           : "possibly: " + w.pred->describe());
}

void OnlineMonitor::step_disj(DisjWatch& w) {
  if (w.done) return;
  ScopedSpan span(budget_.trace, "monitor.watch.disj");
  span.arg("watch", w.id);
  const Computation& c = app_.computation();
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    auto& pos = w.scan[sz(i)];
    for (; pos <= frozen_limit(i); ++pos) {
      if (!round_ok()) return;  // resume at `pos` next round
      ++work_.predicate_evals;
      if (!w.pred->eval_local(c, i, pos)) continue;
      w.done = true;
      Cut cut = pos == 0 ? c.initial_cut() : c.join_irreducible_of(i, pos);
      fire(w.id, std::move(cut), "possibly: " + w.pred->describe());
      return;
    }
  }
}

void OnlineMonitor::step_stable(StableWatch& w) {
  if (w.done) return;
  ScopedSpan span(budget_.trace, "monitor.watch.stable");
  span.arg("watch", w.id);
  if (!round_ok()) return;  // re-evaluated from scratch next round
  const Computation& c = app_.computation();
  // Evaluate on the frozen frontier; stability makes any hit permanent.
  Cut frontier(static_cast<std::size_t>(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    frontier[sz(i)] = frozen_limit(i);
  ++work_.predicate_evals;
  if (!w.pred->eval(c, frontier)) return;
  // The frozen frontier is inconsistent when a frozen receive's send is
  // still its sender's (thawing) newest event. Fire only at a consistent
  // cut: the greatest one beneath the frontier, if p already holds there;
  // otherwise a later round (at the latest finish(), whose frontier is the
  // full computation) confirms it.
  const Cut hit = frontier;
  roll_back_to_consistent(frontier);
  if (frontier != hit) {
    if (!round_ok()) return;
    ++work_.predicate_evals;
    if (!w.pred->eval(c, frontier)) return;
  }
  w.done = true;
  fire(w.id, std::move(frontier), "stable: " + w.pred->describe());
}

void OnlineMonitor::step_until(UntilWatch& w) {
  if (w.done) return;
  ScopedSpan span(budget_.trace, "monitor.watch.until");
  span.arg("watch", w.id);
  const Computation& c = app_.computation();

  // Push the EG(p) table over the newly frozen prefix before resuming the
  // q-walk, so the eventual Theorem-7 decision is table arithmetic plus at
  // most a tiny lazy extension instead of a full prefix sweep at fire time.
  // Every physical evaluation is charged to the round budget; a tripped
  // round suspends the scan mid-position and the table resumes exactly
  // there next round. Each frozen position is evaluated at most once over
  // the watch's lifetime (a conjunct stops scanning forever once its first
  // false position is known), so the amortized feed cost is O(1) per event
  // per watch. Per-round hot path: no span (a span per event per watch
  // dominates the feed when tracing is on — the work is visible as
  // until_inc_evals) and a reused limits buffer instead of a fresh Cut
  // allocation.
  if (w.limits.size() != sz(c.num_procs())) w.limits = Cut(sz(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    w.limits[sz(i)] = frozen_limit(i);
  w.eg.advance_to(w.limits, work_, round_);

  // Resume the Chase–Garg walk toward I_q over the frozen prefix. The walk
  // is monotone, so work already done never repeats; a forbidden process
  // exhausted (in frozen positions) — or a tripped round budget — suspends
  // the watch until more events arrive or finish() is called.
  auto all_frozen = [&](const Cut& g) {
    for (ProcId i = 0; i < c.num_procs(); ++i)
      if (g[sz(i)] > frozen_limit(i)) return false;
    return true;
  };
  if (!all_frozen(w.cand)) return;  // a join pulled in a thawing tail: wait
  for (;;) {
    if (!round_ok()) return;  // suspended; w.cand records the progress
    ++work_.predicate_evals;
    if (w.q->eval(c, w.cand)) break;
    // The very first evaluation handles q(∅) (fires with the empty prefix).
    const ProcId i = w.q->forbidden(c, w.cand);
    HBCT_DASSERT(i >= 0 && i < c.num_procs());
    if (w.cand[sz(i)] >= frozen_limit(i)) return;  // suspended
    ++work_.cut_steps;
    Cut next = Cut::join(w.cand, c.join_irreducible_of(i, w.cand[sz(i)] + 1));
    if (!all_frozen(next)) {
      // The causal past of the next event reaches into a mutable tail;
      // record progress and wait for the tail to freeze.
      w.cand = std::move(next);
      return;
    }
    w.cand = std::move(next);
  }

  // I_q is inside the frozen prefix; Theorem 7 decides the verdict from
  // the events below it — stable under all extensions. The decision gets
  // the monitor's budget too; since the sub-computation below I_q never
  // changes, a kUnknown here would repeat identically on every retry, so
  // the watch fires kUnknown immediately instead of spinning. The decision
  // replays off the fed table — bit-identical verdict, bound and charged
  // stats to detect_eu_at; the witness path is skipped because prefix GC
  // may have trimmed the linearization it would be rebuilt from, and
  // WatchFire carries no path.
  DetectResult r = w.eg.decide_at(w.cand, budget_, /*want_path=*/false);
  work_ += r.stats;
  w.done = true;
  const std::string what =
      std::string(r.verdict == Verdict::kHolds
                      ? "until holds: E["
                      : r.verdict == Verdict::kFails ? "until refuted: E["
                                                     : "until undecided: E[") +
      w.p->describe() + " U " + w.q->describe() + "]";
  fire(w.id, w.cand, what, r.verdict, r.bound);
}

std::vector<Diagnostic> OnlineMonitor::audit_watches(
    const AuditOptions& opt) const {
  std::vector<Diagnostic> out;
  const Computation& c = computation();
  auto audit_one = [&](WatchId id, const PredicatePtr& pred) {
    if (!pred) return;
    const AuditResult r = audit_predicate(pred, c, opt);
    for (Diagnostic& d : audit_diagnostics(r)) {
      d.message = strfmt("watch #%d '%s': %s", id, pred->describe().c_str(),
                         d.message.c_str());
      out.push_back(std::move(d));
    }
  };
  for (const ConjWatch& w : conj_) audit_one(w.id, w.pred);
  for (const DisjWatch& w : disj_) audit_one(w.id, w.pred);
  for (const StableWatch& w : stable_) audit_one(w.id, w.pred);
  for (const UntilWatch& w : until_) {
    audit_one(w.id, w.p);
    audit_one(w.id, w.q);
  }
  return out;
}

Cut OnlineMonitor::min_watch_frontier() const {
  const Computation& c = app_.computation();
  const std::int32_t n = c.num_procs();
  Cut f(sz(n));
  for (ProcId i = 0; i < n; ++i) f[sz(i)] = frozen_limit(i);
  auto pin = [&](ProcId i, EventIndex pos) {
    if (pos < f[sz(i)]) f[sz(i)] = pos;
  };
  for (const ConjWatch& w : conj_)
    if (!w.done)
      for (ProcId i = 0; i < n; ++i)
        // A set candidate stays referenced (the GW repair reads its clock
        // and it becomes the fired cut); an unset one resumes at `scan`.
        pin(i, w.cand[sz(i)] >= 0 ? w.cand[sz(i)] : w.scan[sz(i)]);
  for (const DisjWatch& w : disj_)
    if (!w.done)
      for (ProcId i = 0; i < n; ++i) pin(i, w.scan[sz(i)]);
  for (const UntilWatch& w : until_) {
    if (w.done) continue;
    // Pin only what the evaluator may still read on each process: the
    // q-walk's candidate position (eval/forbidden read there;
    // join_irreducible_of reads cand+1, which is above the pin) and the EG
    // table's scan resume point. Positions below both are never touched
    // again — already-scanned prefix outcomes live in the table as stored
    // indices, and a decided conjunct is pure arithmetic at decision time.
    // DESIGN.md §18 spells out the case analysis; tests/test_until_inc.cpp
    // pins it differentially.
    for (ProcId i = 0; i < n; ++i)
      pin(i, w.eg.scan_floor(i, /*fallback=*/w.cand[sz(i)]));
  }
  // Stable watches evaluate on the frontier only: no pin. Never retreat
  // below a previous collection.
  for (ProcId i = 0; i < n; ++i)
    if (f[sz(i)] < app_.trimmed(i)) f[sz(i)] = app_.trimmed(i);
  return f;
}

void OnlineMonitor::roll_back_to_consistent(Cut& b) const {
  const Computation& c = app_.computation();
  const std::int32_t n = c.num_procs();
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProcId i = 0; i < n; ++i) {
      while (b[sz(i)] > app_.trimmed(i)) {
        const VClockView vc = c.vclock(i, b[sz(i)]);
        bool ok = true;
        for (ProcId j = 0; j < n; ++j)
          if (vc[sz(j)] > b[sz(j)]) {
            ok = false;
            break;
          }
        if (ok) break;
        --b[sz(i)];
        changed = true;
      }
    }
  }
}

std::int64_t OnlineMonitor::collect_prefix() {
  static const std::uint16_t kGc =
      FlightRecorder::intern("monitor.gc", "reclaimed", "resident");
  FlightScope flight(FlightRecorder::global(), kGc, budget_.trace);
  Cut b = min_watch_frontier();
  roll_back_to_consistent(b);
  const std::int64_t reclaimed = app_.collect_prefix(b);
  flight.args(reclaimed, app_.resident_events());
  return reclaimed;
}

std::size_t OnlineMonitor::watch_state_bytes() const {
  const auto vec_bytes = [](const std::vector<EventIndex>& v) {
    return v.capacity() * sizeof(EventIndex);
  };
  const auto cut_bytes = [](const Cut& g) {
    return g.size() * sizeof(EventIndex);
  };
  std::size_t total = 0;
  for (const ConjWatch& w : conj_)
    total += sizeof(w) + vec_bytes(w.cand) + vec_bytes(w.scan);
  for (const DisjWatch& w : disj_) total += sizeof(w) + vec_bytes(w.scan);
  total += stable_.size() * sizeof(StableWatch);
  for (const UntilWatch& w : until_)
    total += sizeof(w) + cut_bytes(w.cand) + w.eg.state_bytes();
  return total;
}

std::vector<WatchFire> OnlineMonitor::poll() {
  std::vector<WatchFire> out;
  out.swap(pending_);
  return out;
}

bool OnlineMonitor::fired(WatchId w) const {
  HBCT_ASSERT(w >= 0 && sz(w) < fired_.size());
  return fired_[sz(w)];
}

WatchKind OnlineMonitor::watch_class(WatchId w) const {
  HBCT_ASSERT(w >= 0 && sz(w) < kinds_.size());
  return kinds_[sz(w)];
}

}  // namespace hbct
