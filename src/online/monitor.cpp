#include "online/monitor.h"

#include <algorithm>

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
  on_event();
}

MsgId OnlineMonitor::send(ProcId from, ProcId to) {
  const MsgId m = app_.send(from, to);
  on_event();
  return m;
}

void OnlineMonitor::receive(ProcId to, MsgId m) {
  app_.receive(to, m);
  on_event();
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
  if (e == AppendError::kNone) on_event();
  return e;
}

AppendError OnlineMonitor::try_send(ProcId from, ProcId to, MsgId* out) {
  if (finished_) return AppendError::kFinished;
  const AppendError e = app_.try_send(from, to, out);
  if (e == AppendError::kNone) on_event();
  return e;
}

AppendError OnlineMonitor::try_receive(ProcId to, MsgId m) {
  if (finished_) return AppendError::kFinished;
  const AppendError e = app_.try_receive(to, m);
  if (e == AppendError::kNone) on_event();
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
  flight.args(events_seen(), static_cast<std::int64_t>(watches_.size()));
  const BoundReason tripped = run_round(nullptr);
  for (Watch& w : watches_) {
    // The final round ran out of budget: watches still undecided can no
    // longer be resumed (no further events arrive), so they report kUnknown
    // rather than staying silent as if the condition never occurred.
    if (tripped != BoundReason::kNone && !w.done) {
      const WatchKind label =
          w.kind == WatchKind::kInvariant ? WatchKind::kConjunctive : w.kind;
      fire(w.id, app_.current_cut(),
           std::string("undecided (budget): ") + to_string(label) + " watch",
           Verdict::kUnknown, tripped);
    }
    // Fire-once hardening: nothing can legally change after the final
    // round, so every watch is closed out — a stray late feed can never
    // resume one into a second (possibly contradictory) verdict.
    w.done = true;
  }
}

EventIndex OnlineMonitor::frozen_limit(ProcId i) const {
  const EventIndex n = app_.computation().num_events(i);
  if (finished_) return n;
  // The newest event may still receive writes; position 0 (initial values)
  // is frozen once any event exists, because set_initial must precede the
  // first event globally (run_round steps nothing before that).
  return n > 0 ? n - 1 : 0;
}

void OnlineMonitor::on_event() {
  ScopedSpan span(budget_.trace, "monitor.round");
  run_round(nullptr);
}

BoundReason OnlineMonitor::run_round(Watch* only) {
  // Each round gets a fresh work allowance; the tracker bases itself on the
  // cumulative counters, so only this round's work is charged. A tripped
  // round suspends the remaining steps; every watch's incremental state
  // resumes on the next event.
  // Before the first event nothing is frozen: a kInit record may still
  // rewrite any initial value, so no watch may judge the initial state yet.
  if (!finished_ && app_.computation().total_events() == 0)
    return BoundReason::kNone;
  BudgetTracker t(budget_, work_);
  round_ = &t;
  const std::int32_t n = app_.computation().num_procs();
  if (limits_.size() != sz(n)) limits_ = Cut(sz(n));
  for (ProcId i = 0; i < n; ++i) limits_[sz(i)] = frozen_limit(i);
  if (only != nullptr) {
    step(*only);
  } else {
    for (Watch& w : watches_) step(w);
  }
  round_ = nullptr;
  return t.reason();
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

WatchId OnlineMonitor::add_watch(Watch w) {
  HBCT_ASSERT_MSG(w.kind == WatchKind::kStable ||
                      app_.computation().trimmed_events() == 0,
                  "scanning watches must be registered before prefix GC");
  const auto rank = [](WatchKind k) {
    return k == WatchKind::kInvariant ? 0 : static_cast<int>(k);
  };
  const auto at = std::upper_bound(
      watches_.begin(), watches_.end(), rank(w.kind),
      [&](int r, const Watch& x) { return r < rank(x.kind); });
  w.id = next_id_++;
  fired_.push_back(false);
  kinds_.push_back(w.kind);
  // The searches bind the computation (a stable member) and the predicates
  // (on the heap), so their bindings survive moves of the watch vector.
  Watch& added = *watches_.insert(at, std::move(w));
  run_round(&added);
  return added.id;
}

WatchId OnlineMonitor::watch_possibly(ConjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  for (const auto& l : p->locals())
    HBCT_ASSERT_MSG(l->proc() < app_.computation().num_procs(),
                    "conjunct references an unknown process");
  Watch w;
  w.kind = WatchKind::kConjunctive;
  w.gw.bind(app_.computation(), *p, /*streaming=*/true);
  w.pred = std::move(p);
  return add_watch(std::move(w));
}

WatchId OnlineMonitor::watch_invariant(DisjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  ConjunctivePredicatePtr notp = as_conjunctive(p->negate());
  HBCT_ASSERT(notp);
  Watch w;
  w.kind = WatchKind::kInvariant;
  w.gw.bind(app_.computation(), *notp, /*streaming=*/true);
  w.pred = std::move(notp);
  return add_watch(std::move(w));
}

WatchId OnlineMonitor::watch_possibly(DisjunctivePredicatePtr p) {
  HBCT_ASSERT(p);
  Watch w;
  w.kind = WatchKind::kDisjunctive;
  w.disj.bind(app_.computation(), *p);
  w.pred = std::move(p);
  return add_watch(std::move(w));
}

WatchId OnlineMonitor::watch_until(ConjunctivePredicatePtr p,
                                   PredicatePtr q) {
  HBCT_ASSERT(p);
  HBCT_ASSERT(q);
  Watch w;
  w.kind = WatchKind::kUntil;
  w.cg.bind(app_.computation(), *q);
  w.eg.bind(app_.computation(), *p, /*instrumented=*/true);
  w.pred = std::move(p);
  w.q = std::move(q);
  return add_watch(std::move(w));
}

WatchId OnlineMonitor::watch_stable(PredicatePtr p) {
  HBCT_ASSERT(p);
  Watch w;
  w.kind = WatchKind::kStable;
  w.pred = std::move(p);
  return add_watch(std::move(w));
}

void OnlineMonitor::step(Watch& w) {
  if (w.done) return;
  switch (w.kind) {
    case WatchKind::kConjunctive:
    case WatchKind::kInvariant: return step_conj(w);
    case WatchKind::kDisjunctive: return step_disj(w);
    case WatchKind::kStable: return step_stable(w);
    case WatchKind::kUntil: return step_until(w);
  }
}

void OnlineMonitor::step_conj(Watch& w) {
  ScopedSpan span(budget_.trace, "monitor.watch.conj");
  span.arg("watch", w.id);
  if (w.gw.advance_to(limits_, work_, *round_) != SearchStatus::kFound)
    return;
  // The cut's clock rows may be collected already; check it while they are
  // all resident.
  HBCT_DASSERT(computation().trimmed_events() > 0 ||
               computation().is_consistent(w.gw.cut()));
  w.done = true;
  fire(w.id, w.gw.cut(),
       (w.kind == WatchKind::kInvariant ? "invariant violated: "
                                        : "possibly: ") +
           w.pred->describe());
}

void OnlineMonitor::step_disj(Watch& w) {
  ScopedSpan span(budget_.trace, "monitor.watch.disj");
  span.arg("watch", w.id);
  if (w.disj.advance_to(limits_, work_, *round_) != SearchStatus::kFound)
    return;
  w.done = true;
  fire(w.id, w.disj.witness(), "possibly: " + w.pred->describe());
}

void OnlineMonitor::step_stable(Watch& w) {
  ScopedSpan span(budget_.trace, "monitor.watch.stable");
  span.arg("watch", w.id);
  if (!round_ok()) return;  // re-evaluated from scratch next round
  const Computation& c = app_.computation();
  // Evaluate on the frozen frontier; stability makes any hit permanent.
  Cut frontier = limits_;
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

void OnlineMonitor::step_until(Watch& w) {
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
  // until_inc_evals).
  w.eg.advance_to(limits_, work_, round_);

  // Resume the Chase–Garg walk toward I_q over the frozen prefix. The walk
  // is monotone, so work already done never repeats; a forbidden process
  // exhausted in frozen positions, a join that pulled in a thawing tail, or
  // a tripped round budget suspends the watch until more events arrive or
  // finish() is called. The very first evaluation handles q(∅) (fires with
  // the empty prefix).
  if (w.cg.advance_to(limits_, work_, *round_) != SearchStatus::kFound)
    return;

  // I_q is inside the frozen prefix; Theorem 7 decides the verdict from
  // the events below it — stable under all extensions. The decision gets
  // the monitor's budget too; since the sub-computation below I_q never
  // changes, a kUnknown here would repeat identically on every retry, so
  // the watch fires kUnknown immediately instead of spinning. The decision
  // replays off the fed table — bit-identical verdict, bound and charged
  // stats to detect_eu_at; the witness path is skipped because prefix GC
  // may have trimmed the linearization it would be rebuilt from, and
  // WatchFire carries no path.
  DetectResult r = w.eg.decide_at(w.cg.cut(), budget_, /*want_path=*/false);
  work_ += r.stats;
  w.done = true;
  const std::string what =
      std::string(r.verdict == Verdict::kHolds
                      ? "until holds: E["
                      : r.verdict == Verdict::kFails ? "until refuted: E["
                                                     : "until undecided: E[") +
      w.pred->describe() + " U " + w.q->describe() + "]";
  fire(w.id, w.cg.cut(), what, r.verdict, r.bound);
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
  for (const Watch& w : watches_) {
    audit_one(w.id, w.pred);
    audit_one(w.id, w.q);
  }
  return out;
}

Cut OnlineMonitor::min_watch_frontier() const {
  return watch_frontier(nullptr);
}

Cut OnlineMonitor::watch_frontier(std::vector<const Watch*>* by) const {
  const Computation& c = app_.computation();
  const std::int32_t n = c.num_procs();
  Cut f(sz(n));
  for (ProcId i = 0; i < n; ++i) f[sz(i)] = frozen_limit(i);
  if (by != nullptr) by->assign(sz(n), nullptr);
  for (const Watch& w : watches_) {
    if (w.done) continue;
    for (ProcId i = 0; i < n; ++i) {
      EventIndex& fi = f[sz(i)];
      const EventIndex before = fi;
      switch (w.kind) {
        case WatchKind::kConjunctive:
        case WatchKind::kInvariant: fi = w.gw.scan_floor(i, fi); break;
        case WatchKind::kDisjunctive: fi = w.disj.scan_floor(i, fi); break;
        case WatchKind::kStable: break;
        case WatchKind::kUntil:
          // The q-walk reads from its cut up (q and forbidden() there, the
          // next join the clock above it), the EG table from its scan
          // resume point. Already-scanned prefix outcomes live in the table
          // as stored indices, and a decided conjunct is pure arithmetic at
          // decision time. DESIGN.md §18 spells out the case analysis;
          // tests/test_until_inc.cpp pins it differentially.
          fi = w.eg.scan_floor(i, w.cg.scan_floor(i, fi));
          break;
      }
      if (by != nullptr && fi < before) (*by)[sz(i)] = &w;
    }
  }
  // Stable watches evaluate on the frontier only: no pin. Never retreat
  // below a previous collection.
  for (ProcId i = 0; i < n; ++i)
    if (f[sz(i)] < app_.trimmed(i)) f[sz(i)] = app_.trimmed(i);
  return f;
}

std::vector<OnlineMonitor::GcPin> OnlineMonitor::gc_pins() const {
  std::vector<const Watch*> by;
  const Cut f = watch_frontier(&by);
  std::vector<GcPin> pins;
  for (ProcId i = 0; i < app_.computation().num_procs(); ++i) {
    const Watch* w = by[sz(i)];
    const std::int64_t held = frozen_limit(i) - f[sz(i)];
    if (w == nullptr || held <= 0) continue;
    pins.push_back(GcPin{i, w->id, w->kind, held});
  }
  return pins;
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
  std::size_t total = 0;
  for (const Watch& w : watches_)
    total += sizeof(w) + w.gw.state_bytes() + w.disj.state_bytes() +
             w.cg.state_bytes() + w.eg.state_bytes();
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
