#include "serve/session.h"

#include <chrono>
#include <utility>

#include "ctl/compile.h"
#include "obs/flight.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/assert.h"

namespace hbct {
namespace serve {

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kOpen: return "open";
    case SessionState::kFinished: return "finished";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// Registers every variable the formula names, so validation accepts a
/// variable the stream declares only later (kVar records follow open()).
void register_vars(OnlineMonitor& mon, const ctl::NodePtr& node) {
  if (!node) return;
  for (const ctl::Sum* side : {&node->atom.lhs, &node->atom.rhs})
    for (const auto& [coef, t] : side->terms)
      if (t.kind == ctl::Term::Kind::kVar) mon.var(t.var);
  for (const ctl::NodePtr& ch : node->children) register_vars(mon, ch);
}

}  // namespace

Session::Session(SessionId id, const SessionConfig& cfg)
    : id_(id), cfg_(cfg), mon_(cfg.num_procs) {
  mon_.set_budget(cfg_.budget);
}

WatchId Session::watch_query(const ctl::Query& query, OptimizeMode mode) {
  register_vars(mon_, query.root ? query.root : query.p);
  if (!query.root) register_vars(mon_, query.q);
  if (!ctl::validate_query(mon_.computation(), query).empty()) return -1;
  ctl::Query q = query;
  PredicatePtr p;
  PredicatePtr qpred;
  if (mode != OptimizeMode::kOff) {
    // Cached: sessions register on an empty computation, so the analysis
    // outcome is shared across every session opened on the same formula.
    ctl::OptimizeOutcome o = ctl::optimize_query_cached(mon_.computation(), q);
    if (mode == OptimizeMode::kApply && o.query.temporal &&
        o.query.p != nullptr) {
      q = o.query;
      p = o.p;
      qpred = o.q;
    }
    // else: keep the as-written form. In particular, costable-collapse on
    // the empty registration-time computation is vacuous (every predicate
    // probes down-closed/stable with zero events) and its non-temporal
    // residue says nothing about the events this watch will observe.
  }
  if (!q.temporal || q.p == nullptr) return -1;
  if (p == nullptr) {
    ctl::CompileResult cp = ctl::compile_state(q.p);
    if (!cp.ok) return -1;
    p = cp.pred;
  }
  if ((q.op == Op::kEU || q.op == Op::kAU) && qpred == nullptr) {
    if (q.q == nullptr) return -1;
    ctl::CompileResult cq = ctl::compile_state(q.q);
    if (!cq.ok) return -1;
    qpred = cq.pred;
  }
  switch (q.op) {
    case Op::kEF:
      if (ConjunctivePredicatePtr conj = as_conjunctive(p))
        return mon_.watch_possibly(conj);
      if (DisjunctivePredicatePtr disj = as_disjunctive(p))
        return mon_.watch_possibly(disj);
      return -1;
    case Op::kAG:
      if (DisjunctivePredicatePtr disj = as_disjunctive(p))
        return mon_.watch_invariant(disj);
      return -1;
    case Op::kEU:
      if (ConjunctivePredicatePtr conj = as_conjunctive(p))
        return mon_.watch_until(conj, qpred);
      return -1;
    default:
      return -1;
  }
}

bool Session::fail(std::string msg) {
  if (state_ != SessionState::kFailed) {
    state_ = SessionState::kFailed;
    error_ = std::move(msg);
    stats_.state = state_;
    // Session isolation kicking in (malformed stream, decode error, append
    // rejection) is an anomaly worth a flight-recorder window: the dump
    // shows what the service was doing when the bad stream arrived.
    static const std::uint16_t kFail = FlightRecorder::intern(
        "serve.session_fail", "session", "records");
    FlightRecorder::global().anomaly(kFail, id_, stats_.records);
  }
  return false;
}

void Session::after_event() {
  ++stats_.events;
  if (cfg_.gc_interval_events > 0 && ++since_gc_ >= cfg_.gc_interval_events) {
    since_gc_ = 0;
    collect();
  }
}

bool Session::apply(const wire::Record& r) {
  using Kind = wire::Record::Kind;
  if (state_ == SessionState::kFailed) return false;
  if (state_ == SessionState::kFinished)
    return fail("record after end of stream");

  std::chrono::steady_clock::time_point t0;
  if (time_fires_) t0 = std::chrono::steady_clock::now();

  switch (r.kind) {
    case Kind::kProcs:
      if (r.nprocs != cfg_.num_procs)
        return fail("stream declares a different process count");
      break;
    case Kind::kEnd:
      finish();
      break;
    default:
      // The GC cadence counts an event before its writes apply.
      if (!app_.apply(mon_, r, [this] { after_event(); }))
        return fail(app_.error());
      break;
  }

  ++stats_.records;
  take_fires(time_fires_ ? &t0 : nullptr);
  return true;
}

void Session::take_fires(const std::chrono::steady_clock::time_point* t0) {
  auto fired = mon_.poll();
  if (fired.empty()) return;
  stats_.fires += static_cast<std::int64_t>(fired.size());
  // Fire latency: time from the record's arrival (t0) to the fire becoming
  // observable, recorded once in the combined histogram and once per fire
  // in its class. Registration-time fires (poll(), no t0) have no latency
  // sample but still count toward their class.
  std::uint64_t ns = 0;
  if (t0 != nullptr) {
    const auto dt = std::chrono::steady_clock::now() - *t0;
    ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
    if (inst_.latency != nullptr) inst_.latency->record(ns);
  }
  for (const WatchFire& f : fired) {
    const std::size_t k = static_cast<std::size_t>(f.kind);
    if (k >= kNumWatchKinds) continue;
    if (inst_.class_fires[k] != nullptr) inst_.class_fires[k]->add(1);
    if (t0 == nullptr) continue;
    if (inst_.class_latency[k] != nullptr) inst_.class_latency[k]->record(ns);
    if (inst_.raw_sample) inst_.raw_sample(f.kind, ns);
  }
  fires_.insert(fires_.end(), std::make_move_iterator(fired.begin()),
                std::make_move_iterator(fired.end()));
}

std::size_t Session::ingest(std::string_view bytes) {
  if (state_ == SessionState::kFailed) return 0;
  dec_.feed(bytes);
  std::size_t applied = 0;
  wire::Record r;
  for (;;) {
    switch (dec_.next(&r)) {
      case wire::Decoder::Status::kRecord:
        if (!apply(r)) return applied;
        ++applied;
        break;
      case wire::Decoder::Status::kNeedMore:
        return applied;
      case wire::Decoder::Status::kError:
        fail("decode: " + dec_.error());
        return applied;
    }
  }
}

void Session::finish() {
  if (state_ != SessionState::kOpen) return;
  mon_.finish();
  state_ = SessionState::kFinished;
  stats_.state = state_;
}

std::vector<WatchFire> Session::poll() {
  take_fires(nullptr);
  std::vector<WatchFire> out;
  out.swap(fires_);
  return out;
}

std::int64_t Session::collect() {
  const std::int64_t reclaimed = mon_.collect_prefix();
  ++stats_.gc_rounds;
  stats_.reclaimed_events += reclaimed;
  return reclaimed;
}

SessionStats Session::stats() const {
  SessionStats s = stats_;
  s.resident_events = mon_.resident_events();
  s.watch_state_bytes = static_cast<std::int64_t>(mon_.watch_state_bytes());
  s.until_inc_evals = static_cast<std::int64_t>(mon_.work().until_inc_evals);
  s.until_dec_evals = static_cast<std::int64_t>(mon_.work().until_dec_evals);
  s.state = state_;
  return s;
}

}  // namespace serve
}  // namespace hbct
