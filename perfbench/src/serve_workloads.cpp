// The streaming workloads: serve-fleet (open loop, churning sessions, every
// watch class deciding mid-stream) and serve-longrun (saturation drain of a
// few long sessions whose watches stay undecided), plus the single-thread
// per-layer replays both share.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "ctl/compile.h"
#include "ctl/parser.h"
#include "detect/dispatch.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "online/appender.h"
#include "online/monitor.h"
#include "poset/trace_io.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "serve/service.h"
#include "sim/workloads.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using hbct::Computation;
using hbct::Cut;
using hbct::Op;
using hbct::OnlineMonitor;
using hbct::PredicatePtr;
using hbct::Verdict;
using hbct::WatchFire;
using hbct::WatchId;
using hbct::WatchKind;
namespace serve = hbct::serve;
namespace wire = hbct::wire;

// ---- Inputs -----------------------------------------------------------------

/// One watch: its query text (what the service is given) plus the compiled
/// operands and the offline reference verdict the fire is judged against.
struct WatchSpec {
  WatchKind kind = WatchKind::kConjunctive;
  std::string text;
  PredicatePtr p, q;
  bool expect_fire = false;
  Verdict expect_verdict = Verdict::kHolds;
};

/// One streamed execution: the wire chunks a session receives, the event
/// count through each chunk, its watches and the computation they were
/// checked against.
struct Execution {
  std::int32_t procs = 0;
  std::int64_t events = 0;
  std::size_t bytes = 0;
  std::vector<std::string> chunks;
  std::vector<std::int64_t> chunk_last_event;  // cumulative, per chunk
  std::vector<WatchSpec> watches;
  Computation comp;
};

Computation gen_mixer(std::int32_t procs, std::int64_t events,
                      std::uint64_t seed) {
  // A step is a write (1 event) or, with probability 0.3, a send whose
  // receive adds a second event: ~1.3 events per step.
  const auto steps = static_cast<std::int32_t>(
      std::max<std::int64_t>(1, events * 10 / (13 * procs)));
  hbct::sim::SimOptions so;
  so.seed = seed;
  so.max_actions = std::int64_t{1} << 40;
  return hbct::sim::make_random_mixer(procs, steps, 4, 0.3).run(so);
}

bool is_event(const wire::Record& r) {
  return r.kind == wire::Record::Kind::kInternal ||
         r.kind == wire::Record::Kind::kSend ||
         r.kind == wire::Record::Kind::kRecv;
}

/// Decodes a binary trace into its records (header, events, kEnd).
std::vector<wire::Record> decode_all(const std::string& bin) {
  std::vector<wire::Record> out;
  wire::Decoder dec;
  dec.feed(std::string_view(bin).substr(wire::kBinaryMagic.size()));
  wire::Record r;
  while (dec.next(&r) == wire::Decoder::Status::kRecord) out.push_back(r);
  return out;
}

/// Wire chunks of `chunk_events` events each; the header rides in the first
/// chunk and end-of-stream in the last, so every fire's triggering event
/// lies in a chunk the generator sent.
void chunk_stream(Execution& x, std::int64_t chunk_events) {
  const std::vector<wire::Record> recs =
      decode_all(hbct::trace_to_binary_string(x.comp));
  std::string cur;
  std::int64_t in_cur = 0, seen = 0;
  for (const wire::Record& r : recs) {
    wire::encode_record(cur, r);
    if (!is_event(r)) continue;
    ++seen;
    if (++in_cur == chunk_events) {
      x.chunks.push_back(std::move(cur));
      x.chunk_last_event.push_back(seen);
      cur.clear();
      in_cur = 0;
    }
  }
  if (!cur.empty()) {
    if (in_cur == 0 && !x.chunks.empty()) {
      x.chunks.back() += cur;  // only kEnd left: join the last chunk
    } else {
      x.chunks.push_back(std::move(cur));
      x.chunk_last_event.push_back(seen);
    }
  }
  x.events = seen;
  for (const std::string& c : x.chunks) x.bytes += c.size();
}

PredicatePtr compile_operand(const hbct::ctl::NodePtr& n) {
  hbct::ctl::CompileResult r = hbct::ctl::compile_state(n);
  return r.ok ? r.pred : nullptr;
}

/// Offline verdict of a query on the complete computation, through the
/// query front door with the optimizer on (it proves the pos() sums
/// stable, so they take the stable-final route instead of a search).
Verdict offline_verdict(const Computation& c, const std::string& text) {
  hbct::DispatchOptions opt;
  opt.optimize = hbct::OptimizeMode::kApply;
  const hbct::ctl::EvalResult r = hbct::ctl::evaluate_query(c, text, opt);
  return r.ok ? r.result.verdict : Verdict::kUnknown;
}

/// Compiles the watch's query and computes its reference: the offline
/// verdict of the same operator on the complete computation.
WatchSpec make_watch(const Computation& c, Sheet& sheet, WatchKind kind,
                     std::string text) {
  WatchSpec w;
  w.kind = kind;
  w.text = std::move(text);
  const hbct::ctl::ParseResult pr = hbct::ctl::parse_query(w.text);
  sheet.check(pr.ok, "query does not parse: " + w.text);
  if (!pr.ok) return w;
  w.p = compile_operand(pr.query.p);
  if (pr.query.q != nullptr) w.q = compile_operand(pr.query.q);
  const Verdict v = offline_verdict(c, w.text);
  sheet.check(v != Verdict::kUnknown && w.p != nullptr,
              "no offline reference for " + w.text);
  switch (kind) {
    case WatchKind::kConjunctive:
    case WatchKind::kDisjunctive:
    case WatchKind::kStable:
      w.expect_fire = v == Verdict::kHolds;
      break;
    case WatchKind::kInvariant:
      w.expect_fire = v == Verdict::kFails;
      break;
    case WatchKind::kUntil: {
      // The watch decides once I_q lies in the prefix: it fires (either
      // way) iff q holds somewhere, with the E[p U q] verdict.
      const std::string ef_q =
          "EF(" + hbct::ctl::to_string(*pr.query.q) + ")";
      const Verdict reach = offline_verdict(c, ef_q);
      sheet.check(reach != Verdict::kUnknown,
                  "no offline reference for " + ef_q);
      w.expect_fire = reach == Verdict::kHolds;
      w.expect_verdict = v;
      break;
    }
  }
  return w;
}

std::int64_t events_on(const Computation& c, std::int32_t from,
                       std::int32_t to) {
  std::int64_t n = 0;
  for (std::int32_t i = from; i <= to; ++i) n += c.num_events(i);
  return n;
}

std::string fmt(const char* f, long long a, long long b = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// serve-fleet: every class armed three times over different processes,
/// each set to decide mid-stream.
void fleet_watches(Execution& x, Sheet& sheet) {
  const Computation& c = x.comp;
  const auto add = [&](WatchKind kind, const std::string& text) {
    x.watches.push_back(make_watch(c, sheet, kind, text));
  };
  const long long f = 9;
  for (long long k = 0; k < 3; ++k) {
    const long long a = 3 * k, b = 3 * k + 1, d = (3 * k + 2) % 8;
    add(WatchKind::kConjunctive,
        fmt("EF(v0@P%lld == 9 && v1@P%lld == 9", a, b) +
            fmt(" && v2@P%lld == %lld)", d, f));
    add(WatchKind::kDisjunctive,
        fmt("EF(v3@P%lld == 9 || v2@P%lld == 9)", b, d));
    add(WatchKind::kInvariant, fmt("AG(v0@P%lld <= 8 || v1@P%lld <= 8)", d, a));
    const long long k_stable =
        events_on(c, 2 * k, 2 * k + 1) * (3 + 2 * k) / 10;
    add(WatchKind::kStable,
        fmt("EF(pos(%lld) + pos(%lld)", 2 * k, 2 * k + 1) +
            fmt(" >= %lld)", k_stable));
    const long long j = 5 + k;
    const long long on_j = c.num_events(static_cast<std::int32_t>(j));
    const long long k_until = std::max<long long>(1, on_j * (4 + 2 * k) / 10);
    add(WatchKind::kUntil, fmt("E[v1@P%lld <= 8 && v2@P%lld <= 8 U ", a, b) +
                               fmt("pos(%lld) >= %lld]", j, k_until));
  }
}

/// serve-longrun: four watches that never decide, plus one late until.
void longrun_watches(Execution& x, Sheet& sheet) {
  const Computation& c = x.comp;
  const long long k_late = std::max<long long>(1, c.num_events(2) * 9 / 10);
  x.watches.push_back(make_watch(c, sheet, WatchKind::kUntil,
                                 "E[v0@P0 >= 0 U pos(1) >= 1000000000]"));
  x.watches.push_back(make_watch(c, sheet, WatchKind::kConjunctive,
                                 "EF(v0@P0 >= 10 && v1@P1 >= 10)"));
  x.watches.push_back(make_watch(c, sheet, WatchKind::kInvariant,
                                 "AG(v0@P2 <= 9 || v1@P3 <= 9)"));
  x.watches.push_back(make_watch(c, sheet, WatchKind::kStable,
                                 "EF(pos(0) + pos(1) >= 1000000000)"));
  x.watches.push_back(make_watch(
      c, sheet, WatchKind::kUntil,
      fmt("E[v0@P0 >= 0 && v1@P1 >= 0 U pos(2) >= %lld]", k_late)));
}

/// Registers the execution's watches (all, or only those of class `only`)
/// from their query text, routing by operator and operand class the way a
/// streaming client would. Returns false when a query does not fit its
/// watch class.
bool register_watches(OnlineMonitor& m, const Execution& x,
                      std::optional<WatchKind> only = std::nullopt) {
  // Variables first: watches resolve names against the monitor, and the
  // stream's own kVar records arrive only with the first chunk.
  for (hbct::VarId v = 0; v < x.comp.num_vars(); ++v) m.var(x.comp.var_name(v));
  for (const WatchSpec& w : x.watches) {
    if (only && w.kind != *only) continue;
    const hbct::ctl::ParseResult pr = hbct::ctl::parse_query(w.text);
    if (!pr.ok) return false;
    const PredicatePtr p = compile_operand(pr.query.p);
    if (p == nullptr) return false;
    WatchId id = -1;
    switch (w.kind) {
      case WatchKind::kConjunctive:
        if (auto cp = hbct::as_conjunctive(p)) id = m.watch_possibly(cp);
        break;
      case WatchKind::kDisjunctive:
        if (auto dp = hbct::as_disjunctive(p)) id = m.watch_possibly(dp);
        break;
      case WatchKind::kInvariant:
        if (auto dp = hbct::as_disjunctive(p)) id = m.watch_invariant(dp);
        break;
      case WatchKind::kStable:
        id = m.watch_stable(p);
        break;
      case WatchKind::kUntil: {
        const PredicatePtr q = compile_operand(pr.query.q);
        auto cp = hbct::as_conjunctive(p);
        if (cp && q) id = m.watch_until(cp, q);
        break;
      }
    }
    if (id < 0) return false;
  }
  return true;
}

/// Judges one finished session's fires against the references.
void check_session(Sheet& sheet, const Execution& x,
                   const std::vector<WatchFire>& fires,
                   serve::SessionState state, const char* wl) {
  sheet.check(state == serve::SessionState::kFinished,
              std::string(wl) + ": session ended " + serve::to_string(state));
  std::vector<const WatchFire*> by_watch(x.watches.size(), nullptr);
  bool dup = false;
  for (const WatchFire& f : fires) {
    if (f.watch < 0 || static_cast<std::size_t>(f.watch) >= by_watch.size() ||
        by_watch[f.watch] != nullptr) {
      dup = true;
      continue;
    }
    by_watch[f.watch] = &f;
  }
  sheet.check(!dup, std::string(wl) + ": duplicate or unknown fire");
  const Computation& c = x.comp;
  for (std::size_t i = 0; i < x.watches.size(); ++i) {
    const WatchSpec& w = x.watches[i];
    const WatchFire* f = by_watch[i];
    const std::string what = std::string(wl) + ": " + w.text;
    if (!w.expect_fire) {
      sheet.check(f == nullptr, what + ": unexpected fire");
      continue;
    }
    if (f == nullptr) {
      sheet.check(false, what + ": missing fire");
      continue;
    }
    bool ok = f->verdict != Verdict::kUnknown && c.is_consistent(f->cut);
    if (ok) {
      switch (w.kind) {
        case WatchKind::kConjunctive:
        case WatchKind::kDisjunctive:
        case WatchKind::kStable:
          ok = f->verdict == Verdict::kHolds && w.p->eval(c, f->cut);
          break;
        case WatchKind::kInvariant:
          ok = f->verdict == Verdict::kHolds && !w.p->eval(c, f->cut);
          break;
        case WatchKind::kUntil:
          ok = f->verdict == w.expect_verdict && w.q->eval(c, f->cut);
          break;
      }
    }
    sheet.check(ok, what + ": wrong fire");
  }
}

std::size_t chunk_of_event(const Execution& x, std::int64_t at_event) {
  auto it = std::lower_bound(x.chunk_last_event.begin(),
                             x.chunk_last_event.end(), at_event);
  if (it == x.chunk_last_event.end()) return x.chunks.size() - 1;
  return static_cast<std::size_t>(it - x.chunk_last_event.begin());
}

void record_input_props(Sheet& sheet, const std::vector<Execution>& xs) {
  std::int64_t ev = 0, mn = INT64_MAX, mx = 0, undecided = 0, until = 0,
               watches = 0;
  std::int32_t pmin = INT32_MAX, pmax = 0;
  std::size_t bytes = 0;
  for (const Execution& x : xs) {
    ev += x.events;
    mn = std::min(mn, x.events);
    mx = std::max(mx, x.events);
    pmin = std::min(pmin, x.procs);
    pmax = std::max(pmax, x.procs);
    bytes += x.bytes;
    for (const WatchSpec& w : x.watches) {
      ++watches;
      undecided += w.expect_fire ? 0 : 1;
      until += w.kind == WatchKind::kUntil ? 1 : 0;
    }
  }
  char buf[200];
  const auto mean = ev / static_cast<std::int64_t>(xs.size());
  std::snprintf(buf, sizeof buf,
                "%zu executions, %lld..%lld events (mean %lld)", xs.size(),
                static_cast<long long>(mn), static_cast<long long>(mx),
                static_cast<long long>(mean));
  sheet.prop("executions", buf);
  std::snprintf(buf, sizeof buf, "%d..%d", pmin, pmax);
  sheet.prop("procs", buf);
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(bytes) / ev);
  sheet.prop("wire_bytes_per_event", buf);
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(undecided) / static_cast<double>(watches));
  sheet.prop("watch_undecided_share", buf);
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(until) / static_cast<double>(watches));
  sheet.prop("watch_until_share", buf);
}

// ---- Per-layer replays (one thread, public calls only) ----------------------

struct ReplayInput {
  std::int32_t procs;
  std::vector<wire::Record> recs;  // decoded prefix, header included
  const Execution* x;
  std::int64_t events;  // events in the prefix
  std::size_t chunks;   // chunks in the prefix
};

/// Feeds decoded records to anything with the guarded feed API
/// (OnlineAppender, OnlineMonitor); `every` runs after each event.
template <class Feed, class Every>
void feed_records(Feed& f, const std::vector<wire::Record>& recs,
                  Every&& every) {
  std::vector<hbct::VarId> vars;
  std::unordered_map<std::uint64_t, hbct::MsgId> msgs;
  for (const wire::Record& r : recs) {
    switch (r.kind) {
      case wire::Record::Kind::kVar:
        vars.push_back(f.var(r.name));
        break;
      case wire::Record::Kind::kInit:
        f.try_set_initial(r.proc, vars[r.var], r.value);
        break;
      case wire::Record::Kind::kInternal:
        f.try_internal(r.proc);
        break;
      case wire::Record::Kind::kSend: {
        hbct::MsgId m = hbct::kNoMsg;
        f.try_send(r.proc, r.peer, &m);
        msgs.emplace(r.msg, m);
        break;
      }
      case wire::Record::Kind::kRecv: {
        auto it = msgs.find(r.msg);
        f.try_receive(r.proc, it->second);
        msgs.erase(it);
        break;
      }
      default:
        break;
    }
    for (const wire::WireWrite& w : r.writes)
      f.try_write(r.proc, vars[w.var], w.value);
    if (is_event(r)) every();
  }
}

/// Replays of the workload's own inputs, each timed around public calls.
void layer_replays(Sheet& sheet, const std::vector<Execution>& xs,
                   std::int64_t max_events, std::int64_t gc_interval) {
  std::vector<ReplayInput> in;
  std::int64_t total_events = 0, total_records = 0;
  std::size_t total_bytes = 0;
  // A prefix of every execution (whole chunks), so the replay keeps the
  // workload's mix of widths within a bounded replay time.
  const std::int64_t per_exec =
      max_events / static_cast<std::int64_t>(xs.size());
  for (const Execution& x : xs) {
    ReplayInput r{x.procs, {}, &x, 0, 0};
    wire::Decoder dec;
    while (r.chunks < x.chunks.size() && r.events < per_exec) {
      const std::string& c = x.chunks[r.chunks];
      dec.feed(c);
      wire::Record rec;
      while (dec.next(&rec) == wire::Decoder::Status::kRecord)
        r.recs.push_back(rec);
      total_bytes += c.size();
      r.events = x.chunk_last_event[r.chunks];
      ++r.chunks;
    }
    total_events += r.events;
    total_records += static_cast<std::int64_t>(r.recs.size());
    in.push_back(std::move(r));
  }
  const double ev = static_cast<double>(total_events);

  // Wire decode: feed + next over every chunk. Best of three.
  double decode_ns = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    std::int64_t n = 0;
    for (const ReplayInput& r : in) {
      wire::Decoder dec;
      wire::Record rec;
      for (std::size_t k = 0; k < r.chunks; ++k) {
        dec.feed(r.x->chunks[k]);
        while (dec.next(&rec) == wire::Decoder::Status::kRecord) ++n;
      }
    }
    decode_ns = std::min(decode_ns, static_cast<double>(now_ns() - t0));
    if (n != total_records) sheet.check(false, "decode replay record count");
  }
  const double decode_per_record =
      decode_ns / static_cast<double>(total_records);
  sheet.set_layer("poset.wire_decode_ns_per_record", decode_per_record,
                  total_records);
  sheet.set_layer("poset.wire_bytes_per_event",
                  static_cast<double>(total_bytes) / ev, total_events);

  // Append alone.
  double append_ns = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    for (const ReplayInput& r : in) {
      hbct::OnlineAppender app(r.procs);
      feed_records(app, r.recs, [] {});
    }
    append_ns = std::min(append_ns, static_cast<double>(now_ns() - t0));
  }
  const double append_per_event = append_ns / ev;
  sheet.set_layer("online.append_ns_per_event", append_per_event, total_events);

  // One monitor per watch class, only that class armed; the class's step
  // cost is what it adds over the bare append.
  struct ClassRow {
    WatchKind kind;
    const char* name;
  };
  const ClassRow classes[] = {{WatchKind::kConjunctive, "conjunctive"},
                              {WatchKind::kDisjunctive, "disjunctive"},
                              {WatchKind::kInvariant, "invariant"},
                              {WatchKind::kStable, "stable"},
                              {WatchKind::kUntil, "until"}};
  // The bare monitor (no watch armed): its overhead over the appender is
  // shared by every class, so the residual counts it once.
  double bare = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    for (const ReplayInput& r : in) {
      OnlineMonitor m(r.procs);
      feed_records(m, r.recs, [] {});
    }
    bare = std::min(bare, static_cast<double>(now_ns() - t0));
  }
  const double monitor_base = std::max(0.0, bare / ev - append_per_event);
  double steps_sum = 0;
  for (const ClassRow& cls : classes) {
    double best = 1e300;
    std::uint64_t inc_evals = 0;
    for (int rep = 0; rep < 3; ++rep) {
      inc_evals = 0;
      const std::int64_t t0 = now_ns();
      for (const ReplayInput& r : in) {
        OnlineMonitor m(r.procs);
        register_watches(m, *r.x, cls.kind);
        feed_records(m, r.recs, [] {});
        inc_evals += m.work().until_inc_evals;
      }
      best = std::min(best, static_cast<double>(now_ns() - t0));
    }
    const double step = std::max(0.0, best / ev - append_per_event);
    steps_sum += std::max(0.0, step - monitor_base);
    sheet.set_layer(std::string("online.step_ns_per_event.") + cls.name, step,
                    total_events);
    if (cls.kind == WatchKind::kUntil)
      sheet.set_layer("online.until_inc_evals_per_event",
                      static_cast<double>(inc_evals) / ev, total_events);
  }

  // Prefix GC at the service's interval, every watch armed.
  std::vector<double> gc_us;
  std::int64_t reclaimed = 0;
  for (const ReplayInput& r : in) {
    OnlineMonitor m(r.procs);
    register_watches(m, *r.x);
    std::int64_t since = 0;
    feed_records(m, r.recs, [&] {
      if (++since < gc_interval) return;
      since = 0;
      const std::int64_t t0 = now_ns();
      reclaimed += m.collect_prefix();
      gc_us.push_back((now_ns() - t0) / 1e3);
    });
  }
  double gc_total_us = 0;
  for (double g : gc_us) gc_total_us += g;
  const double rounds =
      static_cast<double>(std::max<std::size_t>(1, gc_us.size()));
  sheet.set_layer("online.gc_us_per_round", gc_total_us / rounds,
                  static_cast<std::int64_t>(gc_us.size()));
  sheet.set_layer("online.gc_reclaimed_per_round",
                  static_cast<double>(reclaimed) / rounds,
                  static_cast<std::int64_t>(gc_us.size()));

  // Session::ingest, flight recorder on (the default) and off, alternated.
  auto ingest_pass = [&](bool recorder) {
    hbct::FlightRecorder::global().set_enabled(recorder);
    const std::int64_t t0 = now_ns();
    for (const ReplayInput& r : in) {
      serve::SessionConfig cfg;
      cfg.num_procs = r.procs;
      cfg.gc_interval_events = gc_interval;
      serve::Session s(1, cfg);
      register_watches(s.monitor(), *r.x);
      for (std::size_t k = 0; k < r.chunks; ++k) s.ingest(r.x->chunks[k]);
      if (s.state() == serve::SessionState::kFailed)
        sheet.check(false, "ingest replay failed: " + s.error());
    }
    const double ns = static_cast<double>(now_ns() - t0);
    hbct::FlightRecorder::global().set_enabled(true);
    return ns;
  };
  double on = 1e300, off = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    on = std::min(on, ingest_pass(true));
    off = std::min(off, ingest_pass(false));
  }
  const double ingest_per_event = on / ev;
  const double recorder = std::max(0.0, (on - off) / ev);
  sheet.set_layer("serve.ingest_ns_per_event", ingest_per_event, total_events);
  sheet.set_layer("obs.recorder_ns_per_event", recorder, total_events);
  const double gc_per_event = gc_total_us * 1e3 / ev;
  const double explained =
      decode_per_record * static_cast<double>(total_records) / ev +
      append_per_event + monitor_base + steps_sum + recorder + gc_per_event;
  sheet.set_layer("serve.unexplained_share", 1.0 - explained / ingest_per_event,
                  total_events);
}

// ---- Service plumbing -------------------------------------------------------

/// A service plus the pool it runs on, owned together. The pool exists
/// before start() so that set-up timing covers the service alone.
struct Fleet {
  explicit Fleet(std::size_t workers) : pool(workers) {}
  ~Fleet() { svc.reset(); }
  void start(serve::ServiceOptions opt) {
    opt.pool = &pool;
    svc = std::make_unique<serve::StreamingService>(std::move(opt));
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  hbct::ThreadPool pool;
  std::unique_ptr<serve::StreamingService> svc;
};

serve::SessionId open_session(serve::StreamingService& svc, const Execution& x,
                              bool* ok) {
  serve::SessionConfig cfg;
  cfg.num_procs = x.procs;  // GC at the default interval
  return svc.open(cfg, [&](OnlineMonitor& m) {
    *ok = register_watches(m, x);
  });
}

/// Set-up time samples, in process CPU seconds: service construction plus
/// opening `sessions` sessions (watches registered), `reps` times after a
/// few unrecorded warm-up rounds, on one pool created beforehand.
std::vector<double> setup_reps(const std::vector<Execution>& xs, int sessions,
                               int reps) {
  constexpr int kWarmup = 5;
  Fleet fleet(static_cast<std::size_t>(thread_budget() - 1));
  std::vector<double> out;
  for (int rep = 0; rep < kWarmup + reps; ++rep) {
    bool ok = true;
    std::vector<serve::SessionId> sids;
    const std::int64_t c0 = process_cpu_ns();
    fleet.start({});
    for (int i = 0; i < sessions; ++i)
      sids.push_back(open_session(*fleet.svc, xs[i % xs.size()], &ok));
    if (rep >= kWarmup) out.push_back((process_cpu_ns() - c0) * 1e-9);
    for (serve::SessionId sid : sids) fleet.svc->close(sid);
    fleet.svc.reset();
  }
  return out;
}

/// Fire-internal latency samples from the ServiceOptions::fire_sample hook.
struct FireSamples {
  std::mutex mu;
  std::vector<double> us;
};

// ---- serve-fleet ------------------------------------------------------------

/// Offered event rate of serve-fleet, frozen so every commit is measured at
/// the same load. On the 4-vCPU box this was set on, the generator falls
/// behind between 800k and 1.2M events/s; half of that gave fire
/// percentiles that swung several-fold between runs, so the rate sits at
/// about a fifth of saturation (perfbench/README.md).
constexpr double kFleetRate = 200'000;
constexpr std::int64_t kFleetChunkEvents = 64;
constexpr double kFleetSessionRate = 10'000;  // events/s within one session
constexpr int kFleetExecutions = 16;
constexpr std::int64_t kFleetPollNs = 100'000;
/// Fire percentiles are taken per window of the schedule and the median
/// over windows is reported, so one burst of host noise moves one window.
constexpr int kFleetWindows = 10;
constexpr int kFleetInitialSessions = 16;

struct FleetSession {
  const Execution* x = nullptr;
  std::int64_t start_ns = 0;  // relative to schedule start
  serve::SessionId sid = -1;
  bool opened = false;
  std::size_t posted = 0;
  std::int64_t last_due = 0;
  std::vector<WatchFire> fires;
  /// Due time of a chunk: when the session's stream reaches its first event.
  std::int64_t due(std::size_t chunk) const {
    const std::int64_t before = chunk == 0 ? 0 : x->chunk_last_event[chunk - 1];
    return start_ns + static_cast<std::int64_t>(static_cast<double>(before) *
                                                1e9 / kFleetSessionRate);
  }
};

struct FleetResult {
  std::vector<double> fire_us;
  std::vector<int> fire_window;  // schedule window of each fire's due time
  std::vector<double> late_us;
  std::vector<double> turnaround_s;
  std::vector<double> post_us, poll_us, open_us, close_us;
  std::int64_t events = 0, fires = 0, sessions = 0, failed_sessions = 0;
  double window_s = 0;
  double drain_ms = 0;
  std::int64_t resident_peak = 0, watch_bytes_peak = 0;
  std::string invalid;
};

FleetResult run_fleet_schedule(const std::vector<Execution>& xs,
                               double horizon_s, std::uint64_t seed,
                               bool traced, SpanLog& spans, Sheet& sheet,
                               RssPeak& rss, FireSamples* internal) {
  FleetResult res;
  hbct::Rng rng(seed ^ 0x5eed'f1ee'7ull);
  std::vector<FleetSession> ss;
  {
    double t = 0;
    while (t < horizon_s) {
      FleetSession s;
      s.x = &xs[rng.next_below(xs.size())];
      s.start_ns = static_cast<std::int64_t>(t * 1e9);
      ss.push_back(s);
      t += static_cast<double>(s.x->events) / kFleetRate *
           (0.5 + rng.next_double());
    }
  }
  struct Send {
    std::int64_t due;
    std::uint32_t session;
    std::uint32_t chunk;
  };
  std::vector<Send> sends;
  for (std::size_t i = 0; i < ss.size(); ++i)
    for (std::size_t c = 0; c < ss[i].x->chunks.size(); ++c)
      sends.push_back(Send{ss[i].due(c), static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(c)});
  std::stable_sort(sends.begin(), sends.end(),
                   [](const Send& a, const Send& b) { return a.due < b.due; });

  serve::ServiceOptions opt;
  if (internal != nullptr) {
    opt.fire_sample = [internal](WatchKind, std::uint64_t ns) {
      std::lock_guard<std::mutex> lk(internal->mu);
      internal->us.push_back(static_cast<double>(ns) / 1e3);
    };
  }
  const auto workers = static_cast<std::size_t>(thread_budget() - 1);
  Fleet fleet(workers);
  fleet.start(opt);
  serve::StreamingService& svc = *fleet.svc;
  for (int i = 0; i < kFleetInitialSessions && i < static_cast<int>(ss.size());
       ++i) {
    bool ok = false;
    ss[i].sid = open_session(svc, *ss[i].x, &ok);
    ss[i].opened = true;
    sheet.check(ok, "serve-fleet: watch registration");
  }

  hbct::Counter& applied =
      hbct::MetricsRegistry::global().counter("serve.events");
  const std::uint64_t applied0 = applied.value();
  std::int64_t posted_events = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> backlog;  // (t, events)
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < ss.size(); ++i)
    if (ss[i].opened) live.push_back(i);

  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto window_of = [&](std::int64_t rel_ns) {
    const auto w = static_cast<int>(static_cast<double>(rel_ns) * 1e-9 /
                                    horizon_s * kFleetWindows);
    return std::clamp(w, 0, kFleetWindows - 1);
  };
  std::int64_t next_sample = t0;
  std::size_t next = 0;
  std::int64_t last_activity = t0;
  auto span = [&](const char* name, std::int64_t a, std::int64_t b,
                  std::int64_t id, std::vector<double>* into) {
    if (!traced) return;
    spans.add(name, a, b, id);
    into->push_back((b - a) / 1e3);
  };
  while (next < sends.size() || !live.empty()) {
    std::int64_t now = now_ns();
    while (next < sends.size() && t0 + sends[next].due <= now) {
      const Send& s = sends[next];
      FleetSession& fs = ss[s.session];
      const std::int64_t due = t0 + s.due;
      if (!fs.opened) {
        bool ok = false;
        const std::int64_t a = now_ns();
        fs.sid = open_session(svc, *fs.x, &ok);
        span("serve.open", a, now_ns(), fs.sid, &res.open_us);
        fs.opened = true;
        sheet.check(ok, "serve-fleet: watch registration");
        live.push_back(s.session);
      }
      res.late_us.push_back((now - due) / 1e3);
      const std::int64_t a = now_ns();
      svc.post(fs.sid, fs.x->chunks[s.chunk]);
      span("serve.post", a, now_ns(), fs.sid, &res.post_us);
      const std::vector<std::int64_t>& last = fs.x->chunk_last_event;
      posted_events += last[s.chunk] - (s.chunk == 0 ? 0 : last[s.chunk - 1]);
      fs.posted = s.chunk + 1;
      fs.last_due = due;
      ++next;
      now = now_ns();
    }
    for (std::size_t k = 0; k < live.size();) {
      FleetSession& fs = ss[live[k]];
      const std::int64_t a = now_ns();
      std::vector<WatchFire> got = svc.poll(fs.sid);
      const std::int64_t b = now_ns();
      if (!got.empty()) {
        span("serve.poll", a, b, fs.sid, &res.poll_us);
        for (WatchFire& f : got) {
          const std::int64_t due =
              t0 + fs.due(chunk_of_event(*fs.x, f.at_event));
          res.fire_us.push_back((b - due) / 1e3);
          res.fire_window.push_back(window_of(due - t0));
          fs.fires.push_back(std::move(f));
        }
      }
      if (fs.posted == fs.x->chunks.size()) {
        const serve::SessionState st = svc.state(fs.sid);
        if (st != serve::SessionState::kOpen) {
          for (WatchFire& f : svc.poll(fs.sid)) {
            const std::int64_t due = fs.due(chunk_of_event(*fs.x, f.at_event));
            res.fire_us.push_back((now_ns() - t0 - due) / 1e3);
            res.fire_window.push_back(window_of(due));
            fs.fires.push_back(std::move(f));
          }
          res.turnaround_s.push_back((now_ns() - fs.last_due) * 1e-9);
          if (st == serve::SessionState::kFailed) ++res.failed_sessions;
          check_session(sheet, *fs.x, fs.fires, st, "serve-fleet");
          // A missing fire misses every latency limit.
          std::size_t expected = 0;
          for (const WatchSpec& w : fs.x->watches) expected += w.expect_fire;
          for (std::size_t m = fs.fires.size(); m < expected; ++m) {
            res.fire_us.push_back(horizon_s * 1e6);
            res.fire_window.push_back(window_of(fs.last_due - t0));
          }
          res.fires += static_cast<std::int64_t>(fs.fires.size());
          res.events += fs.x->events;
          ++res.sessions;
          const std::int64_t c0 = now_ns();
          svc.close(fs.sid);
          span("serve.close", c0, now_ns(), fs.sid, &res.close_us);
          fs.fires.clear();
          fs.fires.shrink_to_fit();
          live[k] = live.back();
          live.pop_back();
          last_activity = now_ns();
          continue;
        }
      }
      ++k;
    }
    now = now_ns();
    if (now >= next_sample) {
      next_sample = now + 20'000'000;
      rss.sample();
      const auto done = static_cast<std::int64_t>(applied.value() - applied0);
      backlog.emplace_back(now - t0, posted_events - done);
      if (traced) {
        res.resident_peak = std::max(res.resident_peak, svc.resident_events());
        std::int64_t bytes = 0;
        for (std::size_t i : live)
          bytes += svc.stats(ss[i].sid).watch_state_bytes;
        res.watch_bytes_peak = std::max(res.watch_bytes_peak, bytes);
      }
    }
    if (now - last_activity > 30'000'000'000LL) {
      res.invalid = "serve-fleet: sessions stopped finishing";
      break;
    }
    // The consumer polls every kFleetPollNs; between polls the generator
    // sleeps unless a send falls due, leaving the cores to the pool.
    const std::int64_t wake = std::min(
        now + kFleetPollNs,
        next < sends.size() ? t0 + sends[next].due : now + kFleetPollNs);
    if (wake - now > 20'000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(wake - now - 10'000));
  }
  const std::int64_t d0 = now_ns();
  svc.drain();
  res.drain_ms = (now_ns() - d0) / 1e6;
  if (traced) spans.add("serve.drain", d0, now_ns());
  const std::int64_t end = sends.empty() ? t0 : t0 + sends.back().due;
  // The window ends when the last session closed.
  res.window_s = std::max(1e-9, (now_ns() - t0) * 1e-9);

  // Open-loop discipline: the generator must keep to its schedule (its
  // lateness over the last tenth of the sends stays small and no send is
  // badly late) and the service's backlog must not grow from the first to
  // the last quarter. Momentary lateness is reported, and fires are timed
  // from the due time, so it is charged to fire latency either way.
  const std::size_t tail = res.late_us.size() - res.late_us.size() / 10;
  const double late_tail =
      median(std::vector<double>(
          res.late_us.begin() + static_cast<std::ptrdiff_t>(tail),
          res.late_us.end()));
  double late_max = 0;
  for (double l : res.late_us) late_max = std::max(late_max, l);
  if (late_tail > 5'000 || late_max > 250'000)
    res.invalid = fmt("serve-fleet: generator fell behind (late median of the "
                      "last tenth %lld us, max %lld us)",
                      static_cast<long long>(late_tail),
                      static_cast<long long>(late_max));
  const std::int64_t sched_end = end - t0;
  double first = 0, last = 0;
  int nf = 0, nl = 0;
  for (const auto& [t, b] : backlog) {
    if (t >= sched_end / 8 && t < sched_end / 4) {
      first += static_cast<double>(b);
      ++nf;
    }
    if (t >= sched_end * 3 / 4 && t < sched_end) {
      last += static_cast<double>(b);
      ++nl;
    }
  }
  if (nf > 0 && nl > 0) {
    first /= nf;
    last /= nl;
    if (last > 2 * first + 16 * kFleetChunkEvents)
      res.invalid = fmt("serve-fleet: backlog grew from %lld to %lld events",
                        static_cast<long long>(first),
                        static_cast<long long>(last));
  }
  return res;
}

/// Median over schedule windows of the per-window percentile q.
double window_median(const std::vector<double>& us, const std::vector<int>& win,
                     double q) {
  std::vector<std::vector<double>> by(kFleetWindows);
  for (std::size_t i = 0; i < us.size(); ++i) by[win[i]].push_back(us[i]);
  std::vector<double> per;
  for (const auto& w : by)
    if (!w.empty()) per.push_back(percentile(w, q));
  return median(per);
}

std::vector<Execution> fleet_inputs(std::uint64_t seed, Sheet& sheet) {
  hbct::Rng rng(seed);
  std::vector<Execution> xs(kFleetExecutions);
  for (int i = 0; i < kFleetExecutions; ++i) {
    Execution& x = xs[i];
    x.procs = static_cast<std::int32_t>(rng.next_in(8, 16));
    const std::int64_t events = rng.next_in(2'000, 8'000);
    x.comp = gen_mixer(x.procs, events, rng.next_u64());
    chunk_stream(x, kFleetChunkEvents);
    fleet_watches(x, sheet);
  }
  return xs;
}

}  // namespace

void run_serve_fleet(const Args& a, Sheet& sheet) {
  const std::vector<Execution> xs = fleet_inputs(a.seed, sheet);
  record_input_props(sheet, xs);
  sheet.prop("offered_rate_events_per_s",
             fmt("%lld", static_cast<long long>(kFleetRate)));
  for (const Execution& x : xs)
    for (const WatchSpec& w : x.watches)
      if (w.p == nullptr || (w.kind == WatchKind::kUntil && w.q == nullptr))
        sheet.check(false, "serve-fleet: query does not compile: " + w.text);

  // Set-up time: service construction plus the initial sessions, several
  // times; the timed run's own set-up is one more sample.
  const std::vector<double> setup = setup_reps(xs, kFleetInitialSessions, 30);

  SpanLog spans;
  RssPeak rss;
  const double horizon = a.trace ? a.seconds / 2 : a.seconds;
  FleetResult r = run_fleet_schedule(xs, horizon, a.seed, false,
                                     spans, sheet, rss, nullptr);
  if (!r.invalid.empty()) {
    sheet.invalid = r.invalid;
    return;
  }
  if (r.fires < 1000)
    sheet.check(false,
                fmt("serve-fleet: only %lld fires (need >= 1000)", r.fires));
  const double p50 = window_median(r.fire_us, r.fire_window, 0.5);
  const double p99 = window_median(r.fire_us, r.fire_window, 0.99);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  sheet.set_e2e("setup_s", median(setup), "s", n(setup));
  sheet.set_e2e("events_per_s", static_cast<double>(r.events) / r.window_s,
                "1/s", r.sessions);
  sheet.set_e2e("fire_p50_us", p50, "us", n(r.fire_us));
  sheet.set_e2e("fire_p99_us", p99, "us", n(r.fire_us));
  sheet.set_e2e("verdict_s", median(r.turnaround_s), "s", n(r.turnaround_s));
  rss.sample();
  sheet.set_e2e("rss_peak_mb", rss.peak_mb, "MB", rss.samples);
  sheet.prop("sessions", fmt("%lld sessions, %lld fires", r.sessions, r.fires));

  if (!a.trace) return;
  // Traced half: same schedule length, spans around every public call, the
  // fire_sample hook on, residency sampled.
  spans.enable(true);
  FireSamples internal;
  RssPeak rss2;
  FleetResult t = run_fleet_schedule(xs, horizon, a.seed, true,
                                     spans, sheet, rss2, &internal);
  if (!t.invalid.empty()) {
    sheet.invalid = t.invalid;
    return;
  }
  const double tp50 = window_median(t.fire_us, t.fire_window, 0.5);
  const double ip50 = percentile(internal.us, 0.5);
  sheet.set_layer("serve.open_us", median(t.open_us), n(t.open_us));
  sheet.set_layer("serve.close_us", median(t.close_us), n(t.close_us));
  sheet.set_layer("serve.post_us_p99", percentile(t.post_us, 0.99),
                  n(t.post_us));
  sheet.set_layer("serve.poll_us_p99", percentile(t.poll_us, 0.99),
                  n(t.poll_us));
  sheet.set_layer("serve.drain_ms", t.drain_ms, 1);
  sheet.set_layer("serve.fire_internal_p50_us", ip50, n(internal.us));
  sheet.set_layer("serve.fire_internal_p99_us", percentile(internal.us, 0.99),
                  n(internal.us));
  sheet.set_layer("serve.queue_wait_p50_us", std::max(0.0, tp50 - ip50),
                  n(t.fire_us));
  sheet.set_layer("serve.resident_events_peak",
                  static_cast<double>(t.resident_peak), 1);
  sheet.set_layer("serve.watch_state_bytes_peak",
                  static_cast<double>(t.watch_bytes_peak), 1);
  sheet.set_layer("serve.failed_sessions",
                  static_cast<double>(r.failed_sessions + t.failed_sessions),
                  r.sessions + t.sessions);
  sheet.set_layer("loadgen.late_p99_us", percentile(r.late_us, 0.99),
                  n(r.late_us));
  double late_max = 0;
  for (double l : r.late_us) late_max = std::max(late_max, l);
  sheet.set_layer("loadgen.late_max_us", late_max, n(r.late_us));
  sheet.set_layer("obs.bench_trace_overhead_share", tp50 / p50 - 1.0,
                  n(t.fire_us));
  layer_replays(sheet, xs, 120'000, 4096);
  if (!a.trace_dir.empty())
    spans.write_chrome(a.trace_dir + "/serve-fleet.trace.json");
}

// ---- serve-longrun ----------------------------------------------------------

namespace {

constexpr std::int64_t kLongrunChunkEvents = 512;
constexpr std::int32_t kLongrunProcs[] = {32, 24, 20, 16, 12, 8};
constexpr std::int64_t kLongrunEventsPerSession = 180'000;

struct LongrunPass {
  double drain_s = 0;  // wall
  double cpu_s = 0;    // process CPU from the first post to the drained end
  std::int64_t events = 0;
  std::vector<double> fire_us;
  std::vector<double> post_us, poll_us, open_us, close_us;
  std::int64_t resident_peak = 0, watch_bytes_peak = 0, failed_sessions = 0;
};

LongrunPass longrun_pass(const std::vector<Execution>& xs, std::size_t workers,
                         bool traced, SpanLog& spans, Sheet& sheet,
                         RssPeak& rss, FireSamples* internal) {
  LongrunPass p;
  serve::ServiceOptions opt;
  if (internal != nullptr) {
    opt.fire_sample = [internal](WatchKind, std::uint64_t ns) {
      std::lock_guard<std::mutex> lk(internal->mu);
      internal->us.push_back(static_cast<double>(ns) / 1e3);
    };
  }
  auto span = [&](const char* name, std::int64_t a, std::int64_t b,
                  std::int64_t id, std::vector<double>* into) {
    if (!traced) return;
    spans.add(name, a, b, id);
    into->push_back((b - a) / 1e3);
  };
  Fleet fleet(workers);
  fleet.start(opt);
  serve::StreamingService& svc = *fleet.svc;
  std::vector<serve::SessionId> sids;
  for (const Execution& x : xs) {
    bool ok = false;
    const std::int64_t a = now_ns();
    sids.push_back(open_session(svc, x, &ok));
    span("serve.open", a, now_ns(), sids.back(), &p.open_us);
    sheet.check(ok, "serve-longrun: watch registration");
  }
  rss.sample();

  // Saturation: the whole input is queued up front, session by session.
  // Fire latency counts the process CPU time spent since then.
  const std::int64_t t0 = now_ns();
  const std::int64_t cpu0 = process_cpu_ns();
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (const std::string& c : xs[i].chunks) {
      const std::int64_t a = now_ns();
      svc.post(sids[i], c);
      span("serve.post", a, now_ns(), sids[i], &p.post_us);
    }
  std::vector<std::vector<WatchFire>> fires(xs.size());
  std::vector<bool> done(xs.size(), false);
  std::size_t remaining = xs.size();
  while (remaining > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (done[i]) continue;
      const std::int64_t a = now_ns();
      std::vector<WatchFire> got = svc.poll(sids[i]);
      const std::int64_t b = now_ns();
      if (!got.empty()) span("serve.poll", a, b, sids[i], &p.poll_us);
      for (WatchFire& f : got) {
        p.fire_us.push_back((process_cpu_ns() - cpu0) / 1e3);
        fires[i].push_back(std::move(f));
      }
      if (svc.state(sids[i]) != serve::SessionState::kOpen) {
        for (WatchFire& f : svc.poll(sids[i])) {
          p.fire_us.push_back((process_cpu_ns() - cpu0) / 1e3);
          fires[i].push_back(std::move(f));
        }
        done[i] = true;
        --remaining;
      }
    }
    rss.sample();
    if (traced) {
      p.resident_peak = std::max(p.resident_peak, svc.resident_events());
      std::int64_t bytes = 0;
      for (std::size_t i = 0; i < xs.size(); ++i)
        if (!done[i]) bytes += svc.stats(sids[i]).watch_state_bytes;
      p.watch_bytes_peak = std::max(p.watch_bytes_peak, bytes);
    }
  }
  const std::int64_t d0 = now_ns();
  svc.drain();
  if (traced) spans.add("serve.drain", d0, now_ns());
  p.drain_s = seconds_since(t0);
  p.cpu_s = (process_cpu_ns() - cpu0) * 1e-9;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const serve::SessionState st = svc.state(sids[i]);
    if (st == serve::SessionState::kFailed) ++p.failed_sessions;
    check_session(sheet, xs[i], fires[i], st, "serve-longrun");
    p.events += xs[i].events;
    const std::int64_t a = now_ns();
    svc.close(sids[i]);
    span("serve.close", a, now_ns(), sids[i], &p.close_us);
  }
  return p;
}

std::vector<Execution> longrun_inputs(std::uint64_t seed, Sheet& sheet) {
  hbct::Rng rng(seed ^ 0x10'4e'90ull);
  // Widest first: the pool drains sessions in post order, so this order
  // keeps the makespan balanced and the same for every seed.
  const std::vector<std::int32_t> procs(std::begin(kLongrunProcs),
                                        std::end(kLongrunProcs));
  std::vector<Execution> xs(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    Execution& x = xs[i];
    x.procs = procs[i];
    x.comp = gen_mixer(x.procs, kLongrunEventsPerSession, rng.next_u64());
    chunk_stream(x, kLongrunChunkEvents);
    longrun_watches(x, sheet);
  }
  return xs;
}

}  // namespace

void run_serve_longrun(const Args& a, Sheet& sheet) {
  const std::vector<Execution> xs = longrun_inputs(a.seed, sheet);
  record_input_props(sheet, xs);
  for (const Execution& x : xs)
    for (const WatchSpec& w : x.watches)
      if (w.p == nullptr || (w.kind == WatchKind::kUntil && w.q == nullptr))
        sheet.check(false, "serve-longrun: query does not compile: " + w.text);
  const auto workers = static_cast<std::size_t>(thread_budget() - 1);

  SpanLog spans;
  RssPeak rss;
  // Passes until --seconds is spent. The traced run alternates untraced and
  // traced passes so that host drift hits both sides alike. Set-up is
  // sampled before every pass, so its median spans the run rather than the
  // host's state in its first milliseconds.
  std::vector<double> setup;
  std::vector<double> eps, wall_eps, drain, fire_p50, fire_p99, teps;
  std::int64_t fires = 0, failed = 0;
  FireSamples internal;
  LongrunPass agg;
  const std::int64_t start = now_ns();
  for (int pass = 0; pass < 2 || seconds_since(start) < a.seconds; ++pass) {
    const bool traced = a.trace && pass % 2 == 1;
    const std::vector<double> s =
        setup_reps(xs, static_cast<int>(xs.size()), 10);
    setup.insert(setup.end(), s.begin(), s.end());
    spans.enable(traced);
    LongrunPass p = longrun_pass(xs, workers, traced, spans, sheet, rss,
                                 traced ? &internal : nullptr);
    const double rate = static_cast<double>(p.events) / p.cpu_s;
    failed += p.failed_sessions;
    if (traced) {
      teps.push_back(rate);
      for (auto [from, to] : {std::pair{&p.post_us, &agg.post_us},
                              {&p.poll_us, &agg.poll_us},
                              {&p.open_us, &agg.open_us},
                              {&p.close_us, &agg.close_us}})
        to->insert(to->end(), from->begin(), from->end());
      agg.drain_s = p.drain_s;
      agg.resident_peak = std::max(agg.resident_peak, p.resident_peak);
      agg.watch_bytes_peak = std::max(agg.watch_bytes_peak, p.watch_bytes_peak);
      continue;
    }
    drain.push_back(p.cpu_s);
    wall_eps.push_back(static_cast<double>(p.events) / p.drain_s);
    eps.push_back(rate);
    fire_p50.push_back(percentile(p.fire_us, 0.5));
    fire_p99.push_back(percentile(p.fire_us, 0.99));
    fires += static_cast<std::int64_t>(p.fire_us.size());
  }
  spans.enable(false);
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  // Fire percentiles per pass (each pass is one drain of the same backlog),
  // median over passes.
  sheet.set_e2e("setup_s", median(setup), "s", n(setup));
  sheet.set_e2e("events_per_s", median(eps), "1/cpu_s", n(eps));
  sheet.set_e2e("fire_p50_us", median(fire_p50), "cpu_us", fires);
  sheet.set_e2e("fire_p99_us", median(fire_p99), "cpu_us", fires);
  sheet.set_e2e("verdict_s", median(drain), "cpu_s", n(drain));
  sheet.set_e2e("rss_peak_mb", rss.peak_mb, "MB", rss.samples);
  sheet.prop("passes", fmt("%lld passes of %lld events", n(eps),
                           static_cast<long long>(xs.size()) *
                               kLongrunEventsPerSession));
  sheet.prop("wall_events_per_s",
             fmt("%lld", static_cast<long long>(median(wall_eps))));

  if (!a.trace) return;
  sheet.set_layer("serve.open_us", median(agg.open_us), n(agg.open_us));
  sheet.set_layer("serve.close_us", median(agg.close_us), n(agg.close_us));
  sheet.set_layer("serve.post_us_p99", percentile(agg.post_us, 0.99),
                  n(agg.post_us));
  sheet.set_layer("serve.poll_us_p99", percentile(agg.poll_us, 0.99),
                  n(agg.poll_us));
  sheet.set_layer("serve.drain_ms", agg.drain_s * 1e3, 1);
  sheet.set_layer("serve.fire_internal_p50_us", percentile(internal.us, 0.5),
                  n(internal.us));
  sheet.set_layer("serve.fire_internal_p99_us", percentile(internal.us, 0.99),
                  n(internal.us));
  sheet.set_layer("serve.resident_events_peak",
                  static_cast<double>(agg.resident_peak), 1);
  sheet.set_layer("serve.watch_state_bytes_peak",
                  static_cast<double>(agg.watch_bytes_peak), 1);
  sheet.set_layer("serve.failed_sessions", static_cast<double>(failed),
                  n(eps) + n(teps));
  sheet.set_layer("obs.bench_trace_overhead_share",
                  median(eps) / median(teps) - 1.0, n(teps));
  {
    LongrunPass w1 = longrun_pass(xs, 1, false, spans, sheet, rss, nullptr);
    sheet.set_layer("serve.width1_events_per_s",
                    static_cast<double>(w1.events) / w1.cpu_s, 1);
  }
  layer_replays(sheet, xs, 120'000, 4096);
  if (!a.trace_dir.empty())
    spans.write_chrome(a.trace_dir + "/serve-longrun.trace.json");
}

}  // namespace perfbench
