// Prefix garbage collection must be invisible: a monitor that periodically
// collects its frozen prefix produces bit-identical verdicts, fire order,
// witness cuts and descriptions to one that never collects. Plus: the
// guarded feed's typed AppendError surface, min-watch-frontier monotonicity,
// bounded residency, and the fire-once discipline under budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "detect/conjunctive_gw.h"
#include "online/monitor.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "util/rng.h"

namespace hbct {
namespace {

bool same_fire(const WatchFire& a, const WatchFire& b) {
  return a.watch == b.watch && a.verdict == b.verdict && a.bound == b.bound &&
         a.cut == b.cut && a.at_event == b.at_event &&
         a.description == b.description;
}

void expect_same_fires(const std::vector<WatchFire>& a,
                       const std::vector<WatchFire>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_fire(a[i], b[i]))
        << where << " fire " << i << ": " << a[i].description << " vs "
        << b[i].description;
}

enum class WatchMix {
  kScanning,       // conj + disj + invariant + stable
  kWithUntil,      // kScanning plus an until watch (pins the whole prefix)
  kNonPinning,     // stable only: the frontier tracks the frozen limits, so
                   // periodic collection is guaranteed to reclaim
};

/// Registers an identical mix of watches on both monitors. The mix covers
/// every watch class, including until (which pins the whole prefix until it
/// resolves — GC must still be a no-op semantically, just less effective).
void register_watches(OnlineMonitor& m, std::uint64_t seed, WatchMix mix) {
  Rng rng(seed * 31 + 7);
  for (int k = 0; k < 2 && mix != WatchMix::kNonPinning; ++k) {
    m.watch_possibly(make_conjunctive(
        {var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0",
                 static_cast<Cmp>(rng.next_below(6)), rng.next_in(0, 5)),
         var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1",
                 static_cast<Cmp>(rng.next_below(6)), rng.next_in(0, 5))}));
    m.watch_possibly(make_disjunctive(
        {var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0", Cmp::kGe,
                 rng.next_in(2, 6))}));
    m.watch_invariant(make_disjunctive(
        {var_cmp(0, "v0", Cmp::kLe, rng.next_in(2, 8)),
         var_cmp(1, "v1", Cmp::kLe, rng.next_in(2, 8))}));
  }
  const std::int64_t threshold = static_cast<std::int64_t>(rng.next_in(4, 12));
  m.watch_stable(make_stable(
      [threshold](const Computation&, const Cut& g) {
        return g.total() >= threshold;
      },
      "progress"));
  if (mix == WatchMix::kWithUntil) {
    // q conjoins a variable comparison, so the q-walk's cursor reads a
    // timeline, on a trimmed process once the prefix is collected.
    const auto p = make_conjunctive(
        {var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0", Cmp::kLe,
                 rng.next_in(4, 9))});
    const auto progress =
        progress_ge(static_cast<ProcId>(rng.next_below(3)),
                    static_cast<EventIndex>(rng.next_in(1, 6)));
    const auto var = var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1",
                             Cmp::kLe, rng.next_in(2, 8));
    m.watch_until(p, make_and({PredicatePtr(progress), all_channels_empty(),
                               PredicatePtr(var)}));
  }
}

/// Streams `ref` into a GC-on and a GC-off monitor in lockstep, comparing
/// the polled fires after every event and after finish().
void run_differential(const Computation& ref, std::uint64_t seed,
                      WatchMix mix, const Budget* budget,
                      std::int64_t* reclaimed_out) {
  OnlineMonitor on(ref.num_procs());
  OnlineMonitor off(ref.num_procs());
  for (OnlineMonitor* m : {&on, &off}) {
    if (budget != nullptr) m->set_budget(*budget);
    replay_initial(ref, *m);
    register_watches(*m, seed, mix);
  }

  std::vector<MsgId> map_on(static_cast<std::size_t>(ref.num_messages()),
                            kNoMsg);
  std::vector<MsgId> map_off = map_on;
  std::int64_t reclaimed = 0;
  std::int64_t step = 0;
  for (const EventId& eid : ref.linearization()) {
    const EventView ev = ref.event_view(eid);
    switch (ev.kind) {
      case EventKind::kInternal:
        on.internal(eid.proc);
        off.internal(eid.proc);
        break;
      case EventKind::kSend:
        map_on[static_cast<std::size_t>(ev.msg)] = on.send(eid.proc, ev.peer);
        map_off[static_cast<std::size_t>(ev.msg)] = off.send(eid.proc, ev.peer);
        break;
      case EventKind::kReceive:
        on.receive(eid.proc, map_on[static_cast<std::size_t>(ev.msg)]);
        off.receive(eid.proc, map_off[static_cast<std::size_t>(ev.msg)]);
        break;
    }
    for (std::size_t k = 0; k < ev.num_writes(); ++k) {
      const Assignment a = ev.write_at(k);
      on.write(eid.proc, a.var, a.value);
      off.write(eid.proc, a.var, a.value);
    }
    if (++step % 7 == 0) reclaimed += on.collect_prefix();
    expect_same_fires(on.poll(), off.poll(), "mid-stream");
  }
  on.finish();
  off.finish();
  expect_same_fires(on.poll(), off.poll(), "finish");
  if (reclaimed_out != nullptr) *reclaimed_out += reclaimed;
}

class GcDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcDifferential, FiresBitIdenticalWithAndWithoutGc) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 12;
  opt.p_send = 0.3;
  opt.seed = GetParam();
  const Computation ref = generate_random(opt);
  std::int64_t scanning = 0;
  run_differential(ref, GetParam(), WatchMix::kScanning, nullptr, &scanning);
  run_differential(ref, GetParam(), WatchMix::kWithUntil, nullptr, &scanning);
  // With only non-pinning watches the frontier tracks the frozen limits, so
  // the periodic collections must actually reclaim — this keeps the
  // differential from passing vacuously with GC never engaging.
  std::int64_t reclaimed = 0;
  run_differential(ref, GetParam(), WatchMix::kNonPinning, nullptr,
                   &reclaimed);
  EXPECT_GT(reclaimed, 0) << "GC never reclaimed anything for this seed";
}

TEST_P(GcDifferential, FiresBitIdenticalUnderBudget) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 10;
  opt.p_send = 0.3;
  opt.seed = GetParam() + 1000;
  const Computation ref = generate_random(opt);
  Budget b;
  b.max_work = 40;  // small enough to trip mid-evaluation on most seeds
  run_differential(ref, GetParam(), WatchMix::kWithUntil, &b, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- Residency bounds ----------------------------------------------------------

TEST(PrefixGc, ResidencyStaysBoundedOnLongStreams) {
  // A two-process ping-pong with no undecided watches: the frontier tracks
  // the frozen limit, so periodic collection keeps residency O(1).
  OnlineMonitor m(2);
  m.var("x");
  std::int64_t max_resident = 0;
  std::int64_t reclaimed = 0;
  for (int round = 0; round < 500; ++round) {
    MsgId a = m.send(0, 1);
    m.receive(1, a);
    MsgId b = m.send(1, 0);
    m.receive(0, b);
    if (round % 8 == 7) reclaimed += m.collect_prefix();
    max_resident = std::max(max_resident, m.resident_events());
  }
  EXPECT_EQ(m.computation().total_events(), 2000);
  EXPECT_GT(reclaimed, 1900);
  EXPECT_LT(max_resident, 64);
  // Absolute indexing still works at the live tail.
  EXPECT_EQ(m.computation().num_events(0), 1000);
  EXPECT_TRUE(m.computation().is_consistent(m.current_cut()));
}

TEST(PrefixGc, NeverTrueConjWatchDoesNotPinAnyTimeline) {
  // Regression: step_conj used to stop advancing as soon as one process had
  // no candidate, leaving the later processes' scan positions at 0. The
  // frontier then pinned those timelines forever and residency grew with the
  // stream length even though every frozen position had been refuted.
  OnlineMonitor m(2);
  m.var("x");
  m.watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kLt, 0),
                                     var_cmp(1, "x", Cmp::kLt, 0)}));
  std::int64_t max_resident = 0;
  for (int round = 0; round < 500; ++round) {
    MsgId a = m.send(0, 1);
    if (round % 32 == 0) m.write(0, "x", round);
    m.receive(1, a);
    if (round % 8 == 7) m.collect_prefix();
    max_resident = std::max(max_resident, m.resident_events());
  }
  const Cut f = m.min_watch_frontier();
  // Both timelines' scans track the frozen limit — including the process
  // the round-robin advance visits last.
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_GT(f[i], 450);
  EXPECT_LT(max_resident, 64);
}

TEST(PrefixGc, UndecidedConjunctiveWatchesKeepResidencyBounded) {
  // Eight processes pass messages around a ring and write x in 0..9, so
  // neither the conjunctive watch (P0, P1) nor the invariant (its negation
  // ranges over P2, P3) ever decides. The searches track only their conjunct
  // processes and keep their own rows, so no process stays pinned: in
  // particular none of the four processes without a conjunct.
  constexpr ProcId kProcs = 8;
  constexpr std::int64_t kInterval = 64;
  OnlineMonitor m(kProcs);
  m.var("x");
  m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kGe, 10), var_cmp(1, "x", Cmp::kGe, 10)}));
  m.watch_invariant(make_disjunctive(
      {var_cmp(2, "x", Cmp::kLt, 10), var_cmp(3, "x", Cmp::kLt, 10)}));
  std::int64_t max_resident = 0;
  const auto after_event = [&] {
    if (m.events_seen() % kInterval == 0) m.collect_prefix();
    max_resident = std::max(max_resident, m.resident_events());
  };
  for (int round = 0; round < 250; ++round)
    for (ProcId i = 0; i < kProcs; ++i) {
      m.internal(i);
      m.write(i, "x", (round + i) % 10);
      after_event();
      const MsgId msg = m.send(i, (i + 1) % kProcs);
      after_event();
      m.receive((i + 1) % kProcs, msg);
      after_event();
    }
  EXPECT_EQ(m.events_seen(), 6000);
  EXPECT_TRUE(m.poll().empty());
  EXPECT_LT(max_resident, 4 * kInterval);
  m.finish();
  EXPECT_TRUE(m.poll().empty());
}

TEST(PrefixGc, WaitingCandidateKeepsResidencyBoundedAndFiresTheLeastCut) {
  // P1's conjunct holds only at position 2, early; P0's only late. P1's
  // candidate waits for hundreds of rounds while P1, P2 and P3 keep talking,
  // so every process hears of P1's later events. The search keeps the
  // candidate's clock row in its queue and pins nothing, so the prefix,
  // the candidate's event included, is collected while it waits; the fire
  // is still the offline least satisfying cut.
  OnlineAppender app(4);
  app.var("x");
  app.var("y");
  const MsgId a = app.send(0, 1);
  const MsgId b = app.send(2, 1);
  app.receive(1, a);
  app.receive(1, b);
  app.write(1, "y", 1);
  app.internal(1);
  app.write(1, "y", 0);
  for (int r = 0; r < 400; ++r) {
    const MsgId to2 = app.send(1, 2);
    const MsgId to3 = app.send(1, 3);
    app.receive(2, to2);
    app.receive(3, to3);
    const MsgId c = app.send(2, 3);
    app.receive(3, c);
    const MsgId d = app.send(3, 1);
    app.receive(1, d);
    app.internal(0);
    if (r == 350) app.write(0, "x", 1);
    if (r == 351) app.write(0, "x", 0);
    const MsgId e = app.send(0, 3);
    app.receive(3, e);
  }
  const Computation ref = std::move(app).build();
  const auto p = make_conjunctive(
      {var_cmp(0, "x", Cmp::kEq, 1), var_cmp(1, "y", Cmp::kEq, 1)});
  const DetectResult offline = detect_ef_conjunctive(ref, *p);
  ASSERT_EQ(offline.verdict, Verdict::kHolds);
  ASSERT_EQ(offline.witness_cut, Cut({702, 2, 1, 0}));

  constexpr std::int64_t kInterval = 64;
  OnlineMonitor m(ref.num_procs());
  replay_initial(ref, m);
  const WatchId w = m.watch_possibly(p);
  std::int64_t max_resident = 0;
  EventIndex trimmed_at_fire = 0;  // P1's collected prefix when it fired
  std::vector<WatchFire> fires;
  replay_events(ref, ref.linearization(), m, [&](EventId) {
    if (m.events_seen() % kInterval == 0) m.collect_prefix();
    max_resident = std::max(max_resident, m.resident_events());
    for (WatchFire& f : m.poll()) {
      trimmed_at_fire = m.computation().trimmed(1);
      fires.push_back(std::move(f));
    }
  });
  m.finish();
  EXPECT_TRUE(m.poll().empty());
  EXPECT_LT(max_resident, 4 * kInterval);
  EXPECT_GT(trimmed_at_fire, 2);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].watch, w);
  EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
  EXPECT_EQ(fires[0].cut, offline.witness_cut);
}

TEST(PrefixGc, ConjunctiveQueuesStayBoundedWhileAConjunctStarves) {
  // P1's conjunct holds at every position and P0's never does, so P1's
  // candidates queue up while the watch waits. Two rules keep the queue to
  // what a candidate can still use: (a) only the first true position after
  // each send is queued (P1 never sends here), and (b) P0's scanned clock
  // pops the P1 positions it has seen (P1 sends to P0 every round).
  for (const bool p1_sends : {false, true}) {
    OnlineMonitor m(2);
    m.var("x");
    m.var("y");
    m.watch_possibly(make_conjunctive(
        {var_cmp(0, "x", Cmp::kEq, 1), var_cmp(1, "y", Cmp::kEq, 0)}));
    std::size_t bytes_early = 0;
    for (int round = 0; round < 4000; ++round) {
      m.internal(0);
      m.internal(1);
      if (p1_sends) m.receive(0, m.send(1, 0));
      if (round % 64 == 63) m.collect_prefix();
      if (round == 100) bytes_early = m.watch_state_bytes();
    }
    EXPECT_TRUE(m.poll().empty());
    EXPECT_LE(m.watch_state_bytes(), bytes_early + 256)
        << (p1_sends ? "P1 sends to P0" : "P1 never sends");
    EXPECT_LT(m.resident_events(), 4 * 64);
  }
}

TEST(PrefixGc, ScanLeftBehindByATrippedBudgetStaysResident) {
  // One evaluation per round: the first watch takes it until it fires at
  // position 99, so the second one's scan stays at 0 meanwhile and then
  // catches up one position per event. Its pin must hold the positions it
  // has yet to read; the GC-on fires match the GC-off ones. Every event of
  // P0 is a send, so each of its positions is one the scan must evaluate:
  // the second watch can fire only if it checks its candidate before it
  // has scanned up to the limit.
  OnlineMonitor on(2);
  OnlineMonitor off(2);
  for (OnlineMonitor* m : {&on, &off}) {
    Budget b;
    b.max_work = 0;  // a round trips once it has spent more than this
    m->set_budget(b);
    m->var("x");
    m->watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kEq, 99)}));
    m->watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  }
  std::vector<WatchFire> fires;
  for (int r = 1; r <= 300; ++r) {
    for (OnlineMonitor* m : {&on, &off}) {
      m->send(0, 1);  // never received
      m->write(0, "x", r);
    }
    if (r % 8 == 0) on.collect_prefix();
    std::vector<WatchFire> got = on.poll();
    expect_same_fires(got, off.poll(), "mid-stream");
    for (WatchFire& f : got) fires.push_back(std::move(f));
  }
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_EQ(fires[0].cut, Cut({99, 0}));
  EXPECT_EQ(fires[1].cut, Cut({7, 0}));
  EXPECT_GT(on.computation().trimmed(0), 7);
}

TEST(PrefixGc, UndecidedUntilWatchPinsThePrefix) {
  OnlineMonitor m(2);
  m.var("x");
  // q is never satisfied, so the until watch stays pending and Theorem 7's
  // decision needs the whole prefix: nothing may be collected.
  m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kLe, 100)}),
                PredicatePtr(progress_ge(1, 50)));
  for (int i = 0; i < 20; ++i) m.internal(0);
  const Cut f = m.min_watch_frontier();
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_EQ(f[i], 0);
  EXPECT_EQ(m.collect_prefix(), 0);
  EXPECT_EQ(m.resident_events(), 20);
}

// ---- GC-pin attribution -------------------------------------------------------

TEST(GcPins, StalledUntilWatchIsReportedAsThePin) {
  OnlineMonitor m(2);
  m.var("x");
  m.watch_stable(make_stable(
      [](const Computation&, const Cut& g) { return g.total() >= 1000; },
      "progress"));
  // q is not reached: the q-walk advances its forbidden process P1 to the
  // frozen limit but leaves P0 at 0, holding back all of P0's frozen events.
  const WatchId u =
      m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kLe, 100)}),
                    PredicatePtr(progress_ge(1, 50)));
  for (int i = 0; i < 20; ++i) m.internal(0);
  for (int i = 0; i < 3; ++i) m.internal(1);
  const std::vector<OnlineMonitor::GcPin> pins = m.gc_pins();
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0].proc, 0);
  EXPECT_EQ(pins[0].watch, u);
  EXPECT_EQ(pins[0].kind, WatchKind::kUntil);
  EXPECT_EQ(pins[0].held_events, 19);  // frozen limit 19, pinned at 0
  m.finish();
  EXPECT_TRUE(m.gc_pins().empty());
}

TEST(GcPins, StalledConjunctiveAndInvariantWatchesPinNothing) {
  // Neither watch can decide: no conjunct of the conjunctive watch (P0, P1)
  // nor of the invariant's negation (P2, P3) ever holds. The searches keep
  // what they still need themselves, so neither holds back any process.
  OnlineMonitor m(4);
  m.var("x");
  m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kLt, 0), var_cmp(1, "x", Cmp::kLt, 0)}));
  m.watch_invariant(make_disjunctive(
      {var_cmp(2, "x", Cmp::kGe, 0), var_cmp(3, "x", Cmp::kGe, 0)}));
  for (int r = 0; r < 50; ++r)
    for (ProcId i = 0; i < 4; ++i) m.internal(i);
  for (const OnlineMonitor::GcPin& p : m.gc_pins())
    ADD_FAILURE() << "P" << p.proc << " pinned by watch " << p.watch << " ("
                  << to_string(p.kind) << "), holding " << p.held_events
                  << " events";
  EXPECT_EQ(m.collect_prefix(), 4 * 49);
}

TEST(PrefixGc, FrontierIsMonotoneNondecreasing) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 15;
  opt.p_send = 0.35;
  opt.seed = 9;
  const Computation ref = generate_random(opt);

  OnlineMonitor m(ref.num_procs());
  replay_initial(ref, m);
  register_watches(m, 9, WatchMix::kScanning);

  Cut prev = m.min_watch_frontier();
  std::int64_t step = 0;
  replay_events(ref, ref.linearization(), m, [&](EventId) {
    if (++step % 5 == 0) m.collect_prefix();
    const Cut cur = m.min_watch_frontier();
    for (ProcId i = 0; i < ref.num_procs(); ++i) {
      EXPECT_GE(cur[static_cast<std::size_t>(i)],
                prev[static_cast<std::size_t>(i)]);
      // The frontier never retreats below what was already collected.
      EXPECT_GE(cur[static_cast<std::size_t>(i)], m.computation().trimmed(i));
    }
    prev = cur;
  });
}

TEST(PrefixGc, BuildAfterCollectionKeepsTheTrim) {
  // build() derives reverse clocks only for a whole computation; a
  // collected prefix hands over its resident part as it is.
  OnlineAppender app(2);
  const MsgId m = app.send(0, 1);
  app.receive(1, m);
  app.internal(0);
  ASSERT_EQ(app.collect_prefix(Cut({1, 1})), 2);
  const Computation c = std::move(app).build();
  EXPECT_EQ(c.trimmed_events(), 2);
  EXPECT_EQ(c.num_events(0), 2);
  EXPECT_EQ(c.vclock(0, 2)[0], 2);
}

TEST(PrefixGc, LocalEvalMatchesEvalLocalOnTrimmedTimelines) {
  // LocalEval's timeline fast path indexes absolute positions; on a
  // collected process the timeline view carries the trim offset, and the
  // evaluator must agree with eval_local at every resident position.
  GenOptions gen;
  gen.num_procs = 3;
  gen.events_per_proc = 12;
  gen.seed = 5;
  const Computation ref = generate_random(gen);
  OnlineMonitor m(ref.num_procs());
  replay_initial(ref, m);
  m.watch_stable(make_false());  // pins nothing
  replay_events(ref, ref.linearization(), m, [](EventId) {});
  ASSERT_GT(m.collect_prefix(), 0);
  const Computation& c = m.computation();
  std::vector<LocalPredicatePtr> locals;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    ASSERT_GT(c.trimmed(i), 0);
    for (int op = 0; op < 6; ++op) {
      locals.push_back(var_cmp(i, "v0", static_cast<Cmp>(op), 4));
      locals.push_back(var_cmp(i, "v1", static_cast<Cmp>(op), 5));
      locals.push_back(pos_cmp(i, static_cast<Cmp>(op), 6));
    }
  }
  for (const LocalPredicatePtr& l : locals) {
    const LocalEval ev(c, *l);
    for (EventIndex pos = c.trimmed(l->proc()); pos <= c.num_events(l->proc());
         ++pos)
      EXPECT_EQ(ev(pos), l->eval_local(c, pos))
          << l->describe() << " at " << pos;
  }
}

TEST(PrefixGc, AuditWatchesAuditsTheResidentCutsAfterACollection) {
  // After a collection the cuts below the trim are gone: the audit's exact
  // lattice and its sampled walks start at the trim cut, and a false class
  // claim is still caught there.
  OnlineMonitor m(2);
  m.var("x");
  m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kGe, 1000), var_cmp(1, "x", Cmp::kGe, 1000)}));
  for (int round = 0; round < 20; ++round) {
    const MsgId a = m.send(0, 1);
    m.write(0, "x", round);
    m.receive(1, a);
  }
  ASSERT_GT(m.collect_prefix(), 0);
  AuditOptions sampled;
  sampled.max_lattice = 1;
  for (const AuditOptions& opt : {AuditOptions{}, sampled})
    EXPECT_TRUE(m.audit_watches(opt).empty());

  // Stability claimed for a predicate that flips on every event.
  m.watch_stable(make_asserted(
      [](const Computation&, const Cut& g) { return g.total() % 2 == 1; },
      kClassStable, "odd"));
  for (const AuditOptions& opt : {AuditOptions{}, sampled}) {
    const std::vector<Diagnostic> ds = m.audit_watches(opt);
    ASSERT_FALSE(ds.empty());
    EXPECT_EQ(ds[0].code, DiagCode::kClassAuditFailed);
    EXPECT_NE(ds[0].message.find("odd"), std::string::npos) << ds[0].message;
  }
}

// ---- Typed append errors -------------------------------------------------------

TEST(AppendErrors, EveryMalformedAppendIsTypedAndHarmless) {
  OnlineAppender app(2);
  const VarId x = app.var("x");

  EXPECT_EQ(app.try_internal(-1), AppendError::kBadProc);
  EXPECT_EQ(app.try_internal(2), AppendError::kBadProc);
  EXPECT_EQ(app.try_send(0, 0), AppendError::kSelfMessage);
  EXPECT_EQ(app.try_send(0, 5), AppendError::kBadProc);
  EXPECT_EQ(app.try_receive(0, 0), AppendError::kUnknownMsg);
  EXPECT_EQ(app.try_receive(0, -3), AppendError::kUnknownMsg);
  EXPECT_EQ(app.try_write(0, x, 1), AppendError::kNoEventToWrite);
  EXPECT_EQ(app.try_write(0, x + 7, 1), AppendError::kBadVar);
  EXPECT_EQ(app.try_set_initial(0, x + 7, 1), AppendError::kBadVar);
  EXPECT_EQ(app.try_set_initial(-1, x, 1), AppendError::kBadProc);
  // None of the rejections left a trace.
  EXPECT_EQ(app.computation().total_events(), 0);

  MsgId m = kNoMsg;
  ASSERT_EQ(app.try_send(0, 1, &m), AppendError::kNone);
  EXPECT_EQ(app.try_set_initial(0, x, 1), AppendError::kInitialAfterEvent);
  EXPECT_EQ(app.try_receive(0, m), AppendError::kWrongReceiver);
  ASSERT_EQ(app.try_receive(1, m), AppendError::kNone);
  EXPECT_EQ(app.try_receive(1, m), AppendError::kMsgAlreadyReceived);
  EXPECT_EQ(app.computation().total_events(), 2);
  app.computation().validate();
}

TEST(AppendErrors, MonitorRejectsFeedsAfterFinish) {
  OnlineMonitor m(2);
  const VarId x = m.var("x");
  EXPECT_EQ(m.try_internal(0), AppendError::kNone);
  m.finish();
  EXPECT_EQ(m.try_internal(0), AppendError::kFinished);
  EXPECT_EQ(m.try_send(0, 1), AppendError::kFinished);
  EXPECT_EQ(m.try_receive(1, 0), AppendError::kFinished);
  EXPECT_EQ(m.try_write(0, x, 1), AppendError::kFinished);
  EXPECT_EQ(m.try_set_initial(0, x, 1), AppendError::kFinished);
  EXPECT_EQ(m.computation().total_events(), 1);
}

TEST(AppendErrors, MessagesAreStrings) {
  // Every enumerator has a human-readable message (the serve layer surfaces
  // them verbatim in session errors).
  for (AppendError e :
       {AppendError::kNone, AppendError::kBadProc, AppendError::kSelfMessage,
        AppendError::kUnknownMsg, AppendError::kMsgAlreadyReceived,
        AppendError::kWrongReceiver, AppendError::kBadVar,
        AppendError::kInitialAfterEvent, AppendError::kNoEventToWrite,
        AppendError::kFinished}) {
    EXPECT_STRNE(to_string(e), "?");
  }
}

// ---- Fire-once discipline ------------------------------------------------------

TEST(FireOnce, NoWatchFiresTwiceUnderTinyBudgets) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GenOptions opt;
    opt.num_procs = 3;
    opt.events_per_proc = 10;
    opt.p_send = 0.3;
    opt.seed = seed;
    const Computation ref = generate_random(opt);

    OnlineMonitor m(ref.num_procs());
    Budget b;
    b.max_work = 8;  // trips nearly every evaluation round
    m.set_budget(b);
    replay_initial(ref, m);
    register_watches(m, seed, WatchMix::kWithUntil);

    std::vector<int> fires_per_watch;
    const auto drain = [&] {
      for (const WatchFire& f : m.poll()) {
        if (static_cast<std::size_t>(f.watch) >= fires_per_watch.size())
          fires_per_watch.resize(static_cast<std::size_t>(f.watch) + 1, 0);
        ++fires_per_watch[static_cast<std::size_t>(f.watch)];
      }
    };
    replay_events(ref, ref.linearization(), m, [&](EventId) { drain(); });
    m.finish();
    drain();
    m.finish();  // idempotent: a second finish must not re-fire anything
    drain();
    for (std::size_t w = 0; w < fires_per_watch.size(); ++w)
      EXPECT_LE(fires_per_watch[w], 1) << "watch " << w << " seed " << seed;
  }
}

}  // namespace
}  // namespace hbct
