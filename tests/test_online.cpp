// Tests for the online module: the incremental appender must agree with a
// batch recomputation of its tables event-for-event, and every online watch
// verdict must match offline detection on the final computation — including
// the fired witness cuts and the earliest-prefix property.
#include <gtest/gtest.h>

#include "batch_reference.h"
#include "oracle.h"
#include "detect/brute_force.h"
#include "detect/conjunctive_gw.h"
#include "detect/disjunctive.h"
#include "detect/ef_linear.h"
#include "detect/until.h"
#include "online/appender.h"
#include "online/monitor.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "util/rng.h"

namespace hbct {
namespace {

// ---- Appender vs batch reference -----------------------------------------------

/// Replays a finished computation through the online appender and checks
/// every table against the batch reference after *each* event.
void replay_and_check(const Computation& ref) {
  const BatchReference batch(ref);
  OnlineAppender app(ref.num_procs());
  replay_initial(ref, app);
  replay_events(ref, ref.linearization(), app, [&](EventId eid) {
    // Incremental invariants after every event.
    const Computation& c = app.computation();
    ASSERT_EQ(c.vclock(eid), batch.vclock(eid));
    for (VarId v = 0; v < ref.num_vars(); ++v)
      ASSERT_EQ(c.value_at(eid.proc, v, eid.index),
                batch.value_at(eid.proc, v, eid.index));
    for (ProcId j = 0; j < ref.num_procs(); ++j) {
      ASSERT_EQ(c.sends_up_to(eid.proc, j, eid.index),
                batch.sends_up_to(eid.proc, j, eid.index));
      ASSERT_EQ(c.recvs_up_to(eid.proc, j, eid.index),
                batch.recvs_up_to(eid.proc, j, eid.index));
    }
    ASSERT_TRUE(c.is_consistent(c.final_cut()));
  });

  const Computation& c = app.computation();
  c.validate();
  ASSERT_EQ(c.total_events(), ref.total_events());
  for (ProcId i = 0; i < ref.num_procs(); ++i) {
    for (EventIndex k = 1; k <= ref.num_events(i); ++k) {
      EXPECT_EQ(c.vclock(i, k), batch.vclock(EventId{i, k}));
      EXPECT_EQ(reverse_clock_row(c, i, k), reverse_clock_row(ref, i, k));
    }
    for (VarId v = 0; v < ref.num_vars(); ++v)
      for (EventIndex k = 0; k <= ref.num_events(i); ++k)
        EXPECT_EQ(c.value_at(i, v, k), batch.value_at(i, v, k));
    for (ProcId j = 0; j < ref.num_procs(); ++j)
      EXPECT_EQ(c.in_transit(i, j, c.final_cut()),
                ref.in_transit(i, j, ref.final_cut()));
  }
}

class OnlineReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineReplay, AppenderMatchesBatchBuilder) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 10;
  opt.p_send = 0.35;
  opt.seed = GetParam();
  replay_and_check(generate_random(opt));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineReplay,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(OnlineAppender, MidRunVariableRegistration) {
  OnlineAppender app(2);
  app.internal(0);
  VarId x = app.var("x");
  EXPECT_EQ(app.computation().value_at(0, x, 0), 0);
  EXPECT_EQ(app.computation().value_at(0, x, 1), 0);  // backfilled
  app.internal(0);
  app.write(0, x, 5);
  EXPECT_EQ(app.computation().value_at(0, x, 2), 5);
}

TEST(OnlineAppender, ReverseClocksRecomputedAfterAppend) {
  OnlineAppender app(2);
  app.internal(0);
  const Computation& c = app.computation();
  EXPECT_EQ(c.reverse_clocks().at(0, 1, 0), 1);  // derives the columns
  app.internal(0);                               // invalidates
  EXPECT_EQ(c.reverse_clocks().at(0, 1, 0), 2);
  EXPECT_EQ(c.reverse_clocks().at(0, 2, 0), 1);
  MsgId m = app.send(0, 1);
  app.receive(1, m);
  EXPECT_EQ(c.reverse_clocks().at(0, 3, 1), 1);  // the receive is above the send
}

// ---- Monitor watches vs offline detection ---------------------------------------

/// Drives the monitor with a random computation's events and cross-checks
/// every watch against offline detection on the full computation.
class OnlineWatch : public ::testing::TestWithParam<std::uint64_t> {};

struct Feed {
  OnlineMonitor monitor;
  explicit Feed(const Computation& ref) : monitor(ref.num_procs()) {
    replay_initial(ref, monitor);
  }
  void run(const Computation& ref) {
    replay_events(ref, ref.linearization(), monitor, [](EventId) {});
    monitor.finish();  // thaw the tails: the stream is complete
  }
};

TEST_P(OnlineWatch, ConjunctivePossiblyMatchesOffline) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam();
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 11 + 3);

  for (int round = 0; round < 4; ++round) {
    std::vector<LocalPredicatePtr> ls;
    const std::size_t m = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < m; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    auto p = make_conjunctive(std::move(ls));

    Feed feed(ref);
    WatchId w = feed.monitor.watch_possibly(p);
    feed.run(ref);

    DetectResult offline = detect_ef_conjunctive(ref, *p);
    ASSERT_EQ(verdict_of(feed.monitor.fired(w)), offline.verdict)
        << p->describe();
    if (offline.verdict == Verdict::kHolds) {
      auto fires = feed.monitor.poll();
      ASSERT_EQ(fires.size(), 1u);
      // The online fire reports the same least satisfying cut.
      EXPECT_EQ(fires[0].cut, *offline.witness_cut) << p->describe();
      EXPECT_TRUE(p->eval(feed.monitor.computation(), fires[0].cut));
    }
  }
}

TEST_P(OnlineWatch, DisjunctivePossiblyAndInvariant) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam() + 100;
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 13 + 5);

  for (int round = 0; round < 4; ++round) {
    std::vector<LocalPredicatePtr> ls;
    const std::size_t m = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < m; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    auto p = make_disjunctive(std::move(ls));

    Feed feed(ref);
    WatchId possibly = feed.monitor.watch_possibly(p);
    WatchId invariant = feed.monitor.watch_invariant(p);
    feed.run(ref);

    EXPECT_EQ(verdict_of(feed.monitor.fired(possibly)),
              detect_ef_disjunctive(ref, *p).verdict)
        << p->describe();
    DetectResult ag = detect_ag_disjunctive(ref, *p);
    EXPECT_EQ(verdict_of(!feed.monitor.fired(invariant)), ag.verdict)
        << p->describe();
    if (ag.verdict == Verdict::kFails) {
      for (const auto& f : feed.monitor.poll())
        if (f.watch == invariant) {
          EXPECT_FALSE(p->eval(feed.monitor.computation(), f.cut));
          EXPECT_EQ(f.cut, *ag.witness_cut);  // both are the least violation
        }
    }
  }
}

TEST_P(OnlineWatch, StableFiresAtEarliestPrefix) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 6;
  opt.seed = GetParam() + 200;
  Computation ref = generate_random(opt);

  const std::int64_t threshold = 9;
  auto p = make_stable(
      [threshold](const Computation&, const Cut& g) {
        return g.total() >= threshold;
      },
      "progress");

  Feed feed(ref);
  WatchId w = feed.monitor.watch_stable(p);
  feed.run(ref);
  ASSERT_TRUE(feed.monitor.fired(w));
  auto fires = feed.monitor.poll();
  ASSERT_EQ(fires.size(), 1u);
  // The freeze rule delays the fire until the frozen frontier reaches the
  // threshold, but the fired cut itself crosses it exactly, and the fire
  // cannot precede the threshold'th event.
  EXPECT_GE(fires[0].at_event, threshold);
  EXPECT_GE(fires[0].cut.total(), threshold);
  EXPECT_TRUE(p->eval(feed.monitor.computation(), fires[0].cut));
  EXPECT_TRUE(feed.monitor.computation().is_consistent(fires[0].cut));
}

TEST_P(OnlineWatch, ConjunctiveFiresAtEarliestPossiblePrefix) {
  // The fire event index must be the first prefix whose offline EF holds.
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 6;
  opt.seed = GetParam() + 300;
  Computation ref = generate_random(opt);
  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                             var_cmp(1, "v0", Cmp::kGe, 3)});

  Feed feed(ref);
  WatchId w = feed.monitor.watch_possibly(p);
  feed.run(ref);

  DetectResult offline = detect_ef_conjunctive(ref, *p);
  ASSERT_EQ(verdict_of(feed.monitor.fired(w)), offline.verdict);
  if (offline.verdict == Verdict::kFails) return;
  auto fires = feed.monitor.poll();
  ASSERT_EQ(fires.size(), 1u);

  // The fired cut is the least satisfying cut, and the fire can only
  // happen once the whole witness (plus the freeze lag) has streamed in.
  EXPECT_EQ(fires[0].cut, *offline.witness_cut);
  EXPECT_GE(fires[0].at_event, offline.witness_cut->total());
}

TEST_P(OnlineWatch, UntilWatchMatchesOfflineA3) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.seed = GetParam() + 400;
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 17 + 9);

  for (int round = 0; round < 4; ++round) {
    auto p = make_conjunctive(
        {var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0", Cmp::kLe,
                 rng.next_in(3, 9)),
         var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1", Cmp::kLe,
                 rng.next_in(3, 9))});
    // Linear q with a real advancement walk: progress + channel emptiness.
    PredicatePtr q = make_and(
        PredicatePtr(progress_ge(static_cast<ProcId>(rng.next_below(3)),
                                 static_cast<EventIndex>(rng.next_in(1, 7)))),
        all_channels_empty());

    Feed feed(ref);
    WatchId w = feed.monitor.watch_until(p, q);
    feed.run(ref);

    DetectResult offline = detect_eu(ref, *p, *q);
    // The watch resolves iff I_q exists in the completed computation;
    // when q is never satisfied the watch stays pending (correct: a longer
    // run could still satisfy it).
    DetectStats st;
    auto iq = least_satisfying_cut(ref, *q, st);
    ASSERT_EQ(feed.monitor.fired(w), iq.has_value()) << q->describe();
    if (!iq) {
      EXPECT_EQ(offline.verdict, Verdict::kFails);
      continue;
    }
    auto fires = feed.monitor.poll();
    ASSERT_EQ(fires.size(), 1u);
    ASSERT_TRUE(offline.definite());
    EXPECT_EQ(fires[0].verdict, offline.verdict)
        << "p=" << p->describe() << " q=" << q->describe();
    EXPECT_EQ(fires[0].cut, *iq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineWatch,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(OnlineMonitor, WatchRegisteredMidRunSeesHistory) {
  OnlineMonitor m(2);
  m.var("x");
  m.internal(0);
  m.write(0, "x", 7);
  m.internal(1);
  // Register after the satisfying state already happened.
  WatchId w = m.watch_possibly(
      make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  // The tail of P0 is still mutable; the verdict lands once the stream
  // finishes (or P0 produces another event).
  m.finish();
  EXPECT_TRUE(m.fired(w));
  auto fires = m.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].cut, Cut({1, 0}));
}

TEST(OnlineMonitor, TailThawsOnNextEventWithoutFinish) {
  OnlineMonitor m(2);
  m.var("x");
  m.internal(0);
  m.write(0, "x", 7);
  WatchId w = m.watch_possibly(
      make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  EXPECT_FALSE(m.fired(w));  // frozen: the write could still change
  m.internal(0);             // new event freezes the previous one
  EXPECT_TRUE(m.fired(w));
  EXPECT_EQ(m.poll()[0].cut, Cut({1, 0}));
}

TEST(OnlineMonitor, InvariantViolationByLateWrite) {
  OnlineMonitor m(2);
  m.var("ok");
  m.set_initial(0, m.var("ok"), 1);
  m.set_initial(1, m.var("ok"), 1);
  auto inv = make_disjunctive({var_cmp(0, "ok", Cmp::kEq, 1),
                               var_cmp(1, "ok", Cmp::kEq, 1)});
  WatchId w = m.watch_invariant(inv);
  m.internal(0);
  EXPECT_FALSE(m.fired(w));
  m.write(0, "ok", 0);  // still fine: P1 holds the disjunct
  EXPECT_FALSE(m.fired(w));
  m.internal(1);
  m.write(1, "ok", 0);  // now both can be 0 concurrently
  m.finish();
  EXPECT_TRUE(m.fired(w));
  auto fires = m.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].cut, Cut({1, 1}));
}

TEST(OnlineMonitor, FreezeRulePreventsPrematureFiring) {
  // Without the freeze rule this would fire spuriously: the event arrives
  // with the carried value satisfying the predicate, then the write breaks
  // it again.
  OnlineMonitor m(2);
  m.var("x");
  m.set_initial(0, m.var("x"), 7);
  WatchId w = m.watch_possibly(make_conjunctive(
      {var_cmp(0, "x", Cmp::kEq, 7), progress_ge(0, 1)}));
  m.internal(0);        // carried value: x == 7 at position 1 ... for now
  m.write(0, "x", 0);   // the event actually set x = 0
  m.finish();
  EXPECT_FALSE(m.fired(w));
}

TEST(OnlineMonitor, StableFiresAtAConsistentCutUnderAnInconsistentFrontier) {
  // After the internal event the frozen frontier is [0,1]: P1's receive is
  // frozen, but its send is still P0's (thawing) newest event, so the
  // frontier is inconsistent. p holds there, but not at the greatest
  // consistent cut beneath it ([0,0]), so the watch must wait; finish()
  // thaws P0 and the watch fires at the full, consistent computation.
  OnlineMonitor m(2);
  const WatchId w = m.watch_stable(make_stable(
      [](const Computation&, const Cut& g) { return g[1] >= 1; },
      "P1 started"));
  const MsgId msg = m.send(0, 1);
  m.receive(1, msg);
  m.internal(1);
  std::vector<WatchFire> fires = m.poll();
  m.finish();
  for (WatchFire& f : m.poll()) fires.push_back(std::move(f));
  EXPECT_TRUE(m.fired(w));
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_TRUE(m.computation().is_consistent(fires[0].cut))
      << fires[0].cut.to_string();
  EXPECT_EQ(fires[0].cut, Cut({1, 2}));
}

}  // namespace
}  // namespace hbct
