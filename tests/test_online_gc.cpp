// Prefix garbage collection must be invisible: a monitor that periodically
// collects its frozen prefix produces bit-identical verdicts, fire order,
// witness cuts and descriptions to one that never collects. Plus: the
// guarded feed's typed AppendError surface, min-watch-frontier monotonicity,
// bounded residency, and the fire-once discipline under budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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
