// Tests for the two-phase-commit and Chandy–Lamport workloads: agreement
// and validity as detected predicates, and the snapshot-consistency theorem
// verified against the library's own cut machinery.
#include <gtest/gtest.h>

#include "detect/dispatch.h"
#include "predicate/conjunctive.h"
#include <unordered_map>

#include "poset/builder.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

// ---- Two-phase commit ----------------------------------------------------------

constexpr std::int32_t kN = 4;       // coordinator + 3 participants
constexpr std::int32_t kTxns = 3;

Computation run_2pc(std::uint64_t seed, double p_no, bool bug) {
  sim::SimOptions o;
  o.seed = seed;
  sim::Simulator s = sim::make_two_phase_commit(kN, kTxns, p_no, bug);
  return std::move(s).run(o);
}

class TwoPhaseCommit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoPhaseCommit, AgreementAcrossParticipants) {
  Computation c = run_2pc(GetParam(), 0.3, false);
  c.validate();
  // No cut may show two participants with opposite outcomes for the SAME
  // transaction.
  for (std::int64_t t = 1; t <= kTxns; ++t) {
    for (ProcId i = 1; i < kN; ++i)
      for (ProcId j = 1; j < kN; ++j) {
        if (i == j) continue;
        auto split = make_conjunctive({var_cmp(i, "outcome", Cmp::kEq, 1),
                                       var_cmp(i, "dtxn", Cmp::kEq, t),
                                       var_cmp(j, "outcome", Cmp::kEq, -1),
                                       var_cmp(j, "dtxn", Cmp::kEq, t)});
        EXPECT_EQ(detect(c, Op::kEF, split).verdict, Verdict::kFails)
            << "txn " << t << " split between P" << i << " and P" << j;
      }
  }
  // Every observation ends with everyone decided on the last transaction.
  std::vector<LocalPredicatePtr> done;
  for (ProcId i = 1; i < kN; ++i) {
    done.push_back(var_cmp(i, "decided", Cmp::kEq, 1));
    done.push_back(var_cmp(i, "dtxn", Cmp::kEq, kTxns));
  }
  EXPECT_EQ(detect(c, Op::kAF, make_conjunctive(done)).verdict,
            Verdict::kHolds);
}

TEST_P(TwoPhaseCommit, ValidityHoldsWithoutTheBug) {
  Computation c = run_2pc(GetParam(), 0.4, false);
  // "Committed a transaction it voted no on" must be unreachable.
  for (ProcId i = 1; i < kN; ++i) {
    auto bad = make_conjunctive({var_cmp(i, "vote", Cmp::kEq, 0),
                                 var_cmp(i, "outcome", Cmp::kEq, 1),
                                 var_cmp(i, "decided", Cmp::kEq, 1)});
    EXPECT_EQ(detect(c, Op::kEF, bad).verdict, Verdict::kFails) << "P" << i;
  }
}

TEST_P(TwoPhaseCommit, InjectedBugIsDetectedWhenTriggered) {
  // With a high no-vote rate the dropped vote almost surely matters; the
  // run is deterministic per seed, so detect the violation exactly when a
  // rejected transaction committed.
  Computation c = run_2pc(GetParam() + 1000, 0.5, true);
  bool violation = false;
  for (ProcId i = 1; i < kN; ++i) {
    auto bad = make_conjunctive({var_cmp(i, "vote", Cmp::kEq, 0),
                                 var_cmp(i, "outcome", Cmp::kEq, 1),
                                 var_cmp(i, "decided", Cmp::kEq, 1)});
    const DetectResult r = detect(c, Op::kEF, bad);
    ASSERT_TRUE(r.definite()) << "P" << i;
    violation |= r.verdict == Verdict::kHolds;
  }
  // Ground truth from the trace: was some commit issued while a
  // participant's current vote was no? Recompute from events.
  bool ground = false;
  for (ProcId i = 1; i < kN; ++i) {
    const VarId vote = *c.var_id("vote");
    const VarId outcome = *c.var_id("outcome");
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      ground |= c.value_at(i, vote, k) == 0 && c.value_at(i, outcome, k) == 1;
  }
  EXPECT_EQ(violation, ground);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoPhaseCommit,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- Chandy–Lamport snapshots ------------------------------------------------------

// The Chandy–Lamport theorem speaks about the *application-level*
// computation: the recorded states form a consistent cut of the execution
// with the marker machinery erased. This projection rebuilds the
// computation keeping application messages and turning marker receives
// into internal events (they carry the snapped/snap_x writes); marker
// sends vanish.
Computation strip_markers(const Computation& c) {
  ComputationBuilder b(c.num_procs());
  for (VarId v = 0; v < c.num_vars(); ++v) b.var(c.var_name(v));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (VarId v = 0; v < c.num_vars(); ++v)
      b.set_initial(i, v, c.value_at(i, v, 0));

  // A message is a marker iff its receive event carries the "snapshot"
  // label or... markers are exactly the messages whose receive performed no
  // x-update; identify instead by send events with no writes that were
  // emitted by a snapshot-labeled scope. Simplest reliable rule for this
  // workload: work messages set x at the receiver; marker receives never
  // do. Classify per message id by inspecting the receive event.
  const VarId x = *c.var_id("x");
  std::unordered_map<MsgId, bool> is_work;
  for (const EventId& eid : c.linearization()) {
    const EventView ev = c.event_view(eid);
    if (ev.kind != EventKind::kReceive) continue;
    bool wrote_x = false;
    for (std::size_t k = 0; k < ev.num_writes(); ++k)
      wrote_x |= ev.write_at(k).var == x;
    is_work[ev.msg] = wrote_x;
  }

  std::unordered_map<MsgId, MsgId> msg_map;
  for (const EventId& eid : c.linearization()) {
    const EventView ev = c.event_view(eid);
    bool emitted = true;
    switch (ev.kind) {
      case EventKind::kInternal:
        b.internal(eid.proc);
        break;
      case EventKind::kSend: {
        auto it = is_work.find(ev.msg);
        const bool work = it != is_work.end() && it->second;
        if (work)
          msg_map[ev.msg] = b.send(eid.proc, ev.peer);
        else if (ev.num_writes() != 0 || !ev.label.empty())
          b.internal(eid.proc);  // keep annotated marker sends as internal
        else
          emitted = false;  // bare marker send: erased
        break;
      }
      case EventKind::kReceive: {
        if (is_work.at(ev.msg))
          b.receive(eid.proc, msg_map.at(ev.msg));
        else
          b.internal(eid.proc);  // marker receive becomes internal
        break;
      }
    }
    if (!emitted) continue;
    for (std::size_t k = 0; k < ev.num_writes(); ++k) {
      const Assignment a = ev.write_at(k);
      b.write(eid.proc, c.var_name(a.var), a.value);
    }
    if (!ev.label.empty()) b.label(eid.proc, ev.label);
  }
  return std::move(b).build();
}

Cut snapshot_positions(const Computation& c) {
  Cut snap(static_cast<std::size_t>(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      if (c.event_view(i, k).label == "snapshot")
        snap[static_cast<std::size_t>(i)] = k;
  return snap;
}

class Snapshot : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Snapshot, RecordedCutIsConsistentInTheAppComputation) {
  const std::int32_t n = 4;
  sim::SimOptions o;
  o.seed = GetParam();
  o.fifo = true;  // Chandy-Lamport requires FIFO channels
  sim::Simulator s = sim::make_chandy_lamport(n, 12, 5);
  Computation full = std::move(s).run(o);
  full.validate();

  Computation app = strip_markers(full);
  app.validate();
  const Cut snap = snapshot_positions(app);
  for (ProcId i = 0; i < n; ++i)
    ASSERT_GE(snap[static_cast<std::size_t>(i)], 1) << "P" << i;

  // The Chandy–Lamport theorem: the recorded states form a consistent cut
  // of the application-level computation.
  EXPECT_TRUE(app.is_consistent(snap)) << snap.to_string();

  // And the recorded values equal the live values at that cut.
  const VarId x = *app.var_id("x");
  const VarId snap_x = *app.var_id("snap_x");
  for (ProcId i = 0; i < n; ++i)
    EXPECT_EQ(app.value_in(i, x, snap),
              app.value_in(i, snap_x, app.final_cut()))
        << "P" << i;

  // "Snapshot taken everywhere" is a conjunctive condition; the detector
  // agrees it definitely happens — on the full computation too.
  std::vector<LocalPredicatePtr> all;
  for (ProcId i = 0; i < n; ++i)
    all.push_back(var_cmp(i, "snapped", Cmp::kEq, 1));
  EXPECT_EQ(detect(full, Op::kAF, make_conjunctive(all)).verdict,
            Verdict::kHolds);
}

TEST_P(Snapshot, SnapshotCutIsLeastAllSnappedCutOfAppComputation) {
  const std::int32_t n = 3;
  sim::SimOptions o;
  o.seed = GetParam() + 50;
  o.fifo = true;
  sim::Simulator s = sim::make_chandy_lamport(n, 10, 4);
  Computation app = strip_markers(std::move(s).run(o));

  std::vector<LocalPredicatePtr> all;
  for (ProcId i = 0; i < n; ++i)
    all.push_back(var_cmp(i, "snapped", Cmp::kEq, 1));
  DetectResult r = detect(app, Op::kEF, make_conjunctive(all));
  ASSERT_EQ(r.verdict, Verdict::kHolds);

  // snapped first becomes true at the snapshot events, and the snapshot
  // cut is consistent (previous test), so it is exactly the least
  // satisfying cut the detector reports.
  EXPECT_EQ(*r.witness_cut, snapshot_positions(app));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Snapshot,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace hbct
