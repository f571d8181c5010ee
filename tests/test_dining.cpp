// Dining philosophers: deadlock detection as conjunctive predicate
// detection — the fault-tolerance use case from the paper's introduction
// ("on detecting a violation of a safety property like a deadlock, one of
// the processes must be aborted and restarted").
#include <gtest/gtest.h>

#include "detect/dispatch.h"
#include "online/monitor.h"
#include "poset/replay.h"
#include "predicate/conjunctive.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

constexpr std::int32_t kN = 4;

Computation run_dining(std::uint64_t seed, bool ordered) {
  sim::SimOptions o;
  o.seed = seed;
  sim::Simulator s = sim::make_dining_philosophers(kN, 2, ordered);
  return std::move(s).run(o);
}

bool stuck(const Computation& c) {
  for (ProcId i = 0; i < kN; ++i)
    if (c.value_at(i, *c.var_id("meals"), c.num_events(i)) > 0) return true;
  return false;
}

/// "Circular wait": every philosopher holds its left fork and waits for the
/// right one — a conjunctive predicate.
ConjunctivePredicatePtr deadlock_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kN; ++i)
    ls.push_back(var_cmp(i, "waitr", Cmp::kEq, 1));
  return make_conjunctive(std::move(ls));
}

ConjunctivePredicatePtr all_done_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kN; ++i)
    ls.push_back(var_cmp(i, "meals", Cmp::kEq, 0));
  return make_conjunctive(std::move(ls));
}

TEST(Dining, UnorderedVariantCanDeadlockAndOrderedCannot) {
  int deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Computation unordered = run_dining(seed, false);
    unordered.validate();
    deadlocks += stuck(unordered);
    Computation ordered = run_dining(seed, true);
    ordered.validate();
    EXPECT_FALSE(stuck(ordered)) << "seed " << seed;
    EXPECT_EQ(detect(ordered, Op::kAF, all_done_pred()).verdict,
              Verdict::kHolds);
  }
  // Deterministic simulation: the unordered protocol is known to deadlock
  // on a majority of these seeds.
  EXPECT_GE(deadlocks, 3);
}

TEST(Dining, DeadlockIsDetectedAsConjunctivePredicate) {
  bool saw_deadlock = false, saw_completion = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Computation c = run_dining(seed, false);
    DetectResult ef = detect(c, Op::kEF, deadlock_pred());
    if (stuck(c)) {
      saw_deadlock = true;
      EXPECT_EQ(ef.verdict, Verdict::kHolds) << "seed " << seed;
      // The deadlocked state persists to the final cut.
      EXPECT_TRUE(deadlock_pred()->eval(c, c.final_cut()));
      // And the witness is a real circular wait.
      EXPECT_TRUE(deadlock_pred()->eval(c, *ef.witness_cut));
    } else {
      saw_completion = true;
      // A completing run may still pass near-deadlock cuts; only the
      // all-done property must definitely hold.
      EXPECT_EQ(detect(c, Op::kAF, all_done_pred()).verdict, Verdict::kHolds)
          << "seed " << seed;
    }
  }
  EXPECT_TRUE(saw_deadlock);
  EXPECT_TRUE(saw_completion);
}

TEST(Dining, OnlineMonitorCatchesTheDeadlockAsItForms) {
  // Find a deadlocking seed, then replay its trace through the online
  // monitor with a deadlock watch.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Computation ref = run_dining(seed, false);
    if (!stuck(ref)) continue;

    OnlineMonitor m(ref.num_procs());
    replay_initial(ref, m);
    WatchId w = m.watch_possibly(deadlock_pred());
    replay_events(ref, ref.linearization(), m, [](EventId) {});
    m.finish();
    ASSERT_TRUE(m.fired(w)) << "seed " << seed;
    auto fires = m.poll();
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_TRUE(deadlock_pred()->eval(m.computation(), fires[0].cut));
    return;  // one deadlocking seed suffices
  }
  FAIL() << "no deadlocking seed among 1..12";
}

TEST(Dining, ForksNeverDoubleBooked) {
  // Protocol invariant: at most one grant outstanding per fork — expressed
  // as "no two adjacent philosophers eat at once".
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Computation c = run_dining(seed, true);
    for (ProcId i = 0; i < kN; ++i) {
      auto both = make_conjunctive(
          {var_cmp(i, "eating", Cmp::kEq, 1),
           var_cmp((i + 1) % kN, "eating", Cmp::kEq, 1)});
      EXPECT_EQ(detect(c, Op::kEF, PredicatePtr(both)).verdict, Verdict::kFails)
          << "seed " << seed << " pair " << i;
    }
  }
}

}  // namespace
}  // namespace hbct
