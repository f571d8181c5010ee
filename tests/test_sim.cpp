// Tests for the simulator substrate and the protocol workloads: structural
// validity, determinism, and the protocols' correctness properties expressed
// as detected predicates.
#include <gtest/gtest.h>

#include "detect/dispatch.h"
#include "poset/trace_io.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/relational.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

using sim::SchedulerKind;
using sim::SimOptions;

SimOptions opts(std::uint64_t seed,
                SchedulerKind k = SchedulerKind::kRandom) {
  SimOptions o;
  o.seed = seed;
  o.scheduler = k;
  return o;
}

TEST(Sim, DeterministicForSeed) {
  auto run = [&] {
    sim::Simulator s = sim::make_random_mixer(4, 10, 2, 0.4);
    return trace_to_string(std::move(s).run(opts(77)));
  };
  EXPECT_EQ(run(), run());
}

TEST(Sim, SeedsChangeTraces) {
  sim::Simulator a = sim::make_random_mixer(4, 10, 2, 0.4);
  sim::Simulator b = sim::make_random_mixer(4, 10, 2, 0.4);
  EXPECT_NE(trace_to_string(std::move(a).run(opts(1))),
            trace_to_string(std::move(b).run(opts(2))));
}

TEST(Sim, AllSchedulersProduceValidComputations) {
  for (SchedulerKind k : {SchedulerKind::kRandom, SchedulerKind::kRoundRobin,
                          SchedulerKind::kDelayBiased}) {
    sim::Simulator s = sim::make_random_mixer(3, 8, 2, 0.5);
    Computation c = std::move(s).run(opts(5, k));
    c.validate();
    EXPECT_GT(c.total_events(), 0);
  }
}

TEST(Sim, NonFifoDeliveryStillValid) {
  SimOptions o = opts(9);
  o.fifo = false;
  sim::Simulator s = sim::make_random_mixer(3, 12, 2, 0.6);
  Computation c = std::move(s).run(o);
  c.validate();
}

// ---- Token mutex -------------------------------------------------------------

PredicatePtr cs_pair(ProcId i, ProcId j) {
  return make_and(PredicatePtr(var_cmp(i, "cs", Cmp::kEq, 1)),
                  PredicatePtr(var_cmp(j, "cs", Cmp::kEq, 1)));
}

class TokenMutex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenMutex, SafetyHoldsWithoutInjection) {
  sim::Simulator s = sim::make_token_mutex(4, 2, false);
  Computation c = std::move(s).run(opts(GetParam()));
  c.validate();
  for (ProcId i = 0; i < 4; ++i)
    for (ProcId j = i + 1; j < 4; ++j)
      EXPECT_EQ(detect(c, Op::kEF, cs_pair(i, j)).verdict, Verdict::kFails)
          << i << "," << j;
  // Everyone eventually enters: cs@Pi == 1 is possible for each i.
  for (ProcId i = 0; i < 4; ++i)
    EXPECT_EQ(
        detect(c, Op::kEF, PredicatePtr(var_cmp(i, "cs", Cmp::kEq, 1))).verdict,
        Verdict::kHolds);
}

TEST_P(TokenMutex, InjectedViolationIsDetected) {
  sim::Simulator s = sim::make_token_mutex(4, 2, true);
  Computation c = std::move(s).run(opts(GetParam()));
  c.validate();
  bool violated = false;
  for (ProcId i = 0; i < 4 && !violated; ++i)
    for (ProcId j = i + 1; j < 4 && !violated; ++j) {
      const DetectResult r = detect(c, Op::kEF, cs_pair(i, j));
      ASSERT_TRUE(r.definite());
      violated = r.verdict == Verdict::kHolds;
    }
  EXPECT_TRUE(violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenMutex,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- Ricart-Agrawala ----------------------------------------------------------

class RaMutex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RaMutex, SafetyAcrossSchedulers) {
  for (SchedulerKind k : {SchedulerKind::kRandom, SchedulerKind::kDelayBiased}) {
    sim::Simulator s = sim::make_ra_mutex(3, 2);
    Computation c = std::move(s).run(opts(GetParam(), k));
    c.validate();
    for (ProcId i = 0; i < 3; ++i)
      for (ProcId j = i + 1; j < 3; ++j)
        EXPECT_EQ(detect(c, Op::kEF, cs_pair(i, j)).verdict, Verdict::kFails);
    // Liveness in the recorded run: every process reached its CS.
    for (ProcId i = 0; i < 3; ++i)
      EXPECT_EQ(
          detect(c, Op::kEF, PredicatePtr(var_cmp(i, "cs", Cmp::kEq, 1)))
              .verdict,
          Verdict::kHolds);
  }
}

TEST_P(RaMutex, TryUntilCriticalHoldsPerProcess) {
  // A[ (try || pre-try idle) U cs ]-style property: the paper's mutual
  // exclusion example. We check the weaker, well-formed disjunctive AU:
  // A[(try==1 || cs==0) U cs==1] on each process — every observation
  // reaches the critical section while the process is not yet in it.
  sim::Simulator s = sim::make_ra_mutex(2, 1);
  Computation c = std::move(s).run(opts(GetParam() + 100));
  for (ProcId i = 0; i < 2; ++i) {
    PredicatePtr p = make_or(PredicatePtr(var_cmp(i, "try", Cmp::kEq, 1)),
                             PredicatePtr(var_cmp(i, "cs", Cmp::kEq, 0)));
    PredicatePtr q = var_cmp(i, "cs", Cmp::kEq, 1);
    EXPECT_EQ(detect(c, Op::kAU, p, q).verdict, Verdict::kHolds);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaMutex,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---- Leader election -----------------------------------------------------------

class Election : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Election, ExactlyMaxUidWinsEverywhere) {
  const std::int32_t n = 4;
  sim::Simulator s = sim::make_leader_election(n);
  Computation c = std::move(s).run(opts(GetParam()));
  c.validate();

  // AF: in every observation all processes eventually agree on uid n.
  std::vector<LocalPredicatePtr> agree;
  for (ProcId i = 0; i < n; ++i)
    agree.push_back(var_cmp(i, "leader", Cmp::kEq, n));
  EXPECT_EQ(detect(c, Op::kAF, make_conjunctive(agree)).verdict,
            Verdict::kHolds);

  // AG: no process ever believes in a non-max, non-zero leader.
  for (ProcId i = 0; i < n; ++i) {
    PredicatePtr sane = make_or(PredicatePtr(var_cmp(i, "leader", Cmp::kEq, 0)),
                                PredicatePtr(var_cmp(i, "leader", Cmp::kEq, n)));
    EXPECT_EQ(detect(c, Op::kAG, sane, nullptr, DispatchOptions{}).verdict,
              Verdict::kHolds);
  }

  // Exactly one process sets elected.
  std::vector<LocalPredicatePtr> two;
  for (ProcId i = 0; i + 1 < n; ++i)
    two.push_back(var_cmp(i, "elected", Cmp::kEq, 1));
  EXPECT_EQ(detect(c, Op::kEF, make_conjunctive(two)).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kEF,
                   PredicatePtr(var_cmp(n - 1, "elected", Cmp::kEq, 1)))
                .verdict,
            Verdict::kHolds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Election,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---- Producer / consumer --------------------------------------------------------

class ProdCons : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProdCons, WindowInvariantIsRegularAndHolds) {
  sim::Simulator s = sim::make_producer_consumer(8, 3);
  Computation c = std::move(s).run(opts(GetParam()));
  c.validate();

  auto inv = diff_le({0, "produced"}, {1, "consumed"}, 3);
  EXPECT_EQ(inv->classes(c) & kClassRegular, kClassRegular);
  DetectResult r = detect(c, Op::kAG, inv);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.algorithm, "A2-ag-linear");

  // The tighter bound is violated somewhere (window actually fills).
  auto tight = diff_le({0, "produced"}, {1, "consumed"}, 0);
  EXPECT_EQ(detect(c, Op::kAG, tight).verdict, Verdict::kFails);

  // All items eventually consumed in every observation.
  EXPECT_EQ(
      detect(c, Op::kAF, PredicatePtr(var_cmp(1, "consumed", Cmp::kEq, 8)))
          .verdict,
      Verdict::kHolds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProdCons,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---- Barrier ----------------------------------------------------------------------

class Barrier : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Barrier, PhaseSkewBounded) {
  const std::int32_t n = 4, phases = 3;
  sim::Simulator s = sim::make_barrier(n, phases);
  Computation c = std::move(s).run(opts(GetParam()));
  c.validate();
  for (ProcId i = 1; i < n; ++i)
    for (ProcId j = 1; j < n; ++j) {
      if (i == j) continue;
      EXPECT_EQ(detect(c, Op::kAG, diff_le({i, "phase"}, {j, "phase"}, 1))
                    .verdict,
                Verdict::kHolds)
          << i << "," << j;
    }
  // Everyone finishes all phases on every path.
  std::vector<LocalPredicatePtr> done;
  for (ProcId i = 1; i < n; ++i)
    done.push_back(var_cmp(i, "phase", Cmp::kEq, phases));
  EXPECT_EQ(detect(c, Op::kAF, make_conjunctive(done)).verdict,
            Verdict::kHolds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Barrier,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Sim, TokenRingWorkCountsAccumulate) {
  sim::Simulator s = sim::make_token_ring(3, 2);
  Computation c = std::move(s).run(opts(3));
  c.validate();
  // The token made 2 rounds: the final holder flags completion.
  PredicatePtr done = make_disjunctive({var_cmp(0, "done", Cmp::kEq, 1),
                                        var_cmp(1, "done", Cmp::kEq, 1),
                                        var_cmp(2, "done", Cmp::kEq, 1)});
  EXPECT_EQ(detect(c, Op::kAF, done).verdict, Verdict::kHolds);
}

TEST(Sim, MaxActionsCapStopsRunaway) {
  sim::SimOptions o = opts(1);
  o.max_actions = 5;
  sim::Simulator s = sim::make_random_mixer(2, 100, 1, 0.3);
  Computation c = std::move(s).run(o);
  EXPECT_LE(c.total_events(), 16);  // a few events per action at most
}

}  // namespace
}  // namespace hbct
