// Nested CTL — an extension beyond the paper's fragment, evaluated on the
// explicit lattice. Validated against hand-labeled expectations and against
// the single-operator fast path where the two overlap.
#include <gtest/gtest.h>

#include <chrono>

#include "ctl/compile.h"
#include "detect/brute_force.h"
#include "poset/generate.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 5;
  opt.seed = seed;
  return generate_random(opt);
}

TEST(NestedCtl, ParserBuildsNestedTrees) {
  auto r = ctl::parse_query("AG(v0@P0 > 2 || EF(v1@P1 == 0))");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.query.temporal);  // not in the paper fragment
  EXPECT_TRUE(ctl::contains_temporal(r.query.root));
  EXPECT_EQ(ctl::to_string(r.query), "AG((v0@P0 > 2) || (EF(v1@P1 == 0)))");

  auto flat = ctl::parse_query("EG(v0@P0 > 2)");
  ASSERT_TRUE(flat.ok);
  EXPECT_TRUE(flat.query.temporal);  // fragment view preserved
}

TEST(NestedCtl, BooleanOverTemporalAgreesWithSeparateQueries) {
  Computation c = comp(3);
  auto a = ctl::evaluate_query(c, "EF(v0@P0 == 4)");
  auto b = ctl::evaluate_query(c, "AG(v1@P1 >= 0)");
  ASSERT_TRUE(a.ok && b.ok);
  auto both = ctl::evaluate_query(c, "EF(v0@P0 == 4) && AG(v1@P1 >= 0)");
  ASSERT_TRUE(both.ok) << both.error;
  EXPECT_EQ(both.result.holds(), a.result.holds() && b.result.holds());
  EXPECT_EQ(both.algorithm, "lattice-nested-ctl");
}

TEST(NestedCtl, SingleOperatorNestedPathMatchesFastPath) {
  // Force the nested evaluator over a fragment query by wrapping in a
  // redundant conjunction with true-as-temporal.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Computation c = comp(seed);
    const char* base = "EF(v0@P0 >= 3 && v1@P1 <= 2)";
    auto fast = ctl::evaluate_query(c, base);
    auto nested = ctl::evaluate_query(
        c, std::string(base) + " && EF(true)");
    ASSERT_TRUE(fast.ok && nested.ok) << nested.error;
    EXPECT_EQ(nested.result.holds(), fast.result.holds()) << "seed " << seed;
  }
}

TEST(NestedCtl, ResettabilityPattern) {
  // AG(EF(reset)) — "from every reachable state a reset is still
  // reachable" — the canonical genuinely-nested CTL property.
  ComputationBuilder b(2);
  VarId r = b.var("reset");
  b.internal(0);
  b.write(0, r, 1);
  b.internal(0);
  b.write(0, r, 0);
  b.internal(1);
  Computation c = std::move(b).build();
  // reset@P0==1 holds only at position 1 of P0; states past it cannot
  // reach it again.
  auto q = ctl::evaluate_query(c, "AG(EF(reset@P0 == 1))");
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_FALSE(q.result.holds());
  // But EF(AG(reset == 0)) holds: run to the end where reset stays 0.
  auto q2 = ctl::evaluate_query(c, "EF(AG(reset@P0 == 0))");
  ASSERT_TRUE(q2.ok) << q2.error;
  EXPECT_TRUE(q2.result.holds());
}

TEST(NestedCtl, UntilNestedInsideInvariant) {
  sim::Simulator s = sim::make_producer_consumer(4, 2);
  Computation c = std::move(s).run({});
  // From every state, consumption eventually completes while the window
  // invariant keeps holding.
  auto q = ctl::evaluate_query(
      c,
      "AG( E[ produced@P0 - consumed@P1 <= 2 U consumed@P1 == 4 ] "
      "|| consumed@P1 == 4 )");
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_TRUE(q.result.holds());
}

TEST(NestedCtl, DeepNestingEvaluates) {
  Computation c = comp(11);
  auto q = ctl::evaluate_query(c, "EF(AG(EF(v0@P0 >= 0)))");
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_TRUE(q.result.holds());  // innermost is a tautology on values >= 0
}

TEST(NestedCtl, ValidationStillAppliesInsideNesting) {
  Computation c = comp(13);
  auto q = ctl::evaluate_query(c, "AG(EF(bogus@P0 == 1))");
  ASSERT_FALSE(q.ok);
  EXPECT_NE(q.error.find("unknown variable"), std::string::npos);
}

TEST(NestedCtl, LatticeOverCapIsUnknownStateCap) {
  Computation c = generate_independent(8, 6);  // 7^8 ≈ 5.7M cuts
  DispatchOptions opt;
  opt.budget.max_states = 1000;
  auto q = ctl::evaluate_query(c, "AG(EF(true))", opt);
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_EQ(q.result.verdict, Verdict::kUnknown);
  EXPECT_EQ(q.result.bound, BoundReason::kStateCap);
  EXPECT_EQ(q.algorithm, "lattice-nested-ctl");
}

TEST(NestedCtl, RefusedExponentialBuildsNoLattice) {
  Computation c = generate_independent(2, 7);  // 8^2 = 64 cuts
  DispatchOptions opt;
  opt.allow_exponential = false;
  auto q = ctl::evaluate_query(c, "AG(EF(true))", opt);
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_EQ(q.result.verdict, Verdict::kUnknown);
  EXPECT_EQ(q.result.bound, BoundReason::kStateCap);
  EXPECT_EQ(q.result.stats.lattice_nodes, 0u);
  EXPECT_EQ(q.result.stats.predicate_evals, 0u);
}

TEST(NestedCtl, SpentBudgetIsUnknown) {
  Computation c = generate_independent(2, 7);
  CancelToken token;
  token.cancel();
  DispatchOptions cancelled;
  cancelled.budget.cancel = &token;
  auto a = ctl::evaluate_query(c, "AG(EF(true))", cancelled);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.result.verdict, Verdict::kUnknown);
  EXPECT_EQ(a.result.bound, BoundReason::kCancelled);
  EXPECT_EQ(a.result.stats.predicate_evals, 0u);

  DispatchOptions expired;
  expired.budget = Budget::with_deadline_in(std::chrono::nanoseconds{-1});
  auto b = ctl::evaluate_query(c, "AG(EF(true))", expired);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(b.result.verdict, Verdict::kUnknown);
  EXPECT_EQ(b.result.bound, BoundReason::kDeadline);

  // The work budget trips at the probe after the first labelling pass.
  DispatchOptions tight;
  tight.budget.max_work = 10;
  auto w = ctl::evaluate_query(c, "AG(EF(true))", tight);
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.result.verdict, Verdict::kUnknown);
  EXPECT_EQ(w.result.bound, BoundReason::kStepBudget);
  EXPECT_EQ(w.result.stats.predicate_evals, 64u);
}

TEST(NestedCtl, NegationOfTemporal) {
  Computation c = comp(17);
  auto a = ctl::evaluate_query(c, "!EF(v0@P0 == 4)");
  auto b = ctl::evaluate_query(c, "EF(v0@P0 == 4)");
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  EXPECT_EQ(a.result.holds(), !b.result.holds());
  EXPECT_EQ(a.algorithm, "lattice-nested-ctl");
}

}  // namespace
}  // namespace hbct
