// End-to-end smoke test: simulate, detect, cross-check against the lattice.
#include <gtest/gtest.h>

#include "hbct.h"

namespace hbct {
namespace {

TEST(Smoke, TokenMutexViolationDetected) {
  sim::Simulator good = sim::make_token_mutex(3, 2, /*inject_violation=*/false);
  Computation cg = std::move(good).run({});
  cg.validate();

  auto both_in_cs =
      make_and(PredicatePtr(var_cmp(0, "cs", Cmp::kEq, 1)),
               PredicatePtr(var_cmp(2, "cs", Cmp::kEq, 1)));
  EXPECT_EQ(detect(cg, Op::kEF, both_in_cs).verdict, Verdict::kFails);

  sim::Simulator bad = sim::make_token_mutex(3, 2, /*inject_violation=*/true);
  Computation cb = std::move(bad).run({});
  cb.validate();
  EXPECT_EQ(detect(cb, Op::kEF, both_in_cs).verdict, Verdict::kHolds);
}

TEST(Smoke, CtlQueryRoundTrip) {
  sim::Simulator s = sim::make_producer_consumer(5, 2);
  Computation c = std::move(s).run({});
  c.validate();

  auto r = ctl::evaluate_query(c, "AG(produced@P0 - consumed@P1 <= 2)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds) << r.result.algorithm;

  auto r2 = ctl::evaluate_query(c, "EF(consumed@P1 >= 5)");
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.result.verdict, Verdict::kHolds);
}

TEST(Smoke, BruteForceAgreesOnSmallRandom) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = 42;
  Computation c = generate_random(opt);
  c.validate();

  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 5),
                             var_cmp(1, "v0", Cmp::kLe, 7)});
  LatticeChecker chk(c);
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
    DetectResult fast = detect(c, op, p);
    DetectResult slow = chk.detect(op, *p);
    EXPECT_EQ(fast.verdict, slow.verdict)
        << to_string(op) << " via " << fast.algorithm;
  }
}

}  // namespace
}  // namespace hbct
