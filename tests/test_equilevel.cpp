// Equilevel predicates (Garg–Streit diagonal-chain class): is_equilevel_cut,
// make_equilevel, the equilevel-scan detector against brute force, planner
// routing, and the class audit that catches false kClassEquilevel claims.
#include <gtest/gtest.h>

#include <string>

#include "analysis/audit.h"
#include "analysis/diagnostics.h"
#include "analysis/plan.h"
#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "detect/equilevel.h"
#include "poset/generate.h"
#include "predicate/conjunctive.h"
#include "predicate/equilevel.h"
#include "predicate/local.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.num_vars = 2;
  opt.seed = seed;
  return generate_random(opt);
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(Equilevel, IsEquilevelCut) {
  EXPECT_TRUE(is_equilevel_cut(Cut{}));
  EXPECT_TRUE(is_equilevel_cut(Cut(std::vector<std::int32_t>{0, 0, 0})));
  EXPECT_TRUE(is_equilevel_cut(Cut(std::vector<std::int32_t>{2, 2, 2})));
  EXPECT_TRUE(is_equilevel_cut(Cut(std::vector<std::int32_t>{7})));
  EXPECT_FALSE(is_equilevel_cut(Cut(std::vector<std::int32_t>{1, 0})));
  EXPECT_FALSE(is_equilevel_cut(Cut(std::vector<std::int32_t>{2, 2, 3})));
}

TEST(Equilevel, MakeEquilevelClassesAndDescribe) {
  const Computation c = comp(1);
  const PredicatePtr p = make_equilevel(make_true());
  EXPECT_EQ(p->classes(c), kClassEquilevel);
  EXPECT_EQ(effective_classes(*p, c) & kClassEquilevel, kClassEquilevel);
  EXPECT_TRUE(starts_with(p->describe(), "equilevel("));
  // The restriction really confines satisfaction to the diagonal.
  EXPECT_TRUE(p->eval(c, Cut(std::vector<std::int32_t>{2, 2, 2})));
  EXPECT_FALSE(p->eval(c, Cut(std::vector<std::int32_t>{2, 1, 2})));
}

TEST(Equilevel, PlannerRoutesEfEgAgButNeverAf) {
  const Computation c = comp(2);
  const PredShape shape = shape_of(make_equilevel(make_true()), c);
  for (Op op : {Op::kEF, Op::kEG, Op::kAG}) {
    const DetectPlan pl = plan_unary(op, shape, /*allow_exponential=*/true);
    EXPECT_EQ(pl.algo, Algo::kEquilevelScan) << to_string(op);
    EXPECT_STREQ(pl.name, "equilevel-scan");
    EXPECT_FALSE(pl.exponential);
  }
  // AF is not chain-decidable: observations can avoid the diagonal.
  const DetectPlan af = plan_unary(Op::kAF, shape, true);
  EXPECT_NE(af.algo, Algo::kEquilevelScan);
}

class EquilevelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquilevelProperty, MatchesBruteForceOnRandomLattices) {
  const Computation c = comp(GetParam());
  LatticeChecker chk(c);
  // A spread of inner predicates: always true, a progress threshold, and a
  // variable condition — diagonal satisfaction varies per seed.
  const std::vector<PredicatePtr> inners = {
      make_true(),
      make_false(),
      make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 1),
                        var_cmp(1, "v0", Cmp::kGe, 1)}),
      var_cmp(2, "v1", Cmp::kLe, 2),
  };
  for (const PredicatePtr& inner : inners) {
    const PredicatePtr p = make_equilevel(inner);
    for (Op op : {Op::kEF, Op::kEG, Op::kAG}) {
      const DetectResult fast = detect(c, op, p);
      const DetectResult brute = chk.detect(op, *p);
      ASSERT_NE(fast.verdict, Verdict::kUnknown) << p->describe();
      EXPECT_EQ(fast.verdict, brute.verdict)
          << to_string(op) << " " << p->describe();
      if (op == Op::kEF)
        EXPECT_TRUE(starts_with(fast.algorithm, "equilevel-scan"))
            << fast.algorithm;
      // An EF witness must be a consistent equilevel cut satisfying p.
      if (op == Op::kEF && fast.verdict == Verdict::kHolds &&
          fast.witness_cut) {
        EXPECT_TRUE(is_equilevel_cut(*fast.witness_cut));
        EXPECT_TRUE(c.is_consistent(*fast.witness_cut));
        EXPECT_TRUE(p->eval(c, *fast.witness_cut));
      }
    }
  }
}

TEST_P(EquilevelProperty, DirectDetectorAgreesWithDispatch) {
  const Computation c = comp(GetParam() + 100);
  const PredicatePtr p = make_equilevel(make_true());
  Budget unlimited;
  for (Op op : {Op::kEF, Op::kEG, Op::kAG}) {
    const DetectResult direct = detect_equilevel(c, *p, op, unlimited);
    const DetectResult routed = detect(c, op, p);
    EXPECT_EQ(direct.verdict, routed.verdict) << to_string(op);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquilevelProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Equilevel, TrivialFailShapesForMultiProc) {
  // With n >= 2 and at least one event, AG leaves the diagonal at some
  // consistent cut and EG at its first path step — both fail even for the
  // always-true inner predicate.
  const Computation c = comp(3);
  const PredicatePtr p = make_equilevel(make_true());
  EXPECT_EQ(detect(c, Op::kAG, p).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kEG, p).verdict, Verdict::kFails);
  // EF of equilevel(true) always holds: the initial cut is on the chain.
  EXPECT_EQ(detect(c, Op::kEF, p).verdict, Verdict::kHolds);
}

TEST(Equilevel, AuditCatchesFalseEquilevelClaims) {
  const Computation c = comp(4);
  // "total >= 1" holds at plenty of off-diagonal cuts; claiming
  // kClassEquilevel for it is a lie the auditor must catch.
  const PredicatePtr liar = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() >= 1; },
      kClassEquilevel, "lying-equilevel");
  const AuditResult r = audit_predicate(liar, c);
  ASSERT_FALSE(r.ok());
  bool found = false;
  for (const AuditViolation& v : r.violations)
    found |= v.check == AuditCheck::kEquilevelDiagonal;
  EXPECT_TRUE(found);

  // An honest equilevel predicate audits clean.
  const AuditResult honest = audit_predicate(make_equilevel(make_true()), c);
  EXPECT_TRUE(honest.ok()) << render_diagnostics(audit_diagnostics(honest));
  EXPECT_EQ(honest.checked & kClassEquilevel, kClassEquilevel);
}

}  // namespace
}  // namespace hbct
