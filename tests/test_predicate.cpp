// Tests for the predicate taxonomy: class closure, combinator algebra,
// structured negation, and ground-truth class membership on explicit
// lattices (brute_check_classes).
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "poset/builder.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/classify.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/relational.h"
#include "util/rng.h"

#include "oracle.h"

namespace hbct {
namespace {

TEST(Classes, ClosureRules) {
  EXPECT_EQ(close_classes(kClassLocal) & kClassConjunctive, kClassConjunctive);
  EXPECT_EQ(close_classes(kClassLocal) & kClassDisjunctive, kClassDisjunctive);
  EXPECT_EQ(close_classes(kClassConjunctive) & kClassRegular, kClassRegular);
  EXPECT_EQ(close_classes(kClassRegular) & kClassLinear, kClassLinear);
  EXPECT_EQ(close_classes(kClassRegular) & kClassPostLinear, kClassPostLinear);
  EXPECT_EQ(close_classes(kClassDisjunctive) & kClassObserverIndependent,
            kClassObserverIndependent);
  EXPECT_EQ(close_classes(kClassStable) & kClassObserverIndependent,
            kClassObserverIndependent);
  // Local predicates reach everything through the chain.
  const ClassSet local = close_classes(kClassLocal);
  for (ClassSet f : {kClassConjunctive, kClassDisjunctive, kClassRegular,
                     kClassLinear, kClassPostLinear, kClassObserverIndependent})
    EXPECT_EQ(local & f, f);
  EXPECT_EQ(close_classes(0), 0u);
}

TEST(Classes, ToStringNames) {
  EXPECT_EQ(classes_to_string(0), "arbitrary");
  EXPECT_NE(classes_to_string(kClassLinear).find("linear"),
            std::string::npos);
  EXPECT_NE(classes_to_string(close_classes(kClassConjunctive))
                .find("regular"),
            std::string::npos);
}

Computation small_comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.num_vars = 2;
  opt.seed = seed;
  return generate_random(opt);
}

TEST(Predicates, LocalEvalAndDescribe) {
  Computation c = small_comp(1);
  auto p = var_cmp(1, "v0", Cmp::kGe, 3);
  Cut g = c.final_cut();
  EXPECT_EQ(p->eval(c, g), c.value_at(1, *c.var_id("v0"), g[1]) >= 3);
  EXPECT_NE(p->describe().find("v0@P1 >= 3"), std::string::npos);
  EXPECT_EQ(p->proc(), 1);
  // Negation stays local with inverted truth.
  auto np = p->negate();
  EXPECT_EQ(np->eval(c, g), !p->eval(c, g));
  EXPECT_TRUE(std::dynamic_pointer_cast<const LocalPredicate>(np) != nullptr);
}

TEST(Predicates, ConjunctiveCanonicalization) {
  // Two conjuncts on the same process collapse into one local.
  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 1),
                             var_cmp(0, "v0", Cmp::kLe, 5),
                             var_cmp(1, "v1", Cmp::kEq, 0)});
  EXPECT_EQ(p->locals().size(), 2u);
  EXPECT_NE(p->local_for(0), nullptr);
  EXPECT_NE(p->local_for(1), nullptr);
  EXPECT_EQ(p->local_for(2), nullptr);

  Computation c = small_comp(2);
  Cut g = c.initial_cut();
  const VarId v0 = *c.var_id("v0"), v1 = *c.var_id("v1");
  const bool expect = c.value_at(0, v0, 0) >= 1 && c.value_at(0, v0, 0) <= 5 &&
                      c.value_at(1, v1, 0) == 0;
  EXPECT_EQ(p->eval(c, g), expect);
}

TEST(Predicates, ConjunctiveNegationIsDisjunctive) {
  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kLt, 4),
                             var_cmp(1, "v0", Cmp::kLt, 4)});
  auto np = p->negate();
  auto d = std::dynamic_pointer_cast<const DisjunctivePredicate>(np);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->locals().size(), 2u);
  Computation c = small_comp(3);
  LatticeChecker chk(c);
  for (NodeId v = 0; v < chk.lattice().size(); ++v)
    EXPECT_NE(p->eval(c, chk.lattice().cut(v)),
              np->eval(c, chk.lattice().cut(v)));
}

TEST(Predicates, MakeAndBuildsConjunctive) {
  PredicatePtr a = var_cmp(0, "v0", Cmp::kLt, 4);
  PredicatePtr b = var_cmp(1, "v0", Cmp::kLt, 4);
  auto p = make_and(a, b);
  EXPECT_TRUE(as_conjunctive(p) != nullptr);
  auto q = make_or(a, b);
  EXPECT_TRUE(as_disjunctive(q) != nullptr);
  // Mixed structure falls back to generic combinators but keeps evaluation.
  auto mixed = make_and(a, all_channels_empty());
  EXPECT_TRUE(as_conjunctive(mixed) == nullptr);
  Computation c = small_comp(4);
  EXPECT_EQ(mixed->eval(c, c.initial_cut()),
            a->eval(c, c.initial_cut()));  // channels empty initially
}

TEST(Predicates, EffectiveClassesAddsOiWhenHoldsInitially) {
  Computation c = small_comp(5);
  // A predicate true at the initial cut is observer-independent (the
  // NP-reduction's argument).
  auto p = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() != 1; }, 0,
      "weird");
  EXPECT_EQ(p->classes(c), 0u);
  EXPECT_EQ(effective_classes(*p, c) & kClassObserverIndependent,
            kClassObserverIndependent);
}

TEST(Predicates, ConstantsBelongEverywhere) {
  Computation c = small_comp(6);
  for (auto p : {make_true(), make_false()}) {
    const ClassSet s = p->classes(c);
    for (ClassSet f : {kClassConjunctive, kClassDisjunctive, kClassStable,
                       kClassLinear, kClassPostLinear, kClassRegular})
      EXPECT_EQ(s & f, f) << p->describe();
  }
  EXPECT_TRUE(make_true()->eval(c, c.initial_cut()));
  EXPECT_FALSE(make_false()->eval(c, c.initial_cut()));
  EXPECT_FALSE(make_not(make_true())->eval(c, c.initial_cut()));
}

TEST(Predicates, TerminatedIsStable) {
  Computation c = small_comp(7);
  auto t = make_terminated();
  EXPECT_EQ(t->classes(c) & kClassStable, kClassStable);
  EXPECT_FALSE(t->eval(c, c.initial_cut()));
  EXPECT_TRUE(t->eval(c, c.final_cut()));
  LatticeChecker chk(c);
  EXPECT_TRUE(brute_check_classes(chk, *t).stable);
}

// ---- Ground-truth class membership on explicit lattices --------------------

class ClassGroundTruth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassGroundTruth, ConjunctiveIsRegular) {
  Computation c = small_comp(GetParam());
  LatticeChecker chk(c);
  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 5),
                             var_cmp(1, "v1", Cmp::kGe, 2),
                             var_cmp(2, "v0", Cmp::kNe, 3)});
  auto gc = brute_check_classes(chk, *p);
  EXPECT_TRUE(gc.linear);
  EXPECT_TRUE(gc.post_linear);
  EXPECT_TRUE(gc.regular);
}

TEST_P(ClassGroundTruth, DisjunctiveIsObserverIndependent) {
  Computation c = small_comp(GetParam() + 100);
  LatticeChecker chk(c);
  auto p = make_disjunctive({var_cmp(0, "v0", Cmp::kEq, 4),
                             var_cmp(2, "v1", Cmp::kEq, 4)});
  EXPECT_TRUE(brute_check_classes(chk, *p).observer_independent);
}

TEST_P(ClassGroundTruth, ChannelBoundsAreRegular) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 5;
  opt.p_send = 0.45;
  opt.p_recv = 0.3;
  opt.seed = GetParam() + 200;
  Computation c = generate_random(opt);
  LatticeChecker chk(c);
  for (auto p : {channel_bound_le(0, 1, 1), channel_bound_ge(1, 0, 1),
                 channel_empty(0, 2), all_channels_empty()}) {
    auto gc = brute_check_classes(chk, *p);
    EXPECT_TRUE(gc.regular) << p->describe();
    EXPECT_EQ(p->classes(c) & kClassRegular, kClassRegular);
  }
}

TEST_P(ClassGroundTruth, MonotoneRelationalClasses) {
  // Build a computation with non-decreasing counters via explicit writes.
  ComputationBuilder b(2);
  Rng rng(GetParam());
  VarId x = b.var("x"), y = b.var("y");
  std::int64_t xv = 0, yv = 0;
  MsgId pend = kNoMsg;
  for (int k = 0; k < 5; ++k) {
    xv += rng.next_in(0, 2);
    b.internal(0);
    b.write(0, x, xv);
    if (k == 2) pend = b.send(0, 1);
    yv += rng.next_in(0, 2);
    b.internal(1);
    b.write(1, y, yv);
  }
  if (pend != kNoMsg) b.receive(1, pend);
  Computation c = std::move(b).build();
  EXPECT_TRUE(is_nondecreasing(c, 0, "x"));
  EXPECT_TRUE(is_nondecreasing(c, 1, "y"));

  LatticeChecker chk(c);
  auto le = sum_le({{0, "x"}, {1, "y"}}, 3);
  auto ge = sum_ge({{0, "x"}, {1, "y"}}, 3);
  auto diff = diff_le({0, "x"}, {1, "y"}, 1);

  EXPECT_EQ(le->classes(c) & kClassLinear, kClassLinear);
  EXPECT_TRUE(brute_check_classes(chk, *le).linear);
  EXPECT_EQ(ge->classes(c) & kClassPostLinear, kClassPostLinear);
  EXPECT_TRUE(brute_check_classes(chk, *ge).post_linear);
  EXPECT_EQ(diff->classes(c) & kClassRegular, kClassRegular);
  EXPECT_TRUE(brute_check_classes(chk, *diff).regular);
}

TEST(Predicates, NonMonotoneRelationalClaimsNothing) {
  ComputationBuilder b(1);
  VarId x = b.var("x");
  b.internal(0);
  b.write(0, x, 5);
  b.internal(0);
  b.write(0, x, 2);  // decreases
  Computation c = std::move(b).build();
  EXPECT_FALSE(is_nondecreasing(c, 0, "x"));
  EXPECT_TRUE(is_nonincreasing(c, 0, "x") == false);  // 0 -> 5 increased
  auto le = sum_le({{0, "x"}}, 3);
  EXPECT_EQ(le->classes(c), 0u);
}

// x on P0 and y on P1, with one message 0 -> 1. `monotone` keeps both
// counters non-decreasing; otherwise x drops at the send.
Computation bound_table_comp(bool monotone) {
  ComputationBuilder b(2);
  const VarId x = b.var("x"), y = b.var("y");
  b.internal(0);
  b.write(0, x, 1);
  const MsgId m = b.send(0, 1);
  b.write(0, x, monotone ? 3 : 0);
  b.internal(1);
  b.write(1, y, 2);
  b.receive(1, m);
  b.write(1, y, 5);
  return std::move(b).build();
}

TEST(Predicates, SumAndChannelBoundTable) {
  const Computation mono = bound_table_comp(true);
  const Computation rough = bound_table_comp(false);
  const ClassSet regular = close_classes(kClassRegular);
  struct Row {
    PredicatePtr p;
    ClassSet on_mono, on_rough;
    std::vector<ProcId> support;
    bool has_forbidden, has_forbidden_down;
    Cut false_cut;
    ProcId forbidden, forbidden_down;  // -1: no oracle in that direction
    const char* describe;
    const char* negated;
  };
  const Row rows[] = {
      {sum_le({{1, "y"}, {0, "x"}}, 4), close_classes(kClassLinear), 0,
       {0, 1}, true, false, Cut({2, 2}), 1, -1, "y@P1 + x@P0 <= 4",
       "!(y@P1 + x@P0 <= 4)"},
      {sum_ge({{0, "x"}}, 2), close_classes(kClassPostLinear), 0, {0}, false,
       true, Cut({1, 0}), -1, 0, "x@P0 >= 2", "!(x@P0 >= 2)"},
      {channel_bound_le(0, 1, 0), regular, regular, {0, 1}, true, true,
       Cut({2, 1}), 1, 0, "intransit(0->1) <= 0", "intransit(0->1) >= 1"},
      {channel_bound_ge(0, 1, 1), regular, regular, {0, 1}, true, true,
       Cut({0, 0}), 0, 1, "intransit(0->1) >= 1", "intransit(0->1) <= 0"},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.describe);
    EXPECT_EQ(r.p->classes(mono), r.on_mono);
    EXPECT_EQ(r.p->classes(rough), r.on_rough);
    EXPECT_EQ(r.p->support(mono), r.support);
    EXPECT_EQ(r.p->has_forbidden(), r.has_forbidden);
    EXPECT_EQ(r.p->has_forbidden_down(), r.has_forbidden_down);
    ASSERT_TRUE(mono.is_consistent(r.false_cut));
    ASSERT_FALSE(r.p->eval(mono, r.false_cut));
    if (r.has_forbidden)
      EXPECT_EQ(r.p->forbidden(mono, r.false_cut), r.forbidden);
    if (r.has_forbidden_down)
      EXPECT_EQ(r.p->forbidden_down(mono, r.false_cut), r.forbidden_down);
    EXPECT_EQ(r.p->describe(), r.describe);
    EXPECT_EQ(r.p->negate()->describe(), r.negated);
  }
}

TEST(Predicates, ClassifyReportMentionsPaperAlgorithms) {
  Computation c = small_comp(11);
  // Regular-but-not-conjunctive predicates take the paper's A1/A2 routes.
  auto p = all_channels_empty();
  ClassReport r = classify(*p, c);
  EXPECT_NE(r.eg.find("A1"), std::string::npos);
  EXPECT_NE(r.ag.find("A2"), std::string::npos);
  EXPECT_NE(to_string(r).find("EF ->"), std::string::npos);

  // Conjunctive predicates report the conjunctive scans — the same route
  // dispatch takes (tests/test_plan_parity.cpp pins the agreement).
  auto cj = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 9)});
  ClassReport rc = classify(*cj, c);
  EXPECT_NE(rc.eg.find("eg-conjunctive-scan"), std::string::npos);
  EXPECT_NE(rc.ag.find("ag-conjunctive-scan"), std::string::npos);

  auto s = make_terminated();
  ClassReport rs = classify(*s, c);
  EXPECT_NE(rs.ef.find("stable"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassGroundTruth,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hbct
