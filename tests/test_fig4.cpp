// Reproduction of Fig. 4: the E[p U q] example computation.
//
// Quoted facts from the paper's text (the figure image itself is not in the
// source): three processes; p = "z@P3 < 6 && x@P1 < 4" (conjunctive);
// q = "channels empty && x@P1 > 1" (linear); the witness sequence
// ∅, {f1}, {e1,f1}, {e1,f2,f1}, {e1,f2,f1,g1}; I_q = {e1,f2,f1,g1}; and
// "out of a possible 7 paths which start from the initial cut and satisfy
// the predicate ... the ones that lead to I_q ... there are only 2".
//
// Our reconstruction (found by exhausting the small space of variable
// placements consistent with the quoted facts; see DESIGN.md):
//   P0 ("P1"): e1 = send->f2, x := 2;  e2 internal, x := 3.   x initially 1.
//   P1 ("P2"): f1 = send->g1;          f2 = receive(e1).
//   P2 ("P3"): g1 = receive(f1), z := 6.                      z initially 3.
// This reproduces all quoted facts exactly, including the 7/2 path counts.
#include <gtest/gtest.h>

#include "ctl/compile.h"
#include "detect/brute_force.h"
#include "detect/ef_linear.h"
#include "detect/until.h"
#include "lattice/path_count.h"
#include "poset/builder.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"

namespace hbct {
namespace {

Computation fig4_computation() {
  ComputationBuilder b(3);
  VarId x = b.var("x"), z = b.var("z");
  b.set_initial(0, x, 1);
  b.set_initial(2, z, 3);
  MsgId m1 = b.send(0, 1);
  b.label(0, "e1").write(0, x, 2);
  b.internal(0);
  b.label(0, "e2").write(0, x, 3);
  MsgId m2 = b.send(1, 2);
  b.label(1, "f1");
  b.receive(1, m1);
  b.label(1, "f2");
  b.receive(2, m2);
  b.label(2, "g1").write(2, z, 6);
  return std::move(b).build();
}

ConjunctivePredicatePtr fig4_p() {
  return make_conjunctive(
      {var_cmp(2, "z", Cmp::kLt, 6), var_cmp(0, "x", Cmp::kLt, 4)});
}

PredicatePtr fig4_q() {
  return make_and(all_channels_empty(),
                  PredicatePtr(var_cmp(0, "x", Cmp::kGt, 1)));
}

TEST(Fig4, PredicateClassesMatchThePaper) {
  Computation c = fig4_computation();
  c.validate();
  auto p = fig4_p();
  auto q = fig4_q();
  // "the first part of the predicate, p, is a conjunctive predicate and the
  // second part, q, is a linear predicate".
  EXPECT_NE(effective_classes(*p, c) & kClassConjunctive, 0u);
  EXPECT_NE(effective_classes(*q, c) & kClassLinear, 0u);
}

TEST(Fig4, IqIsTheQuotedCut) {
  Computation c = fig4_computation();
  DetectStats st;
  auto iq = least_satisfying_cut(c, *fig4_q(), st);
  ASSERT_TRUE(iq.has_value());
  EXPECT_EQ(*iq, Cut({1, 2, 1}));  // {e1, f1, f2, g1}
}

TEST(Fig4, QuotedWitnessSequenceIsValid) {
  Computation c = fig4_computation();
  auto p = fig4_p();
  auto q = fig4_q();
  // ∅, {f1}, {e1,f1}, {e1,f2,f1}, {e1,f2,f1,g1}.
  const std::vector<Cut> path = {Cut({0, 0, 0}), Cut({0, 1, 0}),
                                 Cut({1, 1, 0}), Cut({1, 2, 0}),
                                 Cut({1, 2, 1})};
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(c.is_consistent(path[i]));
    EXPECT_TRUE(p->eval(c, path[i])) << i;
    EXPECT_EQ(path[i + 1].total(), path[i].total() + 1);
  }
  EXPECT_TRUE(q->eval(c, path.back()));
}

TEST(Fig4, SevenWitnessesTwoThroughIq) {
  Computation c = fig4_computation();
  auto p = fig4_p();
  auto q = fig4_q();
  Lattice lat = Lattice::build(c);
  const NodeId iq = lat.node_of(Cut({1, 2, 1}));
  ASSERT_NE(iq, kNoNode);
  BigUint at_iq;
  BigUint total = count_eu_witnesses(
      lat, [&](NodeId v) { return p->eval(c, lat.cut(v)); },
      [&](NodeId v) { return q->eval(c, lat.cut(v)); }, iq, &at_iq);
  EXPECT_EQ(total.to_string(), "7");
  EXPECT_EQ(at_iq.to_string(), "2");
}

TEST(Fig4, A3DetectsEuWithWitnessEndingAtIq) {
  Computation c = fig4_computation();
  DetectResult r = detect_eu(c, *fig4_p(), *fig4_q());
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  ASSERT_TRUE(r.witness_cut.has_value());
  EXPECT_EQ(*r.witness_cut, Cut({1, 2, 1}));
  // Witness path checks out: p before, q at the end.
  ASSERT_EQ(r.witness_path.size(), 5u);
  EXPECT_EQ(r.witness_path.front(), c.initial_cut());
  EXPECT_EQ(r.witness_path.back(), Cut({1, 2, 1}));
}

TEST(Fig4, BruteForceAgrees) {
  Computation c = fig4_computation();
  auto p = fig4_p();
  auto q = fig4_q();
  LatticeChecker chk(c);
  EXPECT_EQ(chk.detect(Op::kEU, *p, q.get()).verdict, Verdict::kHolds);
  EXPECT_EQ(detect_eu(c, *p, *q).verdict, Verdict::kHolds);
}

TEST(Fig4, CtlTextualFormOfTheExample) {
  Computation c = fig4_computation();
  auto r = ctl::evaluate_query(
      c, "E[ z@P2 < 6 && x@P0 < 4 U channels_empty && x@P0 > 1 ]");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
  EXPECT_EQ(r.result.algorithm, "A3-eu");
}

TEST(Fig4, MutualExclusionStyleAuExample) {
  // The paper's Section 1 example: A[try U critical]. Build a tiny
  // computation where P0 tries then enters.
  ComputationBuilder b(2);
  VarId t = b.var("try"), cs = b.var("critical");
  b.internal(0);
  b.write(0, t, 1);
  b.internal(0);
  b.write(0, t, 0);
  b.write(0, cs, 1);
  b.internal(1);
  Computation c = std::move(b).build();
  auto r = ctl::evaluate_query(
      c, "A[ try@P0 == 1 || critical@P0 == 0 U critical@P0 == 1 ]");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
}

}  // namespace
}  // namespace hbct
