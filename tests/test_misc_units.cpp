// Additional unit coverage: describe() strings, result plumbing, the ops
// counters on every algorithm, builder misuse, and query-object evaluation.
#include <gtest/gtest.h>

#include "ctl/compile.h"
#include "detect/ag_linear.h"
#include "detect/conjunctive_gw.h"
#include "detect/dispatch.h"
#include "detect/ef_linear.h"
#include "detect/eg_linear.h"
#include "detect/until.h"
#include "poset/builder.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/classify.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 5;
  opt.seed = seed;
  return generate_random(opt);
}

TEST(Describe, AllPredicateFamilies) {
  EXPECT_EQ(var_cmp(1, "x", Cmp::kLt, 4)->describe(), "x@P1 < 4");
  EXPECT_EQ(pos_cmp(2, Cmp::kGe, 3)->describe(), "pos@P2 >= 3");
  EXPECT_EQ(progress_ge(0, 2)->describe(), "progress@P0 >= 2");
  EXPECT_EQ(channel_bound_le(0, 1, 2)->describe(), "intransit(0->1) <= 2");
  EXPECT_EQ(channel_bound_ge(1, 0, 1)->describe(), "intransit(1->0) >= 1");
  EXPECT_EQ(all_channels_empty()->describe(), "channels_empty");
  EXPECT_EQ(diff_le({0, "a"}, {1, "b"}, 3)->describe(), "a@P0 - b@P1 <= 3");
  EXPECT_EQ(sum_le({{0, "a"}, {1, "b"}}, 5)->describe(), "a@P0 + b@P1 <= 5");
  EXPECT_EQ(sum_ge({{0, "a"}}, 5)->describe(), "a@P0 >= 5");
  EXPECT_EQ(make_terminated()->describe(), "terminated");
  EXPECT_EQ(make_true()->describe(), "true");
  auto conj = make_conjunctive({var_cmp(0, "x", Cmp::kEq, 1),
                                var_cmp(1, "y", Cmp::kNe, 2)});
  EXPECT_EQ(conj->describe(), "x@P0 == 1 && y@P1 != 2");
  auto disj = make_disjunctive({var_cmp(0, "x", Cmp::kEq, 1),
                                var_cmp(1, "y", Cmp::kNe, 2)});
  EXPECT_EQ(disj->describe(), "x@P0 == 1 || y@P1 != 2");
  EXPECT_EQ(make_not(make_true())->describe(), "false");
}

TEST(Describe, CmpNamesRoundTrip) {
  for (Cmp op : {Cmp::kLt, Cmp::kLe, Cmp::kEq, Cmp::kNe, Cmp::kGe, Cmp::kGt}) {
    // Round-trip through the parser: the printed operator must re-parse.
    std::string q = std::string("EF(x@P0 ") + to_string(op) + " 3)";
    EXPECT_TRUE(ctl::parse_query(q).ok) << q;
  }
}

TEST(CmpEval, TruthTable) {
  EXPECT_TRUE(cmp_eval(Cmp::kLt, 1, 2));
  EXPECT_FALSE(cmp_eval(Cmp::kLt, 2, 2));
  EXPECT_TRUE(cmp_eval(Cmp::kLe, 2, 2));
  EXPECT_TRUE(cmp_eval(Cmp::kEq, -3, -3));
  EXPECT_TRUE(cmp_eval(Cmp::kNe, 1, 2));
  EXPECT_TRUE(cmp_eval(Cmp::kGe, 2, 2));
  EXPECT_TRUE(cmp_eval(Cmp::kGt, 3, 2));
  EXPECT_FALSE(cmp_eval(Cmp::kGt, 2, 3));
}

TEST(Stats, EveryAlgorithmCountsWork) {
  Computation c = comp(5);
  auto conj = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 9),
                                var_cmp(1, "v0", Cmp::kLe, 9)});
  PredicatePtr lin = make_and(PredicatePtr(conj), channel_bound_le(0, 1, 99));
  EXPECT_GT(detect_ef_conjunctive(c, *conj).stats.predicate_evals, 0u);
  EXPECT_GT(detect_af_conjunctive(c, *conj).stats.predicate_evals, 0u);
  EXPECT_GT(detect_eg_conjunctive(c, *conj).stats.predicate_evals, 0u);
  EXPECT_GT(detect_ag_conjunctive(c, *conj).stats.predicate_evals, 0u);
  EXPECT_GT(detect_eg_linear(c, *lin).stats.predicate_evals, 0u);
  EXPECT_GT(detect_ag_linear(c, *lin).stats.predicate_evals, 0u);
  EXPECT_GT(detect_ef_linear(c, *lin).stats.predicate_evals, 0u);
  PredicatePtr q = all_channels_empty();
  EXPECT_GT(detect_eu(c, *conj, *q).stats.predicate_evals, 0u);
}

TEST(Stats, GwSearchStopsAtTheFirstConjunctThatNeverHolds) {
  // x = pos on every process. P0's conjunct first holds at position 2
  // (3 evaluations), P1's never holds (all 5 positions), and the search
  // ends there: P2 is never evaluated and no repair is charged.
  ComputationBuilder b(3);
  const VarId x = b.var("x");
  for (EventIndex pos = 1; pos <= 4; ++pos)
    for (ProcId i = 0; i < 3; ++i) {
      b.internal(i);
      b.write(i, x, pos);
    }
  const Computation c = std::move(b).build();
  auto conj = make_conjunctive({var_cmp(0, "x", Cmp::kGe, 2),
                                var_cmp(1, "x", Cmp::kGe, 99),
                                var_cmp(2, "x", Cmp::kGe, 0)});
  const DetectResult r = detect_ef_conjunctive(c, *conj);
  EXPECT_EQ(r.verdict, Verdict::kFails);
  EXPECT_EQ(r.stats.predicate_evals, 8u);
  EXPECT_EQ(r.stats.cut_steps, 0u);
}

TEST(QueryObjects, EvaluateParsedQueryDirectly) {
  Computation c = comp(7);
  auto parsed = ctl::parse_query("AG(v0@P0 >= 0)");
  ASSERT_TRUE(parsed.ok);
  auto r = ctl::evaluate_query(c, parsed.query);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
  // Same verdict as the text path.
  EXPECT_EQ(ctl::evaluate_query(c, "AG(v0@P0 >= 0)").result.verdict,
            Verdict::kHolds);
}

TEST(Builder, WriteBeforeEventDies) {
  ComputationBuilder b(2);
  VarId x = b.var("x");
  EXPECT_DEATH(b.write(0, x, 1), "no event to annotate");
}

TEST(Builder, SelfSendDies) {
  ComputationBuilder b(2);
  EXPECT_DEATH(b.send(1, 1), "self-messages");
}

TEST(Builder, UnknownVariableWriteDies) {
  ComputationBuilder b(1);
  b.internal(0);
  EXPECT_DEATH(b.write(0, static_cast<VarId>(5), 1), "");
}

TEST(Dispatch, WitnessCutsPlumbThroughEveryRoute) {
  Computation c = comp(11);
  // EF conjunctive: least cut present on success.
  auto conj = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 0)});
  DetectResult ef = detect(c, Op::kEF, conj);
  ASSERT_EQ(ef.verdict, Verdict::kHolds);
  EXPECT_TRUE(ef.witness_cut.has_value());
  // AG failure: violating cut present.
  auto never = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 100)});
  DetectResult ag = detect(c, Op::kAG, never);
  ASSERT_EQ(ag.verdict, Verdict::kFails);
  ASSERT_TRUE(ag.witness_cut.has_value());
  EXPECT_FALSE(never->eval(c, *ag.witness_cut));
}

TEST(Classify, ReportsForEveryFamily) {
  Computation c = comp(13);
  struct Row {
    PredicatePtr p;
    const char* expect_class;
  };
  const Row rows[] = {
      {make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 3)}), "conjunctive"},
      {make_disjunctive({var_cmp(0, "v0", Cmp::kLe, 3),
                         var_cmp(1, "v0", Cmp::kLe, 3)}),
       "disjunctive"},
      {all_channels_empty(), "regular"},
      {make_terminated(), "observer-independent"},
      {channel_bound_ge(0, 1, 1), "post-linear"},
  };
  for (const Row& row : rows) {
    ClassReport r = classify(*row.p, c);
    EXPECT_NE(classes_to_string(r.classes).find(row.expect_class),
              std::string::npos)
        << row.p->describe() << " -> " << classes_to_string(r.classes);
  }
  // Arbitrary predicates report "arbitrary" and exponential dispatch.
  auto arb = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() == 2; }, 0,
      "probe");
  ClassReport r = classify(*arb, c);
  EXPECT_EQ(classes_to_string(r.classes), "arbitrary");
  EXPECT_NE(r.eg.find("exponential"), std::string::npos);
}

TEST(DetectResult, AlgorithmNamesAreStable) {
  // These strings are part of the reporting surface (EXPERIMENTS.md and the
  // benches key off them); lock them down.
  Computation c = comp(17);
  auto conj = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 9),
                                var_cmp(1, "v0", Cmp::kLe, 9)});
  EXPECT_EQ(detect_ef_conjunctive(c, *conj).algorithm, "gw-weak-conjunctive");
  EXPECT_EQ(detect_af_conjunctive(c, *conj).algorithm,
            "gw-strong-conjunctive");
  EXPECT_EQ(detect_eg_conjunctive(c, *conj).algorithm, "eg-conjunctive-scan");
  EXPECT_EQ(detect_ag_conjunctive(c, *conj).algorithm, "ag-conjunctive-scan");
  PredicatePtr lin = make_and(PredicatePtr(conj), channel_bound_le(0, 1, 9));
  EXPECT_EQ(detect_eg_linear(c, *lin).algorithm, "A1-eg-linear");
  EXPECT_EQ(detect_ag_linear(c, *lin).algorithm, "A2-ag-linear");
  EXPECT_EQ(detect_ef_linear(c, *lin).algorithm, "chase-garg-ef");
  EXPECT_EQ(detect_eu(c, *conj, *lin).algorithm, "A3-eu");
}

}  // namespace
}  // namespace hbct
