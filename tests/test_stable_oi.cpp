// Tests for stable / observer-independent detection and the generic DFS
// search detectors (Table 1's "trivial" and "arbitrary" entries).
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "detect/stable_oi.h"
#include "poset/generate.h"
#include "predicate/disjunctive.h"
#include "predicate/channel.h"
#include "predicate/local.h"
#include "util/rng.h"

#include "oracle.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = seed;
  return generate_random(opt);
}

/// "Total progress >= k" — up-closed, hence stable.
PredicatePtr total_progress_ge(std::int64_t k) {
  return make_stable(
      [k](const Computation&, const Cut& g) { return g.total() >= k; },
      "total-progress");
}

class StableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StableProperty, AllFourOperatorsMatchBrute) {
  Computation c = comp(GetParam());
  LatticeChecker chk(c);
  for (std::int64_t k : {0, 1, 5, 11, 12, 13}) {
    auto p = total_progress_ge(k);
    // Sanity: the claim "stable" is true on the lattice.
    EXPECT_TRUE(brute_check_classes(chk, *p).stable);
    for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
      DetectResult fast = detect_stable(c, *p, op);
      EXPECT_EQ(fast.verdict, chk.detect(op, *p).verdict)
          << to_string(op) << " k=" << k;
      EXPECT_LE(fast.stats.predicate_evals, 1u);  // truly trivial
    }
  }
}

TEST_P(StableProperty, TerminatedViaDispatch) {
  Computation c = comp(GetParam() + 30);
  auto t = make_terminated();
  EXPECT_EQ(detect(c, Op::kEF, t).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kAF, t).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kEG, t).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kAG, t).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kEF, t).algorithm, "stable-final");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StableProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

class OiProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OiProperty, SingleObservationDecidesEfAndAf) {
  Computation c = comp(GetParam() + 60);
  LatticeChecker chk(c);
  Rng rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    // Disjunctive predicates are the canonical OI family.
    std::vector<LocalPredicatePtr> ls;
    for (int i = 0; i < 2; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    auto p = make_disjunctive(std::move(ls));
    DetectResult fast = detect_ef_observer_independent(c, *p);
    EXPECT_EQ(fast.verdict, chk.detect(Op::kEF, *p).verdict) << p->describe();
    EXPECT_EQ(fast.verdict, chk.detect(Op::kAF, *p).verdict) << p->describe();
    if (fast.verdict == Verdict::kHolds)
      EXPECT_TRUE(p->eval(c, *fast.witness_cut));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OiProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// Regression: an aborted search must come back kUnknown, never a definite
// verdict. In particular ag-dfs = ¬ef-dfs(¬p) used to read an aborted inner
// search as "EF(¬p) is false" and answer AG(p) = true — a wrong definite
// verdict. Kleene negation keeps kUnknown unknown.
TEST(BudgetBounds, AbortIsReportedNotMisanswered) {
  Computation c = generate_independent(4, 4);  // 625 cuts
  Budget tight;
  tight.max_states = 10;
  // A predicate that is true only at the final cut, so the search must
  // exhaust the space — and hits the cap instead.
  auto p = make_asserted(
      [](const Computation& cc, const Cut& g) { return g == cc.final_cut(); },
      0, "only-final");
  DetectResult r = detect_ef_dfs(c, *p, tight);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.bound, BoundReason::kStateCap);
  EXPECT_FALSE(r.definite());

  // The deterministic heart of the regression: ag-dfs over the aborted
  // inner EF(¬(¬p)) search reports kUnknown with the same bound — not true.
  DetectResult ag = detect_ag_dfs(c, *make_not(p), tight);
  EXPECT_EQ(ag.verdict, Verdict::kUnknown);
  EXPECT_EQ(ag.bound, BoundReason::kStateCap);

  // With the default (unlimited-enough) budget both are definite and agree
  // with ground truth: the final cut is reachable, so EF(p) holds and
  // AG(!p) fails.
  DetectResult full = detect_ef_dfs(c, *p);
  EXPECT_EQ(full.verdict, Verdict::kHolds);
  EXPECT_EQ(full.bound, BoundReason::kNone);
  DetectResult ag_full = detect_ag_dfs(c, *make_not(p));
  EXPECT_EQ(ag_full.verdict, Verdict::kFails);
  EXPECT_EQ(ag_full.bound, BoundReason::kNone);
}

TEST(SearchDetectors, WitnessPathsAreValid) {
  Computation c = comp(123);
  auto p = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() >= 6; }, 0,
      "probe");
  DetectResult r = detect_ef_dfs(c, *p);
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  ASSERT_FALSE(r.witness_path.empty());
  EXPECT_EQ(r.witness_path.front(), c.initial_cut());
  EXPECT_TRUE(p->eval(c, r.witness_path.back()));
  for (std::size_t i = 0; i + 1 < r.witness_path.size(); ++i) {
    EXPECT_TRUE(r.witness_path[i].subset_of(r.witness_path[i + 1]));
    EXPECT_EQ(r.witness_path[i + 1].total(), r.witness_path[i].total() + 1);
    EXPECT_TRUE(c.is_consistent(r.witness_path[i]));
  }
}

TEST(Dispatch, PicksExpectedAlgorithms) {
  Computation c = comp(7);
  auto conj = make_and(PredicatePtr(var_cmp(0, "v0", Cmp::kLe, 3)),
                       PredicatePtr(var_cmp(1, "v0", Cmp::kLe, 3)));
  EXPECT_EQ(detect(c, Op::kEF, conj).algorithm, "gw-weak-conjunctive");
  EXPECT_EQ(detect(c, Op::kAF, conj).algorithm, "gw-strong-conjunctive");
  EXPECT_EQ(detect(c, Op::kEG, conj).algorithm, "eg-conjunctive-scan");
  EXPECT_EQ(detect(c, Op::kAG, conj).algorithm, "ag-conjunctive-scan");

  auto lin = make_and(conj, all_channels_empty());
  EXPECT_EQ(detect(c, Op::kEG, lin).algorithm, "A1-eg-linear");
  EXPECT_EQ(detect(c, Op::kAG, lin).algorithm, "A2-ag-linear");
  EXPECT_EQ(detect(c, Op::kEF, lin).algorithm, "chase-garg-ef");

  auto disj = make_or(PredicatePtr(var_cmp(0, "v0", Cmp::kLe, 3)),
                      PredicatePtr(var_cmp(1, "v0", Cmp::kLe, 3)));
  EXPECT_NE(detect(c, Op::kEG, disj).algorithm.find("eg-disjunctive"),
            std::string::npos);

  auto arb = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() % 2 == 0; }, 0,
      "parity");
  EXPECT_EQ(detect(c, Op::kEG, arb).algorithm, "eg-dfs");

  auto until_q = all_channels_empty();
  EXPECT_EQ(detect(c, Op::kEU, conj, until_q).algorithm, "A3-eu");
  EXPECT_NE(detect(c, Op::kAU, disj, disj).algorithm.find("au-disjunctive"),
            std::string::npos);
}

}  // namespace
}  // namespace hbct
