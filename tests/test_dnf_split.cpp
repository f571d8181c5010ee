// Distributive-law dispatch: EF over disjunctions, AG over conjunctions,
// EU over disjunctive second operands — DNF/CNF shapes stay polynomial.
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/rng.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = seed;
  return generate_random(opt);
}

/// DNF over per-process comparisons: OR of conjunctive terms. Such a
/// predicate has no tracked class (Or of conjunctions), so without the
/// split it would hit the DFS fallback.
PredicatePtr random_dnf(Rng& rng, std::int32_t procs, std::size_t terms) {
  std::vector<PredicatePtr> parts;
  for (std::size_t t = 0; t < terms; ++t) {
    std::vector<LocalPredicatePtr> ls;
    const std::size_t m = 1 + rng.next_below(2);
    for (std::size_t i = 0; i < m; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(procs)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    parts.push_back(make_conjunctive(std::move(ls)));
  }
  return make_or(std::move(parts));
}

class DnfSplit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnfSplit, EfOverDnfMatchesBruteWithoutSearch) {
  Computation c = comp(GetParam());
  LatticeChecker chk(c);
  Rng rng(GetParam() * 7 + 1);
  for (int round = 0; round < 5; ++round) {
    PredicatePtr p = random_dnf(rng, 3, 2 + rng.next_below(2));
    if (!p->disjuncts().empty()) {
      DetectResult r = detect(c, Op::kEF, p);
      EXPECT_EQ(r.verdict, chk.detect(Op::kEF, *p).verdict) << p->describe();
      // Either the distributive split, or — when the DNF happens to hold
      // at the initial cut — the even cheaper observer-independent scan.
      EXPECT_TRUE(r.algorithm == "ef-or-split" ||
                  r.algorithm == "oi-single-observation")
          << r.algorithm;
      if (r.verdict == Verdict::kHolds) EXPECT_TRUE(p->eval(c, *r.witness_cut));
    } else {
      // All terms merged into one disjunctive predicate (all locals):
      // handled by the disjunctive scan; still check the verdict.
      EXPECT_EQ(detect(c, Op::kEF, p).verdict, chk.detect(Op::kEF, *p).verdict);
    }
  }
}

TEST_P(DnfSplit, AgOverCnfMatchesBrute) {
  Computation c = comp(GetParam() + 30);
  LatticeChecker chk(c);
  Rng rng(GetParam() * 11 + 3);
  for (int round = 0; round < 5; ++round) {
    // CNF: AND of disjunctive clauses — Or-of-locals under And.
    std::vector<PredicatePtr> clauses;
    const std::size_t k = 2 + rng.next_below(2);
    for (std::size_t t = 0; t < k; ++t) {
      std::vector<LocalPredicatePtr> ls;
      for (int i = 0; i < 2; ++i)
        ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                             rng.next_bool() ? "v0" : "v1",
                             static_cast<Cmp>(rng.next_below(6)),
                             rng.next_in(0, 5)));
      clauses.push_back(make_disjunctive(std::move(ls)));
    }
    // Mix in a channel bound so the conjunction cannot collapse into one
    // conjunctive predicate.
    clauses.push_back(channel_bound_le(0, 1, 2));
    PredicatePtr p = make_and(std::move(clauses));
    DetectResult r = detect(c, Op::kAG, p);
    EXPECT_EQ(r.verdict, chk.detect(Op::kAG, *p).verdict) << p->describe();
    if (r.verdict == Verdict::kFails) {
      ASSERT_TRUE(r.witness_cut.has_value());
      EXPECT_FALSE(p->eval(c, *r.witness_cut));
    }
  }
}

TEST_P(DnfSplit, EuOverDisjunctiveQMatchesBrute) {
  Computation c = comp(GetParam() + 60);
  LatticeChecker chk(c);
  Rng rng(GetParam() * 13 + 5);
  for (int round = 0; round < 4; ++round) {
    auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 8),
                               var_cmp(1, "v1", Cmp::kLe, 8)});
    // q = channels_empty ∨ conjunctive-term: an Or of two linear parts —
    // not linear itself, but each disjunct is.
    std::vector<LocalPredicatePtr> term;
    term.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    term.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 5)));
    PredicatePtr q = make_or(PredicatePtr(all_channels_empty()),
                             PredicatePtr(make_conjunctive(std::move(term))));
    ASSERT_FALSE(q->disjuncts().empty());
    DetectResult r = detect(c, Op::kEU, PredicatePtr(p), q);
    EXPECT_EQ(r.verdict, chk.detect(Op::kEU, *p, q.get()).verdict)
        << q->describe();
    EXPECT_EQ(r.algorithm, "eu-or-split(A3)");
    if (r.verdict == Verdict::kHolds) {
      EXPECT_TRUE(q->eval(c, *r.witness_cut));
      for (std::size_t i = 0; i + 1 < r.witness_path.size(); ++i)
        EXPECT_TRUE(p->eval(c, r.witness_path[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnfSplit,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(DnfSplit, SplitAvoidsExponentialFallback) {
  // With allow_exponential = false, the split paths must still answer.
  Computation c = comp(99);
  DispatchOptions opt;
  opt.allow_exponential = false;
  // progress_ge conjuncts are false at the initial cut, so the predicate is
  // not accidentally observer-independent (which would dispatch earlier).
  auto t1 = make_conjunctive({progress_ge(0, 1), progress_ge(1, 1)});
  auto t2 = make_conjunctive({progress_ge(2, 1), progress_ge(0, 2)});
  PredicatePtr dnf = make_or(PredicatePtr(t1), PredicatePtr(t2));
  DetectResult r = detect(c, Op::kEF, dnf, nullptr, opt);
  EXPECT_EQ(r.algorithm, "ef-or-split");
  PredicatePtr cnf = make_and(dnf->negate(), channel_bound_le(0, 1, 5));
  DetectResult r2 = detect(c, Op::kAG, cnf, nullptr, opt);
  EXPECT_EQ(r2.algorithm, "ag-and-split");
}

}  // namespace
}  // namespace hbct
