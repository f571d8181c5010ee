// The core correctness suite: every polynomial detection algorithm is
// validated against the explicit-lattice CTL model checker on hundreds of
// random computations and predicates. This is where Theorems 2, 7 and the
// GW constructions earn their keep.
#include <gtest/gtest.h>

#include "detect/ag_linear.h"
#include "detect/brute_force.h"
#include "detect/conjunctive_gw.h"
#include "detect/disjunctive.h"
#include "detect/dispatch.h"
#include "detect/ef_linear.h"
#include "detect/eg_linear.h"
#include "detect/stable_oi.h"
#include "detect/until.h"
#include "poset/generate.h"
#include "util/rng.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"

namespace hbct {
namespace {

Computation random_comp(std::uint64_t seed, std::int32_t procs = 3,
                        std::int32_t events = 4) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.p_recv = 0.35;
  opt.value_lo = 0;
  opt.value_hi = 5;
  opt.seed = seed;
  return generate_random(opt);
}

/// Random local predicate over v0/v1 with a threshold chosen to be
/// sometimes-true-sometimes-false at the generator's value range.
LocalPredicatePtr random_local(Rng& rng, std::int32_t procs) {
  const ProcId p = static_cast<ProcId>(rng.next_below(procs));
  const char* var = rng.next_bool() ? "v0" : "v1";
  const Cmp op = static_cast<Cmp>(rng.next_below(6));
  const std::int64_t k = rng.next_in(0, 5);
  return var_cmp(p, var, op, k);
}

ConjunctivePredicatePtr random_conjunctive(Rng& rng, std::int32_t procs) {
  std::vector<LocalPredicatePtr> ls;
  const std::size_t m = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i) ls.push_back(random_local(rng, procs));
  return make_conjunctive(std::move(ls));
}

DisjunctivePredicatePtr random_disjunctive(Rng& rng, std::int32_t procs) {
  std::vector<LocalPredicatePtr> ls;
  const std::size_t m = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i) ls.push_back(random_local(rng, procs));
  return make_disjunctive(std::move(ls));
}

/// Random linear predicate: conjunctive, channel bound, or a conjunction of
/// the two (And of linear is linear).
PredicatePtr random_linear(Rng& rng, std::int32_t procs) {
  switch (rng.next_below(4)) {
    case 0:
      return random_conjunctive(rng, procs);
    case 1:
      return channel_bound_le(
          static_cast<ProcId>(rng.next_below(procs)),
          static_cast<ProcId>(rng.next_below(procs)),
          static_cast<std::int32_t>(rng.next_below(2)));
    case 2:
      return all_channels_empty();
    default:
      return make_and(PredicatePtr(random_conjunctive(rng, procs)),
                      all_channels_empty());
  }
}

class DetectProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectProperty, EfLinearMatchesBruteAndIsLeast) {
  Rng rng(GetParam() * 7 + 1);
  Computation c = random_comp(GetParam());
  LatticeChecker chk(c);
  for (int round = 0; round < 5; ++round) {
    PredicatePtr p = random_linear(rng, c.num_procs());
    ASSERT_NE(effective_classes(*p, c) & kClassLinear, 0u);
    DetectResult fast = detect_ef_linear(c, *p);
    DetectResult slow = chk.detect(Op::kEF, *p);
    ASSERT_EQ(fast.verdict, slow.verdict) << p->describe();
    if (fast.verdict == Verdict::kHolds) {
      const Cut& iq = *fast.witness_cut;
      EXPECT_TRUE(p->eval(c, iq));
      // Minimality: every satisfying lattice cut contains I_p.
      const auto labels = chk.label(*p);
      for (NodeId v = 0; v < chk.lattice().size(); ++v)
        if (labels[v]) EXPECT_TRUE(iq.subset_of(chk.lattice().cut(v)));
    }
  }
}

TEST_P(DetectProperty, EfPostLinearMatchesBruteAndIsGreatest) {
  Rng rng(GetParam() * 13 + 5);
  Computation c = random_comp(GetParam() + 50);
  LatticeChecker chk(c);
  for (int round = 0; round < 5; ++round) {
    // Post-linear: channel >= bounds, conjunctive (regular), sums >= k of
    // non-decreasing vars are not guaranteed here, so stick to regular ones.
    PredicatePtr p =
        round % 2 ? PredicatePtr(random_conjunctive(rng, c.num_procs()))
                  : channel_bound_ge(
                        static_cast<ProcId>(rng.next_below(c.num_procs())),
                        static_cast<ProcId>(rng.next_below(c.num_procs())),
                        1);
    ASSERT_NE(effective_classes(*p, c) & kClassPostLinear, 0u);
    DetectResult fast = detect_ef_post_linear(c, *p);
    DetectResult slow = chk.detect(Op::kEF, *p);
    ASSERT_EQ(fast.verdict, slow.verdict) << p->describe();
    if (fast.verdict == Verdict::kHolds) {
      const Cut& gp = *fast.witness_cut;
      EXPECT_TRUE(p->eval(c, gp));
      const auto labels = chk.label(*p);
      for (NodeId v = 0; v < chk.lattice().size(); ++v)
        if (labels[v]) EXPECT_TRUE(chk.lattice().cut(v).subset_of(gp));
    }
  }
}

TEST_P(DetectProperty, EgA1MatchesBruteWithValidWitness) {
  Rng rng(GetParam() * 31 + 2);
  Computation c = random_comp(GetParam() + 100);
  LatticeChecker chk(c);
  for (int round = 0; round < 5; ++round) {
    PredicatePtr p = random_linear(rng, c.num_procs());
    DetectResult fast = detect_eg_linear(c, *p);
    DetectResult slow = chk.detect(Op::kEG, *p);
    ASSERT_EQ(fast.verdict, slow.verdict) << p->describe();
    if (fast.verdict == Verdict::kHolds) {
      // The witness is a full maximal cut sequence satisfying p throughout.
      const auto& path = fast.witness_path;
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), c.initial_cut());
      EXPECT_EQ(path.back(), c.final_cut());
      for (std::size_t i = 0; i < path.size(); ++i) {
        EXPECT_TRUE(p->eval(c, path[i]));
        if (i) EXPECT_EQ(path[i].total(), path[i - 1].total() + 1);
      }
    }
  }
}

TEST_P(DetectProperty, A1ChoicePolicyIsIrrelevant) {
  // Theorem 2: any satisfying predecessor works. The greedy and the
  // randomized policies must agree (with each other and the oracle) on
  // every input, across several random choice seeds.
  Rng rng(GetParam() * 29 + 4);
  Computation c = random_comp(GetParam() + 700);
  LatticeChecker chk(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr p = random_linear(rng, c.num_procs());
    const Verdict expected = chk.detect(Op::kEG, *p).verdict;
    EXPECT_EQ(detect_eg_linear(c, *p).verdict, expected) << p->describe();
    for (std::uint64_t cs = 1; cs <= 3; ++cs) {
      DetectResult r = detect_eg_linear_randomized(c, *p, cs);
      EXPECT_EQ(r.verdict, expected) << p->describe() << " seed " << cs;
      if (r.verdict == Verdict::kHolds) {
        for (const Cut& g : r.witness_path) EXPECT_TRUE(p->eval(c, g));
      }
    }
  }
}

TEST_P(DetectProperty, AgA2MatchesBruteWithViolatingWitness) {
  Rng rng(GetParam() * 17 + 3);
  Computation c = random_comp(GetParam() + 150);
  LatticeChecker chk(c);
  for (int round = 0; round < 5; ++round) {
    PredicatePtr p = random_linear(rng, c.num_procs());
    DetectResult fast = detect_ag_linear(c, *p);
    DetectResult slow = chk.detect(Op::kAG, *p);
    ASSERT_EQ(fast.verdict, slow.verdict) << p->describe();
    if (fast.verdict == Verdict::kFails) {
      ASSERT_TRUE(fast.witness_cut.has_value());
      EXPECT_TRUE(c.is_consistent(*fast.witness_cut));
      EXPECT_FALSE(p->eval(c, *fast.witness_cut));
    }
  }
}

TEST_P(DetectProperty, EgAgPostLinearDuals) {
  Rng rng(GetParam() * 23 + 9);
  Computation c = random_comp(GetParam() + 200);
  LatticeChecker chk(c);
  for (int round = 0; round < 4; ++round) {
    PredicatePtr p = PredicatePtr(random_conjunctive(rng, c.num_procs()));
    EXPECT_EQ(detect_eg_post_linear(c, *p).verdict,
              chk.detect(Op::kEG, *p).verdict);
    EXPECT_EQ(detect_ag_post_linear(c, *p).verdict,
              chk.detect(Op::kAG, *p).verdict);
  }
}

TEST_P(DetectProperty, ConjunctiveAllFourOperators) {
  Rng rng(GetParam() * 41 + 11);
  Computation c = random_comp(GetParam() + 250);
  LatticeChecker chk(c);
  for (int round = 0; round < 6; ++round) {
    auto p = random_conjunctive(rng, c.num_procs());
    EXPECT_EQ(detect_ef_conjunctive(c, *p).verdict,
              chk.detect(Op::kEF, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_af_conjunctive(c, *p).verdict,
              chk.detect(Op::kAF, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_eg_conjunctive(c, *p).verdict,
              chk.detect(Op::kEG, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_ag_conjunctive(c, *p).verdict,
              chk.detect(Op::kAG, *p).verdict)
        << p->describe();
  }
}

TEST_P(DetectProperty, ConjunctiveWeakEfAgreesWithChaseGarg) {
  Rng rng(GetParam() * 43 + 13);
  Computation c = random_comp(GetParam() + 300);
  for (int round = 0; round < 6; ++round) {
    auto p = random_conjunctive(rng, c.num_procs());
    DetectResult gw = detect_ef_conjunctive(c, *p);
    DetectResult cg = detect_ef_linear(c, *p);
    ASSERT_TRUE(cg.definite());
    ASSERT_EQ(gw.verdict, cg.verdict);
    if (gw.verdict == Verdict::kHolds)
      EXPECT_EQ(*gw.witness_cut, *cg.witness_cut);
  }
}

TEST_P(DetectProperty, DisjunctiveAllFourOperators) {
  Rng rng(GetParam() * 47 + 17);
  Computation c = random_comp(GetParam() + 350);
  LatticeChecker chk(c);
  for (int round = 0; round < 6; ++round) {
    auto p = random_disjunctive(rng, c.num_procs());
    EXPECT_EQ(detect_ef_disjunctive(c, *p).verdict,
              chk.detect(Op::kEF, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_af_disjunctive(c, *p).verdict,
              chk.detect(Op::kAF, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_eg_disjunctive(c, *p).verdict,
              chk.detect(Op::kEG, *p).verdict)
        << p->describe();
    EXPECT_EQ(detect_ag_disjunctive(c, *p).verdict,
              chk.detect(Op::kAG, *p).verdict)
        << p->describe();
  }
}

TEST_P(DetectProperty, UntilA3MatchesBrute) {
  Rng rng(GetParam() * 53 + 19);
  Computation c = random_comp(GetParam() + 400);
  LatticeChecker chk(c);
  for (int round = 0; round < 6; ++round) {
    auto p = random_conjunctive(rng, c.num_procs());
    PredicatePtr q = random_linear(rng, c.num_procs());
    DetectResult fast = detect_eu(c, *p, *q);
    DetectResult slow = chk.detect(Op::kEU, *p, q.get());
    ASSERT_EQ(fast.verdict, slow.verdict)
        << "p = " << p->describe() << "  q = " << q->describe();
    if (fast.verdict == Verdict::kHolds) {
      // Validate the witness prefix: consecutive covers, p before the end,
      // q at the end (which is I_q by Theorem 7).
      const auto& path = fast.witness_path;
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), c.initial_cut());
      EXPECT_TRUE(q->eval(c, path.back()));
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(p->eval(c, path[i]));
        EXPECT_EQ(path[i + 1].total(), path[i].total() + 1);
        EXPECT_TRUE(path[i].subset_of(path[i + 1]));
      }
    }
  }
}

TEST_P(DetectProperty, AuDisjunctiveMatchesBrute) {
  Rng rng(GetParam() * 59 + 23);
  Computation c = random_comp(GetParam() + 450);
  LatticeChecker chk(c);
  for (int round = 0; round < 6; ++round) {
    auto p = random_disjunctive(rng, c.num_procs());
    auto q = random_disjunctive(rng, c.num_procs());
    DetectResult fast = detect_au_disjunctive(c, *p, *q);
    DetectResult slow = chk.detect(Op::kAU, *p, q.get());
    ASSERT_EQ(fast.verdict, slow.verdict)
        << "p = " << p->describe() << "  q = " << q->describe();
  }
}

TEST_P(DetectProperty, DfsDetectorsMatchBruteOnArbitraryPredicates) {
  Rng rng(GetParam() * 61 + 29);
  Computation c = random_comp(GetParam() + 500);
  LatticeChecker chk(c);
  for (int round = 0; round < 3; ++round) {
    // Deliberately structureless: parity of total events + variable probe.
    const std::int64_t k = rng.next_in(0, 5);
    const ProcId pr = static_cast<ProcId>(rng.next_below(c.num_procs()));
    auto p = make_asserted(
        [k, pr](const Computation& cc, const Cut& g) {
          return (g.total() % 2 == k % 2) ||
                 cc.value_in(pr, 0, g) > k;
        },
        0, "arbitrary-probe");
    EXPECT_EQ(detect_ef_dfs(c, *p).verdict, chk.detect(Op::kEF, *p).verdict);
    EXPECT_EQ(detect_af_dfs(c, *p).verdict, chk.detect(Op::kAF, *p).verdict);
    EXPECT_EQ(detect_eg_dfs(c, *p).verdict, chk.detect(Op::kEG, *p).verdict);
    EXPECT_EQ(detect_ag_dfs(c, *p).verdict, chk.detect(Op::kAG, *p).verdict);
  }
}

TEST_P(DetectProperty, EuAuDfsMatchBrute) {
  Rng rng(GetParam() * 67 + 31);
  Computation c = random_comp(GetParam() + 550);
  LatticeChecker chk(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr p = random_linear(rng, c.num_procs());
    PredicatePtr q = PredicatePtr(random_disjunctive(rng, c.num_procs()));
    EXPECT_EQ(detect_eu_dfs(c, *p, *q).verdict,
              chk.detect(Op::kEU, *p, q.get()).verdict);
    EXPECT_EQ(detect_au_dfs(c, p, q).verdict,
              chk.detect(Op::kAU, *p, q.get()).verdict);
  }
}

TEST_P(DetectProperty, DispatchAgreesWithBruteOnEverything) {
  Rng rng(GetParam() * 71 + 37);
  Computation c = random_comp(GetParam() + 600);
  LatticeChecker chk(c);
  for (int round = 0; round < 4; ++round) {
    std::vector<PredicatePtr> preds = {
        PredicatePtr(random_conjunctive(rng, c.num_procs())),
        PredicatePtr(random_disjunctive(rng, c.num_procs())),
        random_linear(rng, c.num_procs()), make_terminated()};
    for (const auto& p : preds) {
      for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
        EXPECT_EQ(detect(c, op, p).verdict, chk.detect(op, *p).verdict)
            << to_string(op) << " " << p->describe();
      }
    }
    PredicatePtr up = PredicatePtr(random_conjunctive(rng, c.num_procs()));
    PredicatePtr uq = random_linear(rng, c.num_procs());
    EXPECT_EQ(detect(c, Op::kEU, up, uq).verdict,
              chk.detect(Op::kEU, *up, uq.get()).verdict);
    PredicatePtr ap = PredicatePtr(random_disjunctive(rng, c.num_procs()));
    PredicatePtr aq = PredicatePtr(random_disjunctive(rng, c.num_procs()));
    EXPECT_EQ(detect(c, Op::kAU, ap, aq).verdict,
              chk.detect(Op::kAU, *ap, aq.get()).verdict);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectProperty,
                         ::testing::Range<std::uint64_t>(1, 81));

// Wider/narrower shapes at a few seeds to stress different topologies.
class DetectShapes
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int32_t>> {
};

TEST_P(DetectShapes, DispatchMatchesBruteAcrossShapes) {
  auto [procs, events] = GetParam();
  Rng rng(static_cast<std::uint64_t>(procs) * 1000 + events);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Computation c = random_comp(seed * 77, procs, events);
    LatticeChecker chk(c);
    PredicatePtr p = PredicatePtr(random_conjunctive(rng, procs));
    PredicatePtr d = PredicatePtr(random_disjunctive(rng, procs));
    for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
      EXPECT_EQ(detect(c, op, p).verdict, chk.detect(op, *p).verdict);
      EXPECT_EQ(detect(c, op, d).verdict, chk.detect(op, *d).verdict);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DetectShapes,
    ::testing::Values(std::make_tuple(1, 8), std::make_tuple(2, 8),
                      std::make_tuple(4, 3), std::make_tuple(5, 2),
                      std::make_tuple(2, 12)));

}  // namespace
}  // namespace hbct
