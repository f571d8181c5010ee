// The distributive split routes against the explicit-lattice oracle. The
// dispatcher's splits (ef-or-split, ag-and-split, eu-or-split) and the AU
// refuters evaluate their branches one by one through the first-match loop
// (detect/first_match.h); each verdict here must equal the oracle's, and a
// second run with the inert DispatchOptions::parallelism field set must be
// bit-identical: verdict, chosen algorithm, witness cut, witness path and
// operation counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "detect/until.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"
#include "util/rng.h"

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

PredicatePtr random_linear(Rng& rng, std::int32_t procs) {
  switch (rng.next_below(4)) {
    case 0:
      return random_conjunctive(rng, procs);
    case 1:
      return channel_bound_le(static_cast<ProcId>(rng.next_below(procs)),
                              static_cast<ProcId>(rng.next_below(procs)),
                              static_cast<std::int32_t>(rng.next_below(2)));
    case 2:
      return all_channels_empty();
    default:
      return make_and(PredicatePtr(random_conjunctive(rng, procs)),
                      all_channels_empty());
  }
}

/// Or-of-conjunctives: routes through the dispatcher's ef-or-split (and the
/// eu-or-split when used as an until target).
PredicatePtr random_dnf(Rng& rng, std::int32_t procs) {
  std::vector<PredicatePtr> ds;
  const std::size_t m = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i)
    ds.push_back(PredicatePtr(random_conjunctive(rng, procs)));
  return make_or(std::move(ds));
}

/// And-of-disjunctives: routes through the dispatcher's ag-and-split.
PredicatePtr random_cnf(Rng& rng, std::int32_t procs) {
  std::vector<PredicatePtr> cs;
  const std::size_t m = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i)
    cs.push_back(PredicatePtr(random_disjunctive(rng, procs)));
  return make_and(std::move(cs));
}

void expect_identical(const DetectResult& seq, const DetectResult& par,
                      const std::string& what) {
  EXPECT_EQ(seq.verdict, par.verdict) << what;
  EXPECT_EQ(seq.bound, par.bound) << what;
  EXPECT_EQ(seq.algorithm, par.algorithm) << what;
  EXPECT_EQ(seq.witness_cut, par.witness_cut) << what;
  EXPECT_EQ(seq.witness_path, par.witness_path) << what;
  EXPECT_EQ(seq.stats.predicate_evals, par.stats.predicate_evals) << what;
  EXPECT_EQ(seq.stats.cut_steps, par.stats.cut_steps) << what;
  EXPECT_EQ(seq.stats.lattice_nodes, par.stats.lattice_nodes) << what;
  EXPECT_EQ(seq.stats.lattice_edges, par.stats.lattice_edges) << what;
}

std::string what(Op op, const PredicatePtr& p, const PredicatePtr& q) {
  return std::string(to_string(op)) + " " + p->describe() +
         (q ? " U " + q->describe() : std::string());
}

/// Runs detect() with default options, demands the oracle's verdict, then
/// reruns with the parallelism field set and demands a bit-identical result.
void check_route(const Computation& c, const LatticeChecker& oracle, Op op,
                 const PredicatePtr& p, const PredicatePtr& q = nullptr) {
  const DetectResult r = detect(c, op, p, q);
  EXPECT_TRUE(r.definite()) << what(op, p, q);
  EXPECT_EQ(r.verdict, oracle.detect(op, *p, q.get()).verdict)
      << what(op, p, q) << " via " << r.algorithm;
  DispatchOptions inert;
  inert.parallelism = 4;
  expect_identical(r, detect(c, op, p, q, inert), what(op, p, q));
}

class ParallelDetect : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDetect, OrSplitAllOperators) {
  Rng rng(GetParam() * 101 + 7);
  Computation c = random_comp(GetParam() + 900);
  const LatticeChecker oracle(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr dnf = random_dnf(rng, c.num_procs());
    for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG})
      check_route(c, oracle, op, dnf);
  }
}

TEST_P(ParallelDetect, AndSplitAllOperators) {
  Rng rng(GetParam() * 103 + 11);
  Computation c = random_comp(GetParam() + 950);
  const LatticeChecker oracle(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr cnf = random_cnf(rng, c.num_procs());
    for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG})
      check_route(c, oracle, op, cnf);
  }
}

TEST_P(ParallelDetect, UntilA3FrontierSweep) {
  Rng rng(GetParam() * 107 + 13);
  Computation c = random_comp(GetParam() + 1000);
  const LatticeChecker oracle(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr p = PredicatePtr(random_conjunctive(rng, c.num_procs()));
    PredicatePtr q = random_linear(rng, c.num_procs());
    check_route(c, oracle, Op::kEU, p, q);
  }
}

TEST_P(ParallelDetect, UntilOrSplitTarget) {
  Rng rng(GetParam() * 109 + 17);
  Computation c = random_comp(GetParam() + 1050);
  const LatticeChecker oracle(c);
  for (int round = 0; round < 2; ++round) {
    PredicatePtr p = PredicatePtr(random_conjunctive(rng, c.num_procs()));
    PredicatePtr q = random_dnf(rng, c.num_procs());
    check_route(c, oracle, Op::kEU, p, q);
  }
}

TEST_P(ParallelDetect, AuTwoRefuters) {
  Rng rng(GetParam() * 113 + 19);
  Computation c = random_comp(GetParam() + 1100);
  const LatticeChecker oracle(c);
  for (int round = 0; round < 3; ++round) {
    PredicatePtr p = PredicatePtr(random_disjunctive(rng, c.num_procs()));
    PredicatePtr q = PredicatePtr(random_disjunctive(rng, c.num_procs()));
    check_route(c, oracle, Op::kAU, p, q);
  }
}

TEST_P(ParallelDetect, SingleClassPredicatesUnaffected) {
  // Non-split paths: the dispatcher's pass-throughs to one algorithm.
  Rng rng(GetParam() * 127 + 23);
  Computation c = random_comp(GetParam() + 1150);
  const LatticeChecker oracle(c);
  PredicatePtr p = PredicatePtr(random_conjunctive(rng, c.num_procs()));
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG})
    check_route(c, oracle, op, p);
}

TEST_P(ParallelDetect, LatticeCheckerLabelAndClasses) {
  // A checker over an adopted lattice labels exactly like one that builds
  // its own, and the exhaustive class check confirms every class the
  // predicate claims on this computation.
  Rng rng(GetParam() * 131 + 29);
  Computation c = random_comp(GetParam() + 1200);
  const LatticeChecker built(c);
  const LatticeChecker adopted(Lattice::build(c));
  for (int round = 0; round < 3; ++round) {
    PredicatePtr p = rng.next_bool()
                         ? PredicatePtr(random_conjunctive(rng, c.num_procs()))
                         : PredicatePtr(random_disjunctive(rng, c.num_procs()));
    DetectStats st_built, st_adopted;
    EXPECT_EQ(built.label(*p, &st_built), adopted.label(*p, &st_adopted))
        << p->describe();
    EXPECT_EQ(st_built.predicate_evals, built.lattice().size());
    EXPECT_EQ(st_built.predicate_evals, st_adopted.predicate_evals);
    const BruteClassCheck a = brute_check_classes(built, *p);
    EXPECT_EQ(a.regular, a.linear && a.post_linear) << p->describe();
    const ClassSet claimed = p->classes(c);
    if (claimed & kClassLinear) EXPECT_TRUE(a.linear) << p->describe();
    if (claimed & kClassPostLinear) EXPECT_TRUE(a.post_linear) << p->describe();
    if (claimed & kClassRegular) EXPECT_TRUE(a.regular) << p->describe();
    if (claimed & kClassStable) EXPECT_TRUE(a.stable) << p->describe();
    if (claimed & kClassObserverIndependent)
      EXPECT_TRUE(a.observer_independent) << p->describe();
  }
}

TEST_P(ParallelDetect, BudgetedVerdictsAgreeAcrossWidths) {
  // A bounded run is sound (a definite verdict is the oracle's, kUnknown
  // names its bound) and as deterministic as a definite one: the inert
  // parallelism field changes nothing, including which BoundReason is
  // reported.
  Rng rng(GetParam() * 137 + 31);
  Computation c = random_comp(GetParam() + 1250);
  const LatticeChecker oracle(c);
  PredicatePtr dnf = random_dnf(rng, c.num_procs());
  PredicatePtr cnf = random_cnf(rng, c.num_procs());
  for (std::uint64_t w : {std::uint64_t{1}, std::uint64_t{10},
                          std::uint64_t{100}}) {
    for (Op op : {Op::kEF, Op::kAG}) {
      const PredicatePtr& p = op == Op::kEF ? dnf : cnf;
      const std::string where =
          what(op, p, nullptr) + " work=" + std::to_string(w);
      DispatchOptions seq_opt;
      seq_opt.budget.max_work = w;
      const DetectResult seq = detect(c, op, p, nullptr, seq_opt);
      if (seq.definite())
        EXPECT_EQ(seq.verdict, oracle.detect(op, *p).verdict) << where;
      else
        EXPECT_NE(seq.bound, BoundReason::kNone) << where;
      for (std::size_t par : {std::size_t{2}, std::size_t{4}}) {
        DispatchOptions par_opt = seq_opt;
        par_opt.parallelism = par;
        expect_identical(seq, detect(c, op, p, nullptr, par_opt),
                         where + " @ par=" + std::to_string(par));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDetect,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hbct
