// Tests for the hardness machinery: CNF/DNF evaluation, DPLL, and the
// Theorem 5 / Theorem 6 reduction gadgets.
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "detect/stable_oi.h"
#include "reduction/cnf.h"
#include "reduction/dpll.h"
#include "reduction/npc_reduction.h"
#include "util/rng.h"

#include "oracle.h"

namespace hbct {
namespace {

/// Exhaustive SAT for cross-checking DPLL on small formulas.
bool brute_sat(const Cnf& f) {
  const std::int32_t m = f.num_vars;
  for (std::uint32_t bits = 0; bits < (1u << m); ++bits) {
    std::vector<bool> a(static_cast<std::size_t>(m));
    for (std::int32_t v = 0; v < m; ++v) a[v] = (bits >> v) & 1;
    if (f.eval(a)) return true;
  }
  return false;
}

bool brute_taut(const Dnf& f) {
  const std::int32_t m = f.num_vars;
  for (std::uint32_t bits = 0; bits < (1u << m); ++bits) {
    std::vector<bool> a(static_cast<std::size_t>(m));
    for (std::int32_t v = 0; v < m; ++v) a[v] = (bits >> v) & 1;
    if (!f.eval(a)) return false;
  }
  return true;
}

TEST(Cnf, EvalAndPrint) {
  // (x0 | !x1) & (x1)
  Cnf f;
  f.num_vars = 2;
  f.clauses = {{{{0, false}, {1, true}}}, {{{1, false}}}};
  EXPECT_TRUE(f.eval({true, true}));
  EXPECT_FALSE(f.eval({false, true}));
  EXPECT_FALSE(f.eval({true, false}));  // second clause fails
  EXPECT_EQ(f.to_string(), "(x0 | !x1) & (x1)");
}

TEST(Dnf, EvalNegationAndPrint) {
  // (x0 & !x1) | (x1)
  Dnf f;
  f.num_vars = 2;
  f.terms = {{{{0, false}, {1, true}}}, {{{1, false}}}};
  EXPECT_TRUE(f.eval({true, false}));
  EXPECT_TRUE(f.eval({false, true}));
  EXPECT_FALSE(f.eval({false, false}));
  EXPECT_EQ(f.to_string(), "(x0 & !x1) | (x1)");
  // ¬f as CNF evaluates oppositely everywhere.
  Cnf n = f.negation_cnf();
  for (bool a : {false, true})
    for (bool b : {false, true})
      EXPECT_NE(f.eval({a, b}), n.eval({a, b}));
}

class DpllProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpllProperty, MatchesExhaustiveSearch) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    const std::int32_t m = 2 + static_cast<std::int32_t>(rng.next_below(6));
    const std::int32_t clauses =
        1 + static_cast<std::int32_t>(rng.next_below(12));
    const std::int32_t k =
        1 + static_cast<std::int32_t>(rng.next_below(std::min(m, 3)));
    Cnf f = Cnf::random(m, clauses, k, rng);
    auto model = dpll_solve(f);
    EXPECT_EQ(model.has_value(), brute_sat(f)) << f.to_string();
    if (model) EXPECT_TRUE(f.eval(*model)) << f.to_string();
  }
}

TEST_P(DpllProperty, DnfTautologyMatchesExhaustive) {
  Rng rng(GetParam() + 500);
  for (int round = 0; round < 30; ++round) {
    const std::int32_t m = 2 + static_cast<std::int32_t>(rng.next_below(4));
    const std::int32_t terms =
        1 + static_cast<std::int32_t>(rng.next_below(14));
    Dnf f = Dnf::random(m, terms, 1 + static_cast<std::int32_t>(rng.next_below(2)), rng);
    EXPECT_EQ(dnf_tautology(f), brute_taut(f)) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpllProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(Dpll, EmptyClauseUnsat) {
  Cnf f;
  f.num_vars = 1;
  f.clauses = {{}};
  EXPECT_FALSE(dpll_solve(f).has_value());
}

TEST(Dpll, NoClausesIsSat) {
  Cnf f;
  f.num_vars = 3;
  EXPECT_TRUE(dpll_solve(f).has_value());
}

// ---- The Fig. 3 gadgets -------------------------------------------------------

class NpcReduction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NpcReduction, EgDetectionEquivalentToSat) {
  Rng rng(GetParam() * 3 + 1);
  for (int round = 0; round < 10; ++round) {
    const std::int32_t m = 2 + static_cast<std::int32_t>(rng.next_below(5));
    Cnf f = Cnf::random(m, 2 + static_cast<std::int32_t>(rng.next_below(8)),
                        std::min<std::int32_t>(m, 2), rng);
    Reduction r = reduce_sat_to_eg(f);
    r.computation.validate();
    EXPECT_EQ(r.computation.num_procs(), m + 1);
    EXPECT_EQ(r.computation.total_events(), m + 2);

    EXPECT_EQ(detect_eg_dfs(r.computation, *r.predicate).verdict,
              verdict_of(dpll_solve(f).has_value()))
        << f.to_string();
  }
}

TEST_P(NpcReduction, AgDetectionEquivalentToTautology) {
  Rng rng(GetParam() * 5 + 2);
  for (int round = 0; round < 10; ++round) {
    const std::int32_t m = 2 + static_cast<std::int32_t>(rng.next_below(4));
    Dnf f = Dnf::random(m, 1 + static_cast<std::int32_t>(rng.next_below(12)),
                        1 + static_cast<std::int32_t>(rng.next_below(2)), rng);
    Reduction r = reduce_tautology_to_ag(f);
    r.computation.validate();
    EXPECT_EQ(detect_ag_dfs(r.computation, *r.predicate).verdict,
              verdict_of(dnf_tautology(f)))
        << f.to_string();
  }
}

TEST_P(NpcReduction, GadgetPredicateIsObserverIndependent) {
  Rng rng(GetParam() * 7 + 3);
  const std::int32_t m = 3;
  Cnf f = Cnf::random(m, 4, 2, rng);
  Reduction r = reduce_sat_to_eg(f);
  // Holds initially (x_{m+1} = true) => observer-independent, both by the
  // class computation and by ground truth on the explicit lattice.
  EXPECT_TRUE(r.predicate->eval(r.computation, r.computation.initial_cut()));
  EXPECT_NE(effective_classes(*r.predicate, r.computation) &
                kClassObserverIndependent,
            0u);
  LatticeChecker chk(r.computation);
  EXPECT_TRUE(brute_check_classes(chk, *r.predicate).observer_independent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NpcReduction,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(NpcReduction, UnsatExplodesSearchSpaceButStaysCorrect) {
  // x0 & !x0 padded with extra vars: UNSAT; the EG search must visit the
  // whole assignment hypercube and still answer false.
  Cnf f;
  f.num_vars = 8;
  f.clauses = {{{{0, false}}}, {{{0, true}}}};
  Reduction r = reduce_sat_to_eg(f);
  DetectResult d = detect_eg_dfs(r.computation, *r.predicate);
  EXPECT_EQ(d.verdict, Verdict::kFails);
  EXPECT_GT(d.stats.cut_steps, 1u << 8);  // exponential region explored
}

}  // namespace
}  // namespace hbct
