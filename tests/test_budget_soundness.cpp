// Differential budget-soundness suite (see detect/budget.h for the
// contract): on seeded random computations, every operator is detected
// through the dispatcher under a ladder of work budgets and compared with
// the unbudgeted explicit-lattice oracle.
//
//   * definite verdicts (kHolds/kFails) under ANY budget must equal the
//     oracle — a budget may cost completeness, never soundness;
//   * kUnknown must carry a BoundReason, and definite verdicts must not;
//   * verdicts are monotone in the budget: once a detection is definite at
//     some rung, every larger rung is definite with the same verdict.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "poset/generate.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"
#include "util/rng.h"

namespace hbct {
namespace {

Computation random_comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
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

/// Opaque predicate in no detectable class and with no and/or structure:
/// forces the dispatcher onto the DFS fallbacks, the detectors most
/// sensitive to budgets.
PredicatePtr opaque_parity(std::uint64_t salt) {
  return make_asserted(
      [salt](const Computation&, const Cut& g) {
        return (static_cast<std::uint64_t>(g.total()) + salt) % 2 == 0;
      },
      0, "opaque-parity");
}

/// Work-budget ladder; nullopt = unlimited. The unlimited rung guarantees
/// the ladder always ends definite, so monotonicity is exercised on every
/// case, not only the cheap ones.
const std::optional<std::uint64_t> kLadder[] = {std::uint64_t{1},
                                                std::uint64_t{10},
                                                std::uint64_t{100},
                                                std::nullopt};

struct Case {
  Op op;
  PredicatePtr p;
  PredicatePtr q;  // null for the unary operators
};

void check_case(const Computation& c, const LatticeChecker& oracle,
                const Case& cs, const std::string& what) {
  const DetectResult truth =
      oracle.detect(cs.op, *cs.p, cs.q ? cs.q.get() : nullptr);
  ASSERT_TRUE(truth.definite()) << what;

  std::optional<Verdict> settled;  // verdict at the first definite rung
  for (const auto& rung : kLadder) {
    DispatchOptions opt;
    if (rung) opt.budget.max_work = *rung;
    const DetectResult r = detect(c, cs.op, cs.p, cs.q, opt);
    const std::string at =
        what + " budget=" + (rung ? std::to_string(*rung) : "inf");

    if (r.verdict == Verdict::kUnknown) {
      // kUnknown only ever appears with its reason attached...
      EXPECT_NE(r.bound, BoundReason::kNone) << at;
      // ...and never after a smaller budget already settled the case.
      EXPECT_FALSE(settled.has_value()) << at;
    } else {
      // Soundness: any definite verdict equals the unbudgeted oracle.
      EXPECT_EQ(r.bound, BoundReason::kNone) << at;
      EXPECT_EQ(r.verdict, truth.verdict) << at;
      if (settled) {
        EXPECT_EQ(r.verdict, *settled) << at;
      }
      settled = r.verdict;
    }
  }
  // The unlimited rung has no step bounds, so the ladder must end definite.
  EXPECT_TRUE(settled.has_value()) << what;
}

class BudgetSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetSoundness, DefiniteVerdictsMatchOracleAtEveryBudget) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  Computation c = random_comp(seed);
  LatticeChecker oracle(c);

  const std::int32_t n = c.num_procs();
  std::vector<Case> cases;
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
    cases.push_back({op, random_conjunctive(rng, n), nullptr});
    cases.push_back({op, random_disjunctive(rng, n), nullptr});
    cases.push_back({op, opaque_parity(seed), nullptr});  // DFS fallback
  }
  // EU: the A3 route (p conjunctive, q linear) and the DFS route.
  cases.push_back(
      {Op::kEU, random_conjunctive(rng, n), random_conjunctive(rng, n)});
  cases.push_back({Op::kEU, opaque_parity(seed), opaque_parity(seed + 1)});
  // AU: the disjunctive polynomial route and the DFS route.
  cases.push_back(
      {Op::kAU, random_disjunctive(rng, n), random_disjunctive(rng, n)});
  cases.push_back({Op::kAU, opaque_parity(seed), opaque_parity(seed + 1)});

  for (std::size_t i = 0; i < cases.size(); ++i)
    check_case(c, oracle, cases[i],
               std::string(to_string(cases[i].op)) + "#" + std::to_string(i) +
                   " seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetSoundness,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(BudgetSoundness, RefusedExponentialIsUnknownNotAnAssert) {
  Computation c = random_comp(3);
  // Odd salts: false at the initial cut, so the holds-initially
  // observer-independence shortcut does not apply and every operator is
  // genuinely routed at the DFS fallback.
  PredicatePtr p = opaque_parity(1);
  PredicatePtr q = opaque_parity(3);
  DispatchOptions opt;
  opt.allow_exponential = false;
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
    DetectResult r = detect(c, op, p, nullptr, opt);
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << to_string(op);
    EXPECT_EQ(r.bound, BoundReason::kStateCap) << to_string(op);
  }
  for (Op op : {Op::kEU, Op::kAU}) {
    DetectResult r = detect(c, op, p, q, opt);
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << to_string(op);
    EXPECT_EQ(r.bound, BoundReason::kStateCap) << to_string(op);
  }
  // Predicates with a polynomial route are unaffected by the refusal.
  Rng rng(7);
  auto conj = random_conjunctive(rng, c.num_procs());
  DetectResult ok = detect(c, Op::kEF, conj, nullptr, opt);
  EXPECT_TRUE(ok.definite());
}

TEST(BudgetSoundness, StateCapOnDfsIsUnknownWithReason) {
  Computation c = generate_independent(4, 4);  // 625 cuts, all reachable
  PredicatePtr never = make_false();
  DispatchOptions opt;
  opt.budget.max_states = 8;
  DetectResult r = detect(c, Op::kEG, never, nullptr, opt);
  // EG(false) fails at the initial cut — definite even under the cap...
  EXPECT_EQ(r.verdict, Verdict::kFails);
  // ...while EF of a never-true opaque predicate must exhaust the space
  // and instead reports the cap.
  PredicatePtr unreachable = make_asserted(
      [](const Computation&, const Cut&) { return false; }, 0, "never");
  DetectResult cap = detect(c, Op::kEF, unreachable, nullptr, opt);
  EXPECT_EQ(cap.verdict, Verdict::kUnknown);
  EXPECT_EQ(cap.bound, BoundReason::kStateCap);
}

// A spent budget on the split routes: EF over a DNF and AG over a CNF run
// their branches one by one (detect/first_match.h), and the first branch
// already stops at its first checkpoint.

PredicatePtr random_dnf(Rng& rng, std::int32_t procs) {
  std::vector<PredicatePtr> ds;
  const std::size_t m = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i)
    ds.push_back(PredicatePtr(random_conjunctive(rng, procs)));
  return make_or(std::move(ds));
}

PredicatePtr random_cnf(Rng& rng, std::int32_t procs) {
  std::vector<PredicatePtr> cs;
  const std::size_t m = 2 + rng.next_below(3);
  for (std::size_t i = 0; i < m; ++i)
    cs.push_back(PredicatePtr(random_disjunctive(rng, procs)));
  return make_and(std::move(cs));
}

TEST(ParallelBudget, PreCancelledTokenAbortsBeforeAnyEvaluation) {
  // A token cancelled before the detection starts must surface at the very
  // first checkpoint: kUnknown/kCancelled with zero predicate evaluations.
  Computation c = random_comp(5);
  Rng rng(5);
  PredicatePtr dnf = random_dnf(rng, c.num_procs());
  CancelToken token;
  token.cancel();
  DispatchOptions opt;
  opt.budget.cancel = &token;
  const DetectResult r = detect(c, Op::kEF, dnf, nullptr, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.bound, BoundReason::kCancelled);
  EXPECT_EQ(r.stats.predicate_evals, 0u);
}

TEST(ParallelBudget, PastDeadlineAbortsAtFirstCheckpoint) {
  // The deadline clock is probed on the first checkpoint regardless of the
  // probe stride, so an already-expired deadline can never produce a
  // definite verdict.
  Computation c = random_comp(6);
  Rng rng(6);
  PredicatePtr cnf = random_cnf(rng, c.num_procs());
  DispatchOptions opt;
  opt.budget = Budget::with_deadline_in(std::chrono::nanoseconds{-1});
  const DetectResult r = detect(c, Op::kAG, cnf, nullptr, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.bound, BoundReason::kDeadline);
  const DetectResult eu = detect(
      c, Op::kEU, PredicatePtr(random_conjunctive(rng, c.num_procs())), cnf,
      opt);
  EXPECT_EQ(eu.verdict, Verdict::kUnknown);
  EXPECT_EQ(eu.bound, BoundReason::kDeadline);
}

}  // namespace
}  // namespace hbct
