// Predicate class auditor: clean predicates audit clean, every corrupted
// class bit is caught with a concrete counterexample, oracle and negation
// contracts are enforced, and dispatch degrades to kUnknown (never a wrong
// definite verdict) when a pre-flight audit fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/audit.h"
#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "online/monitor.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/relational.h"

#include "oracle.h"

namespace hbct {
namespace {

Computation comp(std::uint64_t seed, std::int32_t procs = 3,
                 std::int32_t events = 4) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events;
  opt.num_vars = 2;
  opt.seed = seed;
  return generate_random(opt);
}

bool has_check(const AuditResult& r, AuditCheck c) {
  return std::any_of(
      r.violations.begin(), r.violations.end(),
      [&](const AuditViolation& v) { return v.check == c; });
}

TEST(Audit, StructuredPredicatesAuditClean) {
  const Computation c = comp(1);
  const std::vector<PredicatePtr> preds = {
      var_cmp(0, "v0", Cmp::kGe, 1),
      make_conjunctive(
          {var_cmp(0, "v0", Cmp::kGe, 1), var_cmp(1, "v1", Cmp::kLe, 3)}),
      make_disjunctive(
          {var_cmp(0, "v0", Cmp::kGe, 1), var_cmp(1, "v1", Cmp::kLe, 3)}),
      make_terminated(),
      all_channels_empty(),
      channel_bound_le(0, 1, 0),
      channel_bound_ge(1, 0, 1),
      make_true(),
      make_false(),
  };
  for (const PredicatePtr& p : preds) {
    const AuditResult r = audit_predicate(p, c);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_TRUE(r.ok()) << p->describe() << ": "
                        << render_diagnostics(audit_diagnostics(r));
    // Every claimed bit was actually exercised.
    EXPECT_EQ(r.checked, effective_classes(*p, c)) << p->describe();
    EXPECT_GT(r.cuts_examined, 0u);
  }
}

TEST(Audit, RelationalPredicatesAuditClean) {
  const Computation c = comp(2);
  for (const PredicatePtr& p :
       {sum_le({{0, "v0"}, {1, "v0"}}, 3), sum_ge({{0, "v0"}, {1, "v0"}}, 2),
        diff_le({0, "v0"}, {1, "v0"}, 1)}) {
    const AuditResult r = audit_predicate(p, c);
    EXPECT_TRUE(r.ok()) << p->describe() << ": "
                        << render_diagnostics(audit_diagnostics(r));
  }
}

/// The tentpole property: flip one class bit a predicate did not earn and
/// the auditor must produce a counterexample — across many random
/// computations and predicates, with zero escapes.
TEST(Audit, EveryCorruptedClassBitIsCaught) {
  struct Flip {
    ClassSet bit;
    bool BruteClassCheck::*truth;
    AuditCheck expect;
  };
  const std::vector<Flip> flips = {
      {kClassLinear, &BruteClassCheck::linear, AuditCheck::kLinearMeet},
      {kClassPostLinear, &BruteClassCheck::post_linear,
       AuditCheck::kPostLinearJoin},
      {kClassStable, &BruteClassCheck::stable, AuditCheck::kStableUpClosed},
      {kClassObserverIndependent, &BruteClassCheck::observer_independent,
       AuditCheck::kObserverIndependent},
  };

  std::size_t trials = 0, escapes = 0;
  for (std::uint64_t seed = 1; seed <= 60 && trials < 48; ++seed) {
    const Computation c = comp(seed);
    const LatticeChecker chk(c);

    // A family of deliberately unstructured predicates: thresholds on a
    // variable, parities, and mixed-process conditions.
    const std::int64_t k = static_cast<std::int64_t>(seed % 5);
    const std::vector<PredicatePtr> bases = {
        make_asserted(
            [k](const Computation& cc, const Cut& g) {
              return cc.value_in(0, 0, g) + cc.value_in(1, 0, g) > k;
            },
            0, "sum-threshold"),
        make_asserted(
            [](const Computation&, const Cut& g) {
              return (g[0] + 2 * g[1]) % 3 == 1;
            },
            0, "parity-mix"),
        make_asserted(
            [k](const Computation&, const Cut& g) {
              return g[0] > g[1] + (k % 2);
            },
            0, "coordinate-race"),
    };
    for (const PredicatePtr& base : bases) {
      const BruteClassCheck truth = brute_check_classes(chk, *base);
      for (const Flip& f : flips) {
        if (truth.*(f.truth)) continue;  // the bit would be earned; skip
        // OI is force-granted by effective_classes when p holds initially,
        // making the corrupted claim accidentally true; skip those.
        if (f.bit == kClassObserverIndependent &&
            base->eval(c, c.initial_cut()))
          continue;
        const PredicatePtr corrupted = make_asserted(
            [base](const Computation& cc, const Cut& g) {
              return base->eval(cc, g);
            },
            f.bit, base->describe() + "+flip");
        const AuditResult r = audit_predicate(corrupted, c);
        ++trials;
        if (r.ok()) {
          ++escapes;
          ADD_FAILURE() << "escape: seed " << seed << " " << base->describe()
                        << " with unearned " << classes_to_string(f.bit);
          continue;
        }
        EXPECT_TRUE(has_check(r, f.expect))
            << base->describe() << " " << classes_to_string(f.bit);
        // The counterexample cuts are concrete and on-lattice.
        EXPECT_FALSE(r.violations.front().counterexample.empty());
      }
    }
  }
  EXPECT_GE(trials, 40u) << "property test lost its coverage";
  EXPECT_EQ(escapes, 0u);
}

TEST(Audit, CorruptedConjunctiveAndDisjunctiveDecompositionsCaught) {
  const Computation c = comp(4);
  // "x@P0 pos equals x@P1 pos" is neither conjunctive nor disjunctive.
  auto fn = [](const Computation&, const Cut& g) { return g[0] == g[1]; };
  const AuditResult conj = audit_predicate(
      make_asserted(fn, kClassConjunctive, "diag-conj"), c);
  EXPECT_FALSE(conj.ok());
  const AuditResult disj = audit_predicate(
      make_asserted(fn, kClassDisjunctive, "diag-disj"), c);
  EXPECT_FALSE(disj.ok());
  EXPECT_TRUE(has_check(disj, AuditCheck::kDisjunctiveDecomp) ||
              has_check(disj, AuditCheck::kObserverIndependent));
}

TEST(Audit, CorruptedLocalClaimCaught) {
  const Computation c = comp(5);
  const AuditResult r = audit_predicate(
      make_asserted(
          [](const Computation&, const Cut& g) { return g[0] == g[1]; },
          kClassLocal, "two-proc-as-local"),
      c);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_check(r, AuditCheck::kLocalDependence) ||
              !r.violations.empty());
}

/// A truly linear predicate with a lying advancement oracle: the audit must
/// catch the forbidden() contract violation (E102), which a class check
/// alone cannot see.
TEST(Audit, LyingForbiddenOracleCaught) {
  class LyingLinear final : public Predicate {
   public:
    bool eval(const Computation&, const Cut& g) const override {
      return g[0] >= 2;  // up-closed in proc 0: linear (and stable)
    }
    ClassSet classes(const Computation&) const override {
      return close_classes(kClassLinear);
    }
    std::string describe() const override { return "lying-linear"; }
    bool has_forbidden() const override { return true; }
    ProcId forbidden(const Computation& c, const Cut&) const override {
      return static_cast<ProcId>(c.num_procs() - 1);  // wrong process
    }
  };
  // Message-free computation: every cut is consistent, so a satisfying cut
  // that advances only process 0 provably exists and exposes the lie.
  GenOptions g;
  g.num_procs = 3;
  g.events_per_proc = 3;
  g.p_send = 0;
  g.p_recv = 0;
  g.seed = 6;
  const Computation c = generate_random(g);
  const AuditResult r = audit_predicate(std::make_shared<LyingLinear>(), c);
  EXPECT_TRUE(has_check(r, AuditCheck::kForbiddenOracle));
  const auto ds = audit_diagnostics(r);
  EXPECT_TRUE(std::any_of(ds.begin(), ds.end(), [](const Diagnostic& d) {
    return d.code == DiagCode::kOracleContractViolated;
  }));
}

TEST(Audit, BrokenNegationCaught) {
  class BrokenNot final : public Predicate {
   public:
    bool eval(const Computation&, const Cut& g) const override {
      return g.total() >= 3;
    }
    ClassSet classes(const Computation&) const override { return 0; }
    std::string describe() const override { return "broken-not"; }
    PredicatePtr negate() const override { return make_true(); }  // wrong
  };
  const Computation c = comp(7);
  const AuditResult r = audit_predicate(std::make_shared<BrokenNot>(), c);
  EXPECT_TRUE(has_check(r, AuditCheck::kNegationSemantics));
  AuditOptions no_neg;
  no_neg.check_negation = false;
  EXPECT_TRUE(audit_predicate(std::make_shared<BrokenNot>(), c, no_neg).ok());
}

TEST(Audit, SampledModeStillCatchesStableViolations) {
  const Computation c = comp(8, 4, 6);
  AuditOptions opt;
  opt.max_lattice = 2;  // force sampled mode even on this small lattice
  opt.samples = 32;
  const PredicatePtr p = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() == 2; },
      kClassStable, "spike");  // true once, then false: maximally unstable
  const AuditResult r = audit_predicate(p, c, opt);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_TRUE(has_check(r, AuditCheck::kStableUpClosed));
}

TEST(Audit, SampledModeCleanOnHonestPredicate) {
  const Computation c = comp(9, 4, 6);
  AuditOptions opt;
  opt.max_lattice = 2;
  const AuditResult r = audit_predicate(make_terminated(), c, opt);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_TRUE(r.ok()) << render_diagnostics(audit_diagnostics(r));
}

TEST(Audit, DispatchFullAuditDegradesToUnknownOnViolation) {
  const Computation c = comp(10);
  DispatchOptions opt;
  opt.audit = AuditMode::kFull;
  // Claims stable but is not: the stable-final shortcut would answer EF
  // from the final cut alone, which is wrong for a spike predicate.
  const PredicatePtr liar = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() == 2; },
      kClassStable, "spike");
  const DetectResult r = detect(c, Op::kEF, liar, nullptr, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.bound, BoundReason::kAuditFailed);
  EXPECT_NE(r.algorithm.find("(audit failed)"), std::string::npos);
  EXPECT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(std::string(to_string(BoundReason::kAuditFailed)),
            "audit-failed");

  // Without the audit the corrupted claim is trusted: stable-final answers
  // EF from the final cut alone and gets it wrong (the spike holds at the
  // cut with two events, which every computation here passes through).
  // Exactly the wrong-definite-answer failure mode kFull prevents.
  const DetectResult trusting = detect(c, Op::kEF, liar, nullptr, {});
  EXPECT_EQ(trusting.verdict, Verdict::kFails);
}

TEST(Audit, DispatchFullAuditPassesCleanPredicatesThrough) {
  const Computation c = comp(11);
  DispatchOptions opt;
  opt.audit = AuditMode::kFull;
  const PredicatePtr p = make_conjunctive(
      {var_cmp(0, "v0", Cmp::kGe, 1), var_cmp(1, "v1", Cmp::kLe, 3)});
  const DetectResult audited = detect(c, Op::kEF, p, nullptr, opt);
  const DetectResult plain = detect(c, Op::kEF, p, nullptr, {});
  EXPECT_EQ(audited.verdict, plain.verdict);
  EXPECT_EQ(audited.algorithm, plain.algorithm);
  EXPECT_FALSE(audited.plan.empty());
  EXPECT_TRUE(plain.plan.empty());
}

TEST(Audit, UntilAuditChecksBothOperands) {
  const Computation c = comp(12);
  DispatchOptions opt;
  opt.audit = AuditMode::kFull;
  const auto p = make_conjunctive(
      {var_cmp(0, "v0", Cmp::kGe, 0), var_cmp(1, "v1", Cmp::kLe, 9)});
  const PredicatePtr bad_q = make_asserted(
      [](const Computation&, const Cut& g) { return g.total() == 2; },
      kClassStable, "spike");
  const DetectResult r = detect(c, Op::kEU, p, bad_q, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.bound, BoundReason::kAuditFailed);
  // The failing operand is named in the diagnostics.
  EXPECT_TRUE(std::any_of(
      r.diagnostics.begin(), r.diagnostics.end(), [](const Diagnostic& d) {
        return d.message.find("spike") != std::string::npos;
      }));
}

TEST(Audit, MonitorAuditWatchesFlagsLyingStableWatch) {
  OnlineMonitor m(2);
  m.var("x");
  m.internal(0);
  m.write(0, "x", 1);
  m.internal(1);
  m.internal(0);
  m.internal(1);
  // Honest watches audit clean on the observed prefix.
  m.watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kGe, 1)}));
  m.watch_stable(make_terminated());
  EXPECT_TRUE(m.audit_watches().empty());
  // A stability claim the observed prefix already refutes: the predicate
  // spikes at two delivered events and is false again at three and four.
  m.watch_stable(make_asserted(
      [](const Computation&, const Cut& g) { return g.total() == 2; },
      kClassStable, "spike"));
  const auto ds = m.audit_watches();
  ASSERT_FALSE(ds.empty());
  EXPECT_EQ(ds[0].code, DiagCode::kClassAuditFailed);
  EXPECT_NE(ds[0].message.find("spike"), std::string::npos);
}

}  // namespace
}  // namespace hbct
