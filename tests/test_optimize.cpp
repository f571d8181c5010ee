// The CTL query optimizer: rewrite-rule unit cases, syntactic class
// inference (with audit-backed derivation validity), cost-model plan
// choice, and the kApply-vs-kOff differential contract — optimized
// evaluation must be bit-identical on verdicts and bound reasons whenever
// both runs are unbudgeted, and Kleene-compatible under budgets.
//
// The golden reroute test pins the headline acceptance case: a workload
// whose as-written dispatch is the exponential fallback (W001) is
// statically rerouted by optimize=kApply to a polynomial route, with the
// state-count drop recorded in tests/golden/optimize_reroute.json.
// Regenerate with HBCT_REGEN_GOLDEN=1 after an intentional change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/audit.h"
#include "analysis/infer.h"
#include "analysis/lint.h"
#include "analysis/optimize.h"
#include "analysis/rewrite.h"
#include "analysis/rules.h"
#include "ctl/compile.h"
#include "ctl/parser.h"
#include "obs/json.h"
#include "obs/report.h"
#include "poset/generate.h"

namespace hbct {
namespace {

using ctl::Query;

Computation comp(std::uint64_t seed, std::int32_t procs = 3,
                 std::int32_t events = 4) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events;
  opt.num_vars = 2;
  opt.seed = seed;
  return generate_random(opt);
}

Query parse(const std::string& text) {
  auto r = ctl::parse_query(text);
  EXPECT_TRUE(r.ok) << text << ": " << r.error;
  return r.query;
}

ctl::NodePtr root_of(const std::string& text) {
  const Query q = parse(text);
  return q.root ? q.root : q.p;
}

bool chain_has(const std::vector<RewriteStep>& steps, const char* rule) {
  for (const RewriteStep& s : steps)
    if (s.rule == rule) return true;
  return false;
}

bool diags_have(const std::vector<Diagnostic>& ds, DiagCode code) {
  for (const Diagnostic& d : ds)
    if (d.code == code) return true;
  return false;
}

// ---- Rewrite-rule unit cases ----------------------------------------------

TEST(Rewrite, RuleCatalogUnitCases) {
  struct Case {
    const char* before;
    const char* after;
    const char* rule;  // must appear in the recorded chain
  };
  const std::vector<Case> cases = {
      {"EF(v0@P0 >= 1 && true)", "EF(v0@P0 >= 1)", "const-fold"},
      {"EF(v0@P0 >= 1 || true)", "EF(true)", "const-fold"},
      {"EF(!(!(v0@P0 >= 1)))", "EF(v0@P0 >= 1)", "nnf-push"},
      {"EF(!(v0@P0 >= 1 && v1@P1 <= 3))", "EF(v0@P0 < 1 || v1@P1 > 3)",
       "nnf-push"},
      {"EF(v0@P0 >= 1 && v0@P0 >= 1)", "EF(v0@P0 >= 1)", "dedup-idempotent"},
      {"EF(v0@P0 >= 1 || (v0@P0 >= 1 && v1@P1 <= 3))", "EF(v0@P0 >= 1)",
       "absorb"},
      {"EF(EF(v0@P0 >= 1))", "EF(v0@P0 >= 1)", "temporal-idempotent"},
      {"!AG(v0@P0 >= 1)", "EF(v0@P0 < 1)", "not-temporal-dual"},
      {"!EF(v0@P0 >= 1)", "AG(v0@P0 < 1)", "not-temporal-dual"},
      {"!AF(v0@P0 >= 1)", "EG(v0@P0 < 1)", "not-temporal-dual"},
      {"EF(v0@P0 >= 1) || EF(v1@P1 >= 1)", "EF(v0@P0 >= 1 || v1@P1 >= 1)",
       "merge-ef-or"},
      {"AG(v0@P0 >= 1) && AG(v1@P1 >= 1)", "AG(v0@P0 >= 1 && v1@P1 >= 1)",
       "merge-ag-and"},
      {"v0@P0 >= 1 || EF(v0@P0 >= 1)", "EF(v0@P0 >= 1)", "temporal-absorb"},
      {"v0@P0 >= 1 && AG(v0@P0 >= 1)", "AG(v0@P0 >= 1)", "temporal-absorb"},
  };
  for (const Case& k : cases) {
    const ctl::Rewritten rw = ctl::rescue_temporal(root_of(k.before));
    EXPECT_TRUE(ctl::node_equal(rw.node, root_of(k.after)))
        << k.before << " rewrote to " << ctl::to_string(*rw.node) << ", want "
        << k.after;
    EXPECT_TRUE(chain_has(rw.steps, k.rule))
        << k.before << ": chain does not contain " << k.rule;
    // Every step names a catalog rule and keeps the source span.
    for (const RewriteStep& s : rw.steps) {
      EXPECT_NE(find_rule(s.rule), nullptr) << s.rule;
      EXPECT_TRUE(s.span.valid()) << s.rule << " lost its span";
      EXPECT_FALSE(s.note.empty()) << s.rule << " has no soundness note";
    }
  }
}

TEST(Rewrite, NormalizeReachesFixpoint) {
  // A second pass over an already-normalized formula must be a no-op.
  const ctl::Rewritten once =
      ctl::rescue_temporal(root_of("!AG(v0@P0 >= 1 && v0@P0 >= 1)"));
  const ctl::Rewritten twice = ctl::rescue_temporal(once.node);
  EXPECT_TRUE(twice.steps.empty())
      << "second pass applied " << twice.steps.size() << " more steps";
  EXPECT_TRUE(ctl::node_equal(once.node, twice.node));
}

TEST(Rewrite, DnfCnfRespectBudget) {
  //  (a || b) && (c || d)  -> DNF has 4 clauses.
  const auto n = ctl::normalize(root_of(
      "(v0@P0 >= 1 || v0@P1 >= 1) && (v1@P0 >= 1 || v1@P1 >= 1)"));
  const ctl::NodePtr dnf = ctl::to_dnf(n.node, 8);
  ASSERT_NE(dnf, nullptr);
  EXPECT_EQ(dnf->children.size(), 4u);
  EXPECT_EQ(ctl::to_dnf(n.node, 3), nullptr) << "budget not enforced";
  const ctl::NodePtr cnf = ctl::to_cnf(n.node, 8);
  ASSERT_NE(cnf, nullptr);
  EXPECT_EQ(cnf->children.size(), 2u);  // already conjunctive
}

// ---- Syntactic class inference --------------------------------------------

TEST(Infer, PosSumAboveIsStable) {
  const Computation c = comp(1);
  const ctl::Inference inf =
      ctl::infer_classes(c, root_of("pos(0) + pos(1) > 3"));
  EXPECT_TRUE(inf.classes & kClassStable);
  EXPECT_TRUE(inf.classes & kClassPostLinear);
  EXPECT_TRUE(inf.classes & kClassObserverIndependent);  // closure of stable
  EXPECT_TRUE(inf.co_classes & kClassLinear);
  EXPECT_FALSE(inf.down_closed());
}

TEST(Infer, PosSumBelowIsDownClosed) {
  const Computation c = comp(1);
  const ctl::Inference inf =
      ctl::infer_classes(c, root_of("pos(0) + pos(1) <= 3"));
  EXPECT_TRUE(inf.classes & kClassLinear);
  EXPECT_TRUE(inf.classes & kClassObserverIndependent);
  EXPECT_TRUE(inf.co_classes & kClassStable);
  EXPECT_TRUE(inf.down_closed());
}

/// The lint blind spot this PR closes: negation used to drop every derived
/// bit; the (classes, co_classes) pair makes it a swap.
TEST(Infer, NegationSwapsThePair) {
  const Computation c = comp(1);
  const ctl::Inference pos =
      ctl::infer_classes(c, root_of("pos(0) + pos(1) > 3"));
  const ctl::Inference neg =
      ctl::infer_classes(c, root_of("!(pos(0) + pos(1) > 3)"));
  EXPECT_EQ(neg.classes, pos.co_classes);
  EXPECT_EQ(neg.co_classes, pos.classes);
  EXPECT_TRUE(neg.down_closed());
  EXPECT_EQ(neg.derivation.rule, "not-dual");
}

TEST(Infer, LocalAtomAndConnectives) {
  const Computation c = comp(2);
  EXPECT_TRUE(ctl::infer_classes(c, root_of("v0@P0 >= 1")).classes &
              kClassLocal);
  // Conjunction of stable formulas stays stable (and-meet).
  const ctl::Inference both = ctl::infer_classes(
      c, root_of("pos(0) + pos(1) > 3 && pos(0) + pos(1) > 5"));
  EXPECT_TRUE(both.classes & kClassStable);
  EXPECT_EQ(both.derivation.rule, "and-meet");
  ASSERT_EQ(both.derivation.premises.size(), 2u);
  // Disjunction of down-closed formulas stays down-closed (or-join).
  const ctl::Inference either = ctl::infer_classes(
      c, root_of("pos(0) + pos(1) <= 3 || pos(0) + pos(1) <= 5"));
  EXPECT_TRUE(either.down_closed());
}

TEST(Infer, EquilevelOnTwoProcs) {
  const Computation c2 = comp(3, /*procs=*/2);
  EXPECT_TRUE(ctl::infer_classes(c2, root_of("pos(0) == pos(1)")).classes &
              kClassEquilevel);
  // Three processes: the diagonal argument needs n == 2.
  const Computation c3 = comp(3, /*procs=*/3);
  EXPECT_FALSE(ctl::infer_classes(c3, root_of("pos(0) == pos(1)")).classes &
               kClassEquilevel);
}

TEST(Infer, ChannelBoundIsRegular) {
  const Computation c = comp(4);
  EXPECT_TRUE(ctl::infer_classes(c, root_of("intransit(0, 1) <= 1")).classes &
              kClassRegular);
  EXPECT_TRUE(ctl::infer_classes(c, root_of("intransit(0, 1) >= 1"))
                  .co_classes &
              kClassRegular);
}

TEST(Infer, OpaqueShapesInferNothing) {
  const Computation c = comp(5);
  // Mixed monotonicity: pos(0) up, -pos(1) down — neither side closed.
  const ctl::Inference inf =
      ctl::infer_classes(c, root_of("pos(0) - pos(1) >= 0"));
  EXPECT_EQ(inf.classes, 0u);
  EXPECT_EQ(inf.co_classes, 0u);
}

TEST(Infer, DerivationTreeMirrorsTheAst) {
  const Computation c = comp(6);
  const ctl::Inference inf = ctl::infer_classes(
      c, root_of("v0@P0 >= 1 && !(pos(0) + pos(1) > 3)"));
  EXPECT_EQ(inf.derivation.premises.size(), 2u);
  const auto leaves = ctl::derivation_leaves(inf.derivation);
  ASSERT_EQ(leaves.size(), 2u);
  for (const ctl::Derivation* l : leaves) EXPECT_FALSE(l->rule.empty());
  EXPECT_FALSE(to_string(inf.derivation).empty());
}

/// The machine-checkable part of "machine-checkable derivation": for every
/// formula in the battery, on 42 random computations, the inferred bits
/// (and co-bits, via the negation) are handed to the semantic auditor and
/// must never be refuted. Zero escapes is the acceptance bar.
TEST(Infer, DerivedBitsNeverRefutedByAudit) {
  const char* battery[] = {
      "pos(0) + pos(1) > 3",
      "pos(0) + pos(1) <= 2",
      "!(pos(0) + pos(1) > 3)",
      "pos(0) + pos(1) + pos(2) >= 6",
      "pos(0) + pos(0) + pos(1) > 4",
      "v0@P0 >= 1",
      "v0@P0 + v0@P1 >= 2",
      "intransit(0, 1) <= 1",
      "intransit(0, 1) >= 1",
      "v0@P0 >= 1 && pos(0) + pos(1) > 3",
      "v0@P0 >= 1 || pos(0) + pos(1) <= 2",
      "!(v0@P0 >= 1 && pos(0) + pos(1) > 3)",
      "pos(0) + pos(1) > 3 && pos(0) + pos(1) <= 5",
      "terminated",
      "channels_empty",
      "true",
      "2 <= 3",
  };
  int inferred = 0;
  for (std::uint64_t seed = 0; seed < 42; ++seed) {
    const Computation c = comp(seed);
    for (const char* text : battery) {
      const ctl::NodePtr node = root_of(text);
      const ctl::Inference inf = ctl::infer_classes(c, node);
      if (inf.classes == 0 && inf.co_classes == 0) continue;
      ++inferred;
      const auto cp = ctl::compile_state(node);
      ASSERT_TRUE(cp.ok) << text;
      const PredicatePtr refined =
          make_refined(cp.pred, inf.classes, inf.co_classes);
      const AuditResult ar = audit_predicate(refined, c);
      std::string why;
      for (const AuditViolation& v : ar.violations) why += v.message + "; ";
      EXPECT_TRUE(ar.ok())
          << "seed " << seed << " formula '" << text << "' classes "
          << classes_to_string(inf.classes) << " refuted: " << why;
    }
  }
  // The battery must actually exercise the engine, not vacuously pass.
  EXPECT_GT(inferred, 300);
}

/// Equilevel inference audited on 2-process computations.
TEST(Infer, EquilevelBitsNeverRefutedByAudit) {
  for (std::uint64_t seed = 0; seed < 42; ++seed) {
    const Computation c = comp(seed, /*procs=*/2);
    const ctl::NodePtr node = root_of("pos(0) == pos(1)");
    const ctl::Inference inf = ctl::infer_classes(c, node);
    ASSERT_TRUE(inf.classes & kClassEquilevel) << seed;
    const auto cp = ctl::compile_state(node);
    ASSERT_TRUE(cp.ok);
    const AuditResult ar =
        audit_predicate(make_refined(cp.pred, inf.classes, inf.co_classes), c);
    EXPECT_TRUE(ar.ok()) << "seed " << seed;
  }
}

// ---- Optimizer plan choice ------------------------------------------------

TEST(Optimize, ReroutesInferableSumToStableFinal) {
  const Computation c = comp(7);
  const ctl::OptimizeOutcome oc = ctl::optimize_query(
      c, parse("EF(pos(0) + pos(1) > 3)"));
  EXPECT_TRUE(oc.changed);
  EXPECT_TRUE(chain_has(oc.steps, "infer-classes"));
  EXPECT_LT(oc.cost_after, oc.cost_before);
  EXPECT_NE(oc.plan_after.find("stable-final"), std::string::npos)
      << oc.plan_after;
  // The rewritten residual must not warn about the exponential fallback.
  EXPECT_FALSE(diags_have(oc.residual, DiagCode::kExponentialFallback));
}

TEST(Optimize, CostableCollapseToStateEval) {
  const Computation c = comp(7);
  // EF of a down-closed operand pins the verdict at the initial cut...
  const ctl::OptimizeOutcome ef =
      ctl::optimize_query(c, parse("EF(pos(0) + pos(1) <= 3)"));
  EXPECT_TRUE(ef.changed);
  EXPECT_TRUE(chain_has(ef.steps, "costable-collapse"));
  EXPECT_FALSE(ef.query.temporal);
  // ...and dually EG of a stable one.
  const ctl::OptimizeOutcome eg =
      ctl::optimize_query(c, parse("EG(pos(0) + pos(1) > 3)"));
  EXPECT_TRUE(eg.changed);
  EXPECT_TRUE(chain_has(eg.steps, "costable-collapse"));
}

TEST(Optimize, AlreadyOptimalQueriesAreUntouched) {
  const Computation c = comp(8);
  for (const char* text :
       {"EF(v0@P0 >= 1 && v1@P1 <= 3)", "AG(v0@P0 >= 0)", "AF(terminated)",
        "EF(intransit(0, 1) == 0)", "v0@P0 >= 0"}) {
    const ctl::OptimizeOutcome oc = ctl::optimize_query(c, parse(text));
    EXPECT_FALSE(oc.changed) << text << " rewrote: "
                             << (oc.steps.empty() ? "?" : oc.steps[0].rule);
    EXPECT_TRUE(oc.steps.empty());
    EXPECT_EQ(oc.cost_after, oc.cost_before);
  }
}

TEST(Optimize, RescuesNestedFormulaIntoFragment) {
  const Computation c = comp(9);
  const ctl::OptimizeOutcome oc =
      ctl::optimize_query(c, parse("!AG(v0@P0 >= 1)"));
  EXPECT_TRUE(oc.changed);
  EXPECT_TRUE(chain_has(oc.steps, "not-temporal-dual"));
  // The dual form EF(v0@P0 < 1) re-enters the fragment; on computations
  // where the operand happens to be monotone the optimizer may collapse
  // further to a bare state evaluation. Either way the nested-temporal
  // finding (W003) must be gone from the residual.
  if (oc.query.temporal) EXPECT_EQ(oc.query.op, Op::kEF);
  EXPECT_FALSE(diags_have(oc.residual, DiagCode::kNestedTemporal));
}

// ---- kApply differential: bit-identical verdicts --------------------------

const char* kQueryCorpus[] = {
    "EF(v0@P0 >= 1 && v1@P1 <= 3)",
    "AG(v0@P0 >= 0)",
    "EG(v0@P0 >= 0)",
    "AF(terminated)",
    "EF(pos(0) + pos(1) > 3)",
    "AF(pos(0) + pos(1) > 3)",
    "EG(pos(0) + pos(1) > 3)",
    "AG(pos(0) + pos(1) > 100)",
    "EF(pos(0) + pos(1) <= 3)",
    "EG(pos(0) + pos(1) <= 3)",
    "AG(pos(0) + pos(1) <= 100)",
    "EF(!(pos(0) + pos(1) > 3))",
    "EF(pos(0) + pos(1) > 3 || v0@P0 >= 1)",
    "EF(v0@P0 >= 1 && v0@P0 >= 1)",
    "EF(v0@P0 >= 1 || (v0@P0 >= 1 && v1@P1 <= 3))",
    "EF(EF(v0@P0 >= 1))",
    "!AG(v0@P0 >= 0)",
    "!EF(v0@P0 >= 4)",
    "EF(v0@P0 >= 1) || EF(v1@P1 >= 1)",
    "AG(v0@P0 >= 0) && AG(v1@P1 >= 0)",
    "E[v0@P0 >= 0 U v1@P1 >= 2]",
    "A[v0@P0 >= 0 U terminated]",
    "EF(intransit(0, 1) == 0)",
    "EF(true)",
    "v0@P0 >= 0 && channels_empty",
    "AG(EF(v0@P0 >= 1))",  // stays outside the fragment in both modes
};

TEST(OptimizeDifferential, ApplyMatchesOffOnFortySeeds) {
  DispatchOptions apply;
  apply.optimize = OptimizeMode::kApply;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Computation c = comp(seed);
    for (const char* text : kQueryCorpus) {
      const auto off = ctl::evaluate_query(c, text, {});
      const auto on = ctl::evaluate_query(c, text, apply);
      ASSERT_EQ(off.ok, on.ok) << text;
      if (!off.ok) continue;
      EXPECT_EQ(off.result.verdict, on.result.verdict)
          << "seed " << seed << " query " << text << ": off="
          << off.result.algorithm << " on=" << on.result.algorithm;
      EXPECT_EQ(off.result.bound, on.result.bound) << text;
      // Witnesses are re-certified against the *original* operand, not
      // byte-compared (a cheaper route may find a different satisfying cut).
      const Query q = parse(text);
      if (q.temporal && (q.op == Op::kEF || q.op == Op::kAF) &&
          on.result.verdict == Verdict::kHolds &&
          on.result.witness_cut.has_value()) {
        const auto cp = ctl::compile_state(q.p);
        ASSERT_TRUE(cp.ok) << text;
        EXPECT_TRUE(cp.pred->eval(c, *on.result.witness_cut))
            << "seed " << seed << " query " << text
            << ": optimized witness fails the original operand";
      }
    }
  }
}

TEST(OptimizeDifferential, BudgetLadderIsKleeneCompatible) {
  for (const std::size_t max_states : {4ul, 64ul, 4096ul}) {
    DispatchOptions off, on;
    off.budget.max_states = max_states;
    on.budget.max_states = max_states;
    on.optimize = OptimizeMode::kApply;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Computation c = comp(seed);
      for (const char* text : kQueryCorpus) {
        const auto a = ctl::evaluate_query(c, text, off);
        const auto b = ctl::evaluate_query(c, text, on);
        if (!a.ok || !b.ok) continue;
        if (a.result.verdict == Verdict::kUnknown ||
            b.result.verdict == Verdict::kUnknown)
          continue;  // a budgeted run may give up earlier on either route
        EXPECT_EQ(a.result.verdict, b.result.verdict)
            << "seed " << seed << " budget " << max_states << " " << text;
      }
    }
  }
}

TEST(OptimizeDifferential, ParallelWidthsAgree) {
  // DispatchOptions::parallelism is inert: an optimized query answers the
  // same at every value of it.
  for (const std::size_t width : {1ul, 4ul}) {
    DispatchOptions on;
    on.optimize = OptimizeMode::kApply;
    on.parallelism = width;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Computation c = comp(seed);
      for (const char* text : kQueryCorpus) {
        const auto off = ctl::evaluate_query(c, text, {});
        const auto on_r = ctl::evaluate_query(c, text, on);
        if (!off.ok || !on_r.ok) continue;
        EXPECT_EQ(off.result.verdict, on_r.result.verdict)
            << "seed " << seed << " width " << width << " " << text;
      }
    }
  }
}

TEST(OptimizeDifferential, RefusedExponentialBecomesAnswerable) {
  // allow_exponential=false: the as-written route refuses (kUnknown), the
  // optimized route answers — Kleene-compatible strengthening, never a
  // contradiction.
  DispatchOptions off, on;
  off.allow_exponential = false;
  on.allow_exponential = false;
  on.optimize = OptimizeMode::kApply;
  const Computation c = comp(11);
  const auto a = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", off);
  const auto b = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", on);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.result.verdict, Verdict::kUnknown);
  EXPECT_NE(b.result.verdict, Verdict::kUnknown);
  // And against ground truth: the unrestricted explicit search agrees.
  const auto truth = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", {});
  EXPECT_EQ(b.result.verdict, truth.result.verdict);
}

// ---- Diagnostics, modes, report surface -----------------------------------

TEST(Optimize, ApplyEmitsW008ChainAndRewritesField) {
  const Computation c = comp(12);
  DispatchOptions opt;
  opt.optimize = OptimizeMode::kApply;
  opt.audit = AuditMode::kLintOnly;
  const auto r = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", opt);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.result.rewrites.empty());
  EXPECT_TRUE(diags_have(r.result.diagnostics, DiagCode::kRewriteApplied));
  bool applied_wording = false;
  for (const Diagnostic& d : r.result.diagnostics)
    if (d.code == DiagCode::kRewriteApplied &&
        d.message.find("applied") != std::string::npos)
      applied_wording = true;
  EXPECT_TRUE(applied_wording);
}

TEST(Optimize, AnalyzeOnlyProposesWithoutChangingTheRoute) {
  const Computation c = comp(12);
  DispatchOptions analyze;
  analyze.optimize = OptimizeMode::kAnalyzeOnly;
  analyze.audit = AuditMode::kLintOnly;
  const auto r = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", analyze);
  ASSERT_TRUE(r.ok);
  const auto off = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", {});
  EXPECT_EQ(r.result.algorithm, off.result.algorithm)
      << "kAnalyzeOnly must evaluate the query as written";
  EXPECT_FALSE(r.result.rewrites.empty());
  bool proposes = false;
  for (const Diagnostic& d : r.result.diagnostics)
    if (d.code == DiagCode::kRewriteApplied &&
        d.message.find("proposes") != std::string::npos)
      proposes = true;
  EXPECT_TRUE(proposes);
}

TEST(Optimize, RedundantSubformulaReportsW009) {
  const Computation c = comp(13);
  DispatchOptions opt;
  opt.optimize = OptimizeMode::kApply;
  opt.audit = AuditMode::kLintOnly;
  const auto r =
      ctl::evaluate_query(c, "EF(v0@P0 >= 1 && v0@P0 >= 1)", opt);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(diags_have(r.result.diagnostics,
                         DiagCode::kRedundantSubformula));
}

TEST(Optimize, OffByDefaultLeavesRewritesEmpty) {
  const Computation c = comp(14);
  const auto r = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", {});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.result.rewrites.empty());
}

TEST(Optimize, ReportCarriesTheRewriteChain) {
  const Computation c = comp(15);
  DispatchOptions opt;
  opt.optimize = OptimizeMode::kApply;
  const auto r = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", opt);
  ASSERT_TRUE(r.ok);
  const std::string doc = report_json(r.result);
  EXPECT_NE(doc.find("\"rewrites\":[{\"rule\":\"infer-classes\""),
            std::string::npos)
      << doc;
  EXPECT_TRUE(json_validate(doc)) << doc;
  const auto off = ctl::evaluate_query(c, "EF(pos(0) + pos(1) > 3)", {});
  EXPECT_NE(report_json(off.result).find("\"rewrites\":[]"),
            std::string::npos);
}

TEST(LintOptimize, AnalyzeSoftensW004WhenInferable) {
  const Computation c = comp(16);
  const Query q = parse("EF(pos(0) + pos(1) > 3)");
  const auto plain = ctl::lint_query(c, q, /*allow_exponential=*/true);
  ASSERT_TRUE(diags_have(plain, DiagCode::kUnclassifiedPredicate));
  const auto soft =
      ctl::lint_query(c, q, true, OptimizeMode::kAnalyzeOnly);
  bool softened = false;
  for (const Diagnostic& d : soft)
    if (d.code == DiagCode::kUnclassifiedPredicate) {
      EXPECT_EQ(d.severity, DiagSeverity::kInfo);
      EXPECT_NE(d.message.find("syntactic inference derives"),
                std::string::npos);
      softened = true;
    }
  EXPECT_TRUE(softened);
  EXPECT_TRUE(diags_have(soft, DiagCode::kRewriteApplied));
}

TEST(LintOptimize, ApplyResidualHasNoCliffForReroutableQueries) {
  const Computation c = comp(17);
  const auto ds = ctl::lint_query(c, parse("EF(pos(0) + pos(1) > 3)"), true,
                                  OptimizeMode::kApply);
  EXPECT_FALSE(diags_have(ds, DiagCode::kExponentialFallback));
  EXPECT_TRUE(diags_have(ds, DiagCode::kRewriteApplied));
}

TEST(LintOptimize, OffMatchesTheDefaultOverload) {
  const Computation c = comp(18);
  for (const char* text : kQueryCorpus) {
    const Query q = parse(text);
    const auto a = ctl::lint_query(c, q, true);
    const auto b = ctl::lint_query(c, q, true, OptimizeMode::kOff);
    ASSERT_EQ(a.size(), b.size()) << text;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].code, b[i].code) << text;
      EXPECT_EQ(a[i].message, b[i].message) << text;
    }
  }
}

// ---- Golden reroute: the acceptance pin -----------------------------------

TEST(OptimizeGolden, W001WorkloadReroutedWithStateCountDrop) {
  const Computation c = comp(2002);
  const std::string query = "EF(pos(0) + pos(1) > 3)";

  DispatchOptions off;
  off.audit = AuditMode::kLintOnly;
  const auto a = ctl::evaluate_query(c, query, off);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(diags_have(a.result.diagnostics, DiagCode::kExponentialFallback))
      << "the workload must be W001-flagged as written";

  DispatchOptions on = off;
  on.optimize = OptimizeMode::kApply;
  const auto b = ctl::evaluate_query(c, query, on);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.result.verdict, b.result.verdict);
  EXPECT_FALSE(
      diags_have(b.result.diagnostics, DiagCode::kExponentialFallback));

  const std::uint64_t off_states =
      a.result.stats.cut_steps + a.result.stats.predicate_evals;
  const std::uint64_t on_states =
      b.result.stats.cut_steps + b.result.stats.predicate_evals;
  EXPECT_LT(on_states, off_states) << "no state-count drop";

  JsonWriter w;
  w.begin_object();
  w.kv("schema", "hbct.optimize_reroute/1");
  w.kv("query", query);
  w.key("off").begin_object();
  w.kv("algorithm", a.result.algorithm);
  w.kv("verdict", to_string(a.result.verdict));
  w.kv("cut_steps", a.result.stats.cut_steps);
  w.kv("predicate_evals", a.result.stats.predicate_evals);
  w.kv("w001", true);
  w.end_object();
  w.key("apply").begin_object();
  w.kv("algorithm", b.result.algorithm);
  w.kv("verdict", to_string(b.result.verdict));
  w.kv("cut_steps", b.result.stats.cut_steps);
  w.kv("predicate_evals", b.result.stats.predicate_evals);
  w.key("rewrites").begin_array();
  for (const RewriteStep& s : b.result.rewrites) w.value(s.rule);
  w.end_array();
  w.end_object();
  w.end_object();
  const std::string doc = w.take() + "\n";

  const std::string path =
      std::string(HBCT_TEST_GOLDEN_DIR) + "/optimize_reroute.json";
  if (std::getenv("HBCT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << doc;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path << " missing; regen with HBCT_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), doc)
      << "golden reroute drifted; regen with HBCT_REGEN_GOLDEN=1 and review";
}

}  // namespace
}  // namespace hbct
