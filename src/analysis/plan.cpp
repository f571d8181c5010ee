#include "analysis/plan.h"

#include <algorithm>

#include "analysis/rules.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/string_util.h"

namespace hbct {

PredShape shape_of(const PredicatePtr& p, const Computation& c) {
  PredShape s;
  s.classes = effective_classes(*p, c);
  s.conjunctive_form = as_conjunctive(p) != nullptr;
  s.disjunctive_form = as_disjunctive(p) != nullptr;
  s.num_disjuncts = p->disjuncts().size();
  s.num_conjuncts = p->conjuncts().size();
  s.has_forbidden = p->has_forbidden();
  s.has_forbidden_down = p->has_forbidden_down();
  return s;
}

bool q_splits_into_linear(const Computation& c, const PredicatePtr& q) {
  const auto parts = q->disjuncts();
  return !parts.empty() &&
         std::all_of(parts.begin(), parts.end(), [&](const PredicatePtr& s) {
           return (effective_classes(*s, c) & kClassLinear) != 0 &&
                  s->has_forbidden();
         });
}

namespace {

constexpr DetectPlan plan(Algo a, const char* name, const char* cost) {
  return DetectPlan{a, name, cost, false, false, false};
}

DetectPlan fallback(Algo a, const char* name, bool np_hard,
                    bool allow_exponential) {
  DetectPlan p{a, name, "exponential", true, np_hard, false};
  p.refused = !allow_exponential;
  return p;
}

}  // namespace

DetectPlan plan_unary(Op op, const PredShape& s, bool allow_exponential) {
  const ClassSet cls = s.classes;
  if (cls & kClassStable)
    return (op == Op::kEF || op == Op::kAF)
               ? plan(Algo::kStableFinal, "stable-final", "O(n)")
               : plan(Algo::kStableInitial, "stable-initial", "O(n)");

  // Equilevel: the satisfying set lives on the diagonal chain, so EF is a
  // chain scan, and EG/AG are decided by the chain plus the observation
  // that any off-diagonal consistent cut falsifies the predicate. AF is NOT
  // chain-decidable (observations can dodge the diagonal entirely) and
  // falls through to the ordinary routes.
  if ((cls & kClassEquilevel) &&
      (op == Op::kEF || op == Op::kEG || op == Op::kAG))
    return plan(Algo::kEquilevelScan, "equilevel-scan", "O(n^2 min|E_i|)");

  switch (op) {
    case Op::kEF:
      if (s.disjunctive_form)
        return plan(Algo::kEfDisjunctive, "ef-disjunctive-scan", "O(n|E|)");
      if (s.conjunctive_form)
        return plan(Algo::kGwWeakConjunctive, "gw-weak-conjunctive",
                    "O(n^2|E|)");
      if ((cls & kClassLinear) && s.has_forbidden)
        return plan(Algo::kChaseGargEf, "chase-garg-ef", "O(n^2|E|)");
      if ((cls & kClassPostLinear) && s.has_forbidden_down)
        return plan(Algo::kChaseGargEfDual, "chase-garg-ef-dual",
                    "O(n^2|E|)");
      if (cls & kClassObserverIndependent)
        return plan(Algo::kOiScan, "oi-single-observation", "O(n|E|)");
      break;
    case Op::kAF:
      if (s.disjunctive_form)
        return plan(Algo::kAfDisjunctive, "af-disjunctive", "O(n|E|)");
      if (s.conjunctive_form)
        return plan(Algo::kGwStrongConjunctive, "gw-strong-conjunctive",
                    "O(n^2|E|)");
      if (cls & kClassObserverIndependent)
        return plan(Algo::kOiScan, "oi-single-observation", "O(n|E|)");
      break;
    case Op::kEG:
      if (s.conjunctive_form)
        return plan(Algo::kEgConjunctiveScan, "eg-conjunctive-scan",
                    "O(n^2|E|)");
      if (s.disjunctive_form)
        return plan(Algo::kEgDisjunctive, "eg-disjunctive", "O(n^2|E|)");
      if (cls & kClassLinear)
        return plan(Algo::kA1EgLinear, "A1-eg-linear", "O(n^2|E|)");
      if (cls & kClassPostLinear)
        return plan(Algo::kA1EgPostLinear, "A1-eg-post-linear", "O(n^2|E|)");
      break;
    case Op::kAG:
      if (s.conjunctive_form)
        return plan(Algo::kAgConjunctiveScan, "ag-conjunctive-scan",
                    "O(n^2|E|)");
      if (s.disjunctive_form)
        return plan(Algo::kAgDisjunctive, "ag-disjunctive", "O(n^2|E|)");
      if (cls & kClassLinear)
        return plan(Algo::kA2AgLinear, "A2-ag-linear", "O(n|E|) evals");
      if (cls & kClassPostLinear)
        return plan(Algo::kA2AgPostLinear, "A2-ag-post-linear",
                    "O(n|E|) evals");
      break;
    default:
      break;  // EU/AU are plan_until's business; fall through to the assert
  }

  if (op == Op::kEF && s.num_disjuncts > 0)
    return plan(Algo::kEfOrSplit, "ef-or-split", "Σ disjunct plans");
  if (op == Op::kAG && s.num_conjuncts > 0)
    return plan(Algo::kAgAndSplit, "ag-and-split", "Σ conjunct plans");

  const bool oi = (cls & kClassObserverIndependent) != 0;
  switch (op) {
    case Op::kEF:
      return fallback(Algo::kEfDfs, "ef-dfs", false, allow_exponential);
    case Op::kAF:
      return fallback(Algo::kAfDfs, "af-dfs", false, allow_exponential);
    case Op::kEG:
      // NP-complete already for observer-independent predicates (Thm 5).
      return fallback(Algo::kEgDfs, "eg-dfs", oi, allow_exponential);
    default:
      // Dually co-NP-complete (Thm 6).
      return fallback(Algo::kAgDfs, "ag-dfs", oi, allow_exponential);
  }
}

DetectPlan plan_until(Op op, const PredShape& p, const PredShape& q,
                      bool all_q_disjuncts_linear, bool allow_exponential) {
  if (op == Op::kEU) {
    // A3 locates I_q with the Chase–Garg walk, so q needs its oracle.
    if (p.conjunctive_form && (q.classes & kClassLinear) && q.has_forbidden)
      return plan(Algo::kA3Eu, "A3-eu", "O(n^2|E|)");
    if (p.conjunctive_form && q.num_disjuncts > 0 && all_q_disjuncts_linear)
      return plan(Algo::kEuOrSplit, "eu-or-split(A3)", "Σ disjunct plans");
    return fallback(Algo::kEuDfs, "eu-dfs", false, allow_exponential);
  }
  if (p.disjunctive_form && q.disjunctive_form)
    return plan(Algo::kAuDisjunctive, "au-disjunctive", "O(n^2|E|)");
  return fallback(Algo::kAuDfs, "au-dfs", false, allow_exponential);
}

std::string plan_to_string(const DetectPlan& p) {
  return strfmt("%s (%s)", p.name, p.cost);
}

std::vector<Diagnostic> plan_diagnostics(Op op, const Predicate& p,
                                         const PredShape& s,
                                         const DetectPlan& pl) {
  std::vector<Diagnostic> out;
  // describe() builds a string recursively; on the no-findings fast path
  // (every detect() call in kLintOnly mode) it must not run at all.
  std::string desc_cache;
  const auto desc = [&]() -> const char* {
    if (desc_cache.empty()) desc_cache = p.describe();
    return desc_cache.c_str();
  };

  if (s.classes == 0 && s.num_disjuncts == 0 && s.num_conjuncts == 0) {
    Diagnostic d;
    d.code = DiagCode::kUnclassifiedPredicate;
    d.message = strfmt("operand '%s' has no structural class on this "
                       "computation; only explicit search applies",
                       desc());
    d.suggestion = "build the predicate from local/conjunctive/relational "
                   "combinators, or assert a class you can audit";
    out.push_back(std::move(d));
  }

  const bool linear_no_oracle =
      (s.classes & kClassLinear) && !s.has_forbidden;
  const bool postlinear_no_oracle =
      (s.classes & kClassPostLinear) && !s.has_forbidden_down;
  if ((linear_no_oracle || postlinear_no_oracle) &&
      (pl.exponential || pl.algo == Algo::kOiScan)) {
    Diagnostic d;
    d.code = DiagCode::kMissingOracle;
    d.message = strfmt(
        "'%s' claims %s but implements no %s oracle; the Chase-Garg "
        "advancement route is skipped",
        desc(), linear_no_oracle ? "linear" : "post-linear",
        linear_no_oracle ? "forbidden()" : "forbidden_down()");
    d.suggestion = "override has_forbidden()/forbidden() (or the _down "
                   "duals) on the predicate";
    out.push_back(std::move(d));
  }

  if (pl.exponential) {
    Diagnostic d;
    d.code = DiagCode::kExponentialFallback;
    d.message = strfmt("%s over '%s' dispatches to %s (worst-case "
                       "exponential in the number of processes)%s",
                       to_string(op), desc(), pl.name,
                       pl.refused ? "; allow_exponential is off, so the "
                                    "verdict degrades to kUnknown"
                                  : "");
    // Suggestions are rendered from the rewrite-rule catalog, so the lint
    // names the exact rule optimize=kApply would run (analysis/rules.h is
    // the single source of truth for the texts).
    switch (op) {
      case Op::kEF:
      case Op::kAF:
        d.suggestion = rule_info(op == Op::kEF ? RuleId::kEfDnfSplit
                                               : RuleId::kAdvisoryBudget)
                           .suggestion;
        break;
      case Op::kAG:
        d.suggestion = rule_info(RuleId::kAgCnfSplit).suggestion;
        break;
      case Op::kEU:
        d.suggestion = rule_info(RuleId::kAdvisoryEuA3).suggestion;
        break;
      case Op::kAU:
        d.suggestion = rule_info(RuleId::kAdvisoryAuDual).suggestion;
        break;
      default:
        d.suggestion = rule_info(RuleId::kAdvisoryBudget).suggestion;
        break;
    }
    out.push_back(std::move(d));
  }

  if (pl.np_hard) {
    Diagnostic d;
    d.code = DiagCode::kIntractableClass;
    d.message = strfmt(
        "%s over the observer-independent predicate '%s' is %s (Thm %s); "
        "no polynomial route can exist",
        to_string(op), desc(),
        op == Op::kEG ? "NP-complete" : "co-NP-complete",
        op == Op::kEG ? "5" : "6");
    out.push_back(std::move(d));
  }

  if (pl.algo == Algo::kEfOrSplit || pl.algo == Algo::kAgAndSplit ||
      pl.algo == Algo::kEuOrSplit) {
    const std::size_t width = pl.algo == Algo::kAgAndSplit
                                  ? s.num_conjuncts
                                  : s.num_disjuncts;
    Diagnostic d;
    d.code = DiagCode::kSplitDispatch;
    d.severity = DiagSeverity::kInfo;
    d.message = strfmt("%s distributes over %zu operands of '%s'; cost is "
                       "the sum of the per-operand plans",
                       to_string(op), width, desc());
    out.push_back(std::move(d));
  }

  if (p.classes_asserted() && !pl.exponential) {
    Diagnostic d;
    d.code = DiagCode::kAssertedClasses;
    d.severity = DiagSeverity::kInfo;
    d.message = strfmt("the class bits of '%s' are user-asserted and "
                       "unverified, and the %s route trusts them",
                       desc(), pl.name);
    d.suggestion = "run AuditMode::kFull (or audit_predicate) to verify the "
                   "claims against the lattice definitions";
    out.push_back(std::move(d));
  }

  return out;
}

}  // namespace hbct
