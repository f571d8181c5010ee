#include "detect/dispatch.h"

#include "analysis/plan.h"
#include "detect/ag_linear.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "detect/conjunctive_gw.h"
#include "detect/disjunctive.h"
#include "detect/ef_linear.h"
#include "detect/eg_linear.h"
#include "detect/equilevel.h"
#include "detect/first_match.h"
#include "detect/until.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/assert.h"

namespace hbct {

namespace {

/// The polynomial route is refused (allow_exponential = false): report the
/// refused exploration as an indefinite verdict rather than asserting.
DetectResult refuse_exponential(const char* algorithm) {
  DetectResult r;
  r.algorithm = std::string(algorithm) + " (refused)";
  r.verdict = Verdict::kUnknown;
  r.bound = BoundReason::kStateCap;
  return r;
}

DetectResult detect_unary(const Computation& c, Op op, const PredicatePtr& p,
                          const DispatchOptions& opt,
                          const DetectPlan* pre = nullptr) {
  const DetectPlan plan =
      pre ? *pre : plan_unary(op, shape_of(p, c), opt.allow_exponential);
  if (plan.refused) return refuse_exponential(plan.name);

  switch (plan.algo) {
    case Algo::kStableFinal:
    case Algo::kStableInitial:
      return detect_stable(c, *p, op, opt.budget);

    case Algo::kEquilevelScan:
      return detect_equilevel(c, *p, op, opt.budget);

    case Algo::kEfDisjunctive:
      return detect_ef_disjunctive(c, *as_disjunctive(p), opt.budget);
    case Algo::kGwWeakConjunctive:
      return detect_ef_conjunctive(c, *as_conjunctive(p), opt.budget);
    case Algo::kChaseGargEf:
      return detect_ef_linear(c, *p, opt.budget);
    case Algo::kChaseGargEfDual:
      return detect_ef_post_linear(c, *p, opt.budget);
    case Algo::kOiScan: {
      DetectResult r = detect_ef_observer_independent(c, *p, opt.budget);
      if (op == Op::kAF) r.algorithm += " (af == ef)";
      return r;
    }

    case Algo::kAfDisjunctive:
      return detect_af_disjunctive(c, *as_disjunctive(p), opt.budget);
    case Algo::kGwStrongConjunctive:
      return detect_af_conjunctive(c, *as_conjunctive(p), opt.budget);

    case Algo::kEgConjunctiveScan:
      return detect_eg_conjunctive(c, *as_conjunctive(p), opt.budget);
    case Algo::kEgDisjunctive:
      return detect_eg_disjunctive(c, *as_disjunctive(p), opt.budget);
    case Algo::kA1EgLinear:
      return detect_eg_linear(c, *p, opt.budget);
    case Algo::kA1EgPostLinear:
      return detect_eg_post_linear(c, *p, opt.budget);

    case Algo::kAgConjunctiveScan:
      return detect_ag_conjunctive(c, *as_conjunctive(p), opt.budget);
    case Algo::kAgDisjunctive:
      return detect_ag_disjunctive(c, *as_disjunctive(p), opt.budget);
    case Algo::kA2AgLinear:
      return detect_ag_linear(c, *p, opt.budget);
    case Algo::kA2AgPostLinear:
      return detect_ag_post_linear(c, *p, opt.budget);

    // Distributive laws before the exponential fallback: EF over top-level
    // disjunctions and AG over top-level conjunctions recurse into the
    // operands, keeping e.g. DNF-of-comparisons polynomial. The first
    // holding EF operand, or failing AG operand, decides the split.
    case Algo::kEfOrSplit:
    case Algo::kAgAndSplit: {
      const bool ef = plan.algo == Algo::kEfOrSplit;
      const auto parts = ef ? p->disjuncts() : p->conjuncts();
      const Verdict decides = ef ? Verdict::kHolds : Verdict::kFails;
      DetectResult r;
      r.algorithm = ef ? "ef-or-split" : "ag-and-split";
      FirstMatch m = detect_first_match(
          parts.size(),
          [&](std::size_t i) { return detect_unary(c, op, parts[i], opt); },
          [&](const DetectResult& sub) { return sub.verdict == decides; },
          r.stats, opt.budget.trace, ef ? "split.ef-or" : "split.ag-and");
      settle_first_match(r, m, decides,
                         ef ? kWitnessCut | kWitnessPath : kWitnessCut);
      return r;
    }

    case Algo::kEfDfs:
      return detect_ef_dfs(c, *p, opt.budget);
    case Algo::kAfDfs:
      return detect_af_dfs(c, *p, opt.budget);
    case Algo::kEgDfs:
      return detect_eg_dfs(c, *p, opt.budget);
    case Algo::kAgDfs:
      return detect_ag_dfs(c, *p, opt.budget);

    default:
      HBCT_ASSERT_MSG(false, "plan_unary returned an until algorithm");
  }
}

DetectResult detect_impl(const Computation& c, Op op, const PredicatePtr& p,
                         const PredicatePtr& q, const DispatchOptions& opt,
                         const DetectPlan* pre = nullptr) {
  if (op != Op::kEU && op != Op::kAU) return detect_unary(c, op, p, opt, pre);

  HBCT_ASSERT_MSG(q, "EU/AU require two predicates");
  const DetectPlan plan =
      pre ? *pre
          : plan_until(op, shape_of(p, c), shape_of(q, c),
                       op == Op::kEU && q_splits_into_linear(c, q),
                       opt.allow_exponential);
  if (plan.refused) return refuse_exponential(plan.name);

  switch (plan.algo) {
    case Algo::kA3Eu:
      return detect_eu(c, *as_conjunctive(p), *q, opt.budget);
    // Distribute over a disjunctive second operand:
    // E[p U (q1 ∨ q2)] = E[p U q1] ∨ E[p U q2].
    case Algo::kEuOrSplit: {
      const auto conj = as_conjunctive(p);
      const auto parts = q->disjuncts();
      DetectResult r;
      r.algorithm = "eu-or-split(A3)";
      FirstMatch m = detect_first_match(
          parts.size(),
          [&](std::size_t i) {
            return detect_eu(c, *conj, *parts[i], opt.budget);
          },
          [](const DetectResult& sub) {
            return sub.verdict == Verdict::kHolds;
          },
          r.stats, opt.budget.trace, "split.eu-or");
      settle_first_match(r, m, Verdict::kHolds, kWitnessCut | kWitnessPath);
      return r;
    }
    case Algo::kEuDfs:
      return detect_eu_dfs(c, *p, *q, opt.budget);

    case Algo::kAuDisjunctive:
      return detect_au_disjunctive(c, *as_disjunctive(p), *as_disjunctive(q),
                                   opt.budget);
    case Algo::kAuDfs:
      return detect_au_dfs(c, p, q, opt.budget);

    default:
      HBCT_ASSERT_MSG(false, "plan_until returned a unary algorithm");
  }
}

/// Plan + lint + (optionally) audit for the top-level query; fills
/// r.plan/r.diagnostics. Returns false when a kFull audit refuted a class
/// claim and the detection must not run.
bool preflight(const Computation& c, Op op, const PredicatePtr& p,
               const PredicatePtr& q, const DispatchOptions& opt,
               DetectPlan& plan, DetectResult& r) {
  const PredShape sp = shape_of(p, c);
  if (op == Op::kEU || op == Op::kAU) {
    const PredShape sq = shape_of(q, c);
    plan = plan_until(op, sp, sq,
                      op == Op::kEU && q_splits_into_linear(c, q),
                      opt.allow_exponential);
    r.diagnostics = plan_diagnostics(op, *p, sp, plan);
    // Plan-level findings (W001/W002/W006) were already raised for p;
    // keep only the q-operand findings.
    for (Diagnostic& d : plan_diagnostics(op, *q, sq, plan)) {
      if (d.code == DiagCode::kExponentialFallback ||
          d.code == DiagCode::kIntractableClass ||
          d.code == DiagCode::kSplitDispatch)
        continue;
      r.diagnostics.push_back(std::move(d));
    }
  } else {
    plan = plan_unary(op, sp, opt.allow_exponential);
    r.diagnostics = plan_diagnostics(op, *p, sp, plan);
  }
  r.plan = plan_to_string(plan);
  if (opt.audit != AuditMode::kFull) return true;

  bool ok = true;
  for (const PredicatePtr& pred : {p, q}) {
    if (!pred) continue;
    const AuditResult audit = audit_predicate(pred, c);
    if (audit.ok()) continue;
    ok = false;
    for (Diagnostic& d : audit_diagnostics(audit)) {
      d.message = "'" + pred->describe() + "': " + d.message;
      r.diagnostics.push_back(std::move(d));
    }
  }
  return ok;
}

/// Process-wide verdict tally; resolved once, incremented lock-free.
Counter& global_verdict_counter(Verdict v) {
  static Counter& holds =
      MetricsRegistry::global().counter("detect.verdict.holds");
  static Counter& fails =
      MetricsRegistry::global().counter("detect.verdict.fails");
  static Counter& unknown =
      MetricsRegistry::global().counter("detect.verdict.unknown");
  switch (v) {
    case Verdict::kHolds: return holds;
    case Verdict::kFails: return fails;
    default: return unknown;
  }
}

/// Every detect() folds its operation counts and verdict into the global
/// registry; a traced run additionally lands them in its own registry so
/// the run report is self-contained.
void finish_metrics(const DetectResult& r, Tracer* t) {
  MetricsRegistry::global().absorb(r.stats);
  global_verdict_counter(r.verdict).add(1);
  if (t != nullptr) {
    MetricsRegistry& m = t->metrics();
    m.absorb(r.stats);
    m.counter(std::string("detect.verdict.") + to_string(r.verdict)).add(1);
  }
}

DetectResult detect_routed(const Computation& c, Op op, const PredicatePtr& p,
                           const PredicatePtr& q, const DispatchOptions& opt) {
  if (opt.audit == AuditMode::kOff) return detect_impl(c, op, p, q, opt);

  DetectPlan plan;
  DetectResult pre;
  bool claims_ok;
  {
    ScopedSpan s(opt.budget.trace, "dispatch.preflight");
    claims_ok = preflight(c, op, p, q, opt, plan, pre);
  }
  if (!claims_ok) {
    // A refuted class claim voids the soundness of every class-specific
    // route; degrade to indefinite rather than risk a wrong definite
    // verdict (the Kleene contract of detect/budget.h). An audit failure
    // also means a predicate lied about its class — exactly the incident a
    // flight-recorder window should capture.
    static const std::uint16_t kAuditFail =
        FlightRecorder::intern("audit.fail", "op", "");
    FlightRecorder::global().anomaly(kAuditFail,
                                     static_cast<std::int64_t>(op), 0);
    pre.algorithm = std::string(plan.name) + " (audit failed)";
    pre.verdict = Verdict::kUnknown;
    pre.bound = BoundReason::kAuditFailed;
    return pre;
  }
  DispatchOptions sub_opt = opt;
  sub_opt.audit = AuditMode::kOff;
  // The preflight already planned the query; reuse it so the analysis adds
  // no second shape_of/plan pass to the detection itself.
  DetectResult r = detect_impl(c, op, p, q, sub_opt, &plan);
  r.plan = std::move(pre.plan);
  r.diagnostics = std::move(pre.diagnostics);
  return r;
}

}  // namespace

DetectResult detect(const Computation& c, Op op, const PredicatePtr& p,
                    const PredicatePtr& q, const DispatchOptions& opt) {
  HBCT_ASSERT(p);
  if (op == Op::kEU || op == Op::kAU)
    HBCT_ASSERT_MSG(q, "EU/AU require two predicates");

  // Always-on flight span around the whole detection (a few ns; see
  // obs/flight.h) so anomaly dumps show what detections surrounded the
  // incident; a traced run captures the same record as its root span.
  static const std::uint16_t kDetect =
      FlightRecorder::intern("detect", "op", "verdict");
  TraceHandle tracer = opt.trace ? std::make_shared<Tracer>() : nullptr;
  DetectResult r;
  {
    FlightScope root(FlightRecorder::global(), kDetect, tracer.get());
    if (tracer == nullptr) {
      r = detect_routed(c, op, p, q, opt);
    } else {
      DispatchOptions traced = opt;
      traced.budget.trace = tracer.get();
      r = detect_routed(c, op, p, q, traced);
    }
    root.args(static_cast<std::int64_t>(op),
              static_cast<std::int64_t>(r.verdict));
  }
  finish_metrics(r, tracer != nullptr ? tracer.get() : opt.budget.trace);
  r.trace = std::move(tracer);
  return r;
}

}  // namespace hbct
