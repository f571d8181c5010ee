// The front door of the library: class-aware algorithm dispatch.
//
// detect() inspects the predicate's effective classes on the given
// computation (Section 4's taxonomy) and routes to the cheapest applicable
// algorithm of Table 1, falling back to explicit search for arbitrary
// predicates. The chosen algorithm is reported in DetectResult::algorithm.
#pragma once

#include "analysis/audit.h"
#include "detect/detector.h"
#include "detect/stable_oi.h"

namespace hbct {

/// Pre-flight analysis attached to a detection (see DetectResult::plan and
/// DetectResult::diagnostics).
enum class AuditMode {
  /// No analysis; plan/diagnostics stay empty. The default — detection pays
  /// nothing.
  kOff,
  /// Predict the dispatch plan and lint it (W-diagnostics) before running.
  /// Costs a few virtual calls per query; never changes the verdict.
  kLintOnly,
  /// kLintOnly plus a semantic audit of every operand's claimed class bits
  /// (analysis/audit.h). A violation aborts the detection with
  /// Verdict::kUnknown and BoundReason::kAuditFailed — a lying class claim
  /// could otherwise produce a wrong *definite* verdict — and the refuting
  /// counterexample is reported as E-diagnostics.
  kFull,
};

/// What the CTL query optimizer (analysis/optimize.h) is allowed to do for
/// a query evaluated through ctl::evaluate_query. Predicate-level detect()
/// calls never rewrite (there is no AST to rewrite).
enum class OptimizeMode {
  /// No optimization; queries evaluate exactly as written. The default.
  kOff,
  /// Run the optimizer's analysis and attach the rewrite chain it *would*
  /// apply (DetectResult::rewrites, W008/W009 diagnostics), but evaluate
  /// the original query. Never changes the verdict, plan, or algorithm.
  kAnalyzeOnly,
  /// Apply the chosen equivalence-preserving rewrite chain and evaluate the
  /// optimized query. Verdicts are bit-identical to kOff on unbudgeted
  /// runs (the rewrites are sound); routes — and therefore budget behavior
  /// and witnesses — may differ, always within the three-valued contract.
  kApply,
};

struct DispatchOptions {
  /// Resource bounds honoured by every algorithm on the route: state cap
  /// for the exponential fallbacks, work budget (cut steps + predicate
  /// evaluations), wall-clock deadline and cooperative cancellation. A
  /// tripped bound yields Verdict::kUnknown with the BoundReason set —
  /// never a definite verdict that was not actually established.
  Budget budget;
  /// When false, a predicate with no polynomial algorithm yields kUnknown
  /// (BoundReason::kStateCap — the state exploration was refused) instead
  /// of falling back to a worst-case-exponential search — useful in
  /// latency-bound monitors.
  bool allow_exponential = true;
  /// Inert: nothing reads it, and detection is sequential at every value.
  /// It stays declared only because perfbench/src/offline_workloads.cpp
  /// assigns it; it goes once the benchmark drops that assignment.
  std::size_t parallelism = 1;
  /// Pre-flight plan/lint/audit; see AuditMode. Applies to the top-level
  /// query only — sub-detections spawned by the distributive splits run
  /// with the analysis already done.
  AuditMode audit = AuditMode::kOff;
  /// Capture the detection's span records (obs/trace.h). detect() creates
  /// a Tracer, threads it to every algorithm on the route via
  /// Budget::trace, and hands it out as DetectResult::trace, from which the
  /// caller can export Chrome trace JSON or the hbct.report/1 run report.
  /// Off by default: the disabled path costs one pointer test per
  /// capture-only site (no clock reads, no allocation). Overrides any
  /// caller-set Budget::trace.
  bool trace = false;
  /// Budgets for AuditMode::kFull (lattice cap, sample count, seed).
  AuditOptions audit_options;
  /// Query-level rewrite optimization (ctl::evaluate_query only); see
  /// OptimizeMode. Appended last so aggregate initializers of the earlier
  /// fields keep compiling.
  OptimizeMode optimize = OptimizeMode::kOff;
};

/// Detects `op`(p) — or `op`(p, q) for kEU/kAU — on the computation.
DetectResult detect(const Computation& c, Op op, const PredicatePtr& p,
                    const PredicatePtr& q = nullptr,
                    const DispatchOptions& opt = {});

}  // namespace hbct
