// Cost-model-driven CTL query optimizer.
//
// optimize_query enumerates a bounded set of equivalence-preserving
// candidates for a parsed query —
//
//   * the query as written,
//   * its boolean/temporal rewrite (analysis/rewrite.h: normalize +
//     rescue_temporal),
//   * the operand refined with syntactically inferred class bits
//     (analysis/infer.h via make_refined), unlocking Table-1 class routes
//     the structural probe cannot see,
//   * the costable collapse: EF/AF of a down-closed operand (or EG/AG of a
//     stable one) evaluated once at the initial cut,
//   * the EF-DNF / AG-CNF distribution of the operand so the dispatcher's
//     split routes fire,
//
// — prices each with the Table-1 cost formulas (dispatch plan cost scaled
// by formula size as the per-evaluation proxy), and returns the cheapest.
// Ties prefer fewer rewrite steps, so the original query wins when nothing
// improves. Every applied rule is recorded as a RewriteStep naming its
// catalog entry (analysis/rules.h); the chain is attached to
// DetectResult::rewrites and rendered into W008/W009 diagnostics.
//
// The optimizer never changes verdicts: every candidate is equivalent on
// the lattice-of-cuts semantics (tests/test_optimize.cpp pins
// kApply-vs-kOff bit-identical verdicts across the query corpus, seed
// sweeps and budget ladders).
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/infer.h"
#include "ctl/compile.h"
#include "detect/dispatch.h"

namespace hbct::ctl {

struct OptimizeOutcome {
  /// The chosen query form (== the input when !changed).
  Query query;
  /// Compiled operands of the chosen form, with inferred-class refinement
  /// applied when that candidate won. Null when the operand does not
  /// compile or the chosen form evaluates on the explicit lattice.
  PredicatePtr p;
  PredicatePtr q;
  /// The applied rewrite chain, in application order. Empty when the
  /// original query is already optimal.
  std::vector<RewriteStep> steps;
  /// Dispatch findings for the *chosen* form (anchored to the preserved
  /// source spans): what lint would say about the query after rewriting.
  std::vector<Diagnostic> residual;
  /// Human-readable plans before/after ("eg-dfs (exponential)" =>
  /// "stable-initial (O(n))").
  std::string plan_before;
  std::string plan_after;
  /// Cost-model prices of the original and chosen forms.
  double cost_before = 0;
  double cost_after = 0;
  bool changed = false;
  /// Class inference for the (final) p operand, with its derivation tree.
  Inference inference;
};

/// Optimizes one parsed query against `c`. Pure analysis: no detection
/// runs, nothing is mutated. `allow_exponential` mirrors
/// DispatchOptions::allow_exponential (it decides whether fallback routes
/// run or refuse, which the residual findings report).
OptimizeOutcome optimize_query(const Computation& c, const Query& q,
                               bool allow_exponential = true);

/// Renders the outcome's steps as diagnostics: W008 for each applied (or,
/// under kAnalyzeOnly, proposed) rewrite, W009 when the rule evidences a
/// constant or redundant subformula. Empty for OptimizeMode::kOff.
std::vector<Diagnostic> optimize_diagnostics(const OptimizeOutcome& o,
                                             OptimizeMode mode);

}  // namespace hbct::ctl
