// Dispatch planning: predict which Table-1 algorithm detect() will run.
//
// detect/dispatch.cpp and predicate/classify.cpp used to each encode the
// routing rules; they drifted (classify promised A1/A2 for conjunctive
// predicates that dispatch actually sends to the conjunctive scans). Both
// now route through plan_unary()/plan_until() below, and the static query
// lint (analysis/lint.h) uses the same plans to warn about exponential
// dispatches *before* they run.
//
// Contract, pinned by tests/test_plan_parity.cpp: DetectPlan::name is a
// prefix of the DetectResult::algorithm string the detection actually
// reports (detectors may append detail such as " (af == ef)" or
// " (refused)").
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/diagnostics.h"
#include "detect/detector.h"  // Op (header-only use; no hbct_detect link dep)
#include "predicate/predicate.h"

namespace hbct {

/// Everything the dispatcher looks at when routing a predicate: effective
/// classes, structural conjunctive/disjunctive form, top-level ∧/∨ splits,
/// and whether the Chase–Garg advancement oracles are implemented.
struct PredShape {
  ClassSet classes = 0;           // effective_classes(p, c)
  bool conjunctive_form = false;  // as_conjunctive(p) != nullptr
  bool disjunctive_form = false;  // as_disjunctive(p) != nullptr
  std::size_t num_disjuncts = 0;  // p->disjuncts().size()
  std::size_t num_conjuncts = 0;  // p->conjuncts().size()
  bool has_forbidden = false;
  bool has_forbidden_down = false;
};

PredShape shape_of(const PredicatePtr& p, const Computation& c);

/// Every route detect() can take, in Table-1 terms.
enum class Algo {
  kStableFinal,      // EF/AF of a stable predicate: evaluate the final cut
  kStableInitial,    // EG/AG of a stable predicate: evaluate the initial cut
  kOiScan,           // single-observation scan (EF==AF, observer-independent)
  kEquilevelScan,    // diagonal-chain scan (EF/EG/AG, equilevel)
  kEfDisjunctive,    // per-process candidate scan
  kGwWeakConjunctive,
  kChaseGargEf,      // linear advancement (needs forbidden())
  kChaseGargEfDual,  // post-linear retreat (needs forbidden_down())
  kAfDisjunctive,
  kGwStrongConjunctive,
  kEgConjunctiveScan,
  kEgDisjunctive,
  kA1EgLinear,
  kA1EgPostLinear,
  kAgConjunctiveScan,
  kAgDisjunctive,
  kA2AgLinear,
  kA2AgPostLinear,
  kEfOrSplit,   // EF(∨ p_i) = ∨ EF(p_i)
  kAgAndSplit,  // AG(∧ p_i) = ∧ AG(p_i)
  kEfDfs,       // explicit-search fallbacks (worst-case exponential)
  kAfDfs,
  kEgDfs,
  kAgDfs,
  kA3Eu,
  kEuOrSplit,  // E[p U ∨ q_i] = ∨ E[p U q_i], each branch A3
  kEuDfs,
  kAuDisjunctive,
  kAuDfs,
};

/// A predicted dispatch. `name` is a prefix of the algorithm string the
/// detection reports; `cost` is the paper's complexity for the route.
struct DetectPlan {
  Algo algo;
  const char* name;
  const char* cost;
  /// Explicit state-space search: worst-case exponential in the number of
  /// processes.
  bool exponential = false;
  /// The instance is NP-complete (EG over observer-independent, Thm 5) or
  /// co-NP-complete (AG, Thm 6) — no polynomial route can exist unless
  /// P = NP, so rewriting the predicate is the only escape.
  bool np_hard = false;
  /// allow_exponential is off and this route would have been exponential:
  /// the detection returns kUnknown instead of searching.
  bool refused = false;
};

/// Routes exactly as detect() does for the unary operators (kEF/kAF/kEG/
/// kAG). Must be kept in lockstep with detect_unary in detect/dispatch.cpp
/// (which itself switches on the returned plan).
DetectPlan plan_unary(Op op, const PredShape& p, bool allow_exponential);

/// Routes exactly as detect() does for kEU/kAU. `all_q_disjuncts_linear`
/// reflects the eu-or-split side condition: q has top-level disjuncts and
/// every one of them is linear on the computation.
DetectPlan plan_until(Op op, const PredShape& p, const PredShape& q,
                      bool all_q_disjuncts_linear, bool allow_exponential);

/// The eu-or-split side condition plan_until takes: every top-level
/// disjunct of q is linear on c and carries the forbidden() oracle A3's
/// I_q walk needs. The dispatcher, the lint and the optimizer all ask it.
bool q_splits_into_linear(const Computation& c, const PredicatePtr& q);

/// Renders "<name> (<cost>)", e.g. "chase-garg-ef (O(n^2|E|))" —
/// DetectResult::plan and the classify report use this form.
std::string plan_to_string(const DetectPlan& p);

/// Lint findings for one planned dispatch: W001/W002 on exponential or
/// intractable routes, W004 for a class-less operand, W005 for a claimed
/// (post-)linear predicate with no advancement oracle, W006 on split
/// fan-outs, W007 when user-asserted class bits are load-bearing.
/// Diagnostics carry no source span here; the query lint anchors them.
std::vector<Diagnostic> plan_diagnostics(Op op, const Predicate& p,
                                         const PredShape& s,
                                         const DetectPlan& plan);

}  // namespace hbct
