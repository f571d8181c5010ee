// Lowering parsed CTL queries onto the predicate classes, and one-call
// evaluation against a computation.
//
// The compiler is where the paper's "exploit the structure of the predicate"
// philosophy meets the concrete syntax: a conjunction of per-process
// comparisons becomes a ConjunctivePredicate, sums of monotone variables
// become relational linear predicates, channel-count atoms become regular
// channel-bound predicates — so the dispatcher can pick the polynomial
// algorithms. Anything it cannot classify still evaluates correctly through
// the explicit-search fallback.
#pragma once

#include <string>
#include <string_view>

#include "ctl/formula.h"
#include "ctl/parser.h"
#include "detect/dispatch.h"

namespace hbct::ctl {

struct CompileResult {
  bool ok = false;
  std::string error;
  PredicatePtr pred;  // valid when ok
};

/// Lowers a state formula to a predicate. Computation-independent; variable
/// names are resolved at evaluation time. Fails when an atom's constant,
/// folded or derived by the lowering, leaves int64.
CompileResult compile_state(const NodePtr& node);

/// Checks that every variable and process referenced by the query exists in
/// the computation, and that every atom's constant fits in int64. Returns
/// an empty string when valid.
std::string validate_query(const Computation& c, const Query& q);

struct EvalResult {
  bool ok = false;
  std::string error;      // parse/compile/validation failure
  DetectResult result;    // valid when ok
  std::string algorithm;  // convenience copy of result.algorithm
};

/// Evaluates a parsed query: temporal queries dispatch per predicate class;
/// a bare state formula is evaluated at the initial cut.
EvalResult evaluate_query(const Computation& c, const Query& q,
                          const DispatchOptions& opt = {});

/// Parse + validate + evaluate in one call.
EvalResult evaluate_query(const Computation& c, std::string_view text,
                          const DispatchOptions& opt = {});

}  // namespace hbct::ctl
