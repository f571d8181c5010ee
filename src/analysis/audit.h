// Predicate class auditor: semantic verification of claimed class bits.
//
// Every Table-1 algorithm is only sound when the predicate really belongs
// to the class it claims (classes() is trusted, and make_asserted lets the
// user claim anything). The auditor checks the claims against the lattice
// definitions of Section 4 — on small computations exhaustively over the
// explicit lattice, on large ones over budget-bounded samples — and returns
// a concrete counterexample cut (or cut pair) for every violation:
//
//   linear          meet of two satisfying cuts must satisfy p
//   post-linear     join of two satisfying cuts must satisfy p
//   regular         both of the above (sublattice)
//   stable          once true, true at every successor cut
//   observer-indep. no observation may miss p while another sees it
//   conjunctive     p(G) = ∧_i good_i(G[i]) for the canonical good sets
//   disjunctive     p(G) = ∨_i cand_i(G[i]) for the canonical candidates
//   local           truth depends on a single process's coordinate
//
// plus the advancement-oracle contracts (forbidden()/forbidden_down()) and
// the De Morgan contract of negate(). The property suite uses the auditor
// as an oracle against deliberately corrupted class bits; detect() can run
// it as a pre-flight check (DispatchOptions::audit == AuditMode::kFull).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "poset/computation.h"
#include "poset/cut.h"
#include "predicate/predicate.h"

namespace hbct {

struct AuditOptions {
  /// Lattices up to this many cuts are audited exhaustively; larger ones
  /// fall back to sampled observations (AuditResult::exhaustive = false).
  std::size_t max_lattice = std::size_t{1} << 12;
  /// Number of random observations walked in sampled mode.
  std::size_t samples = 64;
  std::uint64_t seed = 2002;
  /// Also verify negate(): semantic complement plus the classes the
  /// negation claims for itself.
  bool check_negation = true;
};

enum class AuditCheck {
  kLinearMeet,
  kPostLinearJoin,
  kStableUpClosed,
  kObserverIndependent,
  kConjunctiveDecomp,
  kDisjunctiveDecomp,
  kLocalDependence,
  kEquilevelDiagonal,
  kForbiddenOracle,
  kForbiddenDownOracle,
  kNegationSemantics,
  kNegationClasses,
};

const char* to_string(AuditCheck c);

struct AuditViolation {
  AuditCheck check;
  std::string message;
  /// The cuts witnessing the violation (e.g. two satisfying cuts and their
  /// non-satisfying meet; a missed-observation path for OI).
  std::vector<Cut> counterexample;
};

struct AuditResult {
  /// True when the whole lattice was enumerated: a clean result is a proof
  /// for this computation. False = sampled: violations are still real
  /// counterexamples, but a clean result is only evidence.
  bool exhaustive = false;
  /// Class bits whose definitions were actually exercised (sampled mode
  /// cannot check the decomposition classes, for example).
  ClassSet checked = 0;
  std::size_t cuts_examined = 0;
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// Audits the class bits `p` claims (effective_classes) on `c`.
AuditResult audit_predicate(const PredicatePtr& p, const Computation& c,
                            const AuditOptions& opt = {});

/// Renders an audit result as diagnostics: E101 for class-definition
/// violations, E102 for oracle-contract violations, E103 for negation
/// contract violations.
std::vector<Diagnostic> audit_diagnostics(const AuditResult& r);

}  // namespace hbct
