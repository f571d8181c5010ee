// Predicate interface and the predicate-class taxonomy of Section 4.
//
// A predicate is a boolean function of a global state (consistent cut). The
// paper's detection algorithms exploit *structure*: which lattice-theoretic
// class the set of satisfying cuts falls into. We track classes as a bitmask
// with the paper's containments applied as closure rules:
//
//   local ⇒ conjunctive, disjunctive        (a single conjunct/disjunct)
//   conjunctive ⇒ regular                    (min of positions is one of them)
//   regular ⇒ linear, post-linear            (sublattice = both semilattices)
//   disjunctive ⇒ observer-independent
//   stable ⇒ observer-independent
//
// Classes may depend on the computation (e.g. Σx_i ≥ k is post-linear only
// when every x_i is non-decreasing over time), hence classes() takes the
// computation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "poset/computation.h"
#include "poset/cut.h"
#include "predicate/eval_cursor.h"

namespace hbct {

using ClassSet = std::uint32_t;

enum : ClassSet {
  kClassLocal = 1u << 0,
  kClassConjunctive = 1u << 1,
  kClassDisjunctive = 1u << 2,
  kClassStable = 1u << 3,
  kClassObserverIndependent = 1u << 4,
  kClassLinear = 1u << 5,
  kClassPostLinear = 1u << 6,
  kClassRegular = 1u << 7,
  /// Every satisfying cut is a diagonal cut (l, l, ..., l): the satisfying
  /// set lies on the equilevel chain C_0 < C_1 < ... < C_min|E_i|. Detection
  /// reduces to scanning that chain (detect/equilevel.h); EF/EG/AG become
  /// O(n^2 min|E_i|). Not implied by and not implying any other class —
  /// diagonal sets are generally neither meet- nor join-closed relative to
  /// the full lattice walk structure the other algorithms rely on.
  kClassEquilevel = 1u << 8,
};

/// Applies the containment rules until fixpoint.
ClassSet close_classes(ClassSet s);

/// Human-readable list, e.g. "conjunctive,regular,linear,post-linear".
std::string classes_to_string(ClassSet s);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

class Predicate : public std::enable_shared_from_this<Predicate> {
 public:
  virtual ~Predicate() = default;

  /// Truth value at consistent cut g.
  virtual bool eval(const Computation& c, const Cut& g) const = 0;

  /// Structural classes of this predicate for computation c, already
  /// closure-saturated. A predicate that holds at the initial cut is
  /// additionally observer-independent (the NP-reduction's trick); callers
  /// wanting that refinement use effective_classes() below.
  virtual ClassSet classes(const Computation& c) const = 0;

  /// One-line description for diagnostics ("x@P0 < 4 && empty(1,2)").
  virtual std::string describe() const = 0;

  /// Linear-advancement oracle (Chase–Garg). Precondition: !eval(c, g) and
  /// classes(c) contains kClassLinear. Returns a process i such that no
  /// cut H ⊇ g with H[i] == g[i] satisfies the predicate: every satisfying
  /// cut above g contains the next event of i.
  virtual ProcId forbidden(const Computation& c, const Cut& g) const;

  /// Post-linear dual. Precondition: !eval(c, g) and classes(c) contains
  /// kClassPostLinear. Returns i such that no H ⊆ g with H[i] == g[i]
  /// satisfies the predicate: we must retreat process i.
  virtual ProcId forbidden_down(const Computation& c, const Cut& g) const;

  /// Whether forbidden() / forbidden_down() are actually implemented (the
  /// defaults abort). The dispatcher and the class auditor consult these
  /// before taking a Chase–Garg route: a predicate that *claims* linearity
  /// (e.g. via make_asserted) without supplying an oracle is routed past
  /// the advancement algorithms instead of aborting mid-detection, and lint
  /// reports W005 missing-oracle.
  virtual bool has_forbidden() const { return false; }
  virtual bool has_forbidden_down() const { return false; }

  /// True when classes() repeats a user assertion (make_asserted) rather
  /// than deriving from structure: the claim is load-bearing for dispatch
  /// but unverified, which lint surfaces as W007 and the auditor can check.
  virtual bool classes_asserted() const { return false; }

  /// Negation. The default wraps in a generic Not (classes mostly lost);
  /// structured predicates override to keep De-Morgan structure
  /// (¬disjunctive = conjunctive etc.), which the AU algorithm requires.
  virtual PredicatePtr negate() const;

  /// The constant value of this predicate, if it is one (make_true /
  /// make_false). Lets as_conjunctive / as_disjunctive fold constants into
  /// structured form, e.g. so E[true U q] dispatches to A3.
  virtual std::optional<bool> as_constant() const { return std::nullopt; }

  /// For a top-level disjunction (make_or result that stayed generic):
  /// its disjuncts; empty otherwise. The dispatcher uses the distributive
  /// laws EF(∨ p_i) = ∨ EF(p_i) and E[p U ∨ q_i] = ∨ E[p U q_i] to keep
  /// DNF-shaped predicates out of the exponential fallback.
  virtual std::vector<PredicatePtr> disjuncts() const { return {}; }

  /// Dually, a top-level conjunction's conjuncts (AG(∧ p_i) = ∧ AG(p_i)).
  virtual std::vector<PredicatePtr> conjuncts() const { return {}; }

  /// Incremental-evaluation cursor bound to the walker-owned cut `g` (see
  /// predicate/eval_cursor.h for the stepping contract). The default is a
  /// scratch fallback whose value() re-runs eval(); structured predicates
  /// override with O(1)-steppable cursors. The predicate and the cut must
  /// outlive the cursor.
  virtual EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const;
};

/// classes(c) refined with the "holds initially ⇒ observer-independent"
/// rule (costs one eval of the initial cut; after prefix GC, of the trim
/// cut, where every observation of the resident cuts starts).
ClassSet effective_classes(const Predicate& p, const Computation& c);

// ---- Trivial predicates ----------------------------------------------------

/// Constant true/false; member of every class.
PredicatePtr make_true();
PredicatePtr make_false();

// ---- Generic combinators ---------------------------------------------------

/// p ∧ q. Class algebra: conjunctive∧conjunctive = conjunctive,
/// linear∧linear = linear (with a forbidden oracle delegating to a false
/// conjunct), regular∧regular = regular, stable∧stable = stable,
/// post-linear∧post-linear = post-linear.
PredicatePtr make_and(std::vector<PredicatePtr> children);
PredicatePtr make_and(PredicatePtr a, PredicatePtr b);

/// p ∨ q. Class algebra: disjunctive∨disjunctive = disjunctive,
/// stable∨stable = stable.
PredicatePtr make_or(std::vector<PredicatePtr> children);
PredicatePtr make_or(PredicatePtr a, PredicatePtr b);

/// ¬p with De Morgan pushed into structured predicates when possible.
PredicatePtr make_not(PredicatePtr p);

// ---- Escape hatches ---------------------------------------------------------

/// Wraps an arbitrary cut function with a user-asserted class set.
/// The property-test suite uses this to inject ground-truth-checked
/// predicates; misuse (claiming a class the predicate does not have) voids
/// detector guarantees, exactly as in the paper's model.
PredicatePtr make_asserted(
    std::function<bool(const Computation&, const Cut&)> fn, ClassSet classes,
    std::string description);

/// Stable predicate from a cut function (classes stable + OI).
PredicatePtr make_stable(std::function<bool(const Computation&, const Cut&)> fn,
                         std::string description);

/// "Every process has executed all its events" — the canonical stable
/// predicate (termination).
PredicatePtr make_terminated();

/// Unions machine-derived class bits into p's classes() (and
/// `negation_extra` into its negation's), forwarding everything else. The
/// CTL query optimizer installs this for bits the syntactic inference
/// engine (analysis/infer.h) derives but the structural probe cannot see —
/// e.g. the stability of `pos(0)+pos(1) > 3`. Returns p unchanged when
/// both sets are empty. Unlike make_asserted the bits do not report
/// classes_asserted(): they come with a machine-checkable derivation, not
/// a user claim.
PredicatePtr make_refined(PredicatePtr p, ClassSet extra,
                          ClassSet negation_extra = 0);

}  // namespace hbct
