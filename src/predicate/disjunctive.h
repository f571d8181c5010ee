// Disjunctive predicates: p = l_1 ∨ l_2 ∨ … with each l_i local.
//
// Disjunctive predicates are observer-independent (Section 4): if some
// observation passes through a cut where one disjunct holds, the event that
// made it true is seen by every observation. EF/AF detection is linear-time
// (scan each process's positions independently); EG/AG have polynomial
// algorithms by duality with conjunctive detection (Table 1).
#pragma once

#include <vector>

#include "predicate/local.h"
#include "predicate/predicate.h"

namespace hbct {

class DisjunctivePredicate final : public Predicate {
 public:
  explicit DisjunctivePredicate(std::vector<LocalPredicatePtr> locals);

  /// Canonicalized disjuncts, at most one per process, sorted by process.
  const std::vector<LocalPredicatePtr>& locals() const { return locals_; }

  bool eval(const Computation& c, const Cut& g) const override;
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassDisjunctive);
  }
  std::string describe() const override;
  /// The processes that own a disjunct.
  std::vector<ProcId> support(const Computation&) const override;

  /// ¬(∨ l_i) = ∧ ¬l_i — a ConjunctivePredicate.
  PredicatePtr negate() const override;

  /// Per-slot truth bits + a true count: O(1) per cut-component update.
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override;

 private:
  std::vector<LocalPredicatePtr> locals_;
};

using DisjunctivePredicatePtr = std::shared_ptr<const DisjunctivePredicate>;

DisjunctivePredicatePtr make_disjunctive(std::vector<LocalPredicatePtr> locals);

/// Attempts to view an arbitrary predicate as disjunctive (dual of
/// as_conjunctive).
DisjunctivePredicatePtr as_disjunctive(const PredicatePtr& p);

}  // namespace hbct
