// Conjunctive predicates: p = l_1 ∧ l_2 ∧ … with each l_i local.
//
// The workhorse class of the predicate-detection literature (Garg–Waldecker
// weak/strong conjunctive detection, the slice-based EG algorithm, and the
// p-part of the paper's E[p U q] algorithm all require this shape). Locals
// are canonicalized to at most one conjunct per process: several conjuncts
// on one process are ANDed into one local.
#pragma once

#include <optional>
#include <vector>

#include "predicate/local.h"
#include "predicate/predicate.h"

namespace hbct {

class ConjunctivePredicate final : public Predicate {
 public:
  explicit ConjunctivePredicate(std::vector<LocalPredicatePtr> locals);

  /// Canonicalized conjuncts, at most one per process, sorted by process.
  const std::vector<LocalPredicatePtr>& locals() const { return locals_; }

  /// The conjunct owned by process i, or nullptr (vacuously true there).
  const LocalPredicate* local_for(ProcId i) const;

  bool eval(const Computation& c, const Cut& g) const override;
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassConjunctive);
  }
  std::string describe() const override;

  /// Chase–Garg oracle: any process whose conjunct is false must advance.
  ProcId forbidden(const Computation& c, const Cut& g) const override;
  ProcId forbidden_down(const Computation& c, const Cut& g) const override;
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }

  /// ¬(∧ l_i) = ∨ ¬l_i — a DisjunctivePredicate.
  PredicatePtr negate() const override;

  /// Per-slot truth bits + a false count: O(1) per cut-component update.
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override;

 private:
  std::vector<LocalPredicatePtr> locals_;       // sorted by proc, unique
  std::vector<std::int32_t> slot_;              // proc -> index in locals_ or -1
};

using ConjunctivePredicatePtr = std::shared_ptr<const ConjunctivePredicate>;

/// Builds a conjunctive predicate; convenience over the constructor.
ConjunctivePredicatePtr make_conjunctive(std::vector<LocalPredicatePtr> locals);

/// Attempts to view an arbitrary predicate as conjunctive: returns the
/// predicate itself for ConjunctivePredicate, a one-conjunct wrapper for
/// LocalPredicate, and nullptr otherwise.
ConjunctivePredicatePtr as_conjunctive(const PredicatePtr& p);

}  // namespace hbct
