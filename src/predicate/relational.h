// Relational predicates over variables on several processes.
//
// Their class depends on how the variables evolve in the computation:
// with every term non-decreasing over local time,
//   Σ x_i <= k   is linear (down-closed and meet-closed, not join-closed),
//   Σ x_i >= k   is post-linear (up-... join-closed, not meet-closed),
//   x_i - x_j <= k is regular (closed under both meet and join).
// The classic producer/consumer bound "produced - consumed <= capacity" is
// the difference form. When monotonicity does not hold in the given
// computation, classes(c) reports no structure and detectors fall back to
// the explicit-lattice baseline. The two sum bounds are one class
// (relational.cpp) that takes the comparison, so a bound and its dual
// share one body.
#pragma once

#include <string>
#include <vector>

#include "predicate/predicate.h"

namespace hbct {

/// One term of a relational predicate: variable `var` on process `proc`.
struct VarRef {
  ProcId proc;
  std::string var;
};

/// Σ terms <= k.
PredicatePtr sum_le(std::vector<VarRef> terms, std::int64_t k);
/// Σ terms >= k.
PredicatePtr sum_ge(std::vector<VarRef> terms, std::int64_t k);
/// a - b <= k.
PredicatePtr diff_le(VarRef a, VarRef b, std::int64_t k);

/// True when `var` never decreases along process `proc` (including the
/// initial value). Used by the relational predicates' classes().
bool is_nondecreasing(const Computation& c, ProcId proc, std::string_view var);
bool is_nonincreasing(const Computation& c, ProcId proc, std::string_view var);

}  // namespace hbct
