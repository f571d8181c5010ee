// Algorithm A1 (Fig. 1): EG(p) — controllable: p — for linear predicates.
//
// A1 walks one cut from the final cut down to the initial cut; at each step
// it moves to *any* predecessor that satisfies p. Lemma 1 of the paper
// guarantees that the choice does not matter: if any p-path exists, every
// greedy choice still reaches the initial cut. O(n|E|) predicate
// evaluations; the witness path it returns is a complete maximal consistent
// cut sequence on which p always holds.
//
// The dual detects post-linear predicates by walking upward from the
// initial cut (Section 5's closing remark). Both are one walk
// (eg_linear.cpp) that takes the direction, as A2's two sweeps are.
#pragma once

#include "detect/detector.h"

namespace hbct {

/// EG(p) for linear p. witness_path (bottom → top) filled when holds.
DetectResult detect_eg_linear(const Computation& c, const Predicate& p,
                             const Budget& budget = {});

/// EG(p) for post-linear p: the same walk upward from the initial cut.
DetectResult detect_eg_post_linear(const Computation& c,
                                  const Predicate& p,
                                  const Budget& budget = {});

/// A1 with the next cut chosen uniformly at random among all satisfying
/// predecessors instead of the first one. Theorem 2 guarantees the verdict
/// is identical for every choice policy; this variant exists to validate
/// that claim (property tests) and to measure the cost of evaluating every
/// predecessor (ablation bench).
DetectResult detect_eg_linear_randomized(const Computation& c,
                                         const Predicate& p,
                                         std::uint64_t seed,
                                         const Budget& budget = {});

}  // namespace hbct
