// First-match combinator for the detection stack.
//
// The dispatcher's or-/and-splits, AU's two refuters and A3's per-frontier-
// event EG sweep share one shape: evaluate N independent branches in index
// order and commit to the lowest-indexed branch that "hits", stopping there.
// detect_first_match runs that loop once, so every site accounts its stats,
// budget bounds and spans the same way. settle_first_match folds the outcome
// into a verdict by Kleene logic, once for the or-/and-splits and AU.
#pragma once

#include <cstddef>
#include <functional>

#include "detect/detector.h"

namespace hbct {

/// Outcome of a first-match loop: the lowest hitting branch, or none.
struct FirstMatch {
  static constexpr std::size_t npos = ~static_cast<std::size_t>(0);
  std::size_t index = npos;
  DetectResult result;  // the winning branch's result; valid iff found()
  /// Bound reason of the lowest-indexed evaluated branch that ran out of
  /// budget (kNone when every evaluated branch completed). When !found()
  /// and bound != kNone, some branch was inconclusive, so "no branch hit"
  /// is NOT a definite negative — callers must degrade to Verdict::kUnknown.
  BoundReason bound = BoundReason::kNone;
  bool found() const { return index != npos; }
};

/// Evaluates eval(i) for i = 0, 1, ... < count until a result satisfies
/// `hit`. The stats of branches 0..winner (all of them when nothing hits)
/// are merged into `stats`.
///
/// When `trace` is non-null, the loop records a span named `span_name` with
/// one "fanout.branch" child per evaluated branch, and adds to the tracer's
/// registry counters parallel.fanouts (one per call) and
/// parallel.branches.merged (branches evaluated).
FirstMatch detect_first_match(
    std::size_t count, const std::function<DetectResult(std::size_t)>& eval,
    const std::function<bool(const DetectResult&)>& hit, DetectStats& stats,
    Tracer* trace, const char* span_name);

/// The winner's witness fields settle_first_match moves into the result.
enum WitnessFields : unsigned {
  kWitnessCut = 1u << 0,
  kWitnessPath = 1u << 1,
};

/// Folds `m` into `r`: a hit decides `on_hit`, definite even if an earlier
/// branch ran out of budget (a Kleene or with a true operand, or an and
/// with a false one), and moves the winner's `fields`. No hit after an
/// inconclusive branch is kUnknown with that bound; no hit otherwise is the
/// opposite of `on_hit`.
void settle_first_match(DetectResult& r, FirstMatch& m, Verdict on_hit,
                        unsigned fields);

}  // namespace hbct
