// Deterministic parallel fan-out for the detection algorithms.
//
// Every independent fan-out in the detection stack — the dispatcher's
// or-/and-splits, AU's two refuters, and (at width 1) A3's per-frontier-
// event EG sweep — has the same shape: evaluate N independent branches and commit to the LOWEST-
// indexed branch that "hits", accounting exactly the work a sequential
// early-exit loop would have done. detect_first_match runs that shape either
// inline (parallelism <= 1) or on ThreadPool::shared(), with identical
// results either way: the winner is selected by index, not by finish order,
// and only the stats of branches the sequential loop would have evaluated
// (0..winner, or all of them when nothing hits) are merged. Work done
// speculatively past the winner is discarded, so DetectResult — verdict,
// witnesses, *and* operation counts — is bit-identical across parallelism
// levels. Each branch fills its own DetectStats and the merge happens at
// join, so no counter is ever shared between threads.
#pragma once

#include <cstddef>
#include <functional>

#include "detect/detector.h"

namespace hbct {

/// Resolves a parallelism knob: 0 means one branch per shared-pool worker
/// (hardware concurrency, floor 4), any other value is taken literally.
std::size_t resolve_parallelism(std::size_t parallelism);

/// Outcome of a first-match fan-out: the lowest hitting branch, or none.
struct FirstMatch {
  static constexpr std::size_t npos = ~static_cast<std::size_t>(0);
  std::size_t index = npos;
  DetectResult result;  // the winning branch's result; valid iff found()
  /// Bound reason of the lowest-indexed merged branch that ran out of budget
  /// (kNone when every merged branch completed). When !found() and
  /// bound != kNone, some branch was inconclusive, so "no branch hit" is NOT
  /// a definite negative — callers must degrade to Verdict::kUnknown.
  /// Deterministic across parallelism levels: only branches the sequential
  /// early-exit loop would have evaluated are considered.
  BoundReason bound = BoundReason::kNone;
  bool found() const { return index != npos; }
};

/// Evaluates eval(i) for i in [0, count) looking for the lowest index whose
/// result satisfies `hit`, sequentially (parallelism <= 1, early exit at the
/// winner) or concurrently on the shared pool. `eval` must be thread-safe
/// for parallelism != 1. Branch stats are merged into `stats` exactly as the
/// sequential loop would: branches 0..winner inclusive, all when no hit.
///
/// When `trace` is non-null, the fan-out records a span named `span_name`
/// (falling back to "fanout") with one "fanout.branch" child per evaluated
/// branch — children run on pool workers, so they parent on the fan-out
/// span explicitly — and updates the tracer's registry: deterministic
/// counters parallel.fanouts / parallel.branches.merged (identical at every
/// parallelism, mirroring the stats guarantee) and scheduling-dependent
/// parallel.branches.superseded / parallel.queue_depth.max (speculative
/// work discarded past the winner; shared-pool backlog high-water mark).
FirstMatch detect_first_match(
    std::size_t parallelism, std::size_t count,
    const std::function<DetectResult(std::size_t)>& eval,
    const std::function<bool(const DetectResult&)>& hit, DetectStats& stats,
    Tracer* trace = nullptr, const char* span_name = nullptr);

}  // namespace hbct
