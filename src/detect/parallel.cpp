#include "detect/parallel.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/thread_pool.h"

namespace hbct {

namespace {

/// Deterministic fan-out accounting: identical at every parallelism width,
/// mirroring the stats guarantee (only branches the sequential early-exit
/// loop would have evaluated are counted).
void record_fanout(Tracer* trace, std::size_t merged) {
  MetricsRegistry& m = trace->metrics();
  m.counter("parallel.fanouts").add(1);
  m.counter("parallel.branches.merged").add(merged);
}

}  // namespace

std::size_t resolve_parallelism(std::size_t parallelism) {
  return parallelism != 0 ? parallelism : ThreadPool::shared().size();
}

FirstMatch detect_first_match(
    std::size_t parallelism, std::size_t count,
    const std::function<DetectResult(std::size_t)>& eval,
    const std::function<bool(const DetectResult&)>& hit, DetectStats& stats,
    Tracer* trace, const char* span_name) {
  FirstMatch out;
  if (count == 0) return out;
  std::size_t par = parallelism == 1 ? 1 : resolve_parallelism(parallelism);
  par = std::min(par, count);
  ScopedSpan fan(trace, span_name != nullptr ? span_name : "fanout");
  fan.arg("count", static_cast<std::int64_t>(count));
  if (par <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      DetectResult r;
      {
        ScopedSpan br(trace, "fanout.branch");
        br.arg("index", static_cast<std::int64_t>(i));
        r = eval(i);
      }
      stats += r.stats;
      if (out.bound == BoundReason::kNone) out.bound = r.bound;
      if (hit(r)) {
        out.index = i;
        out.result = std::move(r);
        break;
      }
    }
    if (trace != nullptr) {
      fan.arg("winner", out.found() ? static_cast<std::int64_t>(out.index)
                                    : std::int64_t{-1});
      record_fanout(trace, out.found() ? out.index + 1 : count);
    }
    return out;
  }

  // Children run on pool workers where the calling thread's open-span stack
  // is invisible; parent them on the fan-out span explicitly.
  const std::uint32_t span_parent = fan.id();
  if (trace != nullptr) {
    trace->metrics()
        .gauge("parallel.queue_depth.max")
        .max_of(static_cast<std::int64_t>(ThreadPool::shared().queue_depth()));
  }
  std::vector<std::optional<DetectResult>> results(count);
  std::atomic<std::size_t> winner{FirstMatch::npos};
  CancelToken cancel;
  ThreadPool::shared().parallel_for(
      count,
      [&](std::size_t i) {
        // A hit at an index no greater than i supersedes this branch.
        if (i >= winner.load(std::memory_order_acquire)) return;
        DetectResult r;
        {
          ScopedSpan br(trace, "fanout.branch", span_parent);
          br.arg("index", static_cast<std::int64_t>(i));
          r = eval(i);
        }
        if (hit(r)) {
          std::size_t cur = winner.load(std::memory_order_acquire);
          while (i < cur && !winner.compare_exchange_weak(
                                cur, i, std::memory_order_acq_rel))
            ;
          // Branch 0 winning cannot be superseded: stop claiming work.
          if (i == 0) cancel.cancel();
        }
        results[i] = std::move(r);
      },
      par, /*chunk=*/1, &cancel);

  // Merge what the sequential early-exit loop would have accounted:
  // branches 0..winner, everything when nothing hit. No branch below the
  // winner can have been skipped — skipping requires a hit at an index no
  // greater than the skipped one, which would itself be a lower winner.
  const std::size_t win = winner.load(std::memory_order_acquire);
  const std::size_t merged_end = win == FirstMatch::npos ? count : win + 1;
  for (std::size_t i = 0; i < merged_end; ++i) {
    HBCT_ASSERT_MSG(results[i].has_value(),
                    "branch at or below the winner was skipped");
    stats += results[i]->stats;
    if (out.bound == BoundReason::kNone) out.bound = results[i]->bound;
  }
  if (trace != nullptr) {
    fan.arg("winner", win == FirstMatch::npos ? std::int64_t{-1}
                                              : static_cast<std::int64_t>(win));
    record_fanout(trace, merged_end);
    // Speculative branches evaluated past the winner and then discarded.
    // Scheduling-dependent — deliberately under a name the determinism
    // guarantee (and its test) excludes.
    std::uint64_t superseded = 0;
    for (std::size_t i = merged_end; i < count; ++i)
      if (results[i].has_value()) ++superseded;
    if (superseded != 0)
      trace->metrics().counter("parallel.branches.superseded").add(superseded);
  }
  if (win != FirstMatch::npos) {
    out.index = win;
    out.result = std::move(*results[win]);
  }
  return out;
}

}  // namespace hbct
