#include "detect/first_match.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hbct {

FirstMatch detect_first_match(
    std::size_t count, const std::function<DetectResult(std::size_t)>& eval,
    const std::function<bool(const DetectResult&)>& hit, DetectStats& stats,
    Tracer* trace, const char* span_name) {
  FirstMatch out;
  if (count == 0) return out;
  ScopedSpan fan(trace, span_name);
  fan.arg("count", static_cast<std::int64_t>(count));
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
    MetricsRegistry& m = trace->metrics();
    m.counter("parallel.fanouts").add(1);
    m.counter("parallel.branches.merged")
        .add(out.found() ? out.index + 1 : count);
  }
  return out;
}

}  // namespace hbct
