#include "detect/budget.h"

#include "detect/detector.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

void record_budget_trip(Tracer* t, BoundReason r) {
  static const std::uint16_t kTrip =
      FlightRecorder::intern("budget.trip", "reason", "");
  FlightRecorder::global().anomaly(kTrip, static_cast<std::int64_t>(r), 0, t);
  if (t != nullptr)
    t->metrics().counter(std::string("budget.trips.") + to_string(r)).add(1);
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kFails: return "fails";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

const char* to_string(BoundReason r) {
  switch (r) {
    case BoundReason::kNone: return "none";
    case BoundReason::kStateCap: return "state-cap";
    case BoundReason::kStepBudget: return "step-budget";
    case BoundReason::kDeadline: return "deadline";
    case BoundReason::kCancelled: return "cancelled";
    case BoundReason::kAuditFailed: return "audit-failed";
  }
  return "?";
}

DetectResult& mark_bounded(DetectResult& r, BoundReason why) {
  HBCT_DASSERT(why != BoundReason::kNone);
  r.verdict = Verdict::kUnknown;
  r.bound = why;
  return r;
}

DetectResult& mark_bounded(DetectResult& r, const BudgetTracker& t) {
  return mark_bounded(r, t.reason());
}

}  // namespace hbct
