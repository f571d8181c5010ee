#include "obs/slo.h"

#include <cstdio>

#include "obs/expose.h"
#include "obs/flight.h"

namespace hbct {

SloTracker::SloTracker(MetricsRegistry* reg)
    : reg_(reg != nullptr ? *reg : MetricsRegistry::global()) {}

void SloTracker::add(SloSpec spec) {
  Entry e;
  e.breach_counter = &reg_.counter(labeled("slo.breaches", "slo", spec.name));
  e.spec = std::move(spec);
  std::lock_guard<std::mutex> lk(mu_);
  entries_.push_back(std::move(e));
}

SloSpec SloTracker::fire_latency(std::string_view watch_class, double quantile,
                                 std::uint64_t max_ns) {
  SloSpec s;
  char q[16];
  std::snprintf(q, sizeof(q), "p%g", quantile * 100);
  s.name = std::string("fire-") + q + "/" + std::string(watch_class);
  s.histogram = labeled("serve.fire_latency.ns", "class", watch_class);
  s.quantile = quantile;
  s.max_ns = max_ns;
  return s;
}

SloStatus SloTracker::eval_one(const SloSpec& spec,
                               const MetricsSnapshot& snap) const {
  SloStatus st;
  st.spec = spec;
  auto it = snap.histograms.find(spec.histogram);
  if (it == snap.histograms.end() || it->second.count < spec.min_count)
    return st;
  st.evaluated = true;
  st.samples = it->second.count;
  st.measured_ns = it->second.percentile(spec.quantile);
  st.breached = st.measured_ns > spec.max_ns;
  return st;
}

std::vector<SloStatus> SloTracker::evaluate(const MetricsSnapshot& snap) {
  static const std::uint16_t kBreach = FlightRecorder::intern(
      "slo.breach", "measured_ns", "max_ns");
  std::vector<SloStatus> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(entries_.size());
  for (Entry& e : entries_) {
    SloStatus st = eval_one(e.spec, snap);
    if (st.evaluated && st.breached && !e.breached) {
      // ok -> breach edge: count it, flag it on the flight recorder (which
      // dumps the window if a sink is armed).
      e.breach_counter->add();
      ++total_breaches_;
      FlightRecorder::global().anomaly(
          kBreach, static_cast<std::int64_t>(st.measured_ns),
          static_cast<std::int64_t>(e.spec.max_ns));
    }
    if (st.evaluated) e.breached = st.breached;
    out.push_back(std::move(st));
  }
  return out;
}

std::vector<SloStatus> SloTracker::peek(const MetricsSnapshot& snap) const {
  std::vector<SloStatus> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(eval_one(e.spec, snap));
  return out;
}

std::uint64_t SloTracker::breaches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_breaches_;
}

}  // namespace hbct
