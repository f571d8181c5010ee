#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int thread_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2, static_cast<int>(hw));
}

double rss_now_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0, pages_resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void RssPeak::sample() {
  peak_mb = std::max(peak_mb, rss_now_mb());
  ++samples;
}

void Sheet::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Sheet::set_e2e(const std::string& name, double value, const char* unit,
                    std::int64_t samples) {
  e2e[name] = Metric{value, unit, samples};
}

void Sheet::set_layer(const std::string& name, double value,
                      std::int64_t samples) {
  for (const LayerMetricDef& d : layer_metric_defs()) {
    if (d.name == name) {
      layer[name] = Metric{value, d.unit, samples};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void Sheet::prop(const std::string& key, const std::string& value) {
  props.emplace_back(key, value);
}

const std::vector<std::string>& known_routes() {
  static const std::vector<std::string> routes = {
      "A1-eg-linear",        "A2-ag-linear",
      "A3-eu",               "chase-garg-ef",
      "chase-garg-ef-dual",  "gw-weak-conjunctive",
      "gw-strong-conjunctive", "ef-disjunctive-scan",
      "ag-disjunctive",      "equilevel-scan",
      "stable-final",        "stable-initial",
      "ef-dfs",              "eg-dfs",
      "lattice-brute-force", "lattice-nested-ctl",
      "other",
  };
  return routes;
}

std::string route_key(const std::string& algorithm) {
  std::size_t n = 0;
  while (n < algorithm.size()) {
    const char ch = algorithm[n];
    const bool ok = (ch >= 'A' && ch <= 'Z') || (ch >= 'a' && ch <= 'z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '.' ||
                    ch == '-';
    if (!ok) break;
    ++n;
  }
  std::string key = algorithm.substr(0, n);
  const auto& known = known_routes();
  if (std::find(known.begin(), known.end(), key) == known.end()) key = "other";
  return key;
}

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = [] {
    std::vector<LayerMetricDef> d = {
        {"poset.wire_decode_ns_per_record", "ns"},
        {"poset.wire_bytes_per_event", "bytes"},
        {"online.append_ns_per_event", "ns"},
        {"online.step_ns_per_event.conjunctive", "ns"},
        {"online.step_ns_per_event.disjunctive", "ns"},
        {"online.step_ns_per_event.invariant", "ns"},
        {"online.step_ns_per_event.stable", "ns"},
        {"online.step_ns_per_event.until", "ns"},
        {"online.until_inc_evals_per_event", "count"},
        {"online.gc_us_per_round", "us"},
        {"online.gc_reclaimed_per_round", "count"},
        {"serve.ingest_ns_per_event", "ns"},
        {"serve.open_us", "us"},
        {"serve.close_us", "us"},
        {"serve.post_us_p99", "us"},
        {"serve.poll_us_p99", "us"},
        {"serve.drain_ms", "ms"},
        {"serve.fire_internal_p50_us", "us"},
        {"serve.fire_internal_p99_us", "us"},
        {"serve.queue_wait_p50_us", "us"},
        {"serve.resident_events_peak", "count"},
        {"serve.watch_state_bytes_peak", "bytes"},
        {"serve.failed_sessions", "count"},
        {"serve.width1_events_per_s", "1/cpu_s"},
        {"serve.unexplained_share", "ratio"},
        {"obs.recorder_ns_per_event", "ns"},
        {"obs.detect_trace_overhead_share", "ratio"},
        {"obs.bench_trace_overhead_share", "ratio"},
        {"poset.mtrace_load_ms", "ms"},
        {"poset.mtrace_mb", "MB"},
        {"ctl.parse_us_per_query", "us"},
        {"analysis.optimize_us_per_query", "us"},
        {"analysis.rewritten_share", "ratio"},
        {"detect.eval_incremental_share", "ratio"},
        {"detect.fanout_speedup", "x"},
        {"detect.unexplained_share", "ratio"},
        {"lattice.nodes", "count"},
        {"lattice.edges", "count"},
        {"lattice.build_ms", "ms"},
        {"loadgen.late_p99_us", "us"},
        {"loadgen.late_max_us", "us"},
    };
    for (const std::string& r : known_routes()) {
      d.push_back({"detect." + r + ".calls", "count"});
      d.push_back({"detect." + r + ".ms", "ms"});
      d.push_back({"detect." + r + ".evals", "count"});
      d.push_back({"detect." + r + ".cut_steps", "count"});
    }
    return d;
  }();
  return defs;
}

void report_routes(Sheet& sheet, const RouteTallies& t, std::int64_t passes) {
  const double n = static_cast<double>(std::max<std::int64_t>(1, passes));
  for (const auto& [route, r] : t) {
    const std::string base = "detect." + route;
    sheet.set_layer(base + ".calls", static_cast<double>(r.calls) / n, r.calls);
    sheet.set_layer(base + ".ms", r.ms / n, r.calls);
    sheet.set_layer(base + ".evals", static_cast<double>(r.evals) / n, r.calls);
    sheet.set_layer(base + ".cut_steps", static_cast<double>(r.cut_steps) / n,
                    r.calls);
  }
}

// ---- SpanLog ----------------------------------------------------------------

void SpanLog::add(const char* name, std::int64_t t0, std::int64_t t1,
                  std::int64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto next_tid = static_cast<std::uint32_t>(tids_.size());
  const auto it = tids_.try_emplace(std::this_thread::get_id(), next_tid).first;
  spans_.push_back(Span{name, t0, t1, id, it->second});
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) base = std::min(base, s.t0);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.tid, (s.t0 - base) / 1e3,
                  (s.t1 - s.t0) / 1e3, static_cast<long long>(s.id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
