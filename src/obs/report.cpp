#include "obs/report.h"

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hbct {

namespace {

void write_metrics(JsonWriter& w, const MetricsSnapshot& snap) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snap.histograms) {
    w.key(name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("mean", h.mean());
    w.kv("p50", h.percentile(0.50));
    w.kv("p90", h.percentile(0.90));
    w.kv("p99", h.percentile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void write_spans(JsonWriter& w, const Tracer& t) {
  const std::vector<Tracer::Record> spans = t.spans();
  const std::vector<FlightRecorder::Name> names = FlightRecorder::names();
  w.begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Record& s = spans[i];
    const FlightRecorder::Name& name = names[s.name];
    w.begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("name", name.name);
    w.kv("tid", static_cast<std::int64_t>(s.tid));
    w.kv("parent", s.parent == Tracer::npos
                       ? std::int64_t{-1}
                       : static_cast<std::int64_t>(s.parent));
    w.kv("start_ns", s.ts_ns - t.epoch_ns());
    w.kv("dur_ns", s.dur_ns);
    w.kv("open", (s.flags & Tracer::Record::kOpen) != 0);
    w.key("args").begin_object();
    FlightRecorder::write_args(w, s, name);
    w.end_object();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string report_json(const DetectResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kReportSchema);
  w.kv("verdict", to_string(r.verdict));
  w.kv("bound", to_string(r.bound));
  w.kv("algorithm", r.algorithm);
  w.kv("plan", r.plan);

  w.key("stats").begin_object();
#define HBCT_STATS_REPORT(field, label, skip) w.kv(#field, r.stats.field);
  HBCT_DETECT_STATS_FIELDS(HBCT_STATS_REPORT)
#undef HBCT_STATS_REPORT
  w.end_object();

  if (r.witness_cut.has_value()) {
    w.key("witness_cut").begin_array();
    for (std::size_t i = 0; i < r.witness_cut->size(); ++i)
      w.value(static_cast<std::int64_t>((*r.witness_cut)[i]));
    w.end_array();
  } else {
    w.key("witness_cut").raw("null");
  }
  w.kv("witness_path_len", static_cast<std::uint64_t>(r.witness_path.size()));

  w.key("rewrites").begin_array();
  for (const RewriteStep& s : r.rewrites) {
    w.begin_object();
    w.kv("rule", s.rule);
    w.kv("note", s.note);
    w.kv("before", s.before);
    w.kv("after", s.after);
    w.end_object();
  }
  w.end_array();

  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : r.diagnostics) {
    w.begin_object();
    w.kv("code", to_string(d.code));
    w.kv("severity", to_string(d.severity));
    w.kv("message", d.message);
    if (!d.suggestion.empty()) w.kv("suggestion", d.suggestion);
    w.end_object();
  }
  w.end_array();

  if (r.trace != nullptr) {
    w.key("metrics");
    write_metrics(w, r.trace->metrics().snapshot());
    w.key("spans");
    write_spans(w, *r.trace);
  } else {
    w.key("metrics").raw("null");
    w.key("spans").raw("null");
  }

  w.end_object();
  return w.take();
}

}  // namespace hbct
