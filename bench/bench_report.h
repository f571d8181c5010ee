// Shared helper for the benches' machine-readable artifacts.
//
// Google Benchmark owns the human-readable console table; the BENCH_*.json
// artifacts come from a second, self-timed pass after RunSpecifiedBenchmarks
// so the document layout is ours (schema hbct.bench/1) and rows can embed
// full hbct.report/1 run reports. Timing is steady_clock around whole
// detections — coarser than benchmark's stabilized loops, but plenty for
// the percentile summaries the artifacts carry.
//
// Schema (kBenchSchema = "hbct.bench/1"):
//   { "schema": "hbct.bench/1",
//     "bench":  "<binary name, e.g. table1>",
//     "rows": [ { "name":  "<cell/benchmark name>",
//                 "label": "<algorithm -> verdict, width, ...>",
//                 "iters": n,
//                 "ns": { "min","max","mean","median","stddev",
//                         "p50","p90","p99" },          // per-iteration ns
//                 "report": {hbct.report/1} | null },   // embedded verbatim
//               ... ] }
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "detect/budget.h"
#include "obs/json.h"
#include "util/stats.h"

namespace hbct {
namespace benchio {

inline constexpr const char* kBenchSchema = "hbct.bench/1";

struct BenchRow {
  std::string name;
  std::string label;
  Summary ns;          // per-iteration wall time, nanoseconds
  std::string report;  // embedded hbct.report/1 document; empty = none
};

/// The verdict word of a row label: "true", "false" or "unknown".
inline const char* verdict_word(Verdict v) {
  return v == Verdict::kHolds   ? "true"
         : v == Verdict::kFails ? "false"
                                : "unknown";
}

/// Times fn() `iters` times (after one warmup call that also faults in lazy
/// workload statics) and summarises per-iteration wall time in nanoseconds.
inline Summary time_ns(int iters, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  return Summary::of(std::move(samples));
}

inline void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.kv("min", s.min)
      .kv("max", s.max)
      .kv("mean", s.mean)
      .kv("median", s.median)
      .kv("stddev", s.stddev)
      .kv("p50", s.p50)
      .kv("p90", s.p90)
      .kv("p99", s.p99);
  w.end_object();
}

/// Renders the hbct.bench/1 document.
inline std::string bench_json(const std::string& bench,
                              const std::vector<BenchRow>& rows) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kBenchSchema);
  w.kv("bench", bench);
  w.key("rows").begin_array();
  for (const BenchRow& r : rows) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("label", r.label);
    w.kv("iters", static_cast<std::uint64_t>(r.ns.count));
    w.key("ns");
    write_summary(w, r.ns);
    w.key("report");
    if (r.report.empty()) {
      w.raw("null");
    } else {
      w.raw(r.report);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

/// Validates and writes the document. Failure (invalid JSON, unwritable
/// path) is reported on stderr and returned, not thrown — the console
/// benchmark output already ran and should not be discarded.
inline bool write_bench_json(const std::string& path, const std::string& bench,
                             const std::vector<BenchRow>& rows) {
  const std::string doc = bench_json(bench, rows);
  std::string err;
  if (!json_validate(doc, &err)) {
    std::fprintf(stderr, "bench json invalid (%s): %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

}  // namespace benchio
}  // namespace hbct
