// Shared helper for the benches' machine-readable artifacts.
//
// Google Benchmark owns the human-readable console table; the BENCH_*.json
// artifacts come from a second, self-timed pass after RunSpecifiedBenchmarks
// so the document layout is ours (schema hbct.bench/1) and rows can embed
// full hbct.report/1 run reports. Timing is steady_clock around whole
// detections (batches of them for sub-microsecond cells, rows interleaved;
// see time_ns_interleaved) — coarser than benchmark's stabilized loops, but plenty
// for the percentile summaries the artifacts carry.
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

#include <algorithm>
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

/// Times every fn in `fns`, each run sized from its warm-up: the fastest
/// of three warm-up calls sets how many calls one sample times, so a sample
/// spans at least kSampleNs (a sub-microsecond cell is timed in batches and
/// each sample is the batch time divided by the batch), and how many
/// samples the row takes: enough for about kRowNs of timed work, at least
/// kMinSamples and at most kMaxSamples. The samples are taken in kRounds
/// rounds that visit every fn in turn, so drift and contention on a shared
/// machine spread over all rows instead of landing on the one being timed.
/// Summary::count is the number of samples.
inline std::vector<Summary> time_ns_interleaved(
    const std::vector<std::function<void()>>& fns) {
  constexpr double kSampleNs = 10'000;
  constexpr double kRowNs = 50e6;
  constexpr std::size_t kMinSamples = 200;
  constexpr std::size_t kMaxSamples = 2000;
  constexpr std::size_t kRounds = 20;
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](Clock::time_point t0) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  };
  struct Plan {
    std::size_t batch = 1;
    std::size_t per_round = 1;
    std::vector<double> samples;
  };
  std::vector<Plan> plans(fns.size());
  for (std::size_t r = 0; r < fns.size(); ++r) {
    double warm = 0;
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      fns[r]();
      const double ns = elapsed_ns(t0);
      warm = k == 0 ? ns : std::min(warm, ns);
    }
    warm = std::max(warm, 1.0);
    Plan& plan = plans[r];
    plan.batch =
        warm < kSampleNs ? static_cast<std::size_t>(kSampleNs / warm) + 1 : 1;
    const std::size_t count = std::clamp<std::size_t>(
        static_cast<std::size_t>(kRowNs /
                                 (warm * static_cast<double>(plan.batch))),
        kMinSamples, kMaxSamples);
    plan.per_round = (count + kRounds - 1) / kRounds;
    plan.samples.reserve(plan.per_round * kRounds);
  }
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < fns.size(); ++r) {
      Plan& plan = plans[r];
      for (std::size_t i = 0; i < plan.per_round; ++i) {
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < plan.batch; ++k) fns[r]();
        plan.samples.push_back(elapsed_ns(t0) /
                               static_cast<double>(plan.batch));
      }
    }
  }
  std::vector<Summary> out;
  out.reserve(plans.size());
  for (Plan& plan : plans) out.push_back(Summary::of(std::move(plan.samples)));
  return out;
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
