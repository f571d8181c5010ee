// The repo benchmark's driver binary. One workload per invocation:
//
//   perfbench --workload <serve-fleet|serve-longrun|offline-corpus|
//                         offline-nested>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir DIR] [--queries-dir DIR] [--work-dir DIR]
//   perfbench --list-metrics
//
// Inputs are generated from --seed before anything is timed, references are
// computed untimed, then the workload measures for --seconds. Human-readable
// metric lines (value, unit, sample count) and the measured input properties
// go to stdout; the last line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A run whose open-loop generator fell behind prints the
// reason and no result, and exits with status 3.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

const char* const kEndToEnd[] = {"setup_s",     "events_per_s", "fire_p50_us",
                                 "fire_p99_us", "verdict_s",    "rss_peak_mb"};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--queries-dir DIR] "
               "[--work-dir DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(val, "0") != 0;
    else if (key == "--trace-dir") a.trace_dir = val;
    else if (key == "--queries-dir") a.queries_dir = val;
    else if (key == "--work-dir") a.work_dir = val;
    else usage(("unknown option " + key).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

void print_json_number(double v) {
  // %.17g keeps every digit; JSON has no NaN/inf, so clamp those to 0.
  if (v != v || v > 1e300 || v < -1e300) v = 0;
  std::printf("%.17g", v);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    // The metric tables, for perfbench/run.py to check BENCHMARK.json by.
    std::printf("{\"end_to_end\": [");
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      std::printf("%s\"%s\"", i ? ", " : "", kEndToEnd[i]);
    std::printf("], \"per_layer\": [");
    bool first = true;
    for (const LayerMetricDef& d : layer_metric_defs()) {
      std::printf("%s[\"%s\", \"%s\"]", first ? "" : ", ", d.name.c_str(),
                  d.unit.c_str());
      first = false;
    }
    std::printf("]}\n");
    return 0;
  }
  const Args a = parse_args(argc, argv);
  Sheet sheet;
  if (a.workload == "serve-fleet") run_serve_fleet(a, sheet);
  else if (a.workload == "serve-longrun") run_serve_longrun(a, sheet);
  else if (a.workload == "offline-corpus") run_offline_corpus(a, sheet);
  else if (a.workload == "offline-nested") run_offline_nested(a, sheet);
  else usage(("unknown workload " + a.workload).c_str());

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  for (const auto& [k, v] : sheet.props)
    std::printf("  input %-34s %s\n", k.c_str(), v.c_str());
  for (const std::string& f : sheet.failures)
    std::printf("  FAILED %s\n", f.c_str());
  const double error_ratio =
      sheet.attempted > 0 ? static_cast<double>(sheet.failed) /
                                static_cast<double>(sheet.attempted)
                          : 1.0;
  std::printf("  %-40s %.6g ratio (n=%lld)\n", "error_ratio", error_ratio,
              static_cast<long long>(sheet.attempted));
  if (!sheet.invalid.empty()) {
    std::printf("INVALID RUN: %s\n", sheet.invalid.c_str());
    return 3;
  }

  std::map<std::string, Metric> out;
  if (a.trace) {
    for (const LayerMetricDef& d : layer_metric_defs()) {
      auto it = sheet.layer.find(d.name);
      out[d.name] = it != sheet.layer.end() ? it->second : Metric{0, d.unit, 0};
    }
  } else {
    for (const char* name : kEndToEnd) {
      auto it = sheet.e2e.find(name);
      if (it == sheet.e2e.end()) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n", name);
        return 4;
      }
      out[name] = it->second;
    }
  }
  for (const auto& [k, m] : out)
    std::printf("  %-40s %.6g %s (n=%lld)\n", k.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              sheet.failed == 0 && sheet.attempted > 0 ? "true" : "false",
              static_cast<long long>(sheet.attempted),
              static_cast<long long>(sheet.failed));
  bool first = true;
  for (const auto& [k, m] : out) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", k.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
