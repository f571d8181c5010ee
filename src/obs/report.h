// Machine-readable run reports: one schema-versioned JSON document per
// detection, carrying the verdict, the dispatch plan, diagnostics, the
// operation counters, a metrics snapshot, and the span tree of the traced
// run. Consumed by the debug REPL's `report` command, the benches'
// BENCH_*.json emission, and the CI trace-validation job.
//
// Schema (kReportSchema = "hbct.report/1"):
//   {
//     "schema":      "hbct.report/1",
//     "verdict":     "holds" | "fails" | "unknown",
//     "bound":       "none" | "state-cap" | ... (detect/budget.h),
//     "algorithm":   "...",                  // DetectResult::algorithm
//     "plan":        "...",                  // empty when audit was off
//     "stats":       { "<field>": n, ... },  // from the DetectStats X-macro
//     "witness_cut": [k0, k1, ...] | null,
//     "witness_path_len": n,
//     "rewrites":    [ {"rule","note","before","after"}, ... ],
//                    // the optimizer's applied (kApply) or proposed
//                    // (kAnalyzeOnly) chain; [] when optimize was off
//     "diagnostics": [ {"code","severity","message"}, ... ],
//     "metrics":     { "counters": {..}, "gauges": {..},
//                      "histograms": { name: {"count","sum","mean","p50",
//                                             "p90","p99"} } } | null,
//     "spans":       [ {"id","name","tid","parent","start_ns","dur_ns",
//                       "open","args":{..}}, ... ] | null
//   }
// metrics/spans are null unless the detection ran with tracing enabled
// (DispatchOptions::trace).
#pragma once

#include <string>

#include "detect/detector.h"

namespace hbct {

inline constexpr const char* kReportSchema = "hbct.report/1";

/// Serializes one detection into the hbct.report/1 JSON document.
std::string report_json(const DetectResult& r);

}  // namespace hbct
