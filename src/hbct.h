// Umbrella header for the hbct library.
//
// hbct reproduces Sen & Garg, "Detecting Temporal Logic Predicates on the
// Happened-Before Model" (IPPS 2002): CTL predicate detection on the finite
// distributive lattice of consistent cuts of one distributed execution.
//
// Typical usage:
//
//   #include "hbct.h"
//   using namespace hbct;
//
//   sim::Simulator s = sim::make_token_mutex(4, 3, /*inject_violation=*/true);
//   Computation c = std::move(s).run({});
//   auto r = ctl::evaluate_query(c, "EF(cs@P0 == 1 && cs@P3 == 1)");
//   if (r.result.verdict == Verdict::kHolds) {
//     /* mutual exclusion violated */
//   }
//
// Detections are three-valued (detect/budget.h): pass a Budget via
// DispatchOptions to cap states, work, wall-clock time, or to cancel from
// another thread; a detection that runs out returns Verdict::kUnknown.
#pragma once

#include "analysis/audit.h"
#include "analysis/diagnostics.h"
#include "analysis/infer.h"
#include "analysis/lint.h"
#include "analysis/optimize.h"
#include "analysis/plan.h"
#include "analysis/rewrite.h"
#include "analysis/rules.h"
#include "ctl/compile.h"
#include "ctl/formula.h"
#include "ctl/parser.h"
#include "ctl/program_check.h"
#include "detect/ag_linear.h"
#include "detect/brute_force.h"
#include "detect/conjunctive_gw.h"
#include "detect/control.h"
#include "detect/detector.h"
#include "detect/disjunctive.h"
#include "detect/dispatch.h"
#include "detect/ef_linear.h"
#include "detect/eg_linear.h"
#include "detect/stable_oi.h"
#include "detect/until.h"
#include "lattice/irreducible.h"
#include "lattice/lattice.h"
#include "lattice/path_count.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "online/appender.h"
#include "online/monitor.h"
#include "poset/analysis.h"
#include "poset/builder.h"
#include "poset/diagram.h"
#include "poset/computation.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "poset/trace_io.h"
#include "predicate/channel.h"
#include "predicate/classify.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "predicate/relational.h"
#include "reduction/cnf.h"
#include "reduction/dpll.h"
#include "reduction/npc_reduction.h"
#include "sim/simulator.h"
#include "sim/workloads.h"
#include "slice/slicer.h"
#include "util/biguint.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
