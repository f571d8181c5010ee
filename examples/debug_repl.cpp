// Interactive debugging session over a recorded trace — the paper's
// "debugging environment for the happened-before model" in miniature.
//
//   $ example_trace_generator dining_deadlocky 3 > run.trace
//   $ example_debug_repl run.trace
//   hbct> EF(waitr@P0 == 1 && waitr@P1 == 1 && waitr@P2 == 1 && waitr@P3 == 1)
//   TRUE  [gw-weak-conjunctive]  witness <...>
//   hbct> diagram
//   hbct> stats
//   hbct> classes cs@P0 == 1 && cs@P1 == 1
//   hbct> quit
//
// Commands: any CTL query, `diagram`, `stats`, `vars`, `classes <state
// formula>`, `lint <query>`, `audit <state formula>`, `optimize <query>`,
// `opt on|off`, `trace on|off`, `trace save <file>`, `report`, `help`,
// `quit`.
// With --audit, every query runs a full pre-flight class audit and prints
// the lint findings (see DESIGN.md §9 for the warning-code catalog).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "hbct.h"

using namespace hbct;

namespace {

void help() {
  std::printf(
      "commands:\n"
      "  <ctl query>          evaluate, e.g. EF(x@P0 == 1 && y@P1 > 2)\n"
      "  classes <formula>    predicate classes + algorithm dispatch map\n"
      "  lint <query>         predicted dispatch plan + W-code findings\n"
      "  audit <formula>      verify claimed predicate classes (E-codes)\n"
      "  optimize <query>     cost-model rewrite plan + class inference\n"
      "  opt on|off           evaluate queries with optimize=kApply\n"
      "  trace on|off         span-trace subsequent queries\n"
      "  trace save <file>    write the last traced query as Chrome JSON\n"
      "  report               hbct.report/1 JSON for the last query\n"
      "  diagram              ASCII space-time diagram\n"
      "  stats                concurrency metrics (height, width, ...)\n"
      "  stat                 live process metrics (top-style table over\n"
      "                       the global registry: detections, serve.*)\n"
      "  vars                 variable names\n"
      "  help | quit\n");
}

void run_query(const Computation& c, const std::string& text, bool audit,
               bool trace, bool optimize, std::optional<DetectResult>& last) {
  DispatchOptions opt;
  if (audit) opt.audit = AuditMode::kFull;
  opt.trace = trace;
  if (optimize) opt.optimize = OptimizeMode::kApply;
  auto r = ctl::evaluate_query(c, text, opt);
  if (!r.ok) {
    std::printf("error: %s\n", r.error.c_str());
    return;
  }
  last = r.result;
  for (const RewriteStep& s : r.result.rewrites)
    std::printf("  rewrite %s\n", to_string(s).c_str());
  std::printf("%s  [%s, %llu evals]\n", to_string(r.result.verdict),
              r.algorithm.c_str(),
              static_cast<unsigned long long>(r.result.stats.predicate_evals));
  if (!r.result.plan.empty())
    std::printf("  plan: %s\n", r.result.plan.c_str());
  if (!r.result.diagnostics.empty())
    std::printf("%s", render_diagnostics(r.result.diagnostics).c_str());
  if (r.result.witness_cut)
    std::printf("  witness cut %s\n", r.result.witness_cut->to_string().c_str());
  if (!r.result.witness_path.empty()) {
    std::printf("  witness path:");
    for (const Cut& g : r.result.witness_path)
      std::printf(" %s", g.to_string().c_str());
    std::printf("\n");
  }
  if (r.result.trace)
    std::printf("  traced: %llu spans (`report`, `trace save <file>`)\n",
                static_cast<unsigned long long>(r.result.trace->span_count()));
}

void save_chrome_trace(const std::optional<DetectResult>& last,
                       const std::string& path) {
  if (!last || !last->trace) {
    std::printf("no traced query yet (`trace on`, then run one)\n");
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  out << last->trace->chrome_trace_json() << "\n";
  std::printf("wrote %s (load via chrome://tracing or ui.perfetto.dev)\n",
              path.c_str());
}

void show_classes(const Computation& c, const std::string& text) {
  auto parsed = ctl::parse_query(text);
  if (!parsed.ok) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return;
  }
  if (parsed.query.temporal || ctl::contains_temporal(parsed.query.root)) {
    std::printf("classes applies to state formulas (no temporal ops)\n");
    return;
  }
  const std::string err = ctl::validate_query(c, parsed.query);
  if (!err.empty()) {
    std::printf("error: %s\n", err.c_str());
    return;
  }
  auto compiled = ctl::compile_state(parsed.query.p);
  if (!compiled.ok) {
    std::printf("compile error: %s\n", compiled.error.c_str());
    return;
  }
  std::printf("%s", to_string(classify(*compiled.pred, c)).c_str());
}

void lint(const Computation& c, const std::string& text) {
  auto parsed = ctl::parse_query(text);
  if (!parsed.ok) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return;
  }
  const auto ds = ctl::lint_query(c, parsed.query);
  if (ds.empty()) {
    std::printf("clean: every dispatch is polynomial\n");
    return;
  }
  std::printf("%s", render_diagnostics(ds).c_str());
}

/// Runs the cost-model optimizer in analysis mode: the rewrite chain it
/// would apply, the plan/cost delta, and the class-inference derivation
/// for the operand.
void show_optimize(const Computation& c, const std::string& text) {
  auto parsed = ctl::parse_query(text);
  if (!parsed.ok) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return;
  }
  const std::string err = ctl::validate_query(c, parsed.query);
  if (!err.empty()) {
    std::printf("error: %s\n", err.c_str());
    return;
  }
  const ctl::OptimizeOutcome oc = ctl::optimize_query(c, parsed.query);
  if (!oc.changed) {
    std::printf("already optimal: %s (cost %.0f)\n", oc.plan_before.c_str(),
                oc.cost_before);
  } else {
    std::printf("plan: %s (cost %.0f) => %s (cost %.0f)\n",
                oc.plan_before.c_str(), oc.cost_before, oc.plan_after.c_str(),
                oc.cost_after);
    for (const RewriteStep& s : oc.steps)
      std::printf("  %s\n", to_string(s).c_str());
  }
  if (oc.inference.classes != 0 || oc.inference.co_classes != 0)
    std::printf("inference:\n%s", to_string(oc.inference.derivation).c_str());
}

/// Compiles a state formula and audits its claimed classes on the trace.
void audit(const Computation& c, const std::string& text) {
  auto parsed = ctl::parse_query(text);
  if (!parsed.ok) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return;
  }
  if (parsed.query.temporal || ctl::contains_temporal(parsed.query.root)) {
    std::printf("audit applies to state formulas (no temporal ops)\n");
    return;
  }
  auto compiled = ctl::compile_state(parsed.query.p);
  if (!compiled.ok) {
    std::printf("compile error: %s\n", compiled.error.c_str());
    return;
  }
  const AuditResult r = audit_predicate(compiled.pred, c);
  std::printf("%s over %llu cuts: %s\n",
              r.exhaustive ? "exhaustive" : "sampled",
              static_cast<unsigned long long>(r.cuts_examined),
              r.ok() ? "all claimed classes verified" : "violations found");
  if (!r.ok())
    std::printf("%s", render_diagnostics(audit_diagnostics(r)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool audit_mode = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--audit") == 0)
      audit_mode = true;
    else if (!path)
      path = argv[i];
    else
      path = "";  // too many positionals; falls through to usage
  }
  if (!path || !*path) {
    std::fprintf(stderr, "usage: %s [--audit] <trace-file|->\n", argv[0]);
    return 64;
  }

  TraceParseResult parsed;
  if (std::strcmp(path, "-") == 0) {
    parsed = read_trace(std::cin);
    // Reopen the terminal for interaction when the trace came from a pipe.
    if (!std::freopen("/dev/tty", "r", stdin)) {
      std::fprintf(stderr, "cannot reopen tty for interactive input\n");
      return 74;
    }
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 66;
    }
    parsed = read_trace(in);
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "trace error: %s\n", parsed.error.c_str());
    return 65;
  }
  const Computation& c = parsed.computation;
  std::printf("loaded: %d processes, %lld events, %lld messages "
              "(help for commands)\n",
              c.num_procs(), static_cast<long long>(c.total_events()),
              static_cast<long long>(c.num_messages()));

  std::string line;
  bool trace_mode = false;
  bool optimize_mode = false;
  std::optional<DetectResult> last;
  for (;;) {
    std::printf("hbct> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string cmd(trim(line));
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      help();
    } else if (cmd == "trace on") {
      trace_mode = true;
      std::printf("tracing on: queries keep their span tree\n");
    } else if (cmd == "trace off") {
      trace_mode = false;
      std::printf("tracing off\n");
    } else if (starts_with(cmd, "trace save ")) {
      save_chrome_trace(last, cmd.substr(11));
    } else if (cmd == "report") {
      if (!last)
        std::printf("no query yet\n");
      else
        std::printf("%s\n", report_json(*last).c_str());
    } else if (cmd == "diagram") {
      std::printf("%s", render_diagram(c).c_str());
    } else if (cmd == "stats") {
      std::printf("%s\n", analyze(c).to_string().c_str());
    } else if (cmd == "stat") {
      // In-process attach: the same table hbct_stat renders from scrape
      // files, read straight off the global registry.
      const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
      std::printf("%s", render_stat_table(snap).c_str());
      std::printf("detections: holds=%llu fails=%llu unknown=%llu\n",
                  static_cast<unsigned long long>(
                      snap.counters.count("detect.verdict.holds")
                          ? snap.counters.at("detect.verdict.holds") : 0),
                  static_cast<unsigned long long>(
                      snap.counters.count("detect.verdict.fails")
                          ? snap.counters.at("detect.verdict.fails") : 0),
                  static_cast<unsigned long long>(
                      snap.counters.count("detect.verdict.unknown")
                          ? snap.counters.at("detect.verdict.unknown") : 0));
    } else if (cmd == "vars") {
      for (VarId v = 0; v < c.num_vars(); ++v)
        std::printf("%s ", c.var_name(v).c_str());
      std::printf("\n");
    } else if (starts_with(cmd, "classes ")) {
      show_classes(c, cmd.substr(8));
    } else if (starts_with(cmd, "lint ")) {
      lint(c, cmd.substr(5));
    } else if (starts_with(cmd, "audit ")) {
      audit(c, cmd.substr(6));
    } else if (starts_with(cmd, "optimize ")) {
      show_optimize(c, cmd.substr(9));
    } else if (cmd == "opt on") {
      optimize_mode = true;
      std::printf("optimizer on: queries run with optimize=kApply\n");
    } else if (cmd == "opt off") {
      optimize_mode = false;
      std::printf("optimizer off\n");
    } else {
      run_query(c, cmd, audit_mode, trace_mode, optimize_mode, last);
    }
  }
  return 0;
}
