// The offline workloads: offline-corpus (post-mortem audit of the scenario
// corpus written to hbct-mtrace files, loaded zero-copy and run through
// detect()) and offline-nested (ad-hoc CTL query text over small-to-medium
// simulated executions, judged against the explicit-lattice oracle).
#include <algorithm>
#include <cmath>
#include <functional>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "corpus/golden.h"
#include "corpus/scenario.h"
#include "ctl/compile.h"
#include "ctl/parser.h"
#include "analysis/optimize.h"
#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "lattice/lattice.h"
#include "poset/mtrace.h"
#include "sim/workloads.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using hbct::Computation;
using hbct::DetectResult;
using hbct::DispatchOptions;
using hbct::Verdict;
namespace corpus = hbct::corpus;
namespace ctl = hbct::ctl;

void tally(RouteTallies& t, const DetectResult& r, double ms) {
  RouteTally& x = t[route_key(r.algorithm)];
  ++x.calls;
  x.ms += ms;
  x.evals += r.stats.predicate_evals;
  x.cut_steps += r.stats.cut_steps;
}

/// Adds one pass's tallies into `into`; returns the pass's summed call time.
double merge_routes(RouteTallies& into, const RouteTallies& pass) {
  double ms = 0;
  for (const auto& [k, r] : pass) {
    RouteTally& t = into[k];
    t.calls += r.calls;
    t.ms += r.ms;
    t.evals += r.evals;
    t.cut_steps += r.cut_steps;
    ms += r.ms;
  }
  return ms;
}

std::string route_mix(const RouteTallies& pass) {
  std::string mix;
  for (const auto& [k, r] : pass)
    mix += k + "=" + std::to_string(r.calls) + " ";
  return mix;
}

std::string fmtd(const char* f, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// One pass over an offline workload's inputs.
struct OfflinePass {
  double load_s = 0;     // process CPU of loading the inputs (offline-corpus)
  double verdict_s = 0;  // thread CPU, first detection call to last verdict
  double wall_s = 0;     // wall time of the same span
  std::vector<double> call_us;  // thread CPU per detection call
  RouteTallies routes;
  std::uint64_t eval_inc = 0, eval_fb = 0;
};

/// Passes until --seconds is spent, split by kind. The traced run
/// alternates untraced and traced passes so that host drift hits both
/// sides alike; only untraced passes feed the end-to-end metrics.
struct OfflineRun {
  std::vector<double> load, verdict, call_us;  // untraced passes
  std::vector<double> tload, tverdict;         // traced passes
  std::string mix;                             // route mix of one pass
  RouteTallies routes;                         // traced passes
  std::uint64_t inc = 0, fb = 0;
  double route_ms = 0, verdict_ms = 0;
};

template <class PassFn>
OfflineRun offline_passes(const Args& a, SpanLog& spans, PassFn&& pass) {
  OfflineRun run;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 2 || seconds_since(start) < a.seconds; ++i) {
    const bool traced = a.trace && i % 2 == 1;
    spans.enable(traced);
    const OfflinePass p = pass();
    if (traced) {
      run.tload.push_back(p.load_s);
      run.tverdict.push_back(p.verdict_s);
      run.route_ms += merge_routes(run.routes, p.routes);
      run.verdict_ms += p.verdict_s * 1e3;
      run.inc += p.eval_inc;
      run.fb += p.eval_fb;
      continue;
    }
    run.load.push_back(p.load_s);
    run.verdict.push_back(p.verdict_s);
    run.call_us.insert(run.call_us.end(), p.call_us.begin(), p.call_us.end());
    if (run.mix.empty()) run.mix = route_mix(p.routes);
  }
  spans.enable(false);
  return run;
}

std::int64_t count(const std::vector<double>& v) {
  return static_cast<std::int64_t>(v.size());
}

/// The rows both offline workloads share: end-to-end verdict time and
/// per-call latency (thread CPU), and with --trace the per-route tallies,
/// evaluation mix, residual and bench-trace overhead of the traced passes.
void report_offline(const Args& a, Sheet& sheet, const OfflineRun& run,
                    std::int64_t events, const RssPeak& rss) {
  const double verdict = median(run.verdict);
  sheet.set_e2e("verdict_s", verdict, "cpu_s", count(run.verdict));
  sheet.set_e2e("events_per_s", static_cast<double>(events) / verdict,
                "1/cpu_s", count(run.verdict));
  sheet.set_e2e("fire_p50_us", percentile(run.call_us, 0.5), "cpu_us",
                count(run.call_us));
  sheet.set_e2e("fire_p99_us", percentile(run.call_us, 0.99), "cpu_us",
                count(run.call_us));
  sheet.set_e2e("rss_peak_mb", rss.peak_mb, "MB", rss.samples);
  sheet.prop("route_mix", run.mix);
  if (!a.trace) return;
  const std::int64_t passes = count(run.tverdict);
  report_routes(sheet, run.routes, passes);
  const auto evals = static_cast<std::int64_t>(run.inc + run.fb);
  sheet.set_layer("detect.eval_incremental_share",
                  evals == 0 ? 0
                             : static_cast<double>(run.inc) /
                                   static_cast<double>(evals),
                  evals);
  sheet.set_layer("detect.unexplained_share",
                  1.0 - run.route_ms / run.verdict_ms, passes);
  sheet.set_layer("obs.bench_trace_overhead_share",
                  median(run.tverdict) / verdict - 1.0, passes);
}

// ---- offline-corpus ---------------------------------------------------------

/// One mtrace file of the audit and the battery cells run against it.
struct AuditFile {
  std::string scenario;
  std::string path;
  std::int64_t events = 0;
  std::int32_t procs = 0;
  std::uintmax_t bytes = 0;
  std::vector<corpus::BatteryCell> cells;
};

bool exponential_route(const std::string& algorithm) {
  return algorithm.find("dfs") != std::string::npos ||
         algorithm.find("brute") != std::string::npos;
}

/// Large scale (>= 128 procs) for the stress-safe cells; mid scale for the
/// quadratic-route cells (GW, Chase-Garg, A3). Cells whose route is an
/// exponential search are left to offline-nested.
constexpr corpus::CorpusOptions kLarge{128, 60, 0};
constexpr corpus::CorpusOptions kMid{32, 100, 0};

std::vector<AuditFile> write_corpus(const Args& a, Sheet& sheet) {
  std::filesystem::create_directories(a.work_dir);
  std::vector<AuditFile> files;
  for (const corpus::ScenarioSpec& spec : corpus::scenario_registry()) {
    // Which cells take an exponential route is decided at golden scale.
    std::vector<std::string> exponential;
    {
      corpus::Scenario g = spec.build({});
      for (const corpus::BatteryCell& cell : g.battery)
        if (exponential_route(hbct::detect(g.computation, cell.op, cell.pred,
                                           cell.until_q)
                                  .algorithm))
          exponential.push_back(cell.name);
    }
    for (const bool large : {true, false}) {
      corpus::CorpusOptions o = large ? kLarge : kMid;
      o.seed = a.seed;
      corpus::Scenario s = spec.build(o);
      AuditFile f;
      f.scenario = std::string(spec.name) + (large ? "/large" : "/mid");
      f.path = a.work_dir + "/" + spec.name + (large ? "-large" : "-mid") +
               ".mtrace";
      f.events = s.computation.total_events();
      f.procs = s.computation.num_procs();
      for (corpus::BatteryCell& cell : s.battery) {
        if (cell.stress_safe != large) continue;
        if (std::find(exponential.begin(), exponential.end(), cell.name) !=
            exponential.end())
          continue;
        f.cells.push_back(std::move(cell));
      }
      if (f.cells.empty()) continue;
      std::string err;
      sheet.check(hbct::write_mtrace_file(f.path, s.computation, &err),
                  "offline-corpus: write " + f.path + ": " + err);
      f.bytes = std::filesystem::file_size(f.path);
      files.push_back(std::move(f));
    }
  }
  return files;
}

/// Loads every file (the set-up sample) and runs its cells through detect()
/// (the timed audit), checking each verdict against its proved value.
OfflinePass corpus_pass(const std::vector<AuditFile>& files,
                       const DispatchOptions& opt, Sheet& sheet, RssPeak& rss,
                       SpanLog& spans) {
  OfflinePass p;
  std::vector<hbct::MtraceLoadResult> views;
  const std::int64_t l0 = process_cpu_ns();
  for (const AuditFile& f : files) {
    SpanLog::Scope s(spans, "poset.load_mtrace");
    views.push_back(hbct::load_mtrace(f.path, hbct::MtraceMode::kMap));
  }
  p.load_s = (process_cpu_ns() - l0) * 1e-9;
  rss.sample();
  const std::int64_t t0 = thread_cpu_ns();
  const std::int64_t w0 = now_ns();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!views[i].ok) {
      sheet.check(false, "offline-corpus: load " + files[i].path + ": " +
                             views[i].error);
      continue;
    }
    const Computation& c = views[i].computation;
    for (const corpus::BatteryCell& cell : files[i].cells) {
      const std::int64_t a = thread_cpu_ns();
      DetectResult r;
      {
        SpanLog::Scope s(spans, "detect.detect");
        r = hbct::detect(c, cell.op, cell.pred, cell.until_q, opt);
      }
      const std::int64_t b = thread_cpu_ns();
      p.call_us.push_back((b - a) / 1e3);
      tally(p.routes, r, (b - a) / 1e6);
      p.eval_inc += r.stats.eval_incremental;
      p.eval_fb += r.stats.eval_fallback;
      sheet.check(r.verdict == cell.expect &&
                      corpus::witness_certifies(c, cell, r),
                  "offline-corpus: " + files[i].scenario + "/" + cell.name +
                      " via " + r.algorithm);
    }
    rss.sample();
  }
  p.verdict_s = (thread_cpu_ns() - t0) * 1e-9;
  p.wall_s = seconds_since(w0);
  return p;
}

}  // namespace

void run_offline_corpus(const Args& a, Sheet& sheet) {
  const std::vector<AuditFile> files = write_corpus(a, sheet);
  std::int64_t events = 0, cells = 0;
  std::uintmax_t bytes = 0;
  for (const AuditFile& f : files) {
    events += f.events;
    cells += static_cast<std::int64_t>(f.cells.size());
    bytes += f.bytes;
    sheet.prop("file " + f.scenario,
               fmtd("%.0f events", static_cast<double>(f.events)) + ", " +
                   std::to_string(f.procs) + " procs, " +
                   std::to_string(f.cells.size()) + " cells, " +
                   fmtd("%.1f MB", static_cast<double>(f.bytes) / 1e6));
  }
  sheet.prop("audit", std::to_string(files.size()) + " files, " +
                          std::to_string(cells) + " cells, " +
                          std::to_string(events) + " events, " +
                          fmtd("%.1f MB", static_cast<double>(bytes) / 1e6));

  SpanLog spans;
  RssPeak rss;
  const DispatchOptions opt;  // the defaults, as a user would call it
  const OfflineRun run = offline_passes(
      a, spans, [&] { return corpus_pass(files, opt, sheet, rss, spans); });
  sheet.set_e2e("setup_s", median(run.load), "s", count(run.load));
  report_offline(a, sheet, run, events, rss);

  if (a.trace) {
    sheet.set_layer("poset.mtrace_load_ms", median(run.tload) * 1e3,
                    count(run.tload));
    sheet.set_layer("poset.mtrace_mb", static_cast<double>(bytes) / 1e6,
                    static_cast<std::int64_t>(files.size()));
    RssPeak rss2;
    // detect()'s own span tracing, and the fan-out width, each A/B'd over
    // alternating passes (best of three per side).
    SpanLog off;
    DispatchOptions traced;
    traced.trace = true;
    DispatchOptions wide;
    wide.parallelism = static_cast<std::size_t>(thread_budget());
    double t_off = 1e300, t_on = 1e300, t_narrow = 1e300, t_wide = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const OfflinePass base = corpus_pass(files, opt, sheet, rss2, off);
      t_off = std::min(t_off, base.verdict_s);
      t_narrow = std::min(t_narrow, base.wall_s);
      t_on = std::min(
          t_on, corpus_pass(files, traced, sheet, rss2, off).verdict_s);
      t_wide = std::min(
          t_wide, corpus_pass(files, wide, sheet, rss2, off).wall_s);
    }
    sheet.set_layer("obs.detect_trace_overhead_share", t_on / t_off - 1.0, 3);
    sheet.set_layer("detect.fanout_speedup", t_narrow / t_wide, 3);
    if (!a.trace_dir.empty())
      spans.write_chrome(a.trace_dir + "/offline-corpus.trace.json");
  }
  for (const AuditFile& f : files) {
    std::error_code ec;
    std::filesystem::remove(f.path, ec);
  }
}

// ---- offline-nested ---------------------------------------------------------

namespace {

struct QueryCase {
  std::string text;
  ctl::Query query;
};

/// One simulated execution plus the queries asked of it and their oracle
/// verdicts.
struct NestedExec {
  std::string name;
  Computation comp;
  std::vector<const QueryCase*> queries;
  std::vector<Verdict> oracle;
  std::size_t lattice_nodes = 0, lattice_edges = 0;
};

std::vector<std::string> read_qry(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos || line[b] == '#') continue;
    out.push_back(line.substr(b));
  }
  return out;
}

/// Per-node truth labels of an arbitrary (nested) query on the explicit
/// lattice: temporal-free subformulas are compiled and labeled directly,
/// operators are the checker's fixpoint labelings.
std::optional<std::vector<char>> oracle_labels(const hbct::LatticeChecker& lc,
                                               const ctl::NodePtr& n) {
  using K = ctl::Node::Kind;
  if (!ctl::contains_temporal(n)) {
    ctl::CompileResult cr = ctl::compile_state(n);
    if (!cr.ok) return std::nullopt;
    return lc.label(*cr.pred);
  }
  switch (n->kind) {
    case K::kNot: {
      auto v = oracle_labels(lc, n->children[0]);
      if (v) for (char& x : *v) x = !x;
      return v;
    }
    case K::kAnd:
    case K::kOr: {
      auto acc = oracle_labels(lc, n->children[0]);
      for (std::size_t i = 1; acc && i < n->children.size(); ++i) {
        auto v = oracle_labels(lc, n->children[i]);
        if (!v) return std::nullopt;
        for (std::size_t k = 0; k < acc->size(); ++k)
          (*acc)[k] = n->kind == K::kAnd ? ((*acc)[k] && (*v)[k])
                                         : ((*acc)[k] || (*v)[k]);
      }
      return acc;
    }
    case K::kTemporal: {
      auto p = oracle_labels(lc, n->children[0]);
      if (!p) return std::nullopt;
      switch (n->op) {
        case hbct::Op::kEF: return lc.ef(*p);
        case hbct::Op::kAF: return lc.af(*p);
        case hbct::Op::kEG: return lc.eg(*p);
        case hbct::Op::kAG: return lc.ag(*p);
        case hbct::Op::kEU:
        case hbct::Op::kAU: {
          auto q = oracle_labels(lc, n->children[1]);
          if (!q) return std::nullopt;
          return n->op == hbct::Op::kEU ? lc.eu(*p, *q) : lc.au(*p, *q);
        }
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// Query families by the variables their protocol exposes. progress.qry
/// applies to every execution, mutex.qry to the token-mutex runs.
struct Family {
  const char* name;
  std::vector<std::string> texts;
};

std::vector<Family> families(const Args& a) {
  const std::vector<std::string> progress =
      read_qry(a.queries_dir + "/progress.qry");
  const std::vector<std::string> mutex = read_qry(a.queries_dir + "/mutex.qry");
  auto with = [&](std::vector<std::string> own, bool token) {
    own.insert(own.end(), progress.begin(), progress.end());
    if (token) own.insert(own.end(), mutex.begin(), mutex.end());
    return own;
  };
  return {
      {"token_mutex",
       with({"AG(try@P0 == 0 || AF(cs@P0 == 1))",
             "AG(EF(has_token@P0 == 1))",
             "EF(cs@P0 + cs@P1 + cs@P2 == 1 && try@P3 == 1)"},
            true)},
      {"ra_mutex",
       with({"AG(try@P0 == 0 || AF(cs@P0 == 1))",
             "EF(AG(cs@P2 == 0))",
             "EF(cs@P0 == 1 && cs@P1 == 1)",
             "!AG(cs@P0 == 0 || cs@P1 == 0)",
             "EF(cs@P0 + cs@P1 + cs@P2 + cs@P3 == 2 && reqs@P4 >= 2)",
             "EG(try@P0 + try@P1 <= 1)"},
            false)},
      {"two_phase_commit",
       with({"AG(decision@P0 != 1 || AF(outcome@P1 == 1))",
             "EF(outcome@P1 == 1 && outcome@P2 == -1)",
             "E[decided@P1 == 0 U decided@P1 == 1]",
             "EF(outcome@P1 + outcome@P2 == 0 && decided@P1 + decided@P2 == 2)",
             "EG(decided@P1 + decided@P2 <= 1)",
             "EF(decision@P0 == 1) || EF(decision@P0 == -1)"},
            false)},
      {"dining",
       with({"AG(waitl@P0 == 0 || AF(eating@P0 == 1))",
             "EF(eating@P0 == 1 && eating@P1 == 1)",
             "EF(AG(meals@P0 == 0))",
             "EF(eating@P0 + eating@P1 == 2 && waitl@P2 == 1)",
             "!EF(eating@P0 == 1 && eating@P1 == 1)"},
            false)},
  };
}

/// Executions per family. Each protocol instance has a target lattice size
/// (~10^4-10^5 cuts; the token ring is a chain); the seed picks the
/// schedule, and the first schedule whose lattice lands within 4% of the
/// target is kept (else the closest of 24), so every seed audits the same
/// amount of state space.
/// Schedules per protocol instance: the exhaustive routes' cost depends on
/// where in the search their witness lies, so several schedules average it.
constexpr int kNestedCopies = 2;

std::vector<NestedExec> nested_execs(std::uint64_t seed) {
  namespace sim = hbct::sim;
  hbct::Rng rng(seed ^ 0xc71ull);
  struct Spec {
    const char* name;
    std::function<sim::Simulator()> make;
    double target_cuts;  // 0: any size
  };
  const std::vector<Spec> specs = {
      {"token_mutex", [] { return sim::make_token_mutex(4, 3, false); }, 0},
      {"token_mutex", [] { return sim::make_token_mutex(5, 3, true); }, 0},
      {"ra_mutex", [] { return sim::make_ra_mutex(5, 1); }, 30'000},
      {"ra_mutex", [] { return sim::make_ra_mutex(5, 2); }, 60'000},
      {"two_phase_commit",
       [] { return sim::make_two_phase_commit(7, 3, 0.2, false); }, 20'000},
      {"two_phase_commit",
       [] { return sim::make_two_phase_commit(8, 2, 0.2, false); }, 40'000},
      {"dining", [] { return sim::make_dining_philosophers(4, 2, true); },
       21'000},
      {"dining", [] { return sim::make_dining_philosophers(4, 3, true); },
       39'000},
  };
  std::vector<NestedExec> xs;
  for (int copy = 0; copy < kNestedCopies; ++copy)
  for (const Spec& spec : specs) {
    NestedExec best;
    double best_err = 1e300;
    for (int attempt = 0; attempt < 24; ++attempt) {
      hbct::sim::SimOptions so;
      so.seed = rng.next_u64();
      NestedExec x;
      x.name = spec.name;
      x.comp = spec.make().run(so);
      double err = 0;
      if (spec.target_cuts > 0) {
        auto lat = hbct::Lattice::try_build(x.comp, 1u << 22);
        const double cuts = lat ? static_cast<double>(lat->size()) : 1e300;
        err = std::abs(cuts / spec.target_cuts - 1.0);
      }
      if (err < best_err) {
        best_err = err;
        best = std::move(x);
      }
      if (best_err <= 0.04) break;
    }
    xs.push_back(std::move(best));
  }
  return xs;
}

OfflinePass nested_pass(const std::vector<NestedExec>& xs,
                       const DispatchOptions& opt, Sheet& sheet, RssPeak& rss,
                       SpanLog& spans) {
  OfflinePass p;
  const std::int64_t t0 = thread_cpu_ns();
  const std::int64_t w0 = now_ns();
  for (const NestedExec& x : xs) {
    for (std::size_t i = 0; i < x.queries.size(); ++i) {
      const std::int64_t a = thread_cpu_ns();
      ctl::EvalResult r;
      {
        SpanLog::Scope s(spans, "ctl.evaluate_query");
        r = ctl::evaluate_query(x.comp, x.queries[i]->query, opt);
      }
      const std::int64_t b = thread_cpu_ns();
      p.call_us.push_back((b - a) / 1e3);
      if (r.ok) {
        tally(p.routes, r.result, (b - a) / 1e6);
        p.eval_inc += r.result.stats.eval_incremental;
        p.eval_fb += r.result.stats.eval_fallback;
      }
      sheet.check(r.ok && r.result.verdict == x.oracle[i],
                  "offline-nested: " + x.name + ": " + x.queries[i]->text +
                      (r.ok ? " via " + r.algorithm : " error " + r.error));
    }
    rss.sample();
  }
  p.verdict_s = (thread_cpu_ns() - t0) * 1e-9;
  p.wall_s = seconds_since(w0);
  return p;
}

}  // namespace

void run_offline_nested(const Args& a, Sheet& sheet) {
  // Query text: parsed once for the reference, and again (timed) as set-up.
  std::vector<Family> fams = families(a);
  std::vector<std::unique_ptr<QueryCase>> cases;
  std::vector<std::vector<const QueryCase*>> fam_cases(fams.size());
  std::vector<std::string> all_texts;
  for (std::size_t f = 0; f < fams.size(); ++f)
    for (const std::string& t : fams[f].texts) {
      ctl::ParseResult pr = ctl::parse_query(t);
      sheet.check(pr.ok, "offline-nested: parse " + t + ": " + pr.error);
      if (!pr.ok) continue;
      cases.push_back(std::make_unique<QueryCase>(QueryCase{t, pr.query}));
      fam_cases[f].push_back(cases.back().get());
      all_texts.push_back(t);
    }
  if (sheet.failed > 0) return;

  std::vector<NestedExec> xs = nested_execs(a.seed);
  std::size_t nodes = 0, edges = 0;
  for (NestedExec& x : xs) {
    for (std::size_t f = 0; f < fams.size(); ++f)
      if (x.name == fams[f].name) x.queries = fam_cases[f];
    std::optional<hbct::Lattice> lat =
        hbct::Lattice::try_build(x.comp, 1u << 22);
    if (!lat) {
      sheet.check(false, "offline-nested: lattice too large for the oracle");
      return;
    }
    x.lattice_nodes = lat->size();
    x.lattice_edges = lat->num_edges();
    nodes += x.lattice_nodes;
    edges += x.lattice_edges;
    const hbct::LatticeChecker lc(std::move(*lat));
    for (const QueryCase* q : x.queries) {
      const std::string bad = ctl::validate_query(x.comp, q->query);
      sheet.check(bad.empty(),
                  "offline-nested: " + x.name + ": " + q->text + ": " + bad);
      auto labels = oracle_labels(lc, q->query.root);
      sheet.check(labels.has_value(),
                  "offline-nested: oracle cannot label " + q->text);
      x.oracle.push_back(labels && (*labels)[lc.lattice().bottom()]
                             ? Verdict::kHolds
                             : Verdict::kFails);
    }
    sheet.prop("execution " + x.name,
               std::to_string(x.comp.num_procs()) + " procs, " +
                   std::to_string(x.comp.total_events()) + " events, " +
                   std::to_string(x.lattice_nodes) + " cuts, " +
                   std::to_string(x.queries.size()) + " queries");
  }
  if (sheet.failed > 0) return;

  // Set-up: parsing the whole query set (microseconds), 20 times before
  // every pass so that its median spans the run.
  std::vector<double> parse_s;
  const auto parse_reps = [&] {
    for (int rep = 0; rep < 20; ++rep) {
      const std::int64_t t0 = process_cpu_ns();
      for (const std::string& t : all_texts) {
        ctl::ParseResult pr = ctl::parse_query(t);
        if (!pr.ok) sheet.check(false, "offline-nested: reparse " + t);
      }
      parse_s.push_back((process_cpu_ns() - t0) * 1e-9);
    }
  };

  SpanLog spans;
  RssPeak rss;
  DispatchOptions opt;
  opt.optimize = hbct::OptimizeMode::kApply;
  std::int64_t events = 0;
  for (const NestedExec& x : xs) events += x.comp.total_events();
  const OfflineRun run = offline_passes(
      a, spans, [&] {
        parse_reps();
        return nested_pass(xs, opt, sheet, rss, spans);
      });
  sheet.set_e2e("setup_s", median(parse_s), "s", count(parse_s));
  report_offline(a, sheet, run, events, rss);
  sheet.prop("lattice_cuts_mean",
             std::to_string(nodes / std::max<std::size_t>(1, xs.size())));

  if (!a.trace) return;
  spans.enable(true);
  RssPeak rss2;
  sheet.set_layer("ctl.parse_us_per_query",
                  median(parse_s) * 1e6 / static_cast<double>(all_texts.size()),
                  count(parse_s));
  // The optimizer alone, on every (execution, query) pair; non-empty
  // computations bypass its cache.
  std::int64_t optimized = 0, rewritten = 0;
  const std::int64_t o0 = now_ns();
  for (const NestedExec& x : xs)
    for (const QueryCase* q : x.queries) {
      SpanLog::Scope s(spans, "analysis.optimize_query");
      rewritten += ctl::optimize_query(x.comp, q->query).changed ? 1 : 0;
      ++optimized;
    }
  sheet.set_layer("analysis.optimize_us_per_query",
                  (now_ns() - o0) / 1e3 / static_cast<double>(optimized),
                  optimized);
  sheet.set_layer("analysis.rewritten_share",
                  static_cast<double>(rewritten) /
                      static_cast<double>(optimized),
                  optimized);
  // Per execution: lattice size, and Lattice::try_build timed directly.
  const auto n_execs = static_cast<std::int64_t>(xs.size());
  const double per_exec = 1.0 / static_cast<double>(n_execs);
  sheet.set_layer("lattice.nodes", static_cast<double>(nodes) * per_exec,
                  n_execs);
  sheet.set_layer("lattice.edges", static_cast<double>(edges) * per_exec,
                  n_execs);
  const std::int64_t b0 = now_ns();
  for (const NestedExec& x : xs) {
    SpanLog::Scope s(spans, "lattice.try_build");
    hbct::Lattice::try_build(x.comp, 1u << 22);
  }
  sheet.set_layer("lattice.build_ms", (now_ns() - b0) / 1e6 * per_exec,
                  n_execs);
  SpanLog off;
  DispatchOptions wide = opt;
  wide.parallelism = static_cast<std::size_t>(thread_budget());
  double t1 = 1e300, tw = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    t1 = std::min(t1, nested_pass(xs, opt, sheet, rss2, off).wall_s);
    tw = std::min(tw, nested_pass(xs, wide, sheet, rss2, off).wall_s);
  }
  sheet.set_layer("detect.fanout_speedup", t1 / tw, 2);
  if (!a.trace_dir.empty())
    spans.write_chrome(a.trace_dir + "/offline-nested.trace.json");
}

}  // namespace perfbench
