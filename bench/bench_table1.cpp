// Table 1 reproduction: one benchmark per (predicate class, operator) cell.
//
// The paper's Table 1 is an algorithm map, not a timing table; what this
// bench regenerates is its computational content: for each cell the
// dispatched algorithm and its cost on a common workload. Polynomial cells
// run on a 6-process, 1200-event random computation; the provably hard
// cells (EG/AG of observer-independent, arbitrary predicates) run on small
// hardness gadgets, and their exponential growth is bench_paper's fig3 rows.
//
// Counters: evals = predicate evaluations, steps = cut advancements.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "hbct.h"

namespace hbct {
namespace {

constexpr std::int32_t kProcs = 6;
constexpr std::int32_t kEventsPerProc = 200;

const Computation& workload() {
  static const Computation c = [] {
    GenOptions opt;
    opt.num_procs = kProcs;
    opt.events_per_proc = kEventsPerProc;
    opt.num_vars = 2;
    opt.seed = 2002;
    return generate_random(opt);
  }();
  return c;
}

void report(benchmark::State& state, const DetectResult& r) {
  state.counters["evals"] = static_cast<double>(r.stats.predicate_evals);
  state.counters["steps"] = static_cast<double>(r.stats.cut_steps);
  state.SetLabel(r.algorithm + " -> " + benchio::verdict_word(r.verdict));
}

PredicatePtr conjunctive_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kProcs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 8));
  return make_conjunctive(std::move(ls));
}

PredicatePtr disjunctive_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kProcs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kEq, 7));
  return make_disjunctive(std::move(ls));
}

PredicatePtr stable_pred() { return make_terminated(); }

// The linear/regular rows use per-operator predicates so every algorithm
// does representative work: EF needs a predicate that is initially false
// (the walk advances), EG/AG need one satisfied everywhere (full walk /
// full meet-irreducible scan). All are linear-but-not-conjunctive, so the
// dispatcher cannot reroute to the conjunctive scans.
PredicatePtr linear_pred_for(Op op) {
  PredicatePtr chan = channel_bound_le(0, 1, 1 << 20);  // always true
  if (op == Op::kEF || op == Op::kAF)
    return make_and(PredicatePtr(progress_ge(0, kEventsPerProc / 2)), chan);
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kProcs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));  // always true
  return make_and(make_conjunctive(std::move(ls)), chan);
}

PredicatePtr regular_pred_for(Op op) {
  // A channel bound with a realistic window; initially true, violated when
  // the channel fills past 2.
  if (op == Op::kEF || op == Op::kAF) return channel_bound_ge(0, 1, 1);
  return channel_bound_le(0, 1, 2);
}

PredicatePtr oi_pred() {
  // Holds initially, otherwise structureless: OI by the initial-cut rule.
  return make_asserted(
      [](const Computation& c, const Cut& g) {
        return g.total() == 0 || c.value_in(0, 0, g) > 9;
      },
      kClassObserverIndependent, "oi-gadget");
}

PredicatePtr arbitrary_pred() {
  return make_asserted(
      [](const Computation&, const Cut& g) { return g.total() % 2 == 0; }, 0,
      "parity");
}

template <typename MakePred>
void run_cell(benchmark::State& state, Op op, MakePred make,
              const Computation& c) {
  PredicatePtr p = make();
  DetectResult last;
  for (auto _ : state) last = detect(c, op, p);
  report(state, last);
}

// ---- Polynomial rows ---------------------------------------------------------

#define HBCT_CELL(row, maker)                                             \
  void BM_##row##_EF(benchmark::State& s) {                              \
    run_cell(s, Op::kEF, maker, workload());                             \
  }                                                                       \
  void BM_##row##_AF(benchmark::State& s) {                              \
    run_cell(s, Op::kAF, maker, workload());                             \
  }                                                                       \
  void BM_##row##_EG(benchmark::State& s) {                              \
    run_cell(s, Op::kEG, maker, workload());                             \
  }                                                                       \
  void BM_##row##_AG(benchmark::State& s) {                              \
    run_cell(s, Op::kAG, maker, workload());                             \
  }                                                                       \
  BENCHMARK(BM_##row##_EF);                                               \
  BENCHMARK(BM_##row##_AF);                                               \
  BENCHMARK(BM_##row##_EG);                                               \
  BENCHMARK(BM_##row##_AG)

HBCT_CELL(conjunctive, conjunctive_pred);
HBCT_CELL(disjunctive, disjunctive_pred);
HBCT_CELL(stable, stable_pred);

#undef HBCT_CELL

// AF of a general linear/regular predicate is an *open problem* in the
// paper (Table 1); our dispatcher falls back to explicit search, so those
// two cells run on the small workload defined below.
const Computation& small_workload();

#define HBCT_CELL_PER_OP(row, maker)                                      \
  void BM_##row##_EF(benchmark::State& s) {                              \
    run_cell(s, Op::kEF, [] { return maker(Op::kEF); }, workload());     \
  }                                                                       \
  void BM_##row##_AF_open_problem(benchmark::State& s) {                 \
    run_cell(s, Op::kAF, [] { return maker(Op::kAF); }, small_workload()); \
  }                                                                       \
  void BM_##row##_EG(benchmark::State& s) {                              \
    run_cell(s, Op::kEG, [] { return maker(Op::kEG); }, workload());     \
  }                                                                       \
  void BM_##row##_AG(benchmark::State& s) {                              \
    run_cell(s, Op::kAG, [] { return maker(Op::kAG); }, workload());     \
  }                                                                       \
  BENCHMARK(BM_##row##_EF);                                               \
  BENCHMARK(BM_##row##_AF_open_problem);                                  \
  BENCHMARK(BM_##row##_EG);                                               \
  BENCHMARK(BM_##row##_AG)

HBCT_CELL_PER_OP(linear, linear_pred_for);
HBCT_CELL_PER_OP(regular, regular_pred_for);

#undef HBCT_CELL_PER_OP

// ---- Observer-independent row -------------------------------------------------

void BM_oi_EF(benchmark::State& s) { run_cell(s, Op::kEF, oi_pred, workload()); }
void BM_oi_AF(benchmark::State& s) { run_cell(s, Op::kAF, oi_pred, workload()); }
BENCHMARK(BM_oi_EF);
BENCHMARK(BM_oi_AF);

// EG/AG of an OI predicate are NP-/co-NP-complete (Theorems 5/6): run the
// reduction gadget at a fixed small size here.
void BM_oi_EG_hardness_gadget(benchmark::State& state) {
  Rng rng(7);
  Cnf f = Cnf::random(10, 30, 3, rng);
  Reduction r = reduce_sat_to_eg(f);
  DetectResult last;
  for (auto _ : state) last = detect_eg_dfs(r.computation, *r.predicate);
  report(state, last);
}
BENCHMARK(BM_oi_EG_hardness_gadget);

void BM_oi_AG_hardness_gadget(benchmark::State& state) {
  Rng rng(9);
  Dnf f = Dnf::random(10, 24, 2, rng);
  Reduction r = reduce_tautology_to_ag(f);
  DetectResult last;
  for (auto _ : state) last = detect_ag_dfs(r.computation, *r.predicate);
  report(state, last);
}
BENCHMARK(BM_oi_AG_hardness_gadget);

// ---- Arbitrary row (explicit search on a small computation) --------------------

const Computation& small_workload() {
  static const Computation c = [] {
    GenOptions opt;
    opt.num_procs = 4;
    opt.events_per_proc = 5;
    opt.seed = 4;
    return generate_random(opt);
  }();
  return c;
}

void BM_arbitrary_EF(benchmark::State& s) {
  run_cell(s, Op::kEF, arbitrary_pred, small_workload());
}
void BM_arbitrary_AF(benchmark::State& s) {
  run_cell(s, Op::kAF, arbitrary_pred, small_workload());
}
void BM_arbitrary_EG(benchmark::State& s) {
  run_cell(s, Op::kEG, arbitrary_pred, small_workload());
}
void BM_arbitrary_AG(benchmark::State& s) {
  run_cell(s, Op::kAG, arbitrary_pred, small_workload());
}
BENCHMARK(BM_arbitrary_EF);
BENCHMARK(BM_arbitrary_AF);
BENCHMARK(BM_arbitrary_EG);
BENCHMARK(BM_arbitrary_AG);

// ---- Wide workload (n = 16): the hot-path acceptance cells ---------------------
//
// The lattice-walk algorithms (A1 retreat walk, A2 irreducible scan, A3
// frontier sweep) and the Garg-Waldecker conjunctive scan are the cells
// whose per-step cost scales with n; this block pins them on a 16-process
// computation so per-step improvements are measurable above fixed overhead.

constexpr std::int32_t kBigProcs = 16;
constexpr std::int32_t kBigEventsPerProc = 120;

const Computation& big_workload() {
  static const Computation c = [] {
    GenOptions opt;
    opt.num_procs = kBigProcs;
    opt.events_per_proc = kBigEventsPerProc;
    opt.num_vars = 2;
    opt.seed = 1616;
    return generate_random(opt);
  }();
  return c;
}

// Linear-but-not-conjunctive and satisfied everywhere, so EG runs the full
// A1 retreat walk and AG the full A2 meet-irreducible scan.
PredicatePtr big_linear_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kBigProcs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));  // always true
  return make_and(make_conjunctive(std::move(ls)),
                  channel_bound_le(0, 1, 1 << 20));
}

// Each process waits for a different variable value, so first-true
// positions scatter across the computation and the Garg-Waldecker weak
// scan pays long position scans plus clock-driven repair rounds.
PredicatePtr big_gw_pred() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kBigProcs; ++i)
    ls.push_back(var_cmp(i, i % 2 == 0 ? "v0" : "v1", Cmp::kGe, 8));
  return make_conjunctive(std::move(ls));
}

// q's least satisfying cut sits near the top of the lattice, so A3 pays a
// full Chase-Garg climb plus the frontier fan-out over long prefixes.
PredicatePtr big_until_q() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kBigProcs; ++i)
    ls.push_back(progress_ge(i, kBigEventsPerProc - 20));
  return make_conjunctive(std::move(ls));
}

PredicatePtr big_true_conjunctive() {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < kBigProcs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));  // always true
  return make_conjunctive(std::move(ls));
}

void BM_n16_A1_EG_linear(benchmark::State& s) {
  run_cell(s, Op::kEG, big_linear_pred, big_workload());
}
BENCHMARK(BM_n16_A1_EG_linear);

void BM_n16_A2_AG_linear(benchmark::State& s) {
  run_cell(s, Op::kAG, big_linear_pred, big_workload());
}
BENCHMARK(BM_n16_A2_AG_linear);

void BM_n16_A3_EU(benchmark::State& state) {
  const Computation& c = big_workload();
  auto p = as_conjunctive(big_true_conjunctive());
  PredicatePtr q = big_until_q();
  DetectResult last;
  for (auto _ : state) last = detect_eu(c, *p, *q);
  report(state, last);
}
BENCHMARK(BM_n16_A3_EU);

void BM_n16_GW_EF_conjunctive(benchmark::State& s) {
  run_cell(s, Op::kEF, big_gw_pred, big_workload());
}
BENCHMARK(BM_n16_GW_EF_conjunctive);

// ---- The until operators (Section 7, "this paper") -----------------------------

void BM_until_EU_A3(benchmark::State& state) {
  const Computation& c = workload();
  auto p = as_conjunctive(conjunctive_pred());
  PredicatePtr q = make_and(all_channels_empty(),
                            PredicatePtr(var_cmp(0, "v0", Cmp::kGe, 3)));
  DetectResult last;
  for (auto _ : state) last = detect_eu(c, *p, *q);
  report(state, last);
}
BENCHMARK(BM_until_EU_A3);

void BM_until_AU_disjunctive(benchmark::State& state) {
  const Computation& c = workload();
  auto p = as_disjunctive(disjunctive_pred());
  std::vector<LocalPredicatePtr> qs;
  for (ProcId i = 0; i < kProcs; ++i)
    qs.push_back(var_cmp(i, "v1", Cmp::kGe, 2));
  auto q = make_disjunctive(std::move(qs));
  DetectResult last;
  for (auto _ : state) last = detect_au_disjunctive(c, *p, *q);
  report(state, last);
}
BENCHMARK(BM_until_AU_disjunctive);

// ---- Lint-only overhead --------------------------------------------------------
//
// DispatchOptions::audit = kLintOnly attaches the dispatch plan and the
// pre-flight diagnostics to every result. The pair below runs the same four
// polynomial detections with the analysis off and on; the acceptance bar is
// <1% overhead, i.e. the two times should be indistinguishable since the
// lint costs O(|formula|) against detections that walk the computation.

void run_all_unary(benchmark::State& state, const DispatchOptions& opt) {
  const Computation& c = workload();
  PredicatePtr p = conjunctive_pred();
  DetectResult last;
  for (auto _ : state)
    for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG})
      last = detect(c, op, p, nullptr, opt);
  report(state, last);
}

void BM_audit_off(benchmark::State& state) { run_all_unary(state, {}); }
BENCHMARK(BM_audit_off);

void BM_audit_lint_only(benchmark::State& state) {
  DispatchOptions opt;
  opt.audit = AuditMode::kLintOnly;
  run_all_unary(state, opt);
}
BENCHMARK(BM_audit_lint_only);

// ---- Tracer overhead -----------------------------------------------------------
//
// Same shape as the audit pair. BM_trace_off exercises the compiled-in but
// disabled tracer: every instrumentation site tests one null pointer and
// falls through (the <=2% acceptance bar — compare against BM_audit_off,
// which is byte-for-byte the same work, and against the pre-observability
// baseline recorded in EXPERIMENTS.md). BM_trace_on pays for real spans,
// per-phase histograms, and the span-tree retained on the result.

void BM_trace_off(benchmark::State& state) { run_all_unary(state, {}); }
BENCHMARK(BM_trace_off);

void BM_trace_on(benchmark::State& state) {
  DispatchOptions opt;
  opt.trace = true;
  run_all_unary(state, opt);
}
BENCHMARK(BM_trace_on);

// ---- BENCH_table1.json ---------------------------------------------------------
//
// A compact self-timed pass over the polynomial rows plus the until
// operators. Every row is sized from its warm-up and the rows are timed
// interleaved (benchio::time_ns_interleaved), so drift and contention on a
// shared machine land on all of them alike. The EF-of-conjunctive row
// re-runs traced and embeds its full hbct.report/1 document so the artifact
// carries one complete span tree.

struct TimedCell {
  std::string name;
  /// One timed call; the result of the last one labels the row.
  std::function<DetectResult()> run;
  /// A fixed label instead of "algorithm -> verdict".
  std::string label = {};
};

TimedCell detect_cell(const std::string& name, Op op, PredicatePtr p,
                      const Computation& c) {
  return {name, [op, p, &c] { return detect(c, op, p); }};
}

bool emit_table1_json(const std::string& path) {
  const Computation& c = workload();
  std::vector<TimedCell> cells;
  struct RowSpec {
    const char* row;
    PredicatePtr (*make)();
  };
  const RowSpec specs[] = {{"conjunctive", conjunctive_pred},
                           {"disjunctive", disjunctive_pred},
                           {"stable", stable_pred}};
  const struct {
    const char* name;
    Op op;
  } ops[] = {{"EF", Op::kEF}, {"AF", Op::kAF}, {"EG", Op::kEG},
             {"AG", Op::kAG}};
  for (const RowSpec& spec : specs)
    for (const auto& o : ops)
      cells.push_back(detect_cell(std::string(spec.row) + "." + o.name, o.op,
                                  spec.make(), c));
  for (const auto& o : ops)
    cells.push_back(detect_cell(std::string("linear.") + o.name, o.op,
                                linear_pred_for(o.op),
                                o.op == Op::kAF ? small_workload() : c));

  // The n = 16 acceptance cells: A1/A2 walks, the A3 frontier sweep, and
  // the Garg-Waldecker conjunctive scan on the wide workload. These are the
  // rows tools/bench_diff.py and the EXPERIMENTS.md A/B track.
  const Computation& big = big_workload();
  cells.push_back(
      detect_cell("n16.A1.EG_linear", Op::kEG, big_linear_pred(), big));
  cells.push_back(
      detect_cell("n16.A2.AG_linear", Op::kAG, big_linear_pred(), big));
  cells.push_back({"n16.A3.EU", [&big, p = as_conjunctive(big_true_conjunctive()),
                                 q = big_until_q()] {
                     return detect_eu(big, *p, *q);
                   }});
  cells.push_back(
      detect_cell("n16.GW.EF_conjunctive", Op::kEF, big_gw_pred(), big));

  cells.push_back(
      {"until.EU",
       [&c, p = as_conjunctive(conjunctive_pred()),
        q = make_and(all_channels_empty(),
                     PredicatePtr(var_cmp(0, "v0", Cmp::kGe, 3)))] {
         return detect_eu(c, *p, *q);
       }});
  {
    std::vector<LocalPredicatePtr> qs;
    for (ProcId i = 0; i < kProcs; ++i)
      qs.push_back(var_cmp(i, "v1", Cmp::kGe, 2));
    cells.push_back({"until.AU",
                     [&c, p = as_disjunctive(disjunctive_pred()),
                      q = make_disjunctive(std::move(qs))] {
                       return detect_au_disjunctive(c, *p, *q);
                     }});
  }

  // The disabled-tracer A/B on the artifact too, so EXPERIMENTS.md numbers
  // can be regenerated from the JSON alone.
  for (const bool traced : {false, true}) {
    cells.push_back({traced ? "overhead.trace_on" : "overhead.trace_off",
                     [&c, traced, p = conjunctive_pred()] {
                       DispatchOptions opt;
                       opt.trace = traced;
                       DetectResult last;
                       for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG})
                         last = detect(c, op, p, nullptr, opt);
                       return last;
                     },
                     "EF+AF+EG+AG of conjunctive"});
  }

  std::vector<DetectResult> last(cells.size());
  std::vector<std::function<void()>> fns;
  for (std::size_t k = 0; k < cells.size(); ++k)
    fns.push_back([&, k] { last[k] = cells[k].run(); });
  const std::vector<Summary> ns = benchio::time_ns_interleaved(fns);
  std::vector<benchio::BenchRow> rows(cells.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    rows[k].name = cells[k].name;
    rows[k].ns = ns[k];
    rows[k].label = !cells[k].label.empty()
                        ? cells[k].label
                        : last[k].algorithm + " -> " +
                              benchio::verdict_word(last[k].verdict);
  }
  // rows.front() is conjunctive.EF.
  DispatchOptions traced;
  traced.trace = true;
  rows.front().report =
      report_json(detect(c, Op::kEF, conjunctive_pred(), nullptr, traced));
  return benchio::write_bench_json(path, "table1", rows);
}

}  // namespace
}  // namespace hbct

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* out = std::getenv("HBCT_BENCH_JSON");
  return hbct::emit_table1_json(out != nullptr ? out : "BENCH_table1.json")
             ? 0
             : 1;
}
