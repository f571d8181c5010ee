// Parallel detection engine: speedup of the fan-out sites versus the
// parallelism knob (DispatchOptions::parallelism / LatticeChecker
// parallelism). Each benchmark sweeps widths 1/2/4/8 over the Table-1
// workload so the scaling curve is read off one table. The verdicts and
// operation counts are identical at every width (see
// tests/test_parallel_detect.cpp); only wall-clock should move.
//
// On a single-core box the expectation is flat timings with a small
// coordination overhead at width > 1 — record whatever the hardware gives;
// EXPERIMENTS.md notes the core count next to the numbers.
#include <benchmark/benchmark.h>

#include <cstdlib>

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

// Small enough for the explicit lattice, big enough that label() has work.
const Computation& lattice_workload() {
  static const Computation c = [] {
    GenOptions opt;
    opt.num_procs = 4;
    opt.events_per_proc = 6;
    opt.num_vars = 2;
    opt.seed = 77;
    return generate_random(opt);
  }();
  return c;
}

void report(benchmark::State& state, const DetectResult& r) {
  state.counters["evals"] = static_cast<double>(r.stats.predicate_evals);
  state.counters["steps"] = static_cast<double>(r.stats.cut_steps);
  state.SetLabel(r.algorithm + (r.holds() ? " -> true" : " -> false"));
}

/// Wide DNF whose disjuncts each force a full conjunctive scan: the
/// ef-or-split fans one branch per disjunct.
PredicatePtr wide_dnf() {
  std::vector<PredicatePtr> ds;
  for (int d = 0; d < 8; ++d) {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < kProcs; ++i)
      ls.push_back(var_cmp(i, "v0", Cmp::kEq, d % 6));
    ds.push_back(PredicatePtr(make_conjunctive(std::move(ls))));
  }
  return make_or(std::move(ds));
}

PredicatePtr wide_cnf() {
  std::vector<PredicatePtr> cs;
  for (int d = 0; d < 8; ++d) {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < kProcs; ++i)
      ls.push_back(var_cmp(i, "v1", Cmp::kEq, d % 6));
    cs.push_back(PredicatePtr(make_disjunctive(std::move(ls))));
  }
  return make_and(std::move(cs));
}

void BM_ef_or_split(benchmark::State& state) {
  const Computation& c = workload();
  PredicatePtr p = wide_dnf();
  DispatchOptions opt;
  opt.parallelism = static_cast<std::size_t>(state.range(0));
  DetectResult last;
  for (auto _ : state) last = detect(c, Op::kEF, p, nullptr, opt);
  report(state, last);
}
BENCHMARK(BM_ef_or_split)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ag_and_split(benchmark::State& state) {
  const Computation& c = workload();
  PredicatePtr p = wide_cnf();
  DispatchOptions opt;
  opt.parallelism = static_cast<std::size_t>(state.range(0));
  DetectResult last;
  for (auto _ : state) last = detect(c, Op::kAG, p, nullptr, opt);
  report(state, last);
}
BENCHMARK(BM_ag_and_split)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_au_two_refuters(benchmark::State& state) {
  const Computation& c = workload();
  auto mk = [](const char* var, std::int64_t k) {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < kProcs; ++i) ls.push_back(var_cmp(i, var, Cmp::kGe, k));
    return make_disjunctive(std::move(ls));
  };
  auto p = mk("v0", 1);
  auto q = mk("v1", 2);
  const std::size_t par = static_cast<std::size_t>(state.range(0));
  DetectResult last;
  for (auto _ : state) last = detect_au_disjunctive(c, *p, *q, par);
  report(state, last);
}
BENCHMARK(BM_au_two_refuters)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_lattice_label_sweep(benchmark::State& state) {
  LatticeChecker chk(lattice_workload());
  chk.set_parallelism(static_cast<std::size_t>(state.range(0)));
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < 4; ++i) ls.push_back(var_cmp(i, "v0", Cmp::kLe, 3));
  auto p = make_conjunctive(std::move(ls));
  DetectStats st;
  std::size_t labelled = 0;
  for (auto _ : state) {
    st = DetectStats{};
    const auto labels = chk.label(*p, &st);
    labelled = labels.size();
    benchmark::DoNotOptimize(labels.data());
  }
  state.counters["evals"] = static_cast<double>(st.predicate_evals);
  state.counters["nodes"] = static_cast<double>(labelled);
}
BENCHMARK(BM_lattice_label_sweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_lattice_class_check(benchmark::State& state) {
  LatticeChecker chk(lattice_workload());
  chk.set_parallelism(static_cast<std::size_t>(state.range(0)));
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < 4; ++i) ls.push_back(var_cmp(i, "v1", Cmp::kLe, 4));
  auto p = make_conjunctive(std::move(ls));
  BruteClassCheck last{};
  for (auto _ : state) last = brute_check_classes(chk, *p);
  state.SetLabel(std::string("linear=") + (last.linear ? "1" : "0") +
                 " stable=" + (last.stable ? "1" : "0"));
}
BENCHMARK(BM_lattice_class_check)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---- BENCH_parallel.json -------------------------------------------------------
//
// One self-timed row per (fan-out site, width); the width-4 ef-or-split row
// re-runs traced and embeds its report, whose metrics block carries the
// parallel.* counters and the queue-depth high-water mark.

bool emit_parallel_json(const std::string& path) {
  constexpr int kIters = 12;
  const Computation& c = workload();
  std::vector<benchio::BenchRow> rows;

  const auto dnf = wide_dnf();
  const auto cnf = wide_cnf();

  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    const std::string suffix = ".w" + std::to_string(width);
    {
      benchio::BenchRow row;
      row.name = "ef_or_split" + suffix;
      DispatchOptions opt;
      opt.parallelism = width;
      DetectResult last;
      row.ns = benchio::time_ns(
          kIters, [&] { last = detect(c, Op::kEF, dnf, nullptr, opt); });
      row.label = last.algorithm + (last.holds() ? " -> true" : " -> false");
      if (width == 4) {
        opt.trace = true;
        last = detect(c, Op::kEF, dnf, nullptr, opt);
        row.report = report_json(last);
      }
      rows.push_back(std::move(row));
    }
    {
      benchio::BenchRow row;
      row.name = "ag_and_split" + suffix;
      DispatchOptions opt;
      opt.parallelism = width;
      DetectResult last;
      row.ns = benchio::time_ns(
          kIters, [&] { last = detect(c, Op::kAG, cnf, nullptr, opt); });
      row.label = last.algorithm + (last.holds() ? " -> true" : " -> false");
      rows.push_back(std::move(row));
    }
  }
  return benchio::write_bench_json(path, "parallel", rows);
}

}  // namespace
}  // namespace hbct

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* out = std::getenv("HBCT_BENCH_JSON");
  return hbct::emit_parallel_json(out != nullptr ? out : "BENCH_parallel.json")
             ? 0
             : 1;
}
