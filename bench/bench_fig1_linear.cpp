// Fig. 1 reproduction: Algorithms A1 (EG, linear) and A2 (AG, linear)
// against the explicit-lattice baseline.
//
// Series: |E| sweep at fixed n, and n sweep at fixed |E|. The baseline is
// capped to shapes whose lattice fits in memory — its blow-up across the n
// sweep is the paper's state-explosion argument in numbers. The `evals`
// counter makes the O(n|E|) claim visible independently of wall time.
#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "hbct.h"

namespace hbct {
namespace {

Computation make_comp(std::int32_t procs, std::int32_t events_per_proc,
                      std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events_per_proc;
  opt.num_vars = 1;
  opt.p_send = 0.3;
  opt.seed = seed;
  return generate_random(opt);
}

PredicatePtr linear_pred(std::int32_t procs) {
  // Satisfied everywhere (full A1/A2 walks) yet linear-not-conjunctive, so
  // the dispatcher cannot short-circuit through the conjunctive scans.
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < procs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
  return make_and(make_conjunctive(std::move(ls)),
                  channel_bound_le(0, procs > 1 ? 1 : 0, 1 << 20));
}

void report(benchmark::State& state, const DetectResult& r,
            std::int64_t total_events) {
  state.counters["evals"] = static_cast<double>(r.stats.predicate_evals);
  state.counters["E"] = static_cast<double>(total_events);
  state.SetLabel(r.algorithm + " -> " + benchio::verdict_word(r.verdict));
}

// ---- |E| sweep at n = 6 ------------------------------------------------------

void BM_A1_eg_events(benchmark::State& state) {
  const std::int32_t per = static_cast<std::int32_t>(state.range(0));
  Computation c = make_comp(6, per, 11);
  PredicatePtr p = linear_pred(6);
  DetectResult last;
  for (auto _ : state) last = detect_eg_linear(c, *p);
  report(state, last, c.total_events());
}
BENCHMARK(BM_A1_eg_events)->RangeMultiplier(4)->Range(16, 4096);

void BM_A2_ag_events(benchmark::State& state) {
  const std::int32_t per = static_cast<std::int32_t>(state.range(0));
  Computation c = make_comp(6, per, 11);
  PredicatePtr p = linear_pred(6);
  DetectResult last;
  for (auto _ : state) last = detect_ag_linear(c, *p);
  report(state, last, c.total_events());
}
BENCHMARK(BM_A2_ag_events)->RangeMultiplier(4)->Range(16, 4096);

// ---- n sweep at ~|E| = 720 ---------------------------------------------------

void BM_A1_eg_procs(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  Computation c = make_comp(n, 720 / n, 13);
  PredicatePtr p = linear_pred(n);
  DetectResult last;
  for (auto _ : state) last = detect_eg_linear(c, *p);
  report(state, last, c.total_events());
}
BENCHMARK(BM_A1_eg_procs)->DenseRange(2, 10, 2)->Arg(16)->Arg(24);

void BM_A2_ag_procs(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  Computation c = make_comp(n, 720 / n, 13);
  PredicatePtr p = linear_pred(n);
  DetectResult last;
  for (auto _ : state) last = detect_ag_linear(c, *p);
  report(state, last, c.total_events());
}
BENCHMARK(BM_A2_ag_procs)->DenseRange(2, 10, 2)->Arg(16)->Arg(24);

// ---- Explicit-lattice baseline (state explosion) ------------------------------

void BM_lattice_eg_procs(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  // Keep |E| fixed and small; the lattice still explodes with n.
  Computation c = make_comp(n, 24 / n, 13);
  PredicatePtr p = linear_pred(n);
  auto lat = Lattice::try_build(c, 1u << 22);
  if (!lat) {
    state.SkipWithError("lattice exceeds the node cap");
    return;
  }
  LatticeChecker chk(std::move(*lat));
  DetectResult last;
  for (auto _ : state) last = chk.detect(Op::kEG, *p);
  state.counters["nodes"] = static_cast<double>(chk.lattice().size());
  report(state, last, c.total_events());
}
BENCHMARK(BM_lattice_eg_procs)->DenseRange(2, 8, 1);

void BM_lattice_ag_procs(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  Computation c = make_comp(n, 24 / n, 13);
  PredicatePtr p = linear_pred(n);
  auto lat = Lattice::try_build(c, 1u << 22);
  if (!lat) {
    state.SkipWithError("lattice exceeds the node cap");
    return;
  }
  LatticeChecker chk(std::move(*lat));
  DetectResult last;
  for (auto _ : state) last = chk.detect(Op::kAG, *p);
  state.counters["nodes"] = static_cast<double>(chk.lattice().size());
  report(state, last, c.total_events());
}
BENCHMARK(BM_lattice_ag_procs)->DenseRange(2, 8, 1);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
