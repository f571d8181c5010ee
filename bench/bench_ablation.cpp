// Ablation benches for the design choices DESIGN.md calls out:
//
//  1. A1 predecessor choice: first-satisfying (greedy) vs uniformly random
//     among all satisfying predecessors (Theorem 2 says the verdict is
//     identical; the greedy policy skips the remaining evaluations).
//  2. EF(conjunctive): Chase–Garg advancement vs the Garg–Waldecker weak
//     repair loop (same least cut, different inner loops).
//  3. Meet-irreducibles: reverse-vector-clock extraction (O(n|E|)) vs
//     cover-degree on the explicit lattice (needs |C(E)| nodes).
//  4. EU: A3 vs the generic DFS search on the same instance.
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
  opt.num_vars = 2;
  opt.p_send = 0.25;
  opt.seed = seed;
  return generate_random(opt);
}

PredicatePtr satisfied_linear(std::int32_t procs) {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < procs; ++i) ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
  return make_and(make_conjunctive(std::move(ls)),
                  channel_bound_le(0, 1, 1 << 20));
}

// ---- 1. A1 choice policy --------------------------------------------------------

void BM_a1_greedy(benchmark::State& state) {
  Computation c = make_comp(6, static_cast<std::int32_t>(state.range(0)), 3);
  PredicatePtr p = satisfied_linear(6);
  DetectResult last;
  for (auto _ : state) last = detect_eg_linear(c, *p);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.SetLabel(benchio::verdict_word(last.verdict));
}
BENCHMARK(BM_a1_greedy)->Arg(128)->Arg(1024);

void BM_a1_randomized(benchmark::State& state) {
  Computation c = make_comp(6, static_cast<std::int32_t>(state.range(0)), 3);
  PredicatePtr p = satisfied_linear(6);
  DetectResult last;
  std::uint64_t seed = 1;
  for (auto _ : state) last = detect_eg_linear_randomized(c, *p, seed++);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.SetLabel(benchio::verdict_word(last.verdict));
}
BENCHMARK(BM_a1_randomized)->Arg(128)->Arg(1024);

// ---- 2. EF(conjunctive): Chase–Garg vs GW weak ------------------------------------

PredicatePtr late_conjunctive(std::int32_t procs) {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < procs; ++i)
    ls.push_back(progress_ge(i, 100));  // forces a deep advancement
  return make_conjunctive(std::move(ls));
}

void BM_ef_chase_garg(benchmark::State& state) {
  Computation c = make_comp(6, static_cast<std::int32_t>(state.range(0)), 5);
  PredicatePtr p = late_conjunctive(6);
  DetectResult last;
  for (auto _ : state) last = detect_ef_linear(c, *p);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
}
BENCHMARK(BM_ef_chase_garg)->Arg(128)->Arg(1024);

void BM_ef_gw_weak(benchmark::State& state) {
  Computation c = make_comp(6, static_cast<std::int32_t>(state.range(0)), 5);
  auto p = as_conjunctive(late_conjunctive(6));
  DetectResult last;
  for (auto _ : state) last = detect_ef_conjunctive(c, *p);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
}
BENCHMARK(BM_ef_gw_weak)->Arg(128)->Arg(1024);

// ---- 3. Meet-irreducibles: direct vs explicit lattice ------------------------------

void BM_mirr_direct(benchmark::State& state) {
  Computation c = make_comp(5, 5, 7);
  for (auto _ : state) {
    auto cuts = meet_irreducible_cuts(c);
    benchmark::DoNotOptimize(cuts);
  }
}
BENCHMARK(BM_mirr_direct);

void BM_mirr_via_lattice(benchmark::State& state) {
  Computation c = make_comp(5, 5, 7);
  for (auto _ : state) {
    Lattice lat = Lattice::build(c, 1u << 22);
    auto nodes = meet_irreducibles(lat);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_mirr_via_lattice);

// ---- 4. EU: A3 vs generic DFS -------------------------------------------------------

void BM_eu_a3(benchmark::State& state) {
  Computation c = make_comp(4, static_cast<std::int32_t>(state.range(0)), 9);
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < 4; ++i) ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
  auto p = make_conjunctive(std::move(ls));
  PredicatePtr q = make_and(all_channels_empty(),
                            PredicatePtr(progress_ge(0, state.range(0) / 2)));
  DetectResult last;
  for (auto _ : state) last = detect_eu(c, *p, *q);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.SetLabel(benchio::verdict_word(last.verdict));
}
BENCHMARK(BM_eu_a3)->Arg(8)->Arg(16)->Arg(32);

void BM_eu_dfs(benchmark::State& state) {
  Computation c = make_comp(4, static_cast<std::int32_t>(state.range(0)), 9);
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < 4; ++i) ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
  auto p = make_conjunctive(std::move(ls));
  PredicatePtr q = make_and(all_channels_empty(),
                            PredicatePtr(progress_ge(0, state.range(0) / 2)));
  DetectResult last;
  for (auto _ : state) last = detect_eu_dfs(c, *p, *q);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.SetLabel(benchio::verdict_word(last.verdict));
}
BENCHMARK(BM_eu_dfs)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
