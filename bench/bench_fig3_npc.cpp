// Fig. 3 reproduction: the hardness gadgets in practice.
//
// Sweeps the number of boolean variables m and measures the exponential
// search the Theorem 5/6 problems force, with DPLL as the (also
// exponential, but pruned) comparison point. Unsatisfiable inputs are the
// worst case for EG: the search must cover the whole assignment hypercube.
#include <benchmark/benchmark.h>

#include "hbct.h"

namespace hbct {
namespace {

/// x0 & !x0 plus padding vars: UNSAT, maximal search space.
Cnf unsat_padded(std::int32_t m) {
  Cnf f;
  f.num_vars = m;
  f.clauses = {{{{0, false}}}, {{{0, true}}}};
  return f;
}

/// A DNF tautology over m vars: (x0) | (!x0) padded.
Dnf taut_padded(std::int32_t m) {
  Dnf f;
  f.num_vars = m;
  f.terms = {{{{0, false}}}, {{{0, true}}}};
  return f;
}

void BM_eg_oi_unsat(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  Reduction r = reduce_sat_to_eg(unsat_padded(m));
  DetectResult last;
  for (auto _ : state) last = detect_eg_dfs(r.computation, *r.predicate);
  state.counters["cut_steps"] = static_cast<double>(last.stats.cut_steps);
  state.SetLabel(last.verdict == Verdict::kHolds   ? "SAT (bug!)"
                 : last.verdict == Verdict::kFails ? "UNSAT"
                                                   : "unknown");
}
BENCHMARK(BM_eg_oi_unsat)->DenseRange(4, 16, 2);

void BM_ag_oi_tautology(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  Reduction r = reduce_tautology_to_ag(taut_padded(m));
  DetectResult last;
  for (auto _ : state) last = detect_ag_dfs(r.computation, *r.predicate);
  state.counters["cut_steps"] = static_cast<double>(last.stats.cut_steps);
  state.SetLabel(last.verdict == Verdict::kHolds   ? "tautology"
                 : last.verdict == Verdict::kFails ? "refutable (bug!)"
                                                   : "unknown");
}
BENCHMARK(BM_ag_oi_tautology)->DenseRange(4, 16, 2);

void BM_eg_oi_random3sat(benchmark::State& state) {
  // Near the 3-SAT phase transition (clauses ≈ 4.26 m): hard instances.
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(m) * 31 + 5);
  Cnf f = Cnf::random(m, static_cast<std::int32_t>(m * 4.26), 3, rng);
  Reduction r = reduce_sat_to_eg(f);
  DetectResult last;
  for (auto _ : state) last = detect_eg_dfs(r.computation, *r.predicate);
  state.counters["cut_steps"] = static_cast<double>(last.stats.cut_steps);
  state.SetLabel(last.verdict == Verdict::kHolds   ? "SAT"
                 : last.verdict == Verdict::kFails ? "UNSAT"
                                                   : "unknown");
}
BENCHMARK(BM_eg_oi_random3sat)->DenseRange(4, 14, 2);

void BM_dpll_random3sat(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(m) * 31 + 5);
  Cnf f = Cnf::random(m, static_cast<std::int32_t>(m * 4.26), 3, rng);
  DpllStats ds;
  bool sat = false;
  for (auto _ : state) {
    sat = dpll_solve(f, &ds).has_value();
    benchmark::DoNotOptimize(sat);
  }
  state.counters["decisions"] = static_cast<double>(ds.decisions);
  state.SetLabel(sat ? "SAT" : "UNSAT");
}
BENCHMARK(BM_dpll_random3sat)->DenseRange(4, 14, 2);

// In contrast: the same operator on a *disjunctive* OI predicate stays
// polynomial (Table 1's point that subclasses escape the hardness).
void BM_eg_disjunctive_same_scale(benchmark::State& state) {
  const std::int32_t m = static_cast<std::int32_t>(state.range(0));
  Computation c = generate_independent(m + 1, 2);
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i <= m; ++i) ls.push_back(progress_ge(i, 0));  // true
  auto p = make_disjunctive(std::move(ls));
  DetectResult last;
  for (auto _ : state) last = detect_eg_disjunctive(c, *p);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
}
BENCHMARK(BM_eg_disjunctive_same_scale)->DenseRange(4, 16, 2);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
