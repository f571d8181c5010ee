// Fig. 4 reproduction: the E[p U q] example, exact and scaled.
//
// First regenerates the figure's numbers (13-cut lattice, 7 witness
// prefixes, 2 through I_q), then scales the same shape — a producer chain
// whose q is "channels empty and progress past a threshold" — comparing A3
// against brute-force EU on the lattice.
#include <benchmark/benchmark.h>

#include "hbct.h"

namespace hbct {
namespace {

Computation fig4() {
  ComputationBuilder b(3);
  VarId x = b.var("x"), z = b.var("z");
  b.set_initial(0, x, 1);
  b.set_initial(2, z, 3);
  MsgId m1 = b.send(0, 1);
  b.write(0, x, 2);
  b.internal(0);
  b.write(0, x, 3);
  MsgId m2 = b.send(1, 2);
  b.receive(1, m1);
  b.receive(2, m2);
  b.write(2, z, 6);
  return std::move(b).build();
}

void BM_fig4_exact_counts(benchmark::State& state) {
  Computation c = fig4();
  auto p = make_conjunctive(
      {var_cmp(2, "z", Cmp::kLt, 6), var_cmp(0, "x", Cmp::kLt, 4)});
  auto q = make_and(all_channels_empty(),
                    PredicatePtr(var_cmp(0, "x", Cmp::kGt, 1)));
  Lattice lat = Lattice::build(c);
  BigUint total, at_iq;
  for (auto _ : state) {
    const NodeId iq = lat.node_of(Cut({1, 2, 1}));
    total = count_eu_witnesses(
        lat, [&](NodeId v) { return p->eval(c, lat.cut(v)); },
        [&](NodeId v) { return q->eval(c, lat.cut(v)); }, iq, &at_iq);
    benchmark::DoNotOptimize(total);
  }
  state.counters["lattice"] = static_cast<double>(lat.size());
  state.SetLabel("witnesses=" + total.to_string() + " via I_q=" +
                 at_iq.to_string() + " (paper: 7 / 2)");
}
BENCHMARK(BM_fig4_exact_counts);

void BM_fig4_a3(benchmark::State& state) {
  Computation c = fig4();
  auto p = make_conjunctive(
      {var_cmp(2, "z", Cmp::kLt, 6), var_cmp(0, "x", Cmp::kLt, 4)});
  auto q = make_and(all_channels_empty(),
                    PredicatePtr(var_cmp(0, "x", Cmp::kGt, 1)));
  DetectResult last;
  for (auto _ : state) last = detect_eu(c, *p, *q);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.SetLabel(last.verdict == Verdict::kHolds
                     ? "holds, I_q = " + last.witness_cut->to_string()
                     : to_string(last.verdict));
}
BENCHMARK(BM_fig4_a3);

// ---- Scaled variant -------------------------------------------------------------

/// Fig. 4's shape at size k: P0 ticks a counter and messages P1, P1 relays
/// to P2, P2 accumulates. q = channels empty ∧ x past a threshold; p = both
/// accumulators still under their limits.
Computation scaled(std::int32_t k, std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = k;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.seed = seed;
  return generate_random(opt);
}

void BM_a3_scaled(benchmark::State& state) {
  const std::int32_t k = static_cast<std::int32_t>(state.range(0));
  Computation c = scaled(k, 17);
  auto p = make_conjunctive(
      {var_cmp(0, "v0", Cmp::kLe, 9), var_cmp(2, "v1", Cmp::kLe, 9)});
  auto q = make_and(all_channels_empty(),
                    PredicatePtr(progress_ge(0, k / 2)));
  DetectResult last;
  for (auto _ : state) last = detect_eu(c, *p, *q);
  state.counters["evals"] = static_cast<double>(last.stats.predicate_evals);
  state.counters["E"] = static_cast<double>(c.total_events());
  state.SetLabel(to_string(last.verdict));
}
BENCHMARK(BM_a3_scaled)->RangeMultiplier(4)->Range(8, 8192);

void BM_lattice_eu_scaled(benchmark::State& state) {
  const std::int32_t k = static_cast<std::int32_t>(state.range(0));
  Computation c = scaled(k, 17);
  auto p = make_conjunctive(
      {var_cmp(0, "v0", Cmp::kLe, 9), var_cmp(2, "v1", Cmp::kLe, 9)});
  PredicatePtr q = make_and(all_channels_empty(),
                            PredicatePtr(progress_ge(0, k / 2)));
  auto lat = Lattice::try_build(c, 1u << 21);
  if (!lat) {
    state.SkipWithError("lattice exceeds the node cap");
    return;
  }
  LatticeChecker chk(std::move(*lat));
  DetectResult last;
  for (auto _ : state) last = chk.detect(Op::kEU, *p, q.get());
  state.counters["nodes"] = static_cast<double>(chk.lattice().size());
  state.SetLabel(to_string(last.verdict));
}
BENCHMARK(BM_lattice_eu_scaled)->RangeMultiplier(4)->Range(8, 512);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
