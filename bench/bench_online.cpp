// Online monitoring overhead: cost per streamed event with watches armed,
// against (a) bare online clock maintenance and (b) offline batch detection
// after the fact.
#include <benchmark/benchmark.h>

#include "hbct.h"

namespace hbct {
namespace {

Computation make_ref(std::int32_t procs, std::int32_t events) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.seed = 77;
  return generate_random(opt);
}

void BM_online_appender_only(benchmark::State& state) {
  Computation ref = make_ref(6, static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    OnlineAppender app(ref.num_procs());
    replay(ref, app);
    benchmark::DoNotOptimize(app.computation());
  }
  state.SetItemsProcessed(state.iterations() * ref.total_events());
}
BENCHMARK(BM_online_appender_only)->Arg(64)->Arg(512);

void BM_online_monitor_with_watches(benchmark::State& state) {
  Computation ref = make_ref(6, static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    OnlineMonitor m(ref.num_procs());
    replay_initial(ref, m);
    // Arm a mix of watches: two conjunctive, one invariant, one stable.
    m.watch_possibly(make_conjunctive({var_cmp(0, "v0", Cmp::kEq, 4),
                                       var_cmp(1, "v0", Cmp::kEq, 4)}));
    m.watch_possibly(make_conjunctive({var_cmp(2, "v1", Cmp::kGe, 3),
                                       var_cmp(3, "v1", Cmp::kGe, 3)}));
    m.watch_invariant(make_disjunctive({var_cmp(0, "v0", Cmp::kLe, 8),
                                        var_cmp(4, "v1", Cmp::kLe, 8)}));
    m.watch_stable(make_terminated());
    replay_events(ref, ref.linearization(), m, [](EventId) {});
    m.finish();
    benchmark::DoNotOptimize(m.poll());
  }
  state.SetItemsProcessed(state.iterations() * ref.total_events());
}
BENCHMARK(BM_online_monitor_with_watches)->Arg(64)->Arg(512);

void BM_offline_batch_equivalent(benchmark::State& state) {
  // The batch route: build the computation once, then run the offline
  // detections the watches above correspond to.
  Computation ref = make_ref(6, static_cast<std::int32_t>(state.range(0)));
  auto p1 = make_conjunctive({var_cmp(0, "v0", Cmp::kEq, 4),
                              var_cmp(1, "v0", Cmp::kEq, 4)});
  auto p2 = make_conjunctive({var_cmp(2, "v1", Cmp::kGe, 3),
                              var_cmp(3, "v1", Cmp::kGe, 3)});
  auto inv = make_disjunctive({var_cmp(0, "v0", Cmp::kLe, 8),
                               var_cmp(4, "v1", Cmp::kLe, 8)});
  for (auto _ : state) {
    bool r = detect_ef_conjunctive(ref, *p1).verdict == Verdict::kHolds;
    r ^= detect_ef_conjunctive(ref, *p2).verdict == Verdict::kHolds;
    r ^= detect_ag_disjunctive(ref, *inv).verdict == Verdict::kHolds;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * ref.total_events());
}
BENCHMARK(BM_offline_batch_equivalent)->Arg(64)->Arg(512);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
