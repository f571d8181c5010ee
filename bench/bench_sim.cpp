// Simulator substrate throughput: events per second for each workload and
// scheduler, plus trace serialization cost.
#include <benchmark/benchmark.h>

#include <sstream>

#include "hbct.h"

namespace hbct {
namespace {

using sim::SchedulerKind;

void run_workload(benchmark::State& state,
                  const std::function<sim::Simulator()>& make,
                  SchedulerKind sched) {
  sim::SimOptions opt;
  opt.scheduler = sched;
  std::int64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    opt.seed = seed++;
    sim::Simulator s = make();
    Computation c = std::move(s).run(opt);
    events += c.total_events();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(events);
}

void BM_sim_token_mutex(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_token_mutex(n, 4, false); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_token_mutex)->Arg(4)->Arg(16)->Arg(64);

void BM_sim_ra_mutex(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_ra_mutex(n, 2); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_ra_mutex)->Arg(4)->Arg(8)->Arg(16);

void BM_sim_leader_election(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_leader_election(n); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_leader_election)->Arg(8)->Arg(32)->Arg(128);

void BM_sim_producer_consumer(benchmark::State& state) {
  const std::int32_t items = static_cast<std::int32_t>(state.range(0));
  run_workload(state,
               [items] { return sim::make_producer_consumer(items, 8); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_producer_consumer)->Arg(100)->Arg(1000);

void BM_sim_barrier(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_barrier(n, 8); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_barrier)->Arg(4)->Arg(16)->Arg(64);

void BM_sim_dining(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_dining_philosophers(n, 2, true); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_dining)->Arg(4)->Arg(16);

void BM_sim_two_phase_commit(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state,
               [n] { return sim::make_two_phase_commit(n, 4, 0.3, false); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_two_phase_commit)->Arg(4)->Arg(16);

void BM_sim_chandy_lamport(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  run_workload(state, [n] { return sim::make_chandy_lamport(n, 20, 8); },
               SchedulerKind::kRandom);
}
BENCHMARK(BM_sim_chandy_lamport)->Arg(4)->Arg(16);

void BM_sim_mixer_schedulers(benchmark::State& state) {
  const auto kind = static_cast<SchedulerKind>(state.range(0));
  run_workload(state, [] { return sim::make_random_mixer(8, 200, 2, 0.4); },
               kind);
}
BENCHMARK(BM_sim_mixer_schedulers)
    ->Arg(static_cast<int>(SchedulerKind::kRandom))
    ->Arg(static_cast<int>(SchedulerKind::kRoundRobin))
    ->Arg(static_cast<int>(SchedulerKind::kDelayBiased));

void BM_trace_roundtrip(benchmark::State& state) {
  const std::int32_t per = static_cast<std::int32_t>(state.range(0));
  GenOptions opt;
  opt.num_procs = 8;
  opt.events_per_proc = per;
  opt.seed = 31;
  Computation c = generate_random(opt);
  for (auto _ : state) {
    const std::string text = trace_to_string(c);
    auto parsed = trace_from_string(text);
    benchmark::DoNotOptimize(parsed.computation);
  }
  state.SetItemsProcessed(state.iterations() * c.total_events());
}
BENCHMARK(BM_trace_roundtrip)->Arg(64)->Arg(512);

void BM_generate_append(benchmark::State& state) {
  // Cost of generating a computation: each append keeps the forward clocks,
  // timelines and channel tables current (reverse clocks stay lazy).
  const std::int32_t per = static_cast<std::int32_t>(state.range(0));
  GenOptions opt;
  opt.num_procs = 16;
  opt.events_per_proc = per;
  opt.seed = 77;
  for (auto _ : state) {
    Computation c = generate_random(opt);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 16 * per);
}
BENCHMARK(BM_generate_append)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace hbct

BENCHMARK_MAIN();
