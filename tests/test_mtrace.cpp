// hbct-mtrace round-trip, zero-copy, and differential guarantees.
//
//   1. Round-trip property: every sim workload, every corpus scenario,
//      random computations, and the degenerate edges (no events, single
//      process, zero processes) survive text -> btrace -> mtrace -> view
//      with the canonical text form and the mtrace bytes as fixpoints.
//   2. Zero-copy: loading a trace two orders of magnitude larger performs
//      no additional heap allocations (the loader is O(procs + vars)
//      allocations, never per-event) — counted by tests/alloc_hook.cpp.
//   3. Differential: detection over an owning Computation and over the
//      zero-copy view of its mtrace bytes is bit-identical — verdict,
//      bound, algorithm, every stats counter, witness cut and path — across
//      seeds and budgets, and under concurrent readers of one view.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "corpus/scenario.h"
#include "detect/dispatch.h"
#include "poset/builder.h"
#include "poset/generate.h"
#include "poset/mtrace.h"
#include "poset/trace_io.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/equilevel.h"
#include "predicate/local.h"
#include "predicate/relational.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

/// The full fixpoint battery: mtrace bytes reload to a view that reprints
/// identical bytes and an identical canonical text form, the materialized
/// deep copy agrees, and the text/btrace round-trips commute with mtrace.
void expect_roundtrip(const Computation& c, const char* what) {
  SCOPED_TRACE(what);
  const std::string bytes = mtrace_to_string(c);
  const std::string text = trace_to_string(c);

  MtraceLoadResult r = mtrace_from_bytes(bytes);
  ASSERT_TRUE(r.ok) << to_string(r.code) << ": " << r.error;
  EXPECT_EQ(mtrace_to_string(r.computation), bytes);
  EXPECT_EQ(trace_to_string(r.computation), text);
  EXPECT_EQ(trace_to_string(r.computation.materialize()), text);
  EXPECT_EQ(r.computation.total_events(), c.total_events());
  EXPECT_EQ(r.computation.num_messages(), c.num_messages());

  const TraceParseResult t = trace_from_string(text);
  ASSERT_TRUE(t.ok) << t.error;
  EXPECT_EQ(mtrace_to_string(t.computation), bytes);

  const TraceParseResult b =
      trace_from_binary_string(trace_to_binary_string(c));
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(mtrace_to_string(b.computation), bytes);
}

TEST(MtraceRoundTrip, SimWorkloads) {
  sim::SimOptions so;
  so.seed = 7;
  const auto run = [&](sim::Simulator s) { return std::move(s).run(so); };
  expect_roundtrip(run(sim::make_token_mutex(4, 2, false)), "token_mutex");
  expect_roundtrip(run(sim::make_token_mutex(4, 2, true)),
                   "token_mutex_bug");
  expect_roundtrip(run(sim::make_ra_mutex(3, 2)), "ra_mutex");
  expect_roundtrip(run(sim::make_leader_election(5)), "leader_election");
  expect_roundtrip(run(sim::make_token_ring(4, 3)), "token_ring");
  expect_roundtrip(run(sim::make_producer_consumer(6, 2)),
                   "producer_consumer");
  expect_roundtrip(run(sim::make_barrier(4, 3)), "barrier");
  expect_roundtrip(run(sim::make_random_mixer(4, 8, 2, 0.4)),
                   "random_mixer");
  expect_roundtrip(run(sim::make_alternating_bit(5, 0.2)),
                   "alternating_bit");
  expect_roundtrip(run(sim::make_two_phase_commit(4, 3, 0.3, false)),
                   "two_phase_commit");
  expect_roundtrip(run(sim::make_chandy_lamport(4, 6, 3)),
                   "chandy_lamport");
  expect_roundtrip(run(sim::make_dining_philosophers(3, 2, true)),
                   "dining");
}

TEST(MtraceRoundTrip, CorpusScenarios) {
  corpus::CorpusOptions o;
  o.procs = 5;
  o.scale = 3;
  for (const corpus::ScenarioSpec& spec : corpus::scenario_registry())
    expect_roundtrip(spec.build(o).computation, spec.name);
}

TEST(MtraceRoundTrip, RandomComputations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GenOptions g;
    g.num_procs = 2 + static_cast<std::int32_t>(seed % 4);
    g.events_per_proc = 3 + static_cast<std::int32_t>(seed % 6);
    g.seed = seed;
    expect_roundtrip(generate_random(g), "random");
  }
}

TEST(MtraceRoundTrip, Edges) {
  // The minimal trace: one process, no events (ComputationBuilder asserts
  // num_procs > 0, so this is the empty-trace floor of the format).
  expect_roundtrip(ComputationBuilder(1).build(), "one_proc_empty");
  // Processes but no events.
  expect_roundtrip(ComputationBuilder(4).build(), "no_events");
  // Single process, internal-only, with writes, labels and initials.
  {
    ComputationBuilder b(1);
    const VarId x = b.var("x");
    b.set_initial(0, x, -7);
    b.internal(0);
    b.write(0, x, 1);
    b.label(0, "first");
    b.internal(0);
    b.write(0, x, 2);
    expect_roundtrip(std::move(b).build(), "single_proc");
  }
  // A message still in flight at the final cut.
  {
    ComputationBuilder b(2);
    b.send(0, 1);
    b.internal(1);
    expect_roundtrip(std::move(b).build(), "in_flight");
  }
}

// ---- Zero-copy allocation bound ---------------------------------------------

TEST(MtraceZeroCopy, NoPerEventAllocationsOnLoad) {
  const auto build_bytes = [](std::int32_t scale) {
    corpus::CorpusOptions o;
    o.procs = 8;
    o.scale = scale;
    return mtrace_to_string(corpus::mpi_alltoall(o).computation);
  };
  // 8 procs x 2 events/round: 640 events vs 64000 events, same procs/vars.
  const std::string small = build_bytes(40);
  const std::string big = build_bytes(4000);
  ASSERT_GT(big.size(), small.size() * 50);

  const std::string dir = ::testing::TempDir();
  const std::string small_path = dir + "/hbct_small.mtrace";
  const std::string big_path = dir + "/hbct_big.mtrace";
  const auto dump = [](const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    return static_cast<bool>(out);
  };
  ASSERT_TRUE(dump(small_path, small));
  ASSERT_TRUE(dump(big_path, big));

  std::uint64_t small_allocs = 0, big_allocs = 0;
  {
    testhooks::AllocCountScope scope;
    MtraceLoadResult r = load_mtrace(small_path, MtraceMode::kMap);
    small_allocs = scope.count();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.computation.total_events(), 640);
  }
  {
    testhooks::AllocCountScope scope;
    MtraceLoadResult r = load_mtrace(big_path, MtraceMode::kMap);
    big_allocs = scope.count();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.computation.total_events(), 64000);
  }
  // The loader allocates O(procs + vars) bookkeeping; 100x the events must
  // not add allocations (a small slack absorbs allocator-internal noise).
  EXPECT_GT(small_allocs, 0u);
  EXPECT_LE(big_allocs, small_allocs + 8)
      << "view-mode load allocates per event";

  std::remove(small_path.c_str());
  std::remove(big_path.c_str());
}

// ---- Differential: owning vs zero-copy view ---------------------------------

struct DiffQuery {
  const char* name;
  Op op;
  PredicatePtr p;
};

std::vector<DiffQuery> differential_queries(std::int32_t n) {
  std::vector<DiffQuery> qs;
  qs.push_back({"ef-conj", Op::kEF,
                make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 5),
                                  var_cmp(1, "v1", Cmp::kGe, 3)})});
  qs.push_back({"ag-disj", Op::kAG,
                make_disjunctive({var_cmp(0, "v0", Cmp::kLe, 7),
                                  var_cmp(1, "v0", Cmp::kLe, 7)})});
  qs.push_back({"ef-channel", Op::kEF, channel_bound_ge(0, 1, 1)});
  qs.push_back({"ag-channel", Op::kAG, channel_bound_le(1, 0, 2)});
  qs.push_back({"ag-rel", Op::kAG, diff_le({0, "v0"}, {1, "v0"}, 4)});
  qs.push_back({"af-stable", Op::kAF, make_terminated()});
  {
    std::vector<LocalPredicatePtr> locals;
    for (ProcId i = 0; i < n; ++i) locals.push_back(progress_ge(i, 2));
    qs.push_back({"ef-equilevel", Op::kEF,
                  make_equilevel(make_conjunctive(std::move(locals)))});
  }
  qs.push_back({"eg-local", Op::kEG, var_cmp(0, "v0", Cmp::kGe, 0)});
  return qs;
}

void expect_same_result(const DetectResult& a, const DetectResult& b,
                        const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.stats.predicate_evals, b.stats.predicate_evals);
  EXPECT_EQ(a.stats.cut_steps, b.stats.cut_steps);
  EXPECT_EQ(a.stats.lattice_nodes, b.stats.lattice_nodes);
  EXPECT_EQ(a.stats.lattice_edges, b.stats.lattice_edges);
  EXPECT_EQ(a.stats.eval_incremental, b.stats.eval_incremental);
  EXPECT_EQ(a.stats.eval_fallback, b.stats.eval_fallback);
  EXPECT_EQ(a.witness_cut.has_value(), b.witness_cut.has_value());
  if (a.witness_cut && b.witness_cut)
    EXPECT_EQ(*a.witness_cut, *b.witness_cut);
  EXPECT_EQ(a.witness_path, b.witness_path);
}

class MtraceDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtraceDifferential, OwningAndViewDetectBitIdentically) {
  const std::uint64_t seed = GetParam();
  GenOptions g;
  g.num_procs = 2 + static_cast<std::int32_t>(seed % 4);
  g.events_per_proc = 4 + static_cast<std::int32_t>(seed % 5);
  g.num_vars = 2;
  g.seed = seed;
  const Computation own = generate_random(g);

  MtraceLoadResult r = mtrace_from_bytes(mtrace_to_string(own));
  ASSERT_TRUE(r.ok) << r.error;
  const Computation& view = r.computation;

  for (const DiffQuery& q : differential_queries(g.num_procs)) {
    expect_same_result(detect(own, q.op, q.p), detect(view, q.op, q.p),
                       q.name);
    // Tight budget: the bounded verdict and partial work must agree too.
    DispatchOptions tight;
    tight.budget.max_work = 1 + seed % 23;
    expect_same_result(detect(own, q.op, q.p, nullptr, tight),
                       detect(view, q.op, q.p, nullptr, tight), q.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtraceDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MtraceConcurrentReaders, DetectOnOneFreshViewMatchesSingleThreaded) {
  // A loaded view starts with no reverse-clock column blocks, and A2
  // derives the blocks of its predicate's support: threads released
  // together onto one fresh view race to derive them, which the
  // double-checked lock in Computation::reverse_clocks must serialize.
  GenOptions g;
  g.num_procs = 8;
  g.events_per_proc = 400;
  g.num_vars = 2;
  g.seed = 23;
  const Computation own = generate_random(g);
  // A bound no channel can exceed: AG holds, so A2 visits every
  // meet-irreducible cut instead of stopping at a counterexample.
  const PredicatePtr p = channel_bound_le(1, 0, g.events_per_proc);
  const DetectResult expect = detect(own, Op::kAG, p);
  ASSERT_EQ(expect.algorithm, "A2-ag-linear");
  ASSERT_EQ(expect.verdict, Verdict::kHolds);

  const std::string path = ::testing::TempDir() + "/hbct_readers.mtrace";
  std::string err;
  ASSERT_TRUE(write_mtrace_file(path, own, &err)) << err;
  constexpr int kThreads = 4;
  for (int round = 0; round < 16; ++round) {
    MtraceLoadResult r = load_mtrace(path, MtraceMode::kMap);
    ASSERT_TRUE(r.ok) << r.error;
    const Computation& view = r.computation;
    std::vector<DetectResult> got(kThreads);
    std::atomic<int> waiting{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        got[t] = detect(view, Op::kAG, p);
      });
    for (std::thread& t : threads) t.join();
    for (const DetectResult& d : got) expect_same_result(expect, d, "reader");
  }
  std::remove(path.c_str());
}

// ---- File-level API ---------------------------------------------------------

TEST(MtraceFile, MapAndCopyModesAgree) {
  GenOptions g;
  g.num_procs = 4;
  g.events_per_proc = 10;
  g.seed = 17;
  const Computation c = generate_random(g);
  const std::string path = ::testing::TempDir() + "/hbct_roundtrip.mtrace";
  std::string err;
  ASSERT_TRUE(write_mtrace_file(path, c, &err)) << err;

  MtraceLoadResult mapped = load_mtrace(path, MtraceMode::kMap);
  ASSERT_TRUE(mapped.ok) << mapped.error;
  MtraceLoadResult copied = load_mtrace(path, MtraceMode::kCopy);
  ASSERT_TRUE(copied.ok) << copied.error;
  EXPECT_EQ(trace_to_string(mapped.computation), trace_to_string(c));
  EXPECT_EQ(trace_to_string(copied.computation), trace_to_string(c));
  std::remove(path.c_str());
}

TEST(MtraceFile, MissingFileReportsIoError) {
  const MtraceLoadResult r =
      load_mtrace("/nonexistent/hbct_nope.mtrace", MtraceMode::kMap);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, MtraceError::kIo);
  EXPECT_FALSE(r.error.empty());
}

}  // namespace
}  // namespace hbct
