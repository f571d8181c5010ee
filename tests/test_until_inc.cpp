// Differential suite for the incremental until evaluator (detect/until_inc):
// the amortized EG(p) prefix table must be *observationally invisible* —
// bit-identical verdicts, witness cuts, witness paths, bounds and stats
// against the reference frontier sweep detect_eu_at_reference, down a
// budget ladder that trips mid-scan and from any pre-fed table state. Plus
// the online contracts the amortization leans on: suspension/resume under
// round budgets, GC-on vs GC-off invariance, and the tightened (but still
// sound) frontier pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "detect/ef_linear.h"
#include "detect/until.h"
#include "detect/until_inc.h"
#include "online/monitor.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "util/rng.h"
#include "util/stats.h"

#include "oracle.h"

namespace hbct {
namespace {

bool same_stats(const DetectStats& a, const DetectStats& b) {
#define HBCT_SAME_STATS_FIELD(field, label, skip) \
  if (a.field != b.field) return false;
  HBCT_DETECT_STATS_FIELDS(HBCT_SAME_STATS_FIELD)
#undef HBCT_SAME_STATS_FIELD
  return true;
}

std::string stats_diff(const DetectStats& a, const DetectStats& b) {
  std::string out;
#define HBCT_DIFF_STATS_FIELD(field, label, skip)                         \
  if (a.field != b.field)                                                 \
    out += std::string(label) + " " + std::to_string(a.field) + " vs " + \
           std::to_string(b.field) + "; ";
  HBCT_DETECT_STATS_FIELDS(HBCT_DIFF_STATS_FIELD)
#undef HBCT_DIFF_STATS_FIELD
  return out;
}

/// Full bit-identity: everything the result carries that the detection
/// semantics define, stats included (A3's sweep merges branches 0..winner
/// in index order, so even the counters must match exactly).
void expect_same_result(const DetectResult& a, const DetectResult& b,
                        const char* where) {
  EXPECT_EQ(a.verdict, b.verdict) << where;
  EXPECT_EQ(a.bound, b.bound) << where;
  EXPECT_EQ(a.algorithm, b.algorithm) << where;
  EXPECT_EQ(a.witness_cut.has_value(), b.witness_cut.has_value()) << where;
  if (a.witness_cut && b.witness_cut) {
    EXPECT_EQ(*a.witness_cut, *b.witness_cut) << where;
  }
  EXPECT_EQ(a.witness_path, b.witness_path) << where;
  EXPECT_TRUE(same_stats(a.stats, b.stats))
      << where << ": " << stats_diff(a.stats, b.stats);
}

/// A seed-derived EU instance on the generated computation: p a 1–2
/// conjunct comparison, q a linear progress/channel predicate that holds
/// mid-computation for some seeds and never for others. Some q also
/// conjoin a variable comparison, so the q-walk's cursor reads a timeline
/// (on a trimmed process once prefix GC has run).
struct EuInstance {
  ConjunctivePredicatePtr p;
  PredicatePtr q;
};

EuInstance make_instance(std::uint64_t seed) {
  Rng rng(seed * 101 + 3);
  std::vector<LocalPredicatePtr> conjs;
  conjs.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)), "v0",
                          static_cast<Cmp>(rng.next_below(6)),
                          rng.next_in(0, 6)));
  if (rng.next_below(2) == 0)
    conjs.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)), "v1",
                            static_cast<Cmp>(rng.next_below(6)),
                            rng.next_in(0, 6)));
  EuInstance inst;
  inst.p = make_conjunctive(std::move(conjs));
  PredicatePtr q = PredicatePtr(
      progress_ge(static_cast<ProcId>(rng.next_below(3)),
                  static_cast<EventIndex>(rng.next_in(1, 7))));
  if (rng.next_below(3) == 0) q = make_and(q, all_channels_empty());
  if (rng.next_below(3) == 0) {
    const auto proc = static_cast<ProcId>(rng.next_below(3));
    q = make_and(q, PredicatePtr(var_cmp(proc, "v1", Cmp::kLe,
                                         rng.next_in(2, 6))));
  }
  inst.q = std::move(q);
  return inst;
}

// ---- Offline bit-identity -----------------------------------------------------

class UntilIncDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UntilIncDifferential, OfflineBitIdenticalAcrossWidthsAndBudgets) {
  const std::uint64_t seed = GetParam();
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 12;
  opt.p_send = 0.3;
  opt.seed = seed;
  const Computation c = generate_random(opt);
  const EuInstance inst = make_instance(seed);
  // The decision point: I_q when q is reachable, else the final cut (the
  // Step-2 contract holds at any consistent cut).
  DetectStats walk;
  const Cut iq =
      least_satisfying_cut(c, *inst.q, walk).value_or(c.final_cut());
  const DetectResult unbudgeted = detect_eu(c, *inst.p, *inst.q);

  // The budget ladder steps through trip points from "never" to "first
  // eval".
  const std::uint64_t work_caps[] = {0, 512, 64, 8, 1};
  Rng rng(seed * 7 + 1);
  for (std::uint64_t cap : work_caps) {
    Budget b;
    if (cap != 0) b.max_work = cap;
    const std::string where =
        "seed " + std::to_string(seed) + " cap " + std::to_string(cap);
    const DetectResult ref = detect_eu_at_reference(c, *inst.p, iq, b);
    const DetectResult dec = detect_eu_at(c, *inst.p, iq, b);
    expect_same_result(ref, dec, where.c_str());
    // Offline, the table is bound uninstrumented: the physical-work cells
    // must stay zero or goldens would drift from the reference.
    EXPECT_EQ(dec.stats.until_inc_evals, 0u) << where;
    EXPECT_EQ(dec.stats.until_dec_evals, 0u) << where;

    // A table pre-fed to arbitrary limits, as the online feed leaves it,
    // decides exactly as the reference: known spans replay arithmetically.
    EgPrefixState fed;
    fed.bind(c, *inst.p, /*instrumented=*/false);
    Cut limits = c.initial_cut();
    for (ProcId i = 0; i < c.num_procs(); ++i)
      limits[static_cast<std::size_t>(i)] = static_cast<EventIndex>(
          rng.next_in(0, c.num_events(i)));
    DetectStats feed_stats;
    fed.advance_to(limits, feed_stats, nullptr);
    expect_same_result(ref, fed.decide_at(iq, b, /*want_path=*/true),
                       (where + " pre-fed").c_str());

    // The dispatcher routes to A3 without changing its result.
    const DetectResult direct = detect_eu(c, *inst.p, *inst.q, b);
    if (direct.definite()) {
      EXPECT_EQ(direct.verdict, unbudgeted.verdict) << where;
      EXPECT_EQ(direct.witness_path, unbudgeted.witness_path) << where;
    }
    DispatchOptions dopt;
    dopt.budget = b;
    expect_same_result(direct, detect(c, Op::kEU, inst.p, inst.q, dopt),
                       (where + " dispatched").c_str());
  }
  if (unbudgeted.verdict == Verdict::kHolds) {
    ASSERT_TRUE(unbudgeted.witness_cut.has_value());
    EXPECT_EQ(*unbudgeted.witness_cut, iq);
    EXPECT_EQ(unbudgeted.witness_path,
              detect_eu_at_reference(c, *inst.p, iq).witness_path);
  }
}

TEST_P(UntilIncDifferential, OfflineWidthsAgreeWithEachOther) {
  // A disjunctive q takes the dispatcher's E[p U (q1 ∨ q2)] split, which
  // runs one A3 branch per disjunct: its verdict must match the lattice
  // oracle, and the inert parallelism field must not change any bit.
  const std::uint64_t seed = GetParam();
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 10;
  opt.p_send = 0.35;
  opt.seed = seed + 5000;
  const Computation c = generate_random(opt);
  const EuInstance inst = make_instance(seed + 5000);
  // Both disjuncts carry a channel term so make_or cannot fold them into
  // one disjunctive local predicate (which would skip the split).
  const PredicatePtr q = make_or(
      make_and(inst.q, all_channels_empty()),
      make_and(PredicatePtr(progress_ge(static_cast<ProcId>(seed % 3),
                                        static_cast<EventIndex>(seed % 9 + 2))),
               all_channels_empty()));
  DispatchOptions dopt;
  const DetectResult serial = detect(c, Op::kEU, inst.p, q, dopt);
  EXPECT_EQ(serial.algorithm, "eu-or-split(A3)");
  EXPECT_EQ(serial.verdict,
            LatticeChecker(c).detect(Op::kEU, *inst.p, q.get()).verdict);
  dopt.parallelism = 2;
  const DetectResult two = detect(c, Op::kEU, inst.p, q, dopt);
  dopt.parallelism = 0;
  const DetectResult pool = detect(c, Op::kEU, inst.p, q, dopt);
  expect_same_result(serial, two, "width 1 vs 2");
  expect_same_result(serial, pool, "width 1 vs pool");
}

INSTANTIATE_TEST_SUITE_P(Seeds, UntilIncDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- Online: streamed fires vs the reference ------------------------------------

struct OnlineFire {
  WatchId watch;
  Verdict verdict;
  Cut cut;
  std::string description;
};

/// Streams `ref` into a monitor with the given round budget; returns the
/// accumulated fires. `gc_every` > 0 collects the prefix periodically.
std::vector<OnlineFire> stream_until(const Computation& ref,
                                     const Budget* budget,
                                     std::int64_t gc_every,
                                     const EuInstance& inst,
                                     std::int64_t* reclaimed_out = nullptr) {
  OnlineMonitor m(ref.num_procs());
  if (budget != nullptr) m.set_budget(*budget);
  replay_initial(ref, m);
  m.watch_until(inst.p, inst.q);

  std::vector<OnlineFire> fires;
  const auto drain = [&] {
    for (WatchFire& f : m.poll())
      fires.push_back({f.watch, f.verdict, f.cut, f.description});
  };
  std::int64_t step = 0;
  std::int64_t reclaimed = 0;
  replay_events(ref, ref.linearization(), m, [&](EventId) {
    if (gc_every > 0 && ++step % gc_every == 0)
      reclaimed += m.collect_prefix();
    drain();
  });
  m.finish();
  drain();
  if (reclaimed_out != nullptr) *reclaimed_out += reclaimed;
  return fires;
}

void expect_same_online(const std::vector<OnlineFire>& a,
                        const std::vector<OnlineFire>& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].watch, b[i].watch) << where;
    EXPECT_EQ(a[i].verdict, b[i].verdict) << where;
    EXPECT_EQ(a[i].cut, b[i].cut) << where;
    EXPECT_EQ(a[i].description, b[i].description) << where;
  }
}

class UntilIncOnline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UntilIncOnline, StreamedVerdictsMatchBatchMode) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 12;
  opt.p_send = 0.3;
  opt.seed = GetParam() + 300;
  const Computation ref = generate_random(opt);
  const EuInstance inst = make_instance(GetParam() + 300);
  const auto fires = stream_until(ref, nullptr, 0, inst);
  // A fire decides at I_q exactly as the reference sweep does there.
  for (const OnlineFire& f : fires) {
    const DetectResult at = detect_eu_at_reference(ref, *inst.p, f.cut);
    EXPECT_EQ(f.verdict, at.verdict);
  }
  // Cross-check against the offline detector on the full computation. An
  // until watch whose q-walk exhausts without ever finding I_q closes
  // silently at finish() (no stable cut to report), which is exactly the
  // offline kFails-with-no-witness case; when I_q exists the watch must
  // have fired, and a holds verdict pins the offline witness cut.
  const DetectResult off = detect_eu(ref, *inst.p, *inst.q);
  if (off.verdict == Verdict::kHolds) {
    ASSERT_EQ(fires.size(), 1u) << "I_q exists: the watch must fire";
    EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
    ASSERT_TRUE(off.witness_cut.has_value());
    EXPECT_EQ(fires[0].cut, *off.witness_cut);
  } else if (!fires.empty()) {
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_EQ(fires[0].verdict, Verdict::kFails);
    EXPECT_EQ(off.verdict, Verdict::kFails);
  } else {
    EXPECT_EQ(off.verdict, Verdict::kFails) << "silent close requires no I_q";
  }
}

TEST_P(UntilIncOnline, SuspensionResumeUnderRoundBudgets) {
  // Tiny per-round work caps force the feed-time advance, the q-walk and
  // the decision sweep to suspend and resume across many rounds. A
  // budgeted run may legitimately end kUnknown (the bound is part of the
  // semantics, and the amortized feed work shifts where rounds trip), but
  // whenever a budgeted run *decides*, a resumed walk or table must have
  // reached exactly the unbudgeted verdict and cut — never a corrupted
  // one.
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 10;
  opt.p_send = 0.3;
  opt.seed = GetParam() + 700;
  const Computation ref = generate_random(opt);
  const EuInstance inst = make_instance(GetParam() + 700);
  const auto free_run = stream_until(ref, nullptr, 0, inst);
  ASSERT_LE(free_run.size(), 1u);  // empty = q-walk exhausted with no I_q
  for (const std::uint64_t cap :
       {std::uint64_t{4}, std::uint64_t{16}, std::uint64_t{64}}) {
    Budget b;
    b.max_work = cap;
    const auto fires = stream_until(ref, &b, 0, inst);
    const std::string where = "cap " + std::to_string(cap);
    // A budgeted run fires at most once: the decided verdict, the
    // finish-round give-up (kUnknown), or — when the q-walk exhausted
    // without finding I_q and the final round stayed under budget — the
    // same silent close as the free run.
    ASSERT_LE(fires.size(), 1u) << where;
    if (fires.empty()) {
      EXPECT_TRUE(free_run.empty()) << where << ": silent close requires "
                                                "an exhausted q-walk";
      continue;
    }
    const OnlineFire& f = fires[0];
    if (f.verdict == Verdict::kUnknown) continue;
    ASSERT_EQ(free_run.size(), 1u) << where;
    EXPECT_EQ(f.verdict, free_run[0].verdict) << where;
    EXPECT_EQ(f.cut, free_run[0].cut) << where;
    EXPECT_EQ(f.description, free_run[0].description) << where;
    EXPECT_EQ(f.verdict,
              detect_eu_at_reference(ref, *inst.p, f.cut).verdict)
        << where;
  }
}

TEST_P(UntilIncOnline, GcInvisibleWithIncrementalUntilWatches) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 12;
  opt.p_send = 0.3;
  opt.seed = GetParam() + 1100;
  const Computation ref = generate_random(opt);
  const EuInstance inst = make_instance(GetParam() + 1100);
  const auto nogc = stream_until(ref, nullptr, 0, inst);
  const auto gc = stream_until(ref, nullptr, 5, inst);
  expect_same_online(nogc, gc, "gc on vs off");
}

INSTANTIATE_TEST_SUITE_P(Seeds, UntilIncOnline,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- Frontier pin --------------------------------------------------------------

TEST(UntilIncFrontier, IncrementalPinTracksCandidateAndScanFloor) {
  // q refutes position-by-position on P0, so the Chase–Garg candidate
  // advances through the prefix; the pin follows min(cand, scan floor) and
  // periodic GC reclaims the refuted prefix while the watch is still
  // undecided.
  OnlineMonitor m(2);
  m.var("x");
  m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kGe, 0)}),
                PredicatePtr(var_cmp(0, "x", Cmp::kLt, 0)));
  m.set_initial(0, m.var("x"), 0);
  std::int64_t reclaimed = 0;
  for (int i = 0; i < 200; ++i) {
    m.internal(0);
    m.write(0, "x", i + 1);
    if (i % 16 == 15) reclaimed += m.collect_prefix();
  }
  EXPECT_TRUE(m.poll().empty()) << "q never holds: watch must stay pending";
  EXPECT_GT(reclaimed, 0)
      << "tighter pin never released the refuted prefix";
  m.finish();
  // No I_q exists anywhere, so the q-walk exhausts and the watch closes
  // silently — the documented no-stable-cut outcome.
  EXPECT_TRUE(m.poll().empty());
}

TEST(UntilIncFrontier, PinSoundnessUnderGcDifferential) {
  // The pin may only release positions the decision provably never reads
  // again. Aggressive GC every event with an eventually-deciding watch:
  // verdict and witness cut must match the GC-off run exactly.
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 14;
  opt.p_send = 0.35;
  opt.seed = 77;
  const Computation ref = generate_random(opt);
  const EuInstance inst = make_instance(77);
  const auto nogc = stream_until(ref, nullptr, 0, inst);
  const auto gc = stream_until(ref, nullptr, 1, inst);
  expect_same_online(nogc, gc, "gc every event");
}

// ---- State sizing --------------------------------------------------------------

TEST(UntilIncState, WatchStateBytesGrowWithTheTable) {
  OnlineMonitor m(2);
  m.var("x");
  const std::size_t before = m.watch_state_bytes();
  m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kGe, 0)}),
                PredicatePtr(progress_ge(1, 1'000)));
  EXPECT_GT(m.watch_state_bytes(), before);
}

}  // namespace
}  // namespace hbct
