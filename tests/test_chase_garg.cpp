// ChaseGargSearch resumption: the machine driven to per-event frozen limits
// as a replay grows (with and without prefix GC below its scan floor
// between calls, and down a per-call work ladder) must end exactly where
// least_satisfying_cut ends on the full computation: the same cut, kFound
// exactly when that function finds one, and the same evaluation and
// cut-step totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "detect/ef_linear.h"
#include "online/appender.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/local.h"
#include "util/rng.h"

namespace hbct {
namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

/// A seed-derived linear q: progress, channel-empty, a conjunctive var_cmp,
/// or a conjunction of two of them.
PredicatePtr make_linear_q(Rng& rng, std::int32_t n) {
  const auto proc = [&] { return static_cast<ProcId>(rng.next_below(sz(n))); };
  const auto atom = [&]() -> PredicatePtr {
    switch (rng.next_below(3)) {
      case 0:
        return progress_ge(proc(), static_cast<EventIndex>(rng.next_in(1, 8)));
      case 1: return all_channels_empty();
      default:
        return make_conjunctive(
            {var_cmp(proc(), "v0", static_cast<Cmp>(rng.next_below(6)),
                     rng.next_in(0, 6)),
             var_cmp(proc(), "v1", static_cast<Cmp>(rng.next_below(6)),
                     rng.next_in(0, 6))});
    }
  };
  PredicatePtr q = atom();
  if (rng.next_below(2) == 0) q = make_and(q, atom());
  return q;
}

/// Greatest consistent cut below `b`, never below the trim cut.
Cut roll_back(const Computation& c, Cut b) {
  for (bool changed = true; changed;) {
    changed = false;
    for (ProcId i = 0; i < c.num_procs(); ++i) {
      while (b[sz(i)] > c.trimmed(i)) {
        const VClockView vc = c.vclock(i, b[sz(i)]);
        bool ok = true;
        for (ProcId j = 0; j < c.num_procs(); ++j)
          if (vc[sz(j)] > b[sz(j)]) ok = false;
        if (ok) break;
        --b[sz(i)];
        changed = true;
      }
    }
  }
  return b;
}

struct Outcome {
  SearchStatus status = SearchStatus::kExhausted;
  Cut cut;
  DetectStats stats;
  std::int64_t reclaimed = 0;
};

/// Replays `ref` into an appender and resumes the machine after every event
/// with the frozen limits (each process's newest event excluded), then once
/// more at the final cut. Each call gets a fresh tracker capped at
/// `max_work` (0 = unbounded); a tripped call is resumed at once.
Outcome drive(const Computation& ref, const Predicate& q,
              std::uint64_t max_work, bool gc) {
  OnlineAppender app(ref.num_procs());
  replay_initial(ref, app);
  const Computation& c = app.computation();
  ChaseGargSearch search;
  search.bind(c, q);
  Outcome out;
  Budget b;
  if (max_work != 0) b.max_work = max_work;
  const auto run = [&](const Cut& limits) {
    if (out.status == SearchStatus::kFound) return;
    for (;;) {
      BudgetTracker t(b, out.stats);
      out.status = search.advance_to(limits, out.stats, t);
      if (out.status != SearchStatus::kTripped) break;
    }
  };
  replay_events(ref, ref.linearization(), app, [&](EventId) {
    Cut limits = c.initial_cut();
    for (ProcId i = 0; i < c.num_procs(); ++i)
      limits[sz(i)] = c.num_events(i) > 0 ? c.num_events(i) - 1 : 0;
    run(limits);
    if (!gc || out.status == SearchStatus::kFound) return;
    Cut floor = limits;
    for (ProcId i = 0; i < c.num_procs(); ++i)
      floor[sz(i)] = search.scan_floor(i, floor[sz(i)]);
    out.reclaimed += app.collect_prefix(roll_back(c, floor));
  });
  run(c.final_cut());
  out.cut = search.cut();
  return out;
}

class ChaseGargResume : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaseGargResume, ResumedWalkEndsWhereTheOfflineWalkEnds) {
  const std::uint64_t seed = GetParam();
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 10;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.value_lo = 0;
  opt.value_hi = 6;
  opt.seed = seed;
  const Computation ref = generate_random(opt);
  Rng rng(seed * 17 + 5);
  std::int64_t reclaimed = 0;
  for (int k = 0; k < 4; ++k) {
    const PredicatePtr q = make_linear_q(rng, ref.num_procs());
    DetectStats offline;
    const std::optional<Cut> least = least_satisfying_cut(ref, *q, offline);
    for (const bool gc : {false, true}) {
      for (const std::uint64_t cap : {0, 64, 8, 3, 1}) {
        const std::string where = "seed " + std::to_string(seed) + " q " +
                                  q->describe() + (gc ? " gc" : "") +
                                  " cap " + std::to_string(cap);
        const Outcome o = drive(ref, *q, cap, gc);
        reclaimed += o.reclaimed;
        ASSERT_NE(o.status, SearchStatus::kTripped) << where;
        EXPECT_EQ(o.status == SearchStatus::kFound, least.has_value())
            << where;
        if (least) {
          EXPECT_EQ(o.cut, *least) << where;
        }
        EXPECT_EQ(o.stats.predicate_evals, offline.predicate_evals) << where;
        EXPECT_EQ(o.stats.cut_steps, offline.cut_steps) << where;
      }
    }
  }
  // Keeps the GC legs from passing vacuously.
  EXPECT_GT(reclaimed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseGargResume,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(ChaseGargResume, SuspendedWalkEvaluatesNothingUntilItsProcessMoves) {
  // q waits on P1, which stays silent while P0 runs: one evaluation names
  // P1 forbidden, and later rounds cost nothing until P1's event freezes.
  OnlineAppender app(2);
  const Computation& c = app.computation();
  const PredicatePtr q = progress_ge(1, 1);
  ChaseGargSearch search;
  search.bind(c, *q);
  DetectStats st;
  const Budget unbounded;
  for (int k = 0; k < 5; ++k) {
    app.internal(0);
    BudgetTracker t(unbounded, st);
    EXPECT_EQ(search.advance_to(app.current_cut(), st, t),
              SearchStatus::kExhausted);
  }
  EXPECT_EQ(st.predicate_evals, 1u);
  EXPECT_EQ(search.scan_floor(0, 5), 0);
  app.internal(1);
  BudgetTracker t(unbounded, st);
  EXPECT_EQ(search.advance_to(app.current_cut(), st, t), SearchStatus::kFound);
  EXPECT_EQ(search.cut(), Cut({0, 1}));
  EXPECT_EQ(st.predicate_evals, 2u);
  EXPECT_EQ(st.cut_steps, 1u);
}

}  // namespace
}  // namespace hbct
