// Observation-order invariance: the happened-before model of an execution
// is independent of which valid observation (topological order) recorded
// it. Feeding the same computation's events through the online appender in
// different linearizations must produce identical models — clocks, values,
// channels, and every detection verdict.
#include <gtest/gtest.h>

#include "detect/dispatch.h"
#include "online/appender.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "util/rng.h"

#include "oracle.h"

namespace hbct {
namespace {

/// A random topological order of ref's events (repeated greedy choice among
/// enabled events).
std::vector<EventId> random_observation(const Computation& ref, Rng& rng) {
  std::vector<EventId> order;
  Cut g = ref.initial_cut();
  while (!(g == ref.final_cut())) {
    auto enabled = ref.enabled_procs(g);
    const ProcId i = enabled[rng.next_below(enabled.size())];
    g = ref.advance(g, i);
    order.push_back(EventId{i, g[static_cast<std::size_t>(i)]});
  }
  return order;
}

/// The model recorded by feeding ref's events to an appender in `order`.
Computation record(const Computation& ref, const std::vector<EventId>& order) {
  OnlineAppender app(ref.num_procs());
  replay_initial(ref, app);
  replay_events(ref, order, app, [](EventId) {});
  return std::move(app).build();
}

class ObservationInvariance : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ObservationInvariance, ModelIndependentOfRecordingOrder) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 7;
  opt.p_send = 0.35;
  opt.seed = GetParam();
  Computation ref = generate_random(opt);
  Rng rng(GetParam() * 101 + 7);

  auto conj = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                                var_cmp(1, "v1", Cmp::kLe, 4)});
  PredicatePtr lin = make_and(PredicatePtr(conj), all_channels_empty());
  const Verdict ef_ref = detect(ref, Op::kEF, conj).verdict;
  const Verdict ag_ref = detect(ref, Op::kAG, lin).verdict;
  const Verdict eg_ref = detect(ref, Op::kEG, lin).verdict;
  for (const Verdict v : {ef_ref, ag_ref, eg_ref})
    ASSERT_NE(v, Verdict::kUnknown);

  for (int round = 0; round < 4; ++round) {
    const auto order = random_observation(ref, rng);
    Computation c = record(ref, order);
    c.validate();

    // Structure is identical: clocks and values per event, channel state.
    for (ProcId i = 0; i < ref.num_procs(); ++i) {
      ASSERT_EQ(c.num_events(i), ref.num_events(i));
      for (EventIndex k = 1; k <= ref.num_events(i); ++k) {
        EXPECT_EQ(c.vclock(i, k), ref.vclock(i, k));
        EXPECT_EQ(reverse_clock_row(c, i, k), reverse_clock_row(ref, i, k));
      }
      for (VarId v = 0; v < ref.num_vars(); ++v)
        for (EventIndex k = 0; k <= ref.num_events(i); ++k)
          EXPECT_EQ(c.value_at(i, v, k), ref.value_at(i, v, k));
    }
    EXPECT_EQ(c.in_transit_total(c.final_cut()),
              ref.in_transit_total(ref.final_cut()));

    // Detection verdicts are observation-independent (the whole point of
    // working on the happened-before model rather than one interleaving).
    EXPECT_EQ(detect(c, Op::kEF, conj).verdict, ef_ref);
    EXPECT_EQ(detect(c, Op::kAG, lin).verdict, ag_ref);
    EXPECT_EQ(detect(c, Op::kEG, lin).verdict, eg_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObservationInvariance,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace hbct
