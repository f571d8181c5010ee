// Edge cases across the stack: empty computations, single processes,
// degenerate predicates, dispatch identities, and the predicate-control
// schedule extraction.
#include <gtest/gtest.h>

#include "ctl/compile.h"
#include "detect/brute_force.h"
#include "detect/control.h"
#include "detect/dispatch.h"
#include "detect/until.h"
#include "lattice/lattice.h"
#include "poset/builder.h"
#include "poset/generate.h"
#include "poset/trace_io.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

// ---- Empty / tiny computations ----------------------------------------------

TEST(EdgeCases, EmptyComputation) {
  ComputationBuilder b(3);
  Computation c = std::move(b).build();
  c.validate();
  EXPECT_EQ(c.total_events(), 0);
  EXPECT_EQ(c.initial_cut(), c.final_cut());

  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.size(), 1u);
  EXPECT_EQ(lat.bottom(), lat.top());

  auto t = make_true();
  auto f = make_false();
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
    EXPECT_EQ(detect(c, op, t).verdict, Verdict::kHolds) << to_string(op);
    EXPECT_EQ(detect(c, op, f).verdict, Verdict::kFails) << to_string(op);
  }
  // EU/AU at the single state: verdict is q(∅).
  EXPECT_EQ(detect(c, Op::kEU, f, t).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kEU, t, f).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kAU, f, t).verdict, Verdict::kHolds);
}

TEST(EdgeCases, SingleProcessIsATotalOrder) {
  ComputationBuilder b(1);
  VarId x = b.var("x");
  for (int k = 1; k <= 5; ++k) {
    b.internal(0);
    b.write(0, x, k);
  }
  Computation c = std::move(b).build();
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.size(), 6u);

  // On a chain, EF == AF and EG == AG for every predicate.
  LatticeChecker chk(c);
  auto p = var_cmp(0, "x", Cmp::kEq, 3);
  const DetectResult ef = chk.detect(Op::kEF, *p);
  const DetectResult eg = chk.detect(Op::kEG, *p);
  ASSERT_TRUE(ef.definite() && eg.definite());
  EXPECT_EQ(chk.detect(Op::kAF, *p).verdict, ef.verdict);
  EXPECT_EQ(chk.detect(Op::kAG, *p).verdict, eg.verdict);
  EXPECT_EQ(detect(c, Op::kEF, p).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kAF, p).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kAG, p).verdict, Verdict::kFails);
}

TEST(EdgeCases, ProcessWithZeroEvents) {
  ComputationBuilder b(2);
  b.internal(0);
  b.internal(0);
  Computation c = std::move(b).build();
  EXPECT_EQ(c.num_events(1), 0);
  auto p = make_conjunctive({progress_ge(1, 1)});
  EXPECT_EQ(detect(c, Op::kEF, p).verdict, Verdict::kFails);
  auto zero = make_conjunctive({pos_cmp(1, Cmp::kEq, 0)});
  EXPECT_EQ(detect(c, Op::kAG, PredicatePtr(zero)).verdict, Verdict::kHolds);
}

// ---- Dispatch identities ------------------------------------------------------

class DispatchIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispatchIdentity, UntilWithConstantsCollapses) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = GetParam();
  Computation c = generate_random(opt);

  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                             var_cmp(1, "v1", Cmp::kLe, 2)});
  // E[true U p] == EF(p); A[true U p] == AF(p). `true` is conjunctive and
  // disjunctive, p is both too (as needed per rule), so the polynomial
  // algorithms handle both sides.
  const DetectResult ef = detect(c, Op::kEF, p);
  ASSERT_TRUE(ef.definite());
  EXPECT_EQ(detect(c, Op::kEU, make_true(), p).verdict, ef.verdict);
  auto d = make_disjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                             var_cmp(2, "v1", Cmp::kLe, 2)});
  const DetectResult af = detect(c, Op::kAF, d);
  ASSERT_TRUE(af.definite());
  EXPECT_EQ(detect(c, Op::kAU, make_true(), d).verdict, af.verdict);
  // E[p U false] and A[p U false] are false.
  EXPECT_EQ(detect(c, Op::kEU, p, make_false()).verdict, Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kAU, d, make_false()).verdict, Verdict::kFails);
  // E[p U true] and A[p U true] are true (empty prefix).
  EXPECT_EQ(detect(c, Op::kEU, p, make_true()).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kAU, d, make_true()).verdict, Verdict::kHolds);
}

TEST_P(DispatchIdentity, NegationDualities) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = GetParam() + 40;
  Computation c = generate_random(opt);
  auto p = make_disjunctive({var_cmp(0, "v0", Cmp::kGe, 3),
                             var_cmp(1, "v1", Cmp::kLe, 2)});
  auto np = p->negate();  // conjunctive
  // AG(p) == !EF(!p), AF(p) == !EG(!p) — each side through its own
  // polynomial algorithm.
  const DetectResult ef = detect(c, Op::kEF, np);
  const DetectResult eg = detect(c, Op::kEG, np);
  ASSERT_TRUE(ef.definite() && eg.definite());
  EXPECT_EQ(detect(c, Op::kAG, p).verdict, negate(ef.verdict));
  EXPECT_EQ(detect(c, Op::kAF, p).verdict, negate(eg.verdict));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchIdentity,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Predicate control -----------------------------------------------------------

TEST(Control, ScheduleIsAValidTotalOrder) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 6;
  opt.seed = 5;
  Computation c = generate_random(opt);
  // Always-true linear predicate: every schedule works, but the extracted
  // one must still be a valid linear extension.
  PredicatePtr p = channel_bound_le(0, 1, 1 << 20);
  auto schedule = control_schedule(c, *p);
  ASSERT_EQ(schedule.size(), static_cast<std::size_t>(c.total_events()));
  Cut g = c.initial_cut();
  for (const EventId& e : schedule) {
    ASSERT_TRUE(c.enabled(g, e.proc)) << "schedule violates causality";
    g = c.advance(g, e.proc);
    EXPECT_EQ(g[static_cast<std::size_t>(e.proc)], e.index);
  }
  EXPECT_EQ(g, c.final_cut());
}

TEST(Control, ScheduleKeepsThePredicateTrue) {
  sim::Simulator s = sim::make_producer_consumer(6, 3);
  Computation c = std::move(s).run({});
  // Controllable: the buffer never exceeds 2 — a scheduler can enforce it
  // by alternating produce/consume (window 3 permits but never forces 3).
  PredicatePtr p = diff_le({0, "produced"}, {1, "consumed"}, 2);
  auto schedule = control_schedule(c, *p);
  if (schedule.empty()) {
    // Not controllable on this trace; then EG must be false.
    EXPECT_EQ(detect(c, Op::kEG, p).verdict, Verdict::kFails);
    return;
  }
  Cut g = c.initial_cut();
  EXPECT_TRUE(p->eval(c, g));
  for (const EventId& e : schedule) {
    g = c.advance(g, e.proc);
    EXPECT_TRUE(p->eval(c, g));
  }
}

TEST(Control, RejectsMalformedPaths) {
  Computation c = generate_independent(2, 2);
  EXPECT_DEATH(schedule_from_path(c, {Cut({1, 0})}), "initial cut");
  EXPECT_DEATH(schedule_from_path(c, {Cut({0, 0}), Cut({2, 0})}),
               "one event");
}

// ---- Trace round trips for every workload ------------------------------------------

TEST(Workloads, AllTracesRoundTrip) {
  std::vector<sim::Simulator> sims;
  sims.push_back(sim::make_token_mutex(3, 2, true));
  sims.push_back(sim::make_ra_mutex(3, 1));
  sims.push_back(sim::make_leader_election(4));
  sims.push_back(sim::make_token_ring(3, 2));
  sims.push_back(sim::make_producer_consumer(5, 2));
  sims.push_back(sim::make_barrier(3, 2));
  sims.push_back(sim::make_random_mixer(3, 6, 2, 0.4));
  sims.push_back(sim::make_dining_philosophers(3, 1, true));
  sims.push_back(sim::make_two_phase_commit(3, 2, 0.3, false));
  sims.push_back(sim::make_chandy_lamport(3, 8, 3));
  sims.push_back(sim::make_alternating_bit(4, 0.5));
  std::uint64_t seed = 9;
  for (auto& s : sims) {
    sim::SimOptions o;
    o.seed = seed++;
    Computation c = std::move(s).run(o);
    c.validate();
    const std::string text = trace_to_string(c);
    auto parsed = trace_from_string(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(trace_to_string(parsed.computation), text);
  }
}

// ---- Degenerate predicates -----------------------------------------------------

TEST(EdgeCases, ChannelPredicateOnSilentChannel) {
  Computation c = generate_independent(3, 3);
  EXPECT_EQ(detect(c, Op::kAG, channel_empty(0, 1)).verdict, Verdict::kHolds);
  EXPECT_EQ(detect(c, Op::kEF, channel_bound_ge(0, 1, 1)).verdict,
            Verdict::kFails);
}

TEST(EdgeCases, ImpossibleChannelBound) {
  Computation c = generate_independent(2, 2);
  // in_transit <= -1 is unsatisfiable.
  EXPECT_EQ(detect(c, Op::kEF, channel_bound_le(0, 1, -1)).verdict,
            Verdict::kFails);
  EXPECT_EQ(detect(c, Op::kAG, channel_bound_ge(0, 1, 0)).verdict,
            Verdict::kHolds);
}

TEST(EdgeCases, QueryOnUnwrittenVariableUsesInitials) {
  ComputationBuilder b(2);
  VarId x = b.var("x");
  b.set_initial(0, x, 42);
  b.internal(0);
  b.internal(1);
  Computation c = std::move(b).build();
  auto r = ctl::evaluate_query(c, "AG(x@P0 == 42)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
  auto r2 = ctl::evaluate_query(c, "AG(x@P1 == 0)");
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.result.verdict, Verdict::kHolds);
}

}  // namespace
}  // namespace hbct
