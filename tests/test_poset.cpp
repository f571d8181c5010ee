// Unit tests for poset/: vector clocks, computations, cuts, builder,
// generators.
#include <gtest/gtest.h>

#include "poset/builder.h"
#include "poset/computation.h"
#include "poset/generate.h"
#include "poset/vclock.h"

#include "oracle.h"

namespace hbct {
namespace {

TEST(VClock, MergeAndOrder) {
  VClock a(3), b(3);
  a[0] = 2;
  b[1] = 1;
  EXPECT_TRUE(a.concurrent(b));
  VClock m = a;
  m.merge(b);
  EXPECT_EQ(m[0], 2);
  EXPECT_EQ(m[1], 1);
  EXPECT_TRUE(a.leq(m));
  EXPECT_TRUE(b.leq(m));
  EXPECT_TRUE(a.before(m));
  EXPECT_FALSE(m.before(a));
  EXPECT_EQ(m.to_string(), "[2,1,0]");
}

/// The canonical 2-process example: P0: a, b(send); P1: c(recv), d.
Computation two_proc() {
  ComputationBuilder b(2);
  b.internal(0);                      // a = (0,1)
  MsgId m = b.send(0, 1);             // b = (0,2)
  b.internal(1);                      // c = (1,1)
  b.receive(1, m);                    // d = (1,2)
  b.internal(1);                      // e = (1,3)
  return std::move(b).build();
}

TEST(Computation, VectorClocksOfHandExample) {
  Computation c = two_proc();
  c.validate();
  EXPECT_EQ(c.vclock(0, 1).raw(), (std::vector<std::int32_t>{1, 0}));
  EXPECT_EQ(c.vclock(0, 2).raw(), (std::vector<std::int32_t>{2, 0}));
  EXPECT_EQ(c.vclock(1, 1).raw(), (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(c.vclock(1, 2).raw(), (std::vector<std::int32_t>{2, 2}));
  EXPECT_EQ(c.vclock(1, 3).raw(), (std::vector<std::int32_t>{2, 3}));
}

TEST(Computation, ReverseClocksOfHandExample) {
  Computation c = two_proc();
  // rvc(e)[j] = number of events on j at-or-above e.
  EXPECT_EQ(reverse_clock_row(c, 0, 1), (std::vector<std::int32_t>{2, 2}));
  EXPECT_EQ(reverse_clock_row(c, 0, 2), (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(reverse_clock_row(c, 1, 1), (std::vector<std::int32_t>{0, 3}));
  EXPECT_EQ(reverse_clock_row(c, 1, 2), (std::vector<std::int32_t>{0, 2}));
  EXPECT_EQ(reverse_clock_row(c, 1, 3), (std::vector<std::int32_t>{0, 1}));
}

TEST(Computation, HappenedBeforeAndConcurrency) {
  Computation c = two_proc();
  const EventId a{0, 1}, b{0, 2}, d{1, 2}, e0{1, 1};
  EXPECT_TRUE(c.happened_before(a, b));
  EXPECT_TRUE(c.happened_before(b, d));
  EXPECT_TRUE(c.happened_before(a, d));  // transitive via the message
  EXPECT_FALSE(c.happened_before(d, a));
  EXPECT_TRUE(c.concurrent(a, e0));
  EXPECT_TRUE(c.concurrent(b, e0));
  EXPECT_FALSE(c.concurrent(a, a));
}

TEST(Computation, ConsistencyAndGeometry) {
  Computation c = two_proc();
  EXPECT_TRUE(c.is_consistent(Cut({0, 0})));
  EXPECT_TRUE(c.is_consistent(Cut({2, 1})));
  EXPECT_FALSE(c.is_consistent(Cut({1, 2})));  // recv without its send
  EXPECT_FALSE(c.is_consistent(Cut({0, 3})));
  EXPECT_FALSE(c.is_consistent(Cut({3, 0})));  // out of range

  const Cut g({2, 1});
  EXPECT_TRUE(c.enabled(g, 1));
  EXPECT_FALSE(c.enabled(g, 0));  // exhausted
  auto en = c.enabled_procs(g);
  EXPECT_EQ(en, (std::vector<ProcId>{1}));

  // frontier of {2,1}: both last events are maximal.
  auto fr = c.frontier_procs(g);
  EXPECT_EQ(fr, (std::vector<ProcId>{0, 1}));

  // In {2,2}, b=(0,2) is NOT maximal (d saw it), so only P1 is removable.
  auto fr2 = c.frontier_procs(Cut({2, 2}));
  EXPECT_EQ(fr2, (std::vector<ProcId>{1}));

  EXPECT_EQ(c.advance(g, 1), Cut({2, 2}));
  EXPECT_EQ(c.retreat(g, 0), Cut({1, 1}));
}

TEST(Computation, JoinAndMeetIrreducibleCuts) {
  Computation c = two_proc();
  EXPECT_EQ(c.join_irreducible_of(1, 2), Cut({2, 2}));  // J(d) = past of d
  EXPECT_EQ(c.join_irreducible_of(0, 1), Cut({1, 0}));
  // M(b) = E \ up-set(b): up(b) = {b, d, e} -> <1, 1>.
  EXPECT_EQ(c.meet_irreducible_of(0, 2), Cut({1, 1}));
  // M(a): up(a) = {a,b,d,e} -> <0,1>.
  EXPECT_EQ(c.meet_irreducible_of(0, 1), Cut({0, 1}));
  EXPECT_EQ(c.meet_irreducible_of(1, 1), Cut({2, 0}));
}

TEST(Computation, VariablesAndTimelines) {
  ComputationBuilder b(2);
  VarId x = b.var("x");
  b.set_initial(0, x, 5);
  b.internal(0);
  b.write(0, x, 7);
  b.internal(0);  // no write: x stays 7
  b.internal(1);
  b.write(1, "x", -1);
  Computation c = std::move(b).build();
  EXPECT_EQ(c.value_at(0, x, 0), 5);
  EXPECT_EQ(c.value_at(0, x, 1), 7);
  EXPECT_EQ(c.value_at(0, x, 2), 7);
  EXPECT_EQ(c.value_at(1, x, 0), 0);  // default initial
  EXPECT_EQ(c.value_at(1, x, 1), -1);
  EXPECT_EQ(c.num_vars(), 1);
  EXPECT_EQ(c.var_name(x), "x");
  EXPECT_FALSE(c.var_id("y").has_value());
}

TEST(Computation, ChannelCounting) {
  ComputationBuilder b(3);
  MsgId m1 = b.send(0, 1);
  MsgId m2 = b.send(0, 1);
  b.send(0, 2);  // never received
  b.receive(1, m1);
  b.receive(1, m2);
  Computation c = std::move(b).build();

  EXPECT_EQ(c.in_transit(0, 1, Cut({2, 0, 0})), 2);
  EXPECT_EQ(c.in_transit(0, 1, Cut({2, 1, 0})), 1);
  EXPECT_EQ(c.in_transit(0, 1, Cut({2, 2, 0})), 0);
  EXPECT_EQ(c.in_transit(0, 2, Cut({3, 0, 0})), 1);
  EXPECT_EQ(c.in_transit(1, 0, Cut({3, 2, 0})), 0);
  EXPECT_EQ(c.in_transit_total(Cut({3, 0, 0})), 3);
  EXPECT_FALSE(c.all_channels_empty(c.final_cut()));  // m3 still in flight
  EXPECT_TRUE(c.all_channels_empty(c.initial_cut()));
  EXPECT_EQ(c.num_messages(), 3);
}

TEST(Computation, PrefixRestriction) {
  Computation c = two_proc();
  Computation p = c.prefix(Cut({2, 1}));
  p.validate();
  EXPECT_EQ(p.num_events(0), 2);
  EXPECT_EQ(p.num_events(1), 1);
  EXPECT_EQ(p.total_events(), 3);
  // The send's receive fell outside: message stays in transit at the end.
  EXPECT_EQ(p.in_transit(0, 1, p.final_cut()), 1);
  // Clocks recomputed identically on the common part.
  EXPECT_EQ(p.vclock(0, 2).raw(), (std::vector<std::int32_t>{2, 0}));
}

TEST(Computation, LabelsRoundTrip) {
  ComputationBuilder b(1);
  b.internal(0);
  b.label(0, "boot");
  b.internal(0);
  Computation c = std::move(b).build();
  auto e = c.find_label("boot");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->proc, 0);
  EXPECT_EQ(e->index, 1);
  EXPECT_FALSE(c.find_label("missing").has_value());
}

TEST(Cut, LatticeOperations) {
  Cut a({2, 0, 1}), b({1, 3, 1});
  EXPECT_EQ(Cut::meet(a, b), Cut({1, 0, 1}));
  EXPECT_EQ(Cut::join(a, b), Cut({2, 3, 1}));
  EXPECT_TRUE(Cut::meet(a, b).subset_of(a));
  EXPECT_TRUE(a.subset_of(Cut::join(a, b)));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_EQ(a.total(), 3);
  EXPECT_EQ(a.to_string(), "<2,0,1>");
}

TEST(Generate, RandomComputationIsValidAndDeterministic) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 12;
  opt.seed = 99;
  Computation a = generate_random(opt);
  Computation b = generate_random(opt);
  a.validate();
  EXPECT_EQ(a.total_events(), 48);
  for (ProcId i = 0; i < 4; ++i) EXPECT_EQ(a.num_events(i), 12);
  // Determinism: identical structure and clocks.
  EXPECT_EQ(a.num_messages(), b.num_messages());
  for (ProcId i = 0; i < 4; ++i)
    for (EventIndex k = 1; k <= 12; ++k)
      EXPECT_EQ(a.vclock(i, k), b.vclock(i, k));
}

TEST(Generate, SeedsChangeStructure) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 12;
  opt.seed = 1;
  Computation a = generate_random(opt);
  opt.seed = 2;
  Computation b = generate_random(opt);
  bool differ = a.num_messages() != b.num_messages();
  for (ProcId i = 0; !differ && i < 4; ++i)
    for (EventIndex k = 1; !differ && k <= 12; ++k)
      differ = !(a.vclock(i, k) == b.vclock(i, k));
  EXPECT_TRUE(differ);
}

TEST(Generate, IndependentAndChainShapes) {
  Computation ind = generate_independent(3, 4);
  ind.validate();
  EXPECT_EQ(ind.num_messages(), 0);

  Computation chain = generate_chain(3, 4);
  chain.validate();
  EXPECT_EQ(chain.num_messages(), 2);
  // Last event of P2 is above everything on P0.
  EXPECT_TRUE(chain.happened_before(EventId{0, 4}, EventId{2, 1}));
}

TEST(Builder, RejectsForeignDeliveries) {
  ComputationBuilder b(3);
  MsgId m = b.send(0, 1);
  EXPECT_DEATH(b.receive(2, m), "wrong process");
}

TEST(Builder, RejectsDoubleReceive) {
  ComputationBuilder b(2);
  MsgId m = b.send(0, 1);
  b.receive(1, m);
  EXPECT_DEATH(b.receive(1, m), "received twice");
}

}  // namespace
}  // namespace hbct
