// Heavier property stress: larger random computations (lattices in the
// thousands of cuts), every operator, mixed predicate shapes — a final
// safety net over the per-algorithm suites. Runtime-bounded by lattice caps.
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "detect/dispatch.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"
#include "util/rng.h"

namespace hbct {
namespace {

class Stress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Stress, AllOperatorsOnLargerComputations) {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 6;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.seed = GetParam() * 1337;
  Computation c = generate_random(opt);

  auto lat = Lattice::try_build(c, 60000);
  if (!lat) GTEST_SKIP() << "lattice too large for the oracle at this seed";
  LatticeChecker chk(std::move(*lat));

  Rng rng(GetParam() * 31337);
  auto rand_local = [&] {
    return var_cmp(static_cast<ProcId>(rng.next_below(4)),
                   rng.next_bool() ? "v0" : "v1",
                   static_cast<Cmp>(rng.next_below(6)), rng.next_in(0, 5));
  };

  for (int round = 0; round < 3; ++round) {
    std::vector<PredicatePtr> preds;
    preds.push_back(make_conjunctive({rand_local(), rand_local(),
                                      rand_local()}));
    preds.push_back(make_disjunctive({rand_local(), rand_local()}));
    preds.push_back(make_and(PredicatePtr(make_conjunctive({rand_local()})),
                             channel_bound_le(0, 1, 1)));
    preds.push_back(make_or(PredicatePtr(make_conjunctive(
                                {rand_local(), rand_local()})),
                            PredicatePtr(make_conjunctive({rand_local()}))));
    preds.push_back(make_terminated());

    for (const auto& p : preds) {
      for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
        DetectResult fast = detect(c, op, p);
        DetectResult slow = chk.detect(op, *p);
        ASSERT_EQ(fast.verdict, slow.verdict)
            << to_string(op) << " via " << fast.algorithm << " on "
            << p->describe();
      }
    }

    auto up = make_conjunctive({rand_local(), rand_local()});
    PredicatePtr uq = make_and(PredicatePtr(make_conjunctive({rand_local()})),
                               all_channels_empty());
    ASSERT_EQ(detect(c, Op::kEU, up, uq).verdict,
              chk.detect(Op::kEU, *up, uq.get()).verdict);

    auto ap = make_disjunctive({rand_local(), rand_local()});
    auto aq = make_disjunctive({rand_local(), rand_local()});
    ASSERT_EQ(detect(c, Op::kAU, ap, aq).verdict,
              chk.detect(Op::kAU, *ap, aq.get()).verdict);
  }
}

TEST_P(Stress, ChannelHeavyComputations) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 8;
  opt.p_send = 0.5;
  opt.p_recv = 0.4;
  opt.seed = GetParam() * 271;
  Computation c = generate_random(opt);

  auto lat = Lattice::try_build(c, 60000);
  if (!lat) GTEST_SKIP();
  LatticeChecker chk(std::move(*lat));

  for (ProcId i = 0; i < 3; ++i)
    for (ProcId j = 0; j < 3; ++j) {
      if (i == j) continue;
      for (std::int32_t k : {0, 1, 2}) {
        for (auto p : {channel_bound_le(i, j, k), channel_bound_ge(i, j, k)}) {
          for (Op op : {Op::kEF, Op::kEG, Op::kAG}) {
            ASSERT_EQ(detect(c, op, p).verdict, chk.detect(op, *p).verdict)
                << to_string(op) << " " << p->describe();
          }
        }
      }
    }
  PredicatePtr empty = all_channels_empty();
  for (Op op : {Op::kEF, Op::kEG, Op::kAG})
    ASSERT_EQ(detect(c, op, empty).verdict, chk.detect(op, *empty).verdict);
}

TEST_P(Stress, ManyProcessesFewEvents) {
  GenOptions opt;
  opt.num_procs = 7;
  opt.events_per_proc = 2;
  opt.p_send = 0.4;
  opt.seed = GetParam() * 733;
  Computation c = generate_random(opt);
  auto lat = Lattice::try_build(c, 60000);
  if (!lat) GTEST_SKIP();
  LatticeChecker chk(std::move(*lat));

  Rng rng(GetParam());
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < 7; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, rng.next_in(2, 8)));
  auto conj = make_conjunctive(ls);
  auto disj = make_disjunctive(std::move(ls));
  for (Op op : {Op::kEF, Op::kAF, Op::kEG, Op::kAG}) {
    ASSERT_EQ(detect(c, op, conj).verdict, chk.detect(op, *conj).verdict)
        << to_string(op);
    ASSERT_EQ(detect(c, op, disj).verdict, chk.detect(op, *disj).verdict)
        << to_string(op);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Stress, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hbct
