// Program-level checking (Section 3's footnote) and the alternating-bit
// workload.
#include <gtest/gtest.h>

#include "ctl/program_check.h"
#include "detect/dispatch.h"
#include "predicate/conjunctive.h"
#include "predicate/relational.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

std::function<Computation(std::uint64_t)> program(
    std::function<sim::Simulator()> make) {
  return [make = std::move(make)](std::uint64_t seed) {
    sim::SimOptions o;
    o.seed = seed;
    return std::move(make()).run(o);
  };
}

TEST(ProgramCheck, MutualExclusionHoldsAcrossSchedules) {
  auto r = ctl::check_program(
      program([] { return sim::make_ra_mutex(3, 1); }), 10,
      "AG(!(cs@P0 == 1 && cs@P1 == 1) && !(cs@P0 == 1 && cs@P2 == 1) && "
      "!(cs@P1 == 1 && cs@P2 == 1))");
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.error;
  EXPECT_EQ(r.runs, 10u);
  EXPECT_TRUE(r.failing_seeds.empty());
  EXPECT_GT(r.stats.predicate_evals, 0u);
}

TEST(ProgramCheck, InjectedBugFailsSomeSchedulesAndReportsSeeds) {
  auto prog = program([] { return sim::make_token_mutex(3, 2, true); });
  auto r = ctl::check_program(
      prog, 10, "AG(!(cs@P0 == 1 && cs@P2 == 1))");
  EXPECT_EQ(r.verdict, Verdict::kFails);
  ASSERT_FALSE(r.failing_seeds.empty());
  // A reported seed replays to a real refutation.
  Computation c = prog(r.failing_seeds.front());
  auto overlap = make_conjunctive(
      {var_cmp(0, "cs", Cmp::kEq, 1), var_cmp(2, "cs", Cmp::kEq, 1)});
  EXPECT_EQ(detect(c, Op::kEF, overlap).verdict, Verdict::kHolds);
}

TEST(ProgramCheck, AllRunsUnknownIsNotAPass) {
  // Unbudgeted, every seed refutes the query. A one-unit work budget stops
  // every run before it decides, and a check in which no run decided must
  // not report a pass.
  auto prog = program([] { return sim::make_token_mutex(3, 2, true); });
  const char* query = "AG(!(cs@P0 == 1 && cs@P2 == 1))";
  DispatchOptions opt;
  opt.budget.max_work = 1;
  auto r = ctl::check_program(prog, 10, query, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.runs, 10u);
  EXPECT_EQ(r.unknown_seeds.size(), 10u);
  EXPECT_TRUE(r.failing_seeds.empty());

  auto full = ctl::check_program(prog, 10, query);
  EXPECT_EQ(full.verdict, Verdict::kFails);
  EXPECT_EQ(full.failing_seeds.size(), 10u);
}

TEST(ProgramCheck, RefutingRunAmongUnknownRunsFails) {
  // Kleene AND over runs: one refutation decides the check even when the
  // runs around it were cut short. Seed 2 runs the buggy token mutex, which
  // refutes within the budget; the correct Ricart-Agrawala runs need more
  // work to establish the invariant and end kUnknown.
  const auto run = [](std::uint64_t seed) {
    sim::SimOptions o;
    o.seed = seed;
    return seed == 2 ? sim::make_token_mutex(3, 2, true).run(o)
                     : sim::make_ra_mutex(3, 1).run(o);
  };
  DispatchOptions opt;
  opt.budget.max_work = 16;
  auto r = ctl::check_program(run, 3, "AG(!(cs@P0 == 1 && cs@P2 == 1))", opt);
  EXPECT_EQ(r.verdict, Verdict::kFails);
  EXPECT_EQ(r.failing_seeds, std::vector<std::uint64_t>{2});
  EXPECT_EQ(r.unknown_seeds, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ProgramCheck, QueryErrorsSurfaceOnce) {
  auto r = ctl::check_program(
      program([] { return sim::make_token_ring(3, 1); }), 5,
      "AG(nosuchvar@P0 == 1)");
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_NE(r.error.find("unknown variable"), std::string::npos);
  EXPECT_EQ(r.runs, 0u);

  auto r2 = ctl::check_program(
      program([] { return sim::make_token_ring(3, 1); }), 5, "AG(((");
  EXPECT_EQ(r2.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r2.error.empty());
}

TEST(ProgramCheck, ExplicitSeedList) {
  const std::uint64_t seeds[] = {7, 11, 13};
  auto r = ctl::check_program(
      program([] { return sim::make_barrier(3, 2); }),
      std::span<const std::uint64_t>(seeds), "AF(terminated)");
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.error;
  EXPECT_EQ(r.runs, 3u);
}

// ---- Alternating bit -----------------------------------------------------------

class Abp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Abp, ExactlyOnceInOrderDelivery) {
  sim::SimOptions o;
  o.seed = GetParam();
  sim::Simulator s = sim::make_alternating_bit(6, 0.4);
  Computation c = std::move(s).run(o);
  c.validate();

  // Every schedule delivers all items exactly once...
  EXPECT_EQ(detect(c, Op::kAF,
                   PredicatePtr(var_cmp(1, "delivered", Cmp::kEq, 6)))
                .verdict,
            Verdict::kHolds);
  // ...delivery never runs ahead of transmission (regular predicate)...
  EXPECT_EQ(
      detect(c, Op::kAG, diff_le({1, "delivered"}, {0, "sent"}, 0)).verdict,
      Verdict::kHolds);
  // ...and never falls more than one item behind what was confirmed.
  EXPECT_EQ(
      detect(c, Op::kAG, diff_le({0, "confirmed"}, {1, "delivered"}, 0))
          .verdict,
      Verdict::kHolds);
}

TEST_P(Abp, RetransmissionsAreAbsorbedAsDuplicates) {
  sim::SimOptions o;
  o.seed = GetParam() + 100;
  sim::Simulator s = sim::make_alternating_bit(5, 0.7);
  Computation c = std::move(s).run(o);
  const VarId retr = *c.var_id("retransmits");
  const VarId dups = *c.var_id("dups");
  const std::int64_t r = c.value_at(0, retr, c.num_events(0));
  const std::int64_t d = c.value_at(1, dups, c.num_events(1));
  // Every retransmitted copy that arrives is classified as a duplicate;
  // none is delivered twice (the final delivered count said so above).
  EXPECT_LE(d, r);
  // With p = 0.7 some retransmission almost surely happened; if so the
  // duplicate path is exercised under at least one seed (checked globally
  // below via the suite's many seeds — here only consistency).
  EXPECT_EQ(detect(c, Op::kAF,
                   PredicatePtr(var_cmp(1, "delivered", Cmp::kEq, 5)))
                .verdict,
            Verdict::kHolds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Abp, ::testing::Range<std::uint64_t>(1, 13));

TEST(Abp, ProgramLevelExactlyOnce) {
  auto r = ctl::check_program(
      program([] { return sim::make_alternating_bit(4, 0.5); }), 15,
      "AF(delivered@P1 == 4) && AG(delivered@P1 - sent@P0 <= 0)");
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.error;
  EXPECT_EQ(r.runs, 15u);
}

TEST(Abp, DuplicatePathIsActuallyExercised) {
  // Across the seed range, at least one run retransmits and at least one
  // duplicate reaches the receiver — otherwise these tests prove nothing.
  bool any_retr = false, any_dup = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::SimOptions o;
    o.seed = seed;
    sim::Simulator s = sim::make_alternating_bit(5, 0.7);
    Computation c = std::move(s).run(o);
    any_retr |= c.value_at(0, *c.var_id("retransmits"), c.num_events(0)) > 0;
    any_dup |= c.value_at(1, *c.var_id("dups"), c.num_events(1)) > 0;
  }
  EXPECT_TRUE(any_retr);
  EXPECT_TRUE(any_dup);
}

}  // namespace
}  // namespace hbct
