// Theorem 7's footnote: E[p U q] needs only a *least satisfying cut* for q,
// not full linearity. detect_eu_at takes that cut from the caller; here it
// is computed by brute force for deliberately non-linear q predicates, and
// the verdict is cross-checked against the lattice EU oracle.
#include <gtest/gtest.h>

#include "detect/brute_force.h"
#include "detect/until.h"
#include "poset/generate.h"
#include "predicate/conjunctive.h"
#include "util/rng.h"

namespace hbct {
namespace {

/// Brute-force least satisfying cut; nullopt when unsatisfied or when no
/// unique least cut exists (the footnote's precondition fails).
std::optional<Cut> brute_least_cut(const LatticeChecker& chk,
                                   const Predicate& q) {
  const auto labels = chk.label(q);
  std::optional<Cut> least;
  for (NodeId v = 0; v < chk.lattice().size(); ++v) {
    if (!labels[v]) continue;
    least = least ? Cut::meet(*least, chk.lattice().cut(v))
                  : chk.lattice().cut(v);
  }
  if (!least) return std::nullopt;
  const NodeId node = chk.lattice().node_of(*least);
  if (node == kNoNode || !labels[node]) return std::nullopt;  // no least cut
  return least;
}

class UntilFootnote : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UntilFootnote, NonLinearQWithLeastCut) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = GetParam();
  Computation c = generate_random(opt);
  LatticeChecker chk(c);
  Rng rng(GetParam() * 19 + 7);

  for (int round = 0; round < 6; ++round) {
    // q = "at least k events total AND some process past threshold" — a
    // union-ish shape that is generally NOT meet-closed, but often has a
    // least cut.
    const std::int64_t k = rng.next_in(1, 8);
    const std::int64_t t = rng.next_in(1, 4);
    auto q = make_asserted(
        [k, t](const Computation& cc, const Cut& g) {
          bool past = false;
          for (ProcId i = 0; i < cc.num_procs(); ++i)
            past |= g[static_cast<std::size_t>(i)] >= t;
          return g.total() >= k && past;
        },
        0, "nonlinear-q");

    auto iq = brute_least_cut(chk, *q);
    if (!iq) continue;  // footnote precondition fails: skip this q

    auto p = make_conjunctive(
        {var_cmp(0, "v0", Cmp::kLe, static_cast<std::int64_t>(rng.next_in(2, 9))),
         var_cmp(1, "v1", Cmp::kLe, static_cast<std::int64_t>(rng.next_in(2, 9)))});

    DetectResult fast = detect_eu_at(c, *p, *iq);
    DetectResult slow = chk.detect(Op::kEU, *p, q.get());
    EXPECT_EQ(fast.verdict, slow.verdict)
        << "k=" << k << " t=" << t << " p=" << p->describe();
    if (fast.verdict == Verdict::kHolds) {
      EXPECT_EQ(*fast.witness_cut, *iq);
      EXPECT_TRUE(q->eval(c, fast.witness_path.back()));
      for (std::size_t i = 0; i + 1 < fast.witness_path.size(); ++i)
        EXPECT_TRUE(p->eval(c, fast.witness_path[i]));
    }
  }
}

TEST_P(UntilFootnote, AgreesWithLinearPathWhenQIsLinear) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = GetParam() + 50;
  Computation c = generate_random(opt);
  LatticeChecker chk(c);

  auto p = make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 7)});
  auto q = make_conjunctive({var_cmp(1, "v0", Cmp::kGe, 2),
                             var_cmp(2, "v1", Cmp::kGe, 1)});
  auto iq = brute_least_cut(chk, *q);
  DetectResult via_oracle = detect_eu(c, *p, *q);
  ASSERT_TRUE(via_oracle.definite());
  if (iq) {
    DetectResult via_cut = detect_eu_at(c, *p, *iq);
    EXPECT_EQ(via_cut.verdict, via_oracle.verdict);
  } else {
    EXPECT_EQ(via_oracle.verdict, Verdict::kFails);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UntilFootnote,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hbct
