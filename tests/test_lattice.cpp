// Tests for the explicit lattice: enumeration, Hasse structure, meet/join,
// irreducibles (cover-degree vs the direct O(n|E|) extraction), Birkhoff
// reconstruction, and path counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "detect/stable_oi.h"
#include "lattice/irreducible.h"
#include "lattice/lattice.h"
#include "lattice/path_count.h"
#include "poset/builder.h"
#include "poset/cut_packer.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/predicate.h"
#include "util/rng.h"

namespace hbct {
namespace {

std::uint64_t binom(std::uint64_t n, std::uint64_t k) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

TEST(Lattice, IndependentGridHasProductSize) {
  // With no messages the lattice is the full grid of positions.
  Computation c = generate_independent(3, 3);
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.size(), 4u * 4 * 4);
  // Grid edge count: positions with one coordinate advanceable.
  EXPECT_EQ(lat.num_edges(), 3u * 3 * 16);
}

TEST(Lattice, ChainComputationIsAChain) {
  Computation c = generate_chain(3, 3);
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.size(), static_cast<std::size_t>(c.total_events() + 1));
  for (NodeId v = 0; v < lat.size(); ++v)
    EXPECT_LE(lat.successors(v).size(), 1u);
}

TEST(Lattice, EveryNodeConsistentAndEdgesAreCovers) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = 5;
  Computation c = generate_random(opt);
  Lattice lat = Lattice::build(c);
  for (NodeId v = 0; v < lat.size(); ++v) {
    EXPECT_TRUE(c.is_consistent(lat.cut(v)));
    for (NodeId s : lat.successors(v)) {
      EXPECT_EQ(lat.cut(s).total(), lat.cut(v).total() + 1);
      EXPECT_TRUE(lat.cut(v).subset_of(lat.cut(s)));
      // Predecessor lists mirror successor lists.
      auto preds = lat.predecessors(s);
      EXPECT_NE(std::find(preds.begin(), preds.end(), v), preds.end());
    }
  }
  EXPECT_EQ(lat.cut(lat.bottom()), c.initial_cut());
  EXPECT_EQ(lat.cut(lat.top()), c.final_cut());
}

TEST(Lattice, MeetJoinAgreeWithCutOps) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = 7;
  Computation c = generate_random(opt);
  Lattice lat = Lattice::build(c);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    NodeId a = static_cast<NodeId>(rng.next_below(lat.size()));
    NodeId b = static_cast<NodeId>(rng.next_below(lat.size()));
    EXPECT_EQ(lat.cut(lat.meet(a, b)),
              Cut::meet(lat.cut(a), lat.cut(b)));
    EXPECT_EQ(lat.cut(lat.join(a, b)),
              Cut::join(lat.cut(a), lat.cut(b)));
  }
}

TEST(Lattice, TryBuildHonorsCap) {
  Computation c = generate_independent(4, 4);  // 5^4 = 625 cuts
  EXPECT_FALSE(Lattice::try_build(c, 100).has_value());
  auto lat = Lattice::try_build(c, 1000);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->size(), 625u);
}

TEST(Lattice, NodeOfRejectsInconsistentCut) {
  ComputationBuilder b(2);
  MsgId m = b.send(0, 1);
  b.receive(1, m);
  Computation c = std::move(b).build();
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(lat.node_of(Cut({0, 1})), kNoNode);
  EXPECT_NE(lat.node_of(Cut({1, 1})), kNoNode);
}

// ---- Independent enumeration oracle ------------------------------------
// The lattice walk steps packed keys with an O(1) enabled check; the oracle
// below shares none of it. It scans the product box
// prod_i [trimmed(i), N_i] and keeps what Computation::is_consistent accepts,
// and counts Hasse edges with the O(n) Computation::enabled. The scan fixes
// processes one at a time and skips a partial assignment as soon as two
// fixed processes already contradict each other's clocks (no completion of
// it can be consistent), so a wide but thin box stays cheap.

void box_scan(const Computation& c, Cut& g, ProcId i,
              std::set<std::vector<std::int32_t>>& out) {
  if (i == c.num_procs()) {
    if (c.is_consistent(g)) out.insert(g.raw());
    return;
  }
  const auto si = static_cast<std::size_t>(i);
  for (g[si] = c.trimmed(i); g[si] <= c.num_events(i); ++g[si]) {
    bool ok = true;
    for (ProcId j = 0; j < i && ok; ++j) {
      const auto sj = static_cast<std::size_t>(j);
      if (g[si] > 0 && c.vclock(i, g[si])[sj] > g[sj]) ok = false;
      if (g[sj] > 0 && c.vclock(j, g[sj])[si] > g[si]) ok = false;
    }
    if (ok) box_scan(c, g, i + 1, out);
  }
}

std::set<std::vector<std::int32_t>> box_consistent_cuts(const Computation& c) {
  std::set<std::vector<std::int32_t>> out;
  Cut g = c.trim_cut();
  box_scan(c, g, 0, out);
  return out;
}

void expect_lattice_matches_oracle(const Computation& c) {
  const Lattice lat = Lattice::build(c);
  const auto oracle = box_consistent_cuts(c);
  std::set<std::vector<std::int32_t>> nodes;
  for (NodeId v = 0; v < lat.size(); ++v) nodes.insert(lat.cut(v).raw());
  EXPECT_EQ(nodes.size(), lat.size()) << "a cut was stored twice";
  EXPECT_EQ(nodes, oracle);

  std::size_t edges = 0;
  for (const auto& raw : oracle)
    for (ProcId i = 0; i < c.num_procs(); ++i)
      edges += c.enabled(Cut(raw), i) ? 1 : 0;
  EXPECT_EQ(lat.num_edges(), edges);

  const auto& topo = lat.topo_order();
  ASSERT_EQ(topo.size(), lat.size());
  EXPECT_EQ(std::set<NodeId>(topo.begin(), topo.end()).size(), lat.size());
  for (std::size_t k = 1; k < topo.size(); ++k)
    EXPECT_LE(lat.cut(topo[k - 1]).total(), lat.cut(topo[k]).total());
  EXPECT_EQ(lat.cut(lat.bottom()), c.trim_cut());
  EXPECT_EQ(lat.cut(lat.top()), c.final_cut());
}

/// A DFS witness path starts at the initial cut, adds exactly one event per
/// step through consistent cuts, and ends on a cut `goal` accepts.
void expect_witness_path(const Computation& c, const std::vector<Cut>& path,
                         const std::function<bool(const Cut&)>& goal) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), c.initial_cut());
  for (std::size_t k = 0; k < path.size(); ++k) {
    EXPECT_TRUE(c.is_consistent(path[k])) << path[k].to_string();
    if (k == 0) continue;
    EXPECT_TRUE(path[k - 1].subset_of(path[k]));
    EXPECT_EQ(path[k].total(), path[k - 1].total() + 1);
  }
  EXPECT_TRUE(goal(path.back())) << path.back().to_string();
}

/// ef-dfs toward a deep cut and eg-dfs through a region that excludes part
/// of the lattice both return paths the checker above accepts.
void expect_dfs_witnesses(const Computation& c) {
  const std::int64_t deep = (c.total_events() * 3) / 4;
  const auto reach = [deep](const Cut& g) { return g.total() >= deep; };
  auto p = make_asserted(
      [reach](const Computation&, const Cut& g) { return reach(g); }, 0,
      "total>=3/4");
  const DetectResult ef = detect_ef_dfs(c, *p);
  ASSERT_EQ(ef.verdict, Verdict::kHolds);
  expect_witness_path(c, ef.witness_path, reach);

  // EG through cuts that never run process 0 more than two events ahead of
  // the last process; when a path stays inside, its witness must too.
  const auto last = static_cast<std::size_t>(c.num_procs() - 1);
  const auto inside = [last](const Cut& g) { return g[0] <= g[last] + 2; };
  auto q = make_asserted(
      [inside](const Computation&, const Cut& g) { return inside(g); }, 0,
      "p0<=last+2");
  const DetectResult eg = detect_eg_dfs(c, *q);
  if (eg.verdict != Verdict::kHolds) return;
  const Cut final = c.final_cut();
  expect_witness_path(c, eg.witness_path,
                      [&](const Cut& g) { return g == final; });
  for (const Cut& g : eg.witness_path) EXPECT_TRUE(inside(g));
}

TEST(LatticeOracle, RandomComputationsMatchTheProductBox) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    GenOptions opt;
    opt.num_procs = 2 + static_cast<std::int32_t>(seed % 3);
    opt.events_per_proc = 3 + static_cast<std::int32_t>(seed % 3);
    opt.seed = seed;
    const Computation c = generate_random(opt);
    expect_lattice_matches_oracle(c);
    expect_dfs_witnesses(c);
  }
}

TEST(LatticeOracle, PrefixCollectedComputation) {
  // The lattice of a trimmed computation starts at the trim cut; the box
  // starts there too.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    GenOptions opt;
    opt.num_procs = 3;
    opt.events_per_proc = 6;
    opt.seed = seed + 40;
    const Computation ref = generate_random(opt);
    // Keep from the cut of the first third of the linearization.
    const auto& lin = ref.linearization();
    Cut keep = ref.initial_cut();
    for (std::size_t k = 0; k < lin.size() / 3; ++k)
      ++keep[static_cast<std::size_t>(lin[k].proc)];
    OnlineAppender app(ref.num_procs());
    replay_initial(ref, app);
    replay_events(ref, lin, app, [](EventId) {});
    ASSERT_GT(app.collect_prefix(keep), 0);
    const Computation c = std::move(app).build();
    ASSERT_EQ(c.trim_cut(), keep);
    expect_lattice_matches_oracle(c);
  }
}

TEST(LatticeOracle, KeysWiderThanOneWord) {
  // A 20-process token chain: each process receives the token, runs six
  // internal events and passes it on; process 0 also receives it back.
  // Counters up to 9 take four bits each, 80 bits in all, yet the lattice
  // is a short chain widened only by process 19's three idle events.
  constexpr ProcId kProcs = 20;
  ComputationBuilder b(kProcs);
  MsgId token = kNoMsg;
  for (ProcId i = 0; i < kProcs; ++i) {
    if (i > 0) b.receive(i, token);
    for (int k = 0; k < 6; ++k) b.internal(i);
    if (i == kProcs - 1)
      for (int k = 0; k < 3; ++k) b.internal(i);
    token = b.send(i, (i + 1) % kProcs);
  }
  b.receive(0, token);
  const Computation c = std::move(b).build();
  ASSERT_GT(CutPacker(c).words(), 1u);
  expect_lattice_matches_oracle(c);
  expect_dfs_witnesses(c);
}

TEST(LatticeOracle, EventlessProcess) {
  // Process 1 has no events: its field has zero width in the packed key.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    GenOptions opt;
    opt.num_procs = 3;
    opt.events_per_proc = 4;
    opt.seed = seed + 80;
    const Computation ref = generate_random(opt);
    // Replay ref's processes 0, 1, 2 as 0, 2, 3 of a four-process run.
    ComputationBuilder b(4);
    const auto to = [](ProcId i) { return i == 0 ? 0 : i + 1; };
    std::map<MsgId, MsgId> sent;  // ref's message id -> b's
    for (const EventId& e : ref.linearization()) {
      const EventView ev = ref.event_view(e);
      if (ev.kind == EventKind::kSend)
        sent[ev.msg] = b.send(to(e.proc), to(ev.peer));
      else if (ev.kind == EventKind::kReceive)
        b.receive(to(e.proc), sent.at(ev.msg));
      else
        b.internal(to(e.proc));
    }
    const Computation c = std::move(b).build();
    ASSERT_EQ(c.num_events(1), 0);
    expect_lattice_matches_oracle(c);
    expect_dfs_witnesses(c);
  }
}

// ---- Irreducibles: the heart of Algorithm A2 -------------------------------

class IrreducibleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IrreducibleProperty, DirectExtractionMatchesCoverDegree) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.p_send = 0.3;
  opt.seed = GetParam();
  Computation c = generate_random(opt);
  Lattice lat = Lattice::build(c);

  // Cover-degree definition on the explicit lattice.
  auto as_cut_set = [&](const std::vector<NodeId>& nodes) {
    std::set<std::vector<std::int32_t>> s;
    for (NodeId v : nodes) s.insert(lat.cut(v).raw());
    return s;
  };
  auto as_raw_set = [&](const std::vector<Cut>& cuts) {
    std::set<std::vector<std::int32_t>> s;
    for (const Cut& g : cuts) s.insert(g.raw());
    return s;
  };

  EXPECT_EQ(as_cut_set(meet_irreducibles(lat)),
            as_raw_set(meet_irreducible_cuts(c)));
  EXPECT_EQ(as_cut_set(join_irreducibles(lat)),
            as_raw_set(join_irreducible_cuts(c)));

  // |M(L)| == |E| (events and meet-irreducibles are in bijection).
  EXPECT_EQ(meet_irreducible_cuts(c).size(),
            static_cast<std::size_t>(c.total_events()));
  EXPECT_EQ(as_raw_set(meet_irreducible_cuts(c)).size(),
            static_cast<std::size_t>(c.total_events()));
}

TEST_P(IrreducibleProperty, BirkhoffReconstructionIsIdentity) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.seed = GetParam() + 1000;
  Computation c = generate_random(opt);
  Lattice lat = Lattice::build(c);
  const Cut final = c.final_cut();
  for (NodeId v = 0; v < lat.size(); ++v) {
    const Cut& g = lat.cut(v);
    // Corollary 4: g = meet of the meet-irreducibles above it (except the
    // final cut, whose meet over the empty set is the top itself).
    EXPECT_EQ(birkhoff_meet_reconstruction(c, g), g);
    // Dually with join-irreducibles (except the initial cut).
    EXPECT_EQ(birkhoff_join_reconstruction(c, g), g);
    (void)final;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrreducibleProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- Path counting ----------------------------------------------------------

TEST(PathCount, GridChainCountIsMultinomial) {
  // 2 processes with a and b events: C(a+b, a) maximal chains.
  Computation c = generate_independent(2, 4);
  Lattice lat = Lattice::build(c);
  bool fits = false;
  EXPECT_EQ(count_maximal_chains(lat).to_u64(&fits), binom(8, 4));
  EXPECT_TRUE(fits);
}

TEST(PathCount, ChainHasExactlyOnePath) {
  Computation c = generate_chain(4, 2);
  Lattice lat = Lattice::build(c);
  EXPECT_EQ(count_maximal_chains(lat).to_string(), "1");
}

TEST(PathCount, ThreeProcGridMultinomial) {
  Computation c = generate_independent(3, 2);
  Lattice lat = Lattice::build(c);
  // 6! / (2! 2! 2!) = 90.
  bool fits = false;
  EXPECT_EQ(count_maximal_chains(lat).to_u64(&fits), 90u);
}

TEST(PathCount, EuWitnessCountingRespectsPredicates) {
  // 2x2 grid; p blocks the cut <2,0>; q holds at <2,1> only.
  Computation c = generate_independent(2, 2);
  Lattice lat = Lattice::build(c);
  auto p_ok = [&](NodeId v) { return !(lat.cut(v) == Cut({2, 0})); };
  auto q_ok = [&](NodeId v) { return lat.cut(v) == Cut({2, 1}); };
  const NodeId target = lat.node_of(Cut({2, 1}));
  BigUint at_target;
  BigUint total = count_eu_witnesses(lat, p_ok, q_ok, target, &at_target);
  // Paths to <2,1> avoiding <2,0> as an interior cut: sequences of R/U moves
  // RRU, RUR, URR minus those passing through <2,0> interior (RRU) = 2.
  EXPECT_EQ(total.to_string(), "2");
  EXPECT_EQ(at_target.to_string(), "2");
}

}  // namespace
}  // namespace hbct
