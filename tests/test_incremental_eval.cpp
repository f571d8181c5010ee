// Differential suite for incremental (cursor) evaluation.
//
// The EvalCursor protocol promises bit-identical truth values to scratch
// eval() at every consistent cut, for every predicate class, under
// arbitrary advance/retreat/seek stepping. The detectors additionally
// promise identical verdicts, witnesses and DetectStats whether their
// CountingEval runs on a structured cursor or on the scratch fallback
// (forced here by a forwarding predicate that keeps the base
// make_cursor), including at budget-trip points. Both promises are checked
// here over many seeds and every simulator workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "detect/ag_linear.h"
#include "detect/conjunctive_gw.h"
#include "detect/ef_linear.h"
#include "detect/eg_linear.h"
#include "detect/stable_oi.h"
#include "detect/until.h"
#include "online/monitor.h"
#include "poset/generate.h"
#include "poset/replay.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/relational.h"
#include "sim/workloads.h"
#include "util/rng.h"

namespace hbct {
namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

constexpr std::size_t kNumWorkloads = 7;

/// One computation per (workload kind, seed): the two random-poset shapes
/// plus five simulator protocols, so cursors see barrier convoys, channel
/// traffic, token chains and unstructured mixes alike.
Computation workload_comp(std::size_t kind, std::uint64_t seed) {
  switch (kind % kNumWorkloads) {
    case 0:
    case 1: {
      GenOptions opt;
      opt.num_procs = kind == 0 ? 3 : 5;
      opt.events_per_proc = kind == 0 ? 6 : 4;
      opt.num_vars = 2;
      opt.p_send = 0.3;
      opt.p_recv = 0.35;
      opt.value_lo = 0;
      opt.value_hi = 5;
      opt.seed = seed;
      return generate_random(opt);
    }
    case 2: {
      sim::SimOptions o;
      o.seed = seed;
      return std::move(sim::make_random_mixer(3, 8, 2, 0.4)).run(o);
    }
    case 3: {
      sim::SimOptions o;
      o.seed = seed;
      return std::move(sim::make_token_mutex(3, 2, false)).run(o);
    }
    case 4: {
      sim::SimOptions o;
      o.seed = seed;
      return std::move(sim::make_producer_consumer(5, 2)).run(o);
    }
    case 5: {
      sim::SimOptions o;
      o.seed = seed;
      return std::move(sim::make_barrier(3, 2)).run(o);
    }
    default: {
      sim::SimOptions o;
      o.seed = seed;
      return std::move(sim::make_alternating_bit(4, 0.3)).run(o);
    }
  }
}

/// Every predicate class with a cursor specialization, plus the opaque
/// fallbacks, built against the computation's own variables so the sim
/// workloads are exercised with live timelines.
std::vector<PredicatePtr> predicate_battery(const Computation& c, Rng& rng) {
  const std::int32_t n = c.num_procs();
  const std::string va = c.var_name(0);
  const std::string vb = c.var_name(c.num_vars() > 1 ? 1 : 0);
  const ProcId p0 = 0;
  const ProcId p1 = n > 1 ? 1 : 0;
  const ProcId pl = n - 1;

  std::vector<PredicatePtr> out;
  // Locals: structured comparisons, position progress, constants, and an
  // opaque truth table (std::function fallback inside LocalCursor).
  out.push_back(var_cmp(p0, va, Cmp::kGe, 1));
  out.push_back(var_cmp(pl, vb, Cmp::kLe, 2));
  out.push_back(pos_cmp(p1, Cmp::kLt, 3));
  out.push_back(progress_ge(p0, 2));
  out.push_back(local_const(p1, rng.next_bool()));
  {
    std::vector<bool> truth;
    for (EventIndex k = 0; k <= c.num_events(p0); ++k)
      truth.push_back(rng.next_bool());
    out.push_back(local_table(p0, std::move(truth), "random-table"));
  }
  // Conjunctive / disjunctive over every process.
  {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < n; ++i) ls.push_back(var_cmp(i, va, Cmp::kLe, 3));
    out.push_back(make_conjunctive(std::move(ls)));
  }
  {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < n; ++i) ls.push_back(var_cmp(i, vb, Cmp::kGe, 2));
    out.push_back(make_disjunctive(std::move(ls)));
  }
  // Boolean junctions (JunctionCursor / NotCursor over child cursors).
  out.push_back(make_and(var_cmp(p0, va, Cmp::kGe, 1),
                         channel_bound_le(p0, p1, 2)));
  out.push_back(make_or(make_not(var_cmp(pl, va, Cmp::kGe, 2)),
                        pos_cmp(p0, Cmp::kGe, 1)));
  // Relational sums and differences.
  out.push_back(sum_le({{p0, va}, {pl, vb}}, 4));
  out.push_back(sum_ge({{p0, va}, {p1, va}}, 2));
  out.push_back(diff_le({p0, va}, {pl, vb}, 1));
  // Channels.
  out.push_back(channel_bound_le(p0, p1, 1));
  out.push_back(channel_bound_ge(p1, p0, 1));
  out.push_back(all_channels_empty());
  // Opaque cut predicate: exercises the ScratchEvalCursor fallback.
  out.push_back(make_asserted(
      [](const Computation&, const Cut& g) { return g.total() % 3 != 1; },
      kClassObserverIndependent, "total-mod-gadget"));
  return out;
}

/// Random consistent walk over the cut lattice with single-component
/// advances/retreats and occasional multi-component J(e)-join seeks (the
/// A2-style jump, transiently inconsistent mid-seek). At every rest point
/// each cursor must agree with a scratch eval().
TEST(IncrementalEval, CursorMatchesScratchOnRandomWalks) {
  for (std::uint64_t seed = 1; seed <= 41; ++seed) {
    for (std::size_t kind = 0; kind < kNumWorkloads; ++kind) {
      const Computation c = workload_comp(kind, seed);
      const std::size_t n = sz(c.num_procs());
      Rng rng(seed * 1000 + kind);
      const std::vector<PredicatePtr> preds = predicate_battery(c, rng);

      Cut g = c.initial_cut();
      std::vector<EvalCursorPtr> cursors;
      for (const auto& p : preds) cursors.push_back(p->make_cursor(c, g));

      auto check_all = [&]() {
        ASSERT_TRUE(c.is_consistent(g));
        for (std::size_t k = 0; k < preds.size(); ++k)
          ASSERT_EQ(cursors[k]->value(), preds[k]->eval(c, g))
              << "seed=" << seed << " kind=" << kind << " pred "
              << preds[k]->describe() << " at cut " << g.to_string();
      };
      check_all();

      std::vector<ProcId> procs;
      Cut target = g;
      for (int step = 0; step < 220; ++step) {
        const std::uint64_t roll = rng.next_below(10);
        if (roll < 1) {
          // Seek to join(g, J(e)) for a random event e: a multi-component
          // jump during which the cut is transiently inconsistent.
          const ProcId i = static_cast<ProcId>(rng.next_below(c.num_procs()));
          if (c.num_events(i) == 0) continue;
          const EventIndex k = static_cast<EventIndex>(
              1 + rng.next_below(static_cast<std::uint64_t>(c.num_events(i))));
          c.join_irreducible_of(i, k, &target);
          for (std::size_t j = 0; j < n; ++j) {
            if (target[j] <= g[j]) continue;
            const EventIndex old = g[j];
            g[j] = target[j];
            for (auto& cur : cursors)
              cur->on_update(static_cast<ProcId>(j), old);
          }
        } else if (roll < 6) {
          c.enabled_procs(g, &procs);
          if (procs.empty()) continue;
          const std::size_t j = sz(procs[rng.next_below(procs.size())]);
          const EventIndex old = g[j]++;
          for (auto& cur : cursors)
            cur->on_update(static_cast<ProcId>(j), old);
        } else {
          c.frontier_procs(g, &procs);
          if (procs.empty()) continue;
          const std::size_t j = sz(procs[rng.next_below(procs.size())]);
          const EventIndex old = g[j]--;
          for (auto& cur : cursors)
            cur->on_update(static_cast<ProcId>(j), old);
        }
        check_all();
      }
    }
  }
}

/// Forwards every Predicate virtual except make_cursor to `inner`, so
/// detectors evaluating it get the base class's scratch cursor: the same
/// walk, with every evaluation re-run from scratch.
class ScratchOnly final : public Predicate {
 public:
  explicit ScratchOnly(const Predicate& inner) : inner_(inner) {}
  bool eval(const Computation& c, const Cut& g) const override {
    return inner_.eval(c, g);
  }
  ClassSet classes(const Computation& c) const override {
    return inner_.classes(c);
  }
  std::string describe() const override { return inner_.describe(); }
  ProcId forbidden(const Computation& c, const Cut& g) const override {
    return inner_.forbidden(c, g);
  }
  ProcId forbidden_down(const Computation& c, const Cut& g) const override {
    return inner_.forbidden_down(c, g);
  }
  bool has_forbidden() const override { return inner_.has_forbidden(); }
  bool has_forbidden_down() const override {
    return inner_.has_forbidden_down();
  }
  bool classes_asserted() const override {
    return inner_.classes_asserted();
  }
  PredicatePtr negate() const override { return inner_.negate(); }
  std::optional<bool> as_constant() const override {
    return inner_.as_constant();
  }
  std::vector<PredicatePtr> disjuncts() const override {
    return inner_.disjuncts();
  }
  std::vector<PredicatePtr> conjuncts() const override {
    return inner_.conjuncts();
  }

 private:
  const Predicate& inner_;
};

/// The predicate operands of one parity comparison.
struct ParityOperands {
  const Predicate& conj;
  const Predicate& lin;
  const Predicate& chan;
};

void expect_same_result(const DetectResult& a, const DetectResult& b,
                        const char* what) {
  EXPECT_EQ(a.verdict, b.verdict) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.algorithm, b.algorithm) << what;
  EXPECT_EQ(a.witness_cut.has_value(), b.witness_cut.has_value()) << what;
  if (a.witness_cut && b.witness_cut)
    EXPECT_EQ(*a.witness_cut, *b.witness_cut) << what;
  EXPECT_EQ(a.witness_path, b.witness_path) << what;
  EXPECT_EQ(a.stats.predicate_evals, b.stats.predicate_evals) << what;
  EXPECT_EQ(a.stats.cut_steps, b.stats.cut_steps) << what;
}

class CursorModeParity : public ::testing::TestWithParam<std::uint64_t> {};

/// Every cursor-backed detector must be bit-identical to its scratch-backed
/// self: verdict, witness cut and path, evals and steps.
TEST_P(CursorModeParity, DetectorsMatchScratchMode) {
  const std::uint64_t seed = GetParam();
  std::uint64_t cursor_evals = 0;  // the cursor side must really use cursors
  for (std::size_t kind = 0; kind < kNumWorkloads; ++kind) {
    const Computation c = workload_comp(kind, seed);
    const std::int32_t n = c.num_procs();
    const std::string va = c.var_name(0);

    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < n; ++i) ls.push_back(var_cmp(i, va, Cmp::kLe, 3));
    const auto conj = make_conjunctive(std::move(ls));
    const PredicatePtr chan = channel_bound_le(0, n > 1 ? 1 : 0, 1);
    const PredicatePtr lin = make_and(PredicatePtr(conj), chan);
    const ParityOperands cursor{*conj, *lin, *chan};
    const ScratchOnly s_conj(*conj), s_lin(*lin), s_chan(*chan);
    const ParityOperands scratch{s_conj, s_lin, s_chan};

    auto compare = [&](const char* what, auto&& run) {
      const DetectResult inc = run(cursor);
      const DetectResult scr = run(scratch);
      expect_same_result(inc, scr, what);
      // The mode counters partition the evals of the walking detectors.
      EXPECT_EQ(inc.stats.eval_incremental + inc.stats.eval_fallback,
                inc.stats.predicate_evals)
          << what;
      EXPECT_EQ(scr.stats.eval_incremental, 0u) << what;
      cursor_evals += inc.stats.eval_incremental;
    };

    compare("eg-linear",
            [&](const ParityOperands& o) { return detect_eg_linear(c, o.lin); });
    compare("eg-linear-randomized", [&](const ParityOperands& o) {
      return detect_eg_linear_randomized(c, o.lin, seed);
    });
    compare("eg-post-linear", [&](const ParityOperands& o) {
      return detect_eg_post_linear(c, o.lin);
    });
    compare("ag-linear",
            [&](const ParityOperands& o) { return detect_ag_linear(c, o.lin); });
    compare("ag-post-linear", [&](const ParityOperands& o) {
      return detect_ag_post_linear(c, o.lin);
    });
    compare("ef-linear", [&](const ParityOperands& o) {
      return detect_ef_linear(c, o.conj);
    });
    compare("ef-post-linear", [&](const ParityOperands& o) {
      return detect_ef_post_linear(c, o.conj);
    });
    compare("ef-oi", [&](const ParityOperands& o) {
      return detect_ef_observer_independent(c, o.lin);
    });
    compare("eu",
            [&](const ParityOperands& o) { return detect_eu(c, *conj, o.chan); });

    // Budget-trip parity: the work budget must trip at the same point with
    // the same three-valued outcome in both modes.
    for (const std::uint64_t work : {3u, 9u, 27u}) {
      Budget b;
      b.max_work = work;
      compare("eg-linear (budget)", [&](const ParityOperands& o) {
        return detect_eg_linear(c, o.lin, b);
      });
      compare("ag-linear (budget)", [&](const ParityOperands& o) {
        return detect_ag_linear(c, o.lin, b);
      });
      compare("ef-linear (budget)", [&](const ParityOperands& o) {
        return detect_ef_linear(c, o.conj, b);
      });
      compare("eu (budget)", [&](const ParityOperands& o) {
        return detect_eu(c, *conj, o.chan, b);
      });
    }
  }
  EXPECT_GT(cursor_evals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorModeParity,
                         ::testing::Range<std::uint64_t>(1, 42));

/// detect_eg_conjunctive_within must be indistinguishable from running
/// detect_eg_conjunctive on the materialized prefix computation.
TEST(IncrementalEval, EgConjunctiveWithinMatchesPrefix) {
  for (std::uint64_t seed = 1; seed <= 41; ++seed) {
    const Computation c = workload_comp(seed % kNumWorkloads, seed);
    Rng rng(seed);
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < c.num_procs(); ++i)
      ls.push_back(var_cmp(i, c.var_name(0), Cmp::kLe, 3));
    const auto p = make_conjunctive(std::move(ls));

    // A random consistent prefix cut, reached by a short advance walk.
    Cut k = c.initial_cut();
    std::vector<ProcId> en;
    for (int step = 0; step < 10; ++step) {
      c.enabled_procs(k, &en);
      if (en.empty()) break;
      ++k[sz(en[rng.next_below(en.size())])];
    }

    const DetectResult fast = detect_eg_conjunctive_within(c, *p, k);
    const DetectResult slow = detect_eg_conjunctive(c.prefix(k), *p);
    expect_same_result(fast, slow, "eg-within");
  }
}

/// After prefix GC the timelines start at each process's trim offset: a
/// cursor bound at any resident consistent cut, or stepped there from the
/// trim cut, must still agree with a scratch eval().
TEST(IncrementalEval, CursorMatchesScratchOnPrefixCollectedComputation) {
  std::uint64_t checked = 0;  // cursor/scratch comparisons on trimmed runs
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::size_t kind = 0; kind < kNumWorkloads; ++kind) {
      const Computation ref = workload_comp(kind, seed);
      OnlineMonitor m(ref.num_procs());
      replay_initial(ref, m);
      m.watch_stable(make_false());  // pins nothing
      // Collect halfway through the stream, so the rest stays resident.
      std::int64_t seen = 0;
      std::int64_t reclaimed = 0;
      replay_events(ref, ref.linearization(), m, [&](EventId) {
        if (++seen == ref.total_events() / 2) reclaimed = m.collect_prefix();
      });
      if (reclaimed == 0) continue;
      const Computation& c = m.computation();
      const std::size_t n = sz(c.num_procs());
      Rng rng(seed * 1000 + kind);
      const std::vector<PredicatePtr> preds = predicate_battery(c, rng);
      const std::string where =
          "seed=" + std::to_string(seed) + " kind=" + std::to_string(kind);

      // Every resident consistent cut, each with freshly bound cursors.
      std::uint64_t cuts = 1;
      for (ProcId i = 0; i < c.num_procs(); ++i)
        cuts *= static_cast<std::uint64_t>(c.num_events(i) - c.trimmed(i) + 1);
      if (cuts <= 20000) {
        Cut g = c.trim_cut();
        for (bool more = true; more;) {
          if (c.is_consistent(g))
            for (const PredicatePtr& p : preds) {
              ASSERT_EQ(p->make_cursor(c, g)->value(), p->eval(c, g))
                  << where << " pred " << p->describe() << " at "
                  << g.to_string();
              ++checked;
            }
          more = false;
          for (std::size_t j = 0; j < n && !more; ++j) {
            if (g[j] < c.num_events(static_cast<ProcId>(j))) {
              ++g[j];
              more = true;
            } else {
              g[j] = c.trimmed(static_cast<ProcId>(j));
            }
          }
        }
      }

      // A walk from the trim cut, never retreating below it.
      Cut g = c.trim_cut();
      std::vector<EvalCursorPtr> cursors;
      for (const PredicatePtr& p : preds) cursors.push_back(p->make_cursor(c, g));
      std::vector<ProcId> procs;
      for (int step = 0; step < 120; ++step) {
        std::size_t j = n;
        if (rng.next_below(3) != 0) {
          c.enabled_procs(g, &procs);
          if (procs.empty()) continue;
          j = sz(procs[rng.next_below(procs.size())]);
          const EventIndex old = g[j]++;
          for (auto& cur : cursors) cur->on_update(static_cast<ProcId>(j), old);
        } else {
          c.frontier_procs(g, &procs);
          std::erase_if(procs,
                        [&](ProcId i) { return g[sz(i)] <= c.trimmed(i); });
          if (procs.empty()) continue;
          j = sz(procs[rng.next_below(procs.size())]);
          const EventIndex old = g[j]--;
          for (auto& cur : cursors) cur->on_update(static_cast<ProcId>(j), old);
        }
        ASSERT_TRUE(c.is_consistent(g)) << where;
        for (std::size_t k = 0; k < preds.size(); ++k)
          ASSERT_EQ(cursors[k]->value(), preds[k]->eval(c, g))
              << where << " pred " << preds[k]->describe() << " at "
              << g.to_string();
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no workload was prefix-collected";
}

/// S1: the fused single-pass VClock comparison keeps the exact trichotomy —
/// for two distinct events exactly one of before / after / concurrent, and
/// before() agrees with the two-pass leq definition.
TEST(IncrementalEval, VectorClockTrichotomy) {
  for (std::uint64_t seed = 1; seed <= 41; ++seed) {
    const Computation c = workload_comp(seed % kNumWorkloads, seed);
    for (ProcId i = 0; i < c.num_procs(); ++i) {
      for (EventIndex k = 1; k <= c.num_events(i); ++k) {
        const VClockView a = c.vclock(i, k);
        EXPECT_FALSE(a.before(a));
        EXPECT_FALSE(a.concurrent(a));
        EXPECT_TRUE(a.leq(a));
        for (ProcId j = 0; j < c.num_procs(); ++j) {
          for (EventIndex l = 1; l <= c.num_events(j); ++l) {
            if (i == j && k == l) continue;
            const VClockView b = c.vclock(j, l);
            const int relations = static_cast<int>(a.before(b)) +
                                  static_cast<int>(b.before(a)) +
                                  static_cast<int>(a.concurrent(b));
            EXPECT_EQ(relations, 1)
                << "P" << i << "#" << k << " vs P" << j << "#" << l;
            EXPECT_EQ(a.before(b), a.leq(b) && !b.leq(a));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbct
