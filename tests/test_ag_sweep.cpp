// The A2 irreducible sweeps read only what their predicate reads.
//
// Predicate::support(c) names the processes whose cut components eval()
// and the cursor's value() read; detect_ag_linear / detect_ag_post_linear
// move only those components and re-read a clock row only where the
// irreducible can change outside the swept process (after a send for
// M(e), at a receive for J(e)). Two promises are checked here:
//
//   * PredicateSupport: for every predicate maker, moving the components
//     outside support(c) never changes eval() or the cursor's value();
//   * AgSweep: both sweeps report the verdict, witness, DetectStats and
//     budget trip points of the full-row loop they replace (kept below as
//     a test-local reference), visit exactly the irreducibles' projections
//     on the support, and agree with the explicit lattice where it is
//     small enough to build.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ctl/compile.h"
#include "ctl/parser.h"
#include "detect/ag_linear.h"
#include "detect/brute_force.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/equilevel.h"
#include "predicate/relational.h"
#include "util/rng.h"

namespace hbct {
namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

std::vector<ProcId> all_procs(const Computation& c) {
  std::vector<ProcId> all;
  for (ProcId i = 0; i < c.num_procs(); ++i) all.push_back(i);
  return all;
}

/// Random computations of the shapes the sweep must handle: unmatched
/// sends (messages still in transit at the final cut), non-FIFO delivery,
/// n = 1, and eventless processes (a prefix that keeps no event of some
/// process).
Computation sweep_comp(std::uint64_t seed) {
  Rng rng(seed);
  GenOptions opt;
  opt.num_procs = static_cast<std::int32_t>(rng.next_in(1, 5));
  opt.events_per_proc = static_cast<std::int32_t>(rng.next_in(0, 6));
  opt.num_vars = 2;
  opt.p_send = 0.35;
  opt.p_recv = 0.3;
  opt.value_lo = 0;
  opt.value_hi = 4;
  opt.fifo = rng.next_bool();
  opt.seed = seed;
  Computation c = generate_random(opt);
  if (c.num_procs() < 2 || seed % 3 != 0) return c;
  // Drop every event of the last process, keeping the cut consistent by
  // retreating whatever depended on it.
  Cut k = c.final_cut();
  k[sz(c.num_procs() - 1)] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (ProcId i = 0; i < c.num_procs(); ++i)
      while (k[sz(i)] > 0) {
        const VClockView vc = c.vclock(i, k[sz(i)]);
        bool ok = true;
        for (ProcId j = 0; j < c.num_procs(); ++j)
          ok = ok && vc[sz(j)] <= k[sz(j)];
        if (ok) break;
        --k[sz(i)];
        changed = true;
      }
  }
  return c.prefix(k);
}

PredicatePtr compile_text(const char* text) {
  auto parsed = ctl::parse_query(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  auto compiled = ctl::compile_state(parsed.query.p);
  EXPECT_TRUE(compiled.ok) << compiled.error;
  return compiled.pred;
}

/// A predicate with its support stated up front, for checking that support
/// is what each maker claims.
struct Case {
  PredicatePtr p;
  std::vector<ProcId> support;
};

/// Every predicate maker, on processes 0, mid and last of c.
std::vector<Case> maker_battery(const Computation& c) {
  const ProcId n = c.num_procs();
  const ProcId lo = 0, mid = n / 2, hi = n - 1;
  const auto S = [](std::vector<ProcId> v) { return make_support(v); };
  std::vector<Case> out;
  out.push_back({var_cmp(mid, "v0", Cmp::kLe, 2), {mid}});
  out.push_back({pos_cmp(hi, Cmp::kGe, 2), {hi}});
  out.push_back({progress_ge(lo, 1), {lo}});
  out.push_back({local_const(mid, true), {mid}});
  out.push_back({local_table(hi,
                             std::vector<bool>(sz(c.num_events(hi)) + 1, true),
                             "table"),
                 {hi}});
  out.push_back({sum_le({{lo, "v0"}, {hi, "v1"}}, 4), S({lo, hi})});
  out.push_back({sum_le({{hi, "v0"}, {mid, "v1"}, {hi, "v1"}}, 5),
                 S({mid, hi})});
  out.push_back({sum_ge({{mid, "v0"}, {lo, "v1"}}, 3), S({lo, mid})});
  out.push_back({diff_le({hi, "v0"}, {lo, "v0"}, 1), S({lo, hi})});
  out.push_back({channel_bound_le(lo, hi, 1), S({lo, hi})});
  out.push_back({channel_bound_ge(hi, mid, 1), S({mid, hi})});
  out.push_back({channel_empty(mid, lo), S({lo, mid})});
  out.push_back({make_conjunctive({var_cmp(hi, "v0", Cmp::kLe, 3),
                                   var_cmp(lo, "v1", Cmp::kGe, 1)}),
                 S({lo, hi})});
  out.push_back({make_disjunctive({var_cmp(mid, "v0", Cmp::kEq, 2),
                                   pos_cmp(hi, Cmp::kLt, 2)}),
                 S({mid, hi})});
  out.push_back({make_and(sum_le({{mid, "v0"}}, 2),
                          channel_bound_le(hi, lo, 0)),
                 S({lo, mid, hi})});
  out.push_back({make_or(diff_le({lo, "v0"}, {mid, "v1"}, 0),
                         channel_bound_ge(lo, hi, 1)),
                 S({lo, mid, hi})});
  out.push_back({make_not(sum_ge({{hi, "v1"}}, 2)), {hi}});
  out.push_back({make_refined(diff_le({mid, "v1"}, {hi, "v0"}, 2),
                              kClassStable),
                 S({mid, hi})});
  out.push_back({make_true(), {}});
  out.push_back({make_false(), {}});
  // Whole-cut readers keep every process.
  out.push_back({make_equilevel(var_cmp(lo, "v0", Cmp::kGe, 0)), all_procs(c)});
  out.push_back({make_asserted(
                     [lo](const Computation&, const Cut& g) {
                       return g[sz(lo)] % 2 == 0;
                     },
                     kClassLinear, "asserted"),
                 all_procs(c)});
  out.push_back({compile_text("v0@P0 + pos(0) - v1@P0 <= 3"), all_procs(c)});
  out.push_back({make_terminated(), all_procs(c)});
  out.push_back({all_channels_empty(), all_procs(c)});
  return out;
}

TEST(PredicateSupport, EvalIgnoresComponentsOutsideSupport) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Computation c = sweep_comp(seed);
    LatticeChecker lc(c);
    Rng rng(seed * 7919);
    for (const Case& k : maker_battery(c)) {
      const std::vector<ProcId> s = k.p->support(c);
      ASSERT_EQ(s, k.support) << k.p->describe() << " seed " << seed;
      std::vector<char> in(sz(c.num_procs()), 0);
      for (const ProcId j : s) in[sz(j)] = 1;
      const std::size_t nodes = lc.lattice().size();
      for (std::size_t v = 0; v < nodes; v += 1 + nodes / 12) {
        const Cut g = lc.lattice().cut(static_cast<std::int32_t>(v));
        const bool want = k.p->eval(c, g);
        // `quiet` is moved without cursor updates (the A2 sweep's usage);
        // `told` hears every move.
        Cut quiet = g, told = g;
        EvalCursorPtr qc = k.p->make_cursor(c, quiet);
        EvalCursorPtr tc = k.p->make_cursor(c, told);
        ASSERT_EQ(qc->value(), want) << k.p->describe();
        for (int round = 0; round < 4; ++round) {
          for (ProcId j = 0; j < c.num_procs(); ++j) {
            if (in[sz(j)]) continue;
            const auto pos = static_cast<EventIndex>(
                rng.next_in(0, c.num_events(j)));
            quiet[sz(j)] = pos;
            const EventIndex old = told[sz(j)];
            told[sz(j)] = pos;
            tc->on_update(j, old);
          }
          EXPECT_EQ(k.p->eval(c, quiet), want)
              << k.p->describe() << " seed " << seed;
          EXPECT_EQ(qc->value(), want) << k.p->describe() << " seed " << seed;
          EXPECT_EQ(tc->value(), want) << k.p->describe() << " seed " << seed;
        }
      }
    }
  }
}

// ---- The full-row reference ---------------------------------------------

/// The A2 loop before the support sweep: every irreducible is built in full
/// from its clock row and every component of the bound cut is moved to it.
DetectResult full_row_reference(const Computation& c, const Predicate& p,
                                const Budget& budget, bool meet) {
  DetectResult r;
  r.algorithm = meet ? "A2-ag-linear" : "A2-ag-post-linear";
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  if (!t.ok()) return mark_bounded(r, t);
  Cut w = meet ? c.final_cut() : c.initial_cut();
  eval.bind(w);
  if (!eval.at()) {
    if (t.exceeded()) return mark_bounded(r, t);
    r.witness_cut = w;
    return r;
  }
  Cut m = w;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      if (meet)
        c.meet_irreducible_of(i, k, &m);
      else
        c.join_irreducible_of(i, k, &m);
      ++r.stats.cut_steps;
      for (std::size_t j = 0; j < m.size(); ++j) eval.move_to(w, j, m[j]);
      if (!eval.at()) {
        if (t.exceeded()) return mark_bounded(r, t);
        r.witness_cut = w;
        return r;
      }
    }
  }
  r.verdict = Verdict::kHolds;
  return r;
}

/// Records the projection of every evaluated cut on its declared support,
/// and fails at the `fail_at`-th evaluation (never when negative).
class Probe final : public Predicate {
 public:
  Probe(std::vector<ProcId> support, int fail_at)
      : support_(std::move(support)), fail_at_(fail_at) {}
  bool eval(const Computation&, const Cut& g) const override {
    std::vector<EventIndex> proj;
    for (const ProcId j : support_) proj.push_back(g[sz(j)]);
    seen_.push_back(std::move(proj));
    return static_cast<int>(seen_.size()) - 1 != fail_at_;
  }
  ClassSet classes(const Computation&) const override { return 0; }
  std::string describe() const override { return "probe"; }
  std::vector<ProcId> support(const Computation&) const override {
    return support_;
  }
  std::vector<std::vector<EventIndex>> take() const {
    return std::exchange(seen_, {});
  }

 private:
  std::vector<ProcId> support_;
  int fail_at_;
  mutable std::vector<std::vector<EventIndex>> seen_;
};

void expect_same(const DetectResult& got, const DetectResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.verdict, want.verdict) << what;
  EXPECT_EQ(got.bound, want.bound) << what;
  EXPECT_EQ(got.algorithm, want.algorithm) << what;
  EXPECT_EQ(got.witness_cut, want.witness_cut) << what;
  EXPECT_EQ(got.stats.predicate_evals, want.stats.predicate_evals) << what;
  EXPECT_EQ(got.stats.cut_steps, want.stats.cut_steps) << what;
  EXPECT_EQ(got.stats.eval_incremental, want.stats.eval_incremental) << what;
  EXPECT_EQ(got.stats.eval_fallback, want.stats.eval_fallback) << what;
}

DetectResult sweep(const Computation& c, const Predicate& p,
                   const Budget& b, bool meet) {
  return meet ? detect_ag_linear(c, p, b) : detect_ag_post_linear(c, p, b);
}

/// Linear (and post-linear) predicates with small and with full support.
std::vector<PredicatePtr> sweep_battery(const Computation& c) {
  const ProcId n = c.num_procs();
  const ProcId hi = n - 1;
  std::vector<PredicatePtr> out;
  out.push_back(var_cmp(hi, "v0", Cmp::kLe, 2));
  out.push_back(diff_le({0, "v0"}, {hi, "v1"}, 1));
  out.push_back(sum_le({{0, "v1"}, {hi, "v0"}}, 5));
  out.push_back(sum_ge({{hi, "v1"}, {0, "v0"}}, 1));
  out.push_back(channel_bound_le(0, hi, 0));
  out.push_back(channel_bound_ge(hi, 0, 1));
  out.push_back(make_conjunctive({var_cmp(0, "v0", Cmp::kLe, 3),
                                  var_cmp(hi, "v1", Cmp::kNe, 4)}));
  std::vector<LocalPredicatePtr> every;
  for (ProcId i = 0; i < n; ++i) every.push_back(var_cmp(i, "v0", Cmp::kLe, 3));
  out.push_back(make_conjunctive(std::move(every)));
  out.push_back(all_channels_empty());
  std::vector<VarRef> terms;
  for (ProcId i = 0; i < n; ++i) terms.push_back({i, "v1"});
  out.push_back(sum_le(std::move(terms), 6));
  out.push_back(make_asserted(
      [](const Computation& cc, const Cut& g) {
        return cc.in_transit_total(g) <= 1;
      },
      kClassLinear, "asserted transit"));
  out.push_back(make_true());
  return out;
}

TEST(AgSweep, MatchesFullRowReference) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Computation c = sweep_comp(seed);
    std::optional<LatticeChecker> lc;
    if (c.total_events() <= 24) lc.emplace(c);
    for (const PredicatePtr& p : sweep_battery(c)) {
      for (const bool meet : {true, false}) {
        const std::string what = p->describe() + (meet ? " M" : " J") +
                                 " seed " + std::to_string(seed);
        const DetectResult want = full_row_reference(c, *p, {}, meet);
        const DetectResult got = sweep(c, *p, {}, meet);
        expect_same(got, want, what);
        const ClassSet need = meet ? kClassLinear : kClassPostLinear;
        if (lc && (p->classes(c) & need) == need) {
          EXPECT_EQ(got.verdict, lc->detect(Op::kAG, *p).verdict) << what;
        }
        // The budget ladder: every trip point and reason, up to the
        // unbudgeted run's whole work.
        const std::uint64_t work =
            want.stats.predicate_evals + want.stats.cut_steps;
        for (std::uint64_t w = 0; w <= work + 1; ++w) {
          Budget b;
          b.max_work = w;
          expect_same(sweep(c, *p, b, meet),
                      full_row_reference(c, *p, b, meet),
                      what + " max_work " + std::to_string(w));
        }
      }
    }
  }
}

TEST(AgSweep, VisitsEveryIrreducibleOnTheSupport) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Computation c = sweep_comp(seed);
    const ProcId n = c.num_procs();
    std::vector<std::vector<ProcId>> supports = {all_procs(c), {}, {n - 1}};
    if (n > 2) supports.push_back({0, n - 1});
    for (const auto& s : supports) {
      for (const bool meet : {true, false}) {
        const std::string what = std::string(meet ? "M" : "J") + " seed " +
                                 std::to_string(seed) + " |S| " +
                                 std::to_string(s.size());
        // Every visited cut, projected on S, is the irreducible's.
        const Probe probe(s, -1);
        ASSERT_EQ(sweep(c, probe, {}, meet).verdict, Verdict::kHolds) << what;
        const std::vector<std::vector<EventIndex>> seen = probe.take();
        ASSERT_EQ(seen.size(), static_cast<std::size_t>(c.total_events()) + 1)
            << what;
        std::size_t at = 1;
        for (ProcId i = 0; i < n; ++i)
          for (EventIndex k = 1; k <= c.num_events(i); ++k, ++at) {
            const Cut full = meet ? c.meet_irreducible_of(i, k)
                                  : c.join_irreducible_of(i, k);
            std::vector<EventIndex> proj;
            for (const ProcId j : s) proj.push_back(full[sz(j)]);
            EXPECT_EQ(seen[at], proj) << what << " e" << i << "," << k;
          }
        // A violation at each position reports that irreducible in full.
        for (int fail = 0; fail <= static_cast<int>(c.total_events());
             fail += 1 + fail / 3) {
          const Probe failing(s, fail);
          const Probe ref(s, fail);
          expect_same(sweep(c, failing, {}, meet),
                      full_row_reference(c, ref, {}, meet),
                      what + " fail " + std::to_string(fail));
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbct
