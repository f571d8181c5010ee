// The paper's figure and complexity claims as exact operation counts.
//
// One plain pass, no Google Benchmark: every sweep point of Figs. 1-5, the
// §5 remark, the state-explosion substrate, the slicer and the design
// ablations runs once and becomes one hbct.bench/1 row. Each row carries
//
//   "counts": { "predicate_evals", "cut_steps", "lattice_nodes",
//               "events", "procs" }             // |E| and n
//   "facts":  { ... }                           // per-figure, optional
//   "sweep":  { "name", "x", "loglog_slope" }   // optional
//
// Counts are deterministic for the seeds below, so tools/check_report.py
// compares them exactly with the committed BENCH_paper.json and asserts the
// paper's bounds on them (ctest bench_paper_counts). A sweep's slope is the
// least-squares log-log slope of predicate_evals + cut_steps over "x"
// ("events" = |E| or "procs" = n), the same for every row of the sweep. The
// one `ns` sample per row is informational and never gated.
//
//   $ HBCT_BENCH_JSON=BENCH_paper.json build/bench/bench_paper
//
// Row names are <section>.<algorithm>[.<operator>] followed by the swept
// parameter first: "fig1.A1.eg.events=6144.n=6" sweeps |E| at n = 6,
// "fig1.A1.eg.n=8.events=720" sweeps n at |E| ~ 720.
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "hbct.h"

namespace hbct {
namespace {

struct Row {
  std::string name;
  std::string label;
  DetectStats st;
  std::uint64_t nodes = 0;  // explicit lattice nodes (or st.lattice_nodes)
  std::int64_t events = 0;
  std::int32_t procs = 0;
  double ns = 0;
  JsonWriter facts;  // members of the "facts" object; empty = none
  std::string sweep, sweep_x;
  double slope = 0;
};

class Paper {
 public:
  /// Runs `fn` once under the clock and appends its row: counts from the
  /// result's stats (lattice_nodes from the stats unless `nodes` is set
  /// later), |E| and n from `c`, label "<algorithm> -> <verdict>".
  Row& detect(std::string name, const Computation& c,
              const std::function<DetectResult()>& fn) {
    DetectResult r;
    const double ns = time([&] { r = fn(); });
    Row& row = add(std::move(name), c, ns);
    row.st = r.stats;
    row.nodes = r.stats.lattice_nodes;
    row.label = r.algorithm + " -> " + benchio::verdict_word(r.verdict);
    return row;
  }

  /// A row that runs no detector: counts are |E|, n and what the caller
  /// sets; `fn` is the timed work.
  Row& measure(std::string name, const Computation& c, std::string label,
               const std::function<void()>& fn) {
    Row& row = add(std::move(name), c, time(fn));
    row.label = std::move(label);
    return row;
  }

  /// Tags the rows appended since `first` as one sweep over `x` and gives
  /// each the sweep's log-log slope of predicate_evals + cut_steps.
  void sweep(std::size_t first, const std::string& name, const char* x) {
    std::vector<double> xs, ys;
    for (std::size_t k = first; k < rows_.size(); ++k) {
      const Row& r = rows_[k];
      xs.push_back(static_cast<double>(
          std::string_view(x) == "procs" ? r.procs : r.events));
      ys.push_back(static_cast<double>(r.st.predicate_evals + r.st.cut_steps));
    }
    const double slope = loglog_slope(xs, ys);
    for (std::size_t k = first; k < rows_.size(); ++k) {
      rows_[k].sweep = name;
      rows_[k].sweep_x = x;
      rows_[k].slope = slope;
    }
  }

  std::size_t size() const { return rows_.size(); }

  bool write(const std::string& path) {
    std::vector<benchio::BenchRow> out;
    out.reserve(rows_.size());
    for (Row& r : rows_) {
      benchio::BenchRow b;
      b.name = r.name;
      b.label = r.label;
      b.ns = Summary::of({r.ns});
      JsonWriter counts;
      counts.begin_object()
          .kv("predicate_evals", r.st.predicate_evals)
          .kv("cut_steps", r.st.cut_steps)
          .kv("lattice_nodes", r.nodes)
          .kv("events", r.events)
          .kv("procs", static_cast<std::int64_t>(r.procs))
          .end_object();
      b.ext.emplace_back("counts", counts.take());
      if (!r.facts.str().empty())
        b.ext.emplace_back("facts", r.facts.end_object().take());
      if (!r.sweep.empty()) {
        JsonWriter s;
        s.begin_object()
            .kv("name", r.sweep)
            .kv("x", r.sweep_x)
            .kv("loglog_slope", r.slope)
            .end_object();
        b.ext.emplace_back("sweep", s.take());
      }
      out.push_back(std::move(b));
    }
    return benchio::write_bench_json(path, "paper", out);
  }

 private:
  static double time(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  Row& add(std::string name, const Computation& c, double ns) {
    Row& row = rows_.emplace_back();
    row.name = std::move(name);
    row.events = c.total_events();
    row.procs = c.num_procs();
    row.ns = ns;
    return row;
  }

  std::vector<Row> rows_;
};

/// Opens the row's "facts" object on first use.
JsonWriter& facts(Row& row) {
  if (row.facts.str().empty()) row.facts.begin_object();
  return row.facts;
}

std::string at(std::int64_t events, std::int32_t procs) {
  return ".events=" + std::to_string(events) + ".n=" + std::to_string(procs);
}
std::string at_n(std::int32_t procs, std::int64_t events) {
  return ".n=" + std::to_string(procs) + ".events=" + std::to_string(events);
}

Computation random_comp(std::int32_t procs, std::int32_t events_per_proc,
                        std::int32_t vars, double p_send,
                        std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = procs;
  opt.events_per_proc = events_per_proc;
  opt.num_vars = vars;
  opt.p_send = p_send;
  opt.seed = seed;
  return generate_random(opt);
}

/// Satisfied at every cut (v0 stays in the generator's range, the channel
/// bound is huge) and linear but not conjunctive: A1/A2 do full walks and
/// the dispatcher cannot short-circuit through the conjunctive scans.
PredicatePtr satisfied_linear(std::int32_t procs) {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < procs; ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
  return make_and(make_conjunctive(std::move(ls)),
                  channel_bound_le(0, procs > 1 ? 1 : 0, 1 << 20));
}

ConjunctivePredicatePtr conj_le(std::int32_t procs, const char* var,
                                std::int64_t k) {
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < procs; ++i) ls.push_back(var_cmp(i, var, Cmp::kLe, k));
  return make_conjunctive(std::move(ls));
}

/// The AU identity's operands: p = some v0 <= 9, q = some v1 >= 1.
DetectResult au_disjunctive(const Computation& c) {
  std::vector<LocalPredicatePtr> ps, qs;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    ps.push_back(var_cmp(i, "v0", Cmp::kLe, 9));
    qs.push_back(var_cmp(i, "v1", Cmp::kGe, 1));
  }
  return detect_au_disjunctive(c, *make_disjunctive(std::move(ps)),
                               *make_disjunctive(std::move(qs)));
}

/// E[p U q] with p = every v0 <= 9 and q = channels empty and P`qproc` past
/// event `k`.
DetectResult eu_progress(const Computation& c, ProcId qproc, EventIndex k) {
  auto p = conj_le(c.num_procs(), "v0", 9);
  PredicatePtr q =
      make_and(all_channels_empty(), PredicatePtr(progress_ge(qproc, k)));
  return detect_eu(c, *p, *q);
}

// ---- Fig. 1: A1 and A2 against the explicit lattice ------------------------

void fig1(Paper& out) {
  for (const char* algo : {"A1.eg", "A2.ag"}) {
    const bool a1 = algo[1] == '1';
    auto run = [a1](const Computation& c) {
      const PredicatePtr p = satisfied_linear(c.num_procs());
      return a1 ? detect_eg_linear(c, *p) : detect_ag_linear(c, *p);
    };
    const std::string base = std::string("fig1.") + algo;
    std::size_t first = out.size();
    for (std::int32_t per : {16, 64, 256, 1024, 4096}) {
      const Computation c = random_comp(6, per, 1, 0.3, 11);
      out.detect(base + at(c.total_events(), 6), c, [&] { return run(c); });
    }
    out.sweep(first, base + ".events", "events");
    first = out.size();
    for (std::int32_t n : {2, 4, 6, 8, 10, 16, 24}) {
      const Computation c = random_comp(n, 720 / n, 1, 0.3, 13);
      out.detect(base + at_n(n, c.total_events()), c, [&] { return run(c); });
    }
    out.sweep(first, base + ".procs", "procs");
  }
  // The baseline: |E| stays at ~24 while the lattice grows with n.
  for (const Op op : {Op::kEG, Op::kAG}) {
    const std::string base =
        std::string("fig1.lattice.") + (op == Op::kEG ? "eg" : "ag");
    for (std::int32_t n = 2; n <= 8; ++n) {
      const Computation c = random_comp(n, 24 / n, 1, 0.3, 13);
      const PredicatePtr p = satisfied_linear(n);
      out.detect(base + at_n(n, c.total_events()), c, [&] {
        return LatticeChecker(c, 1u << 22).detect(op, *p);
      });
    }
  }
}

// ---- Fig. 2 and §5: meet-irreducibles and Birkhoff's representation --------

void fig2(Paper& out) {
  // §5: M(e) read off the reverse vector clocks, O(n|E|) in all.
  for (std::int32_t per : {16, 64, 256, 1024, 4096}) {
    const Computation c = random_comp(6, per, 2, 0.3, 22);
    std::size_t m = 0;
    Row& row = out.measure("sec5.mirr.direct" + at(c.total_events(), 6), c,
                           "reverse vector clocks",
                           [&] { m = meet_irreducible_cuts(c).size(); });
    facts(row).kv("meet_irreducibles", static_cast<std::uint64_t>(m));
  }
  // The same set by cover degree on the explicit lattice.
  for (std::int32_t n = 2; n <= 8; ++n) {
    const Computation c = random_comp(n, 24 / n, 2, 0.3, 22);
    std::size_t m = 0, nodes = 0;
    Row& row = out.measure("sec5.mirr.lattice" + at_n(n, c.total_events()),
                           c, "explicit lattice cover degree", [&] {
                             const Lattice lat = Lattice::build(c, 1u << 22);
                             nodes = lat.size();
                             m = meet_irreducibles(lat).size();
                           });
    row.nodes = nodes;
    facts(row).kv("meet_irreducibles", static_cast<std::uint64_t>(m));
  }
  // Corollary 4: every element is the meet of the meet-irreducibles above.
  for (std::int32_t n = 2; n <= 6; ++n) {
    const Computation c = random_comp(n, 18 / n, 2, 0.3, 22);
    std::uint64_t mismatches = 0;
    std::size_t nodes = 0;
    Row& row = out.measure("fig2.birkhoff" + at_n(n, c.total_events()), c,
                           "meet reconstruction of every cut", [&] {
                             const Lattice lat = Lattice::build(c, 1u << 20);
                             nodes = lat.size();
                             for (NodeId v = 0; v < lat.size(); ++v) {
                               const Cut g = lat.cut(v);
                               mismatches +=
                                   !(birkhoff_meet_reconstruction(c, g) == g);
                             }
                           });
    row.nodes = nodes;
    facts(row).kv("mismatches", mismatches);
  }
  // |M(L)| = |E| stays linear while |L| = (k+1)^n explodes: independent
  // processes, the state-explosion worst case (§1) too.
  for (std::int32_t n = 2; n <= 8; ++n) {
    const Computation c = generate_independent(n, 4);
    std::size_t m = 0, nodes = 0;
    Row& row = out.measure(
        "fig2.m_vs_l.independent.n=" + std::to_string(n) + ".k=4", c,
        "lattice build + meet-irreducibles", [&] {
          nodes = Lattice::build(c, 1u << 22).size();
          m = meet_irreducible_cuts(c).size();
        });
    row.nodes = nodes;
    facts(row).kv("meet_irreducibles", static_cast<std::uint64_t>(m));
  }
}

// ---- Fig. 3: the hardness gadgets ------------------------------------------

void fig3(Paper& out) {
  const auto name = [](const char* what, std::int32_t m) {
    return std::string("fig3.") + what + ".m=" + std::to_string(m);
  };
  for (std::int32_t m = 4; m <= 16; m += 2) {
    // x0 & !x0 padded to m variables: UNSAT, so EG must cover the whole
    // assignment hypercube.
    Cnf f;
    f.num_vars = m;
    f.clauses = {{{{0, false}}}, {{{0, true}}}};
    const Reduction r = reduce_sat_to_eg(f);
    out.detect(name("eg_oi_unsat", m), r.computation,
               [&] { return detect_eg_dfs(r.computation, *r.predicate); });
  }
  for (std::int32_t m = 4; m <= 16; m += 2) {
    // (x0) | (!x0) padded: a tautology, so AG must cover the hypercube.
    Dnf f;
    f.num_vars = m;
    f.terms = {{{{0, false}}}, {{{0, true}}}};
    const Reduction r = reduce_tautology_to_ag(f);
    out.detect(name("ag_oi_tautology", m), r.computation,
               [&] { return detect_ag_dfs(r.computation, *r.predicate); });
  }
  for (std::int32_t m = 4; m <= 14; m += 2) {
    // Random 3-SAT near the phase transition (4.26 m clauses), against
    // DPLL on the same formula.
    Rng rng(static_cast<std::uint64_t>(m) * 31 + 5);
    const Cnf f = Cnf::random(m, static_cast<std::int32_t>(m * 4.26), 3, rng);
    const Reduction r = reduce_sat_to_eg(f);
    Row& row = out.detect(name("eg_oi_random3sat", m), r.computation, [&] {
      return detect_eg_dfs(r.computation, *r.predicate);
    });
    DpllStats ds;
    const bool sat = dpll_solve(f, &ds).has_value();
    facts(row).kv("dpll_sat", sat).kv("dpll_decisions", ds.decisions);
  }
  for (std::int32_t m = 4; m <= 16; m += 2) {
    // The disjunctive subclass at the same scale stays polynomial.
    const Computation c = generate_independent(m + 1, 2);
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i <= m; ++i) ls.push_back(progress_ge(i, 0));
    const auto p = make_disjunctive(std::move(ls));
    out.detect(name("eg_disjunctive", m), c,
               [&] { return detect_eg_disjunctive(c, *p); });
  }
}

// ---- Fig. 4: the E[p U q] example, exact and scaled ------------------------

Computation fig4_computation() {
  ComputationBuilder b(3);
  VarId x = b.var("x"), z = b.var("z");
  b.set_initial(0, x, 1);
  b.set_initial(2, z, 3);
  MsgId m1 = b.send(0, 1);
  b.write(0, x, 2);
  b.internal(0);
  b.write(0, x, 3);
  MsgId m2 = b.send(1, 2);
  b.receive(1, m1);
  b.receive(2, m2);
  b.write(2, z, 6);
  return std::move(b).build();
}

void fig4(Paper& out) {
  const Computation c = fig4_computation();
  const auto p = make_conjunctive(
      {var_cmp(2, "z", Cmp::kLt, 6), var_cmp(0, "x", Cmp::kLt, 4)});
  const auto q = make_and(all_channels_empty(),
                          PredicatePtr(var_cmp(0, "x", Cmp::kGt, 1)));
  BigUint total, at_iq;
  std::size_t nodes = 0;
  Row& row = out.measure("fig4.exact", c, "witness prefixes on the lattice",
                         [&] {
                           const Lattice lat = Lattice::build(c);
                           nodes = lat.size();
                           total = count_eu_witnesses(
                               lat,
                               [&](NodeId v) { return p->eval(c, lat.cut(v)); },
                               [&](NodeId v) { return q->eval(c, lat.cut(v)); },
                               lat.node_of(Cut({1, 2, 1})), &at_iq);
                         });
  row.nodes = nodes;
  facts(row)
      .kv("witnesses", total.to_u64())
      .kv("witnesses_via_iq", at_iq.to_u64());
  std::string iq;
  Row& a3 = out.detect("fig4.A3", c, [&] {
    DetectResult r = detect_eu(c, *p, *q);
    if (r.witness_cut) iq = r.witness_cut->to_string();
    return r;
  });
  facts(a3).kv("iq", iq);

  // Fig. 4's shape scaled: 3 processes, q = channels empty and P0 halfway.
  const auto scaled_p = make_conjunctive(
      {var_cmp(0, "v0", Cmp::kLe, 9), var_cmp(2, "v1", Cmp::kLe, 9)});
  const std::size_t first = out.size();
  for (std::int32_t k : {8, 16, 64, 256, 1024, 4096, 8192}) {
    const Computation s = random_comp(3, k, 2, 0.3, 17);
    const PredicatePtr sq =
        make_and(all_channels_empty(), PredicatePtr(progress_ge(0, k / 2)));
    out.detect("fig4.A3.scaled" + at(s.total_events(), 3), s,
               [&] { return detect_eu(s, *scaled_p, *sq); });
  }
  out.sweep(first, "fig4.A3.scaled.events", "events");
  for (std::int32_t k : {8, 16, 64, 256, 512}) {
    const Computation s = random_comp(3, k, 2, 0.3, 17);
    const PredicatePtr sq =
        make_and(all_channels_empty(), PredicatePtr(progress_ge(0, k / 2)));
    out.detect("fig4.lattice.eu" + at(s.total_events(), 3), s, [&] {
      return LatticeChecker(s, 1u << 21).detect(Op::kEU, *scaled_p, sq.get());
    });
  }
}

// ---- Fig. 5 / §7: A3 and the AU identity -----------------------------------

void fig5(Paper& out) {
  std::size_t first = out.size();
  for (std::int32_t per : {16, 64, 256, 1024, 4096}) {
    const Computation c = random_comp(6, per, 2, 0.25, 5);
    out.detect("fig5.A3.eu" + at(c.total_events(), 6), c,
               [&] { return eu_progress(c, 3, per / 2); });
  }
  out.sweep(first, "fig5.A3.eu.events", "events");
  first = out.size();
  for (std::int32_t n : {2, 4, 6, 8, 10, 16, 32}) {
    const Computation c = random_comp(n, 960 / n, 2, 0.25, 7);
    out.detect("fig5.A3.eu" + at_n(n, c.total_events()), c,
               [&] { return eu_progress(c, 0, 960 / n / 2); });
  }
  out.sweep(first, "fig5.A3.eu.procs", "procs");
  first = out.size();
  for (std::int32_t per : {16, 64, 256, 1024, 4096}) {
    const Computation c = random_comp(6, per, 2, 0.25, 9);
    out.detect("fig5.AU" + at(c.total_events(), 6), c,
               [&] { return au_disjunctive(c); });
  }
  out.sweep(first, "fig5.AU.events", "events");
  first = out.size();
  for (std::int32_t n : {2, 4, 6, 8, 10, 16, 32}) {
    const Computation c = random_comp(n, 960 / n, 2, 0.25, 15);
    out.detect("fig5.AU" + at_n(n, c.total_events()), c,
               [&] { return au_disjunctive(c); });
  }
  out.sweep(first, "fig5.AU.procs", "procs");
}

// ---- The slope table: every polynomial route over |E| and over n -----------

void scaling(Paper& out) {
  using Run = DetectResult (*)(const Computation&);
  const std::pair<const char*, Run> algos[] = {
      {"CG.ef",
       [](const Computation& c) {
         // Never satisfied: Chase-Garg walks to exhaustion.
         const auto p =
             make_and(make_conjunctive({var_cmp(0, "v0", Cmp::kEq, -1)}),
                      all_channels_empty());
         return detect_ef_linear(c, *p);
       }},
      {"A1.eg",
       [](const Computation& c) {
         return detect_eg_linear(c, *satisfied_linear(c.num_procs()));
       }},
      {"A2.ag",
       [](const Computation& c) {
         return detect_ag_linear(c, *satisfied_linear(c.num_procs()));
       }},
      {"gw_strong.af",
       [](const Computation& c) {
         return detect_af_conjunctive(c, *conj_le(c.num_procs(), "v0", 4));
       }},
      {"A3.eu",
       [](const Computation& c) {
         return eu_progress(c, 0, c.num_events(0) / 2);
       }},
      {"AU", au_disjunctive},
  };
  for (const auto& [algo, run] : algos) {
    const std::string base = std::string("scaling.") + algo;
    std::size_t first = out.size();
    for (std::int32_t per : {64, 128, 256, 512, 1024, 2048}) {
      const Computation c = random_comp(6, per, 2, 0.25, 3);
      out.detect(base + at(c.total_events(), 6), c, [&] { return run(c); });
    }
    out.sweep(first, base + ".events", "events");
    first = out.size();
    for (std::int32_t n : {2, 4, 8, 16, 32}) {
      const Computation c = random_comp(n, 2048 / n, 2, 0.25, 5);
      out.detect(base + at_n(n, c.total_events()), c, [&] { return run(c); });
    }
    out.sweep(first, base + ".procs", "procs");
  }
}

// ---- State explosion (§1): |C(E)| against |E| and n ------------------------

void explosion(Paper& out) {
  // Messages prune the lattice, but growth in n stays exponential.
  for (std::int32_t n = 2; n <= 7; ++n) {
    const Computation c = random_comp(n, 6, 2, 0.3, 123);
    std::size_t nodes = 0;
    Row& row = out.measure("explosion.random" + at_n(n, c.total_events()), c,
                           "lattice build", [&] {
                             nodes = Lattice::build(c, 1u << 22).size();
                           });
    row.nodes = nodes;
  }
  // Fully sequential computations have |E| + 1 cuts.
  for (std::int32_t n = 2; n <= 9; ++n) {
    const Computation c = generate_chain(n, 6);
    std::size_t nodes = 0;
    Row& row = out.measure("explosion.chain" + at_n(n, c.total_events()), c,
                           "lattice build",
                           [&] { nodes = Lattice::build(c).size(); });
    row.nodes = nodes;
  }
  // Observations (maximal chains): the paths the path operators range over.
  for (std::int32_t n = 2; n <= 7; ++n) {
    const Computation c = generate_independent(n, 3);
    std::string count;
    std::size_t nodes = 0;
    Row& row = out.measure(
        "explosion.observations.independent.n=" + std::to_string(n) + ".k=3",
        c, "maximal chains", [&] {
          const Lattice lat = Lattice::build(c, 1u << 22);
          nodes = lat.size();
          count = count_maximal_chains(lat).to_string();
        });
    row.nodes = nodes;
    facts(row).kv("observations", count);
  }
}

// ---- Slicing: slice sizes, the baseline for slice-then-search --------------

void slicing(Paper& out) {
  for (std::int32_t per : {16, 64, 256}) {
    const Computation c = random_comp(6, per, 2, 0.3, 19);
    std::size_t elements = 0;
    Row& row = out.measure(
        "slice.channels_empty" + at(c.total_events(), 6), c, "slice build",
        [&] {
          elements = Slice::compute(c, all_channels_empty()).elements().size();
        });
    facts(row).kv("elements", static_cast<std::uint64_t>(elements));
  }
  for (std::int32_t per : {16, 64, 256, 1024}) {
    const Computation c = random_comp(6, per, 2, 0.3, 19);
    const PredicatePtr p = conj_le(6, "v0", 7);
    std::size_t elements = 0;
    Row& row = out.measure("slice.conjunctive" + at(c.total_events(), 6), c,
                           "slice build", [&] {
                             elements = Slice::compute(c, p).elements().size();
                           });
    facts(row).kv("elements", static_cast<std::uint64_t>(elements));
  }
}

// ---- Design ablations -------------------------------------------------------

void ablation(Paper& out) {
  // A1's choice of predecessor: first satisfying vs uniformly random among
  // all satisfying ones (Theorem 2: same verdict).
  for (std::int32_t per : {128, 1024}) {
    const Computation c = random_comp(6, per, 2, 0.25, 3);
    const PredicatePtr p = satisfied_linear(6);
    out.detect("ablation.A1.greedy" + at(c.total_events(), 6), c,
               [&] { return detect_eg_linear(c, *p); });
    out.detect("ablation.A1.randomized" + at(c.total_events(), 6), c,
               [&] { return detect_eg_linear_randomized(c, *p, 1); });
  }
  // EF(conjunctive): Chase-Garg vs the Garg-Waldecker weak repair loop.
  for (std::int32_t per : {128, 1024}) {
    const Computation c = random_comp(6, per, 2, 0.25, 5);
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < 6; ++i) ls.push_back(progress_ge(i, 100));
    const auto p = make_conjunctive(std::move(ls));
    out.detect("ablation.ef.chase_garg" + at(c.total_events(), 6), c,
               [&] { return detect_ef_linear(c, *p); });
    out.detect("ablation.ef.gw_weak" + at(c.total_events(), 6), c,
               [&] { return detect_ef_conjunctive(c, *p); });
  }
  // Meet-irreducibles: reverse vector clocks vs the explicit lattice.
  {
    const Computation c = random_comp(5, 5, 2, 0.25, 7);
    std::size_t m = 0, nodes = 0;
    Row& direct = out.measure("ablation.mirr.direct" + at(c.total_events(), 5),
                              c, "reverse vector clocks",
                              [&] { m = meet_irreducible_cuts(c).size(); });
    facts(direct).kv("meet_irreducibles", static_cast<std::uint64_t>(m));
    Row& lattice = out.measure(
        "ablation.mirr.lattice" + at(c.total_events(), 5), c,
        "explicit lattice cover degree", [&] {
          const Lattice lat = Lattice::build(c, 1u << 22);
          nodes = lat.size();
          m = meet_irreducibles(lat).size();
        });
    lattice.nodes = nodes;
    facts(lattice).kv("meet_irreducibles", static_cast<std::uint64_t>(m));
  }
  // E[p U q]: A3 vs the generic DFS on the same instance.
  for (std::int32_t per : {8, 16, 32}) {
    const Computation c = random_comp(4, per, 2, 0.25, 9);
    const auto p = conj_le(4, "v0", 9);
    const PredicatePtr q =
        make_and(all_channels_empty(), PredicatePtr(progress_ge(0, per / 2)));
    out.detect("ablation.eu.A3" + at(c.total_events(), 4), c,
               [&] { return detect_eu(c, *p, *q); });
    out.detect("ablation.eu.dfs" + at(c.total_events(), 4), c,
               [&] { return detect_eu_dfs(c, *p, *q); });
  }
}

}  // namespace
}  // namespace hbct

int main() {
  hbct::Paper out;
  hbct::fig1(out);
  hbct::fig2(out);
  hbct::fig3(out);
  hbct::fig4(out);
  hbct::fig5(out);
  hbct::scaling(out);
  hbct::explosion(out);
  hbct::slicing(out);
  hbct::ablation(out);
  const char* path = std::getenv("HBCT_BENCH_JSON");
  return out.write(path != nullptr ? path : "BENCH_paper.json") ? 0 : 1;
}
