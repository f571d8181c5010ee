// Theorem 5 in action: SAT instances as EG-detection problems on
// observer-independent predicates, with DPLL as the independent referee.
//
//   $ example_npc_reduction_demo [num_vars] [num_clauses] [seed]
#include <cstdio>
#include <cstdlib>

#include "hbct.h"

using namespace hbct;

int main(int argc, char** argv) {
  const std::int32_t m =
      argc > 1 ? static_cast<std::int32_t>(std::atoi(argv[1])) : 6;
  const std::int32_t clauses =
      argc > 2 ? static_cast<std::int32_t>(std::atoi(argv[2])) : 18;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 3;

  Rng rng(seed);
  Cnf f = Cnf::random(m, clauses, 3, rng);
  std::printf("random 3-CNF over %d vars, %d clauses:\n  %s\n", m, clauses,
              f.to_string().c_str());

  Reduction r = reduce_sat_to_eg(f);
  std::printf("gadget computation: %d processes, %lld events\n",
              r.computation.num_procs(),
              static_cast<long long>(r.computation.total_events()));
  std::printf("predicate %s, classes: %s\n", r.predicate->describe().c_str(),
              classes_to_string(
                  effective_classes(*r.predicate, r.computation))
                  .c_str());

  DetectResult eg = detect_eg_dfs(r.computation, *r.predicate);
  std::printf("EG(P) search: %s after exploring %llu cut transitions\n",
              to_string(eg.verdict),
              static_cast<unsigned long long>(eg.stats.cut_steps));

  DpllStats ds;
  auto model = dpll_solve(f, &ds);
  std::printf("DPLL: %s (%llu decisions, %llu propagations)\n",
              model ? "satisfiable" : "unsatisfiable",
              static_cast<unsigned long long>(ds.decisions),
              static_cast<unsigned long long>(ds.propagations));
  if (eg.definite() && eg.verdict != verdict_of(model.has_value())) {
    std::printf("REDUCTION MISMATCH — this is a bug\n");
    return 1;
  }
  if (model) {
    std::printf("model:");
    for (std::int32_t v = 0; v < m; ++v)
      std::printf(" x%d=%d", v, static_cast<int>((*model)[v]));
    std::printf("\n");
  }

  // Theorem 6: DNF tautology as AG detection.
  Dnf g = Dnf::random(m, clauses, 2, rng);
  Reduction rt = reduce_tautology_to_ag(g);
  DetectResult ag = detect_ag_dfs(rt.computation, *rt.predicate);
  const bool taut = dnf_tautology(g);
  const bool mismatch = ag.definite() && ag.verdict != verdict_of(taut);
  std::printf("\nrandom 2-DNF: AG(P) %s, DPLL says %s — %s\n",
              to_string(ag.verdict), taut ? "tautology" : "refutable",
              mismatch ? "MISMATCH" : ag.definite() ? "agree" : "undecided");
  return mismatch ? 1 : 0;
}
