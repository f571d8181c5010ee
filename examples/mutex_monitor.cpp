// Mutual-exclusion debugging: the paper's motivating example.
//
//   $ example_mutex_monitor [seed]
//
// Runs two protocols on the simulator — a correct Ricart–Agrawala instance
// and a token-based instance with an injected rogue critical-section entry —
// and monitors both for safety (EF of a CS overlap) and for the
// trying-until-critical AU property.
#include <cstdio>
#include <cstdlib>

#include "hbct.h"

using namespace hbct;

namespace {

void check_safety(const Computation& c, const char* name) {
  std::printf("== %s: %lld events, %lld messages\n", name,
              static_cast<long long>(c.total_events()),
              static_cast<long long>(c.num_messages()));
  bool violated = false;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    for (ProcId j = i + 1; j < c.num_procs(); ++j) {
      auto overlap = make_conjunctive(
          {var_cmp(i, "cs", Cmp::kEq, 1), var_cmp(j, "cs", Cmp::kEq, 1)});
      DetectResult r = detect(c, Op::kEF, overlap);
      if (r.verdict == Verdict::kHolds) {
        violated = true;
        std::printf("  VIOLATION: P%d and P%d can be in the critical section "
                    "together, e.g. at cut %s\n",
                    i, j, r.witness_cut->to_string().c_str());
      }
    }
  }
  if (!violated)
    std::printf("  safety holds: no cut has two processes in the CS\n");

  // A[ (trying or not-yet-critical) U critical ] per process — the paper's
  // "processes are in trying state before getting to critical state".
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    auto q = strfmt("A[ try@P%d == 1 || cs@P%d == 0 U cs@P%d == 1 ]", i, i, i);
    auto r = ctl::evaluate_query(c, q);
    std::printf("  %-52s %s [%s]\n", q.c_str(),
                r.ok ? to_string(r.result.verdict) : "error",
                r.ok ? r.algorithm.c_str() : r.error.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  sim::SimOptions opt;
  opt.seed = seed;

  sim::Simulator good = sim::make_ra_mutex(4, 2);
  Computation cg = std::move(good).run(opt);
  check_safety(cg, "Ricart-Agrawala (4 processes, 2 rounds)");

  sim::Simulator bad = sim::make_token_mutex(4, 2, /*inject_violation=*/true);
  Computation cb = std::move(bad).run(opt);
  check_safety(cb, "token mutex with injected rogue entry");
  return 0;
}
