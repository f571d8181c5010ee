// Leader-election monitoring: agreement and uniqueness as CTL queries.
//
//   $ example_leader_election_monitor [n] [seed]
//
// Runs Chang–Roberts on a ring of n processes and checks:
//   - AF: every observation ends with unanimous agreement on the max uid,
//   - AG: no process ever adopts a wrong leader,
//   - EF: exactly one process declares itself elected.
#include <cstdio>
#include <cstdlib>

#include "hbct.h"

using namespace hbct;

int main(int argc, char** argv) {
  const std::int32_t n =
      argc > 1 ? static_cast<std::int32_t>(std::atoi(argv[1])) : 5;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  sim::SimOptions opt;
  opt.seed = seed;
  sim::Simulator s = sim::make_leader_election(n);
  Computation c = std::move(s).run(opt);
  std::printf("ring of %d processes: %lld events, %lld messages\n", n,
              static_cast<long long>(c.total_events()),
              static_cast<long long>(c.num_messages()));

  // Agreement: definitely (AF), everyone eventually believes in uid n.
  std::vector<LocalPredicatePtr> agree;
  for (ProcId i = 0; i < n; ++i)
    agree.push_back(var_cmp(i, "leader", Cmp::kEq, n));
  DetectResult af = detect(c, Op::kAF, make_conjunctive(agree));
  std::printf("AF(all leader == %d): %s  [%s, %llu evals]\n", n,
              to_string(af.verdict), af.algorithm.c_str(),
              static_cast<unsigned long long>(af.stats.predicate_evals));

  // Sanity invariant: a process believes 0 (unknown) or n (the max uid).
  Verdict invariant = Verdict::kHolds;
  for (ProcId i = 0; i < n && invariant == Verdict::kHolds; ++i) {
    auto sane = make_or(PredicatePtr(var_cmp(i, "leader", Cmp::kEq, 0)),
                        PredicatePtr(var_cmp(i, "leader", Cmp::kEq, n)));
    invariant = detect(c, Op::kAG, sane).verdict;
  }
  std::printf("AG(leader in {0, %d}) on every process: %s\n", n,
              to_string(invariant));

  // Uniqueness: no cut has two self-declared leaders.
  Verdict unique = Verdict::kHolds;
  for (ProcId i = 0; i < n && unique == Verdict::kHolds; ++i)
    for (ProcId j = i + 1; j < n && unique == Verdict::kHolds; ++j) {
      auto two = make_conjunctive({var_cmp(i, "elected", Cmp::kEq, 1),
                                   var_cmp(j, "elected", Cmp::kEq, 1)});
      unique = negate(detect(c, Op::kEF, two).verdict);
    }
  std::printf("no two self-declared leaders ever: %s\n", to_string(unique));

  // And via the query language, for the report:
  auto r = ctl::evaluate_query(
      c, strfmt("EF(elected@P%d == 1)", n - 1));
  std::printf("%s -> %s\n", strfmt("EF(elected@P%d == 1)", n - 1).c_str(),
              r.ok ? to_string(r.result.verdict) : r.error.c_str());
  return 0;
}
