// Quickstart: build a computation, ask CTL questions about it.
//
//   $ example_quickstart
//
// Walks through the three ways of using hbct:
//   1. constructing a happened-before model by hand (ComputationBuilder),
//   2. writing predicates with the C++ combinators and detecting them,
//   3. using the textual CTL query language.
#include <cstdio>

#include "hbct.h"

using namespace hbct;

int main() {
  // ---- 1. A small 3-process computation ---------------------------------
  // P0 increments a counter and announces it to P1; P1 forwards to P2.
  ComputationBuilder b(3);
  VarId cnt = b.var("cnt");
  b.internal(0);
  b.write(0, cnt, 1);
  MsgId m1 = b.send(0, 1);
  b.receive(1, m1);
  b.write(1, cnt, 1);
  MsgId m2 = b.send(1, 2);
  b.internal(0);
  b.write(0, cnt, 2);
  b.receive(2, m2);
  b.write(2, cnt, 1);
  Computation c = std::move(b).build();

  std::printf("computation: %d processes, %lld events, %lld messages\n",
              c.num_procs(), static_cast<long long>(c.total_events()),
              static_cast<long long>(c.num_messages()));

  // The state space the paper avoids building:
  Lattice lat = Lattice::build(c);
  std::printf("explicit lattice: %zu consistent cuts, %s observations\n",
              lat.size(), count_maximal_chains(lat).to_string().c_str());

  // ---- 2. Combinator predicates + class-aware detection ------------------
  // "Everybody has seen the counter" — conjunctive, so EF dispatches to the
  // Garg-Waldecker weak-conjunctive algorithm.
  auto everyone = make_conjunctive({var_cmp(0, "cnt", Cmp::kGe, 1),
                                    var_cmp(1, "cnt", Cmp::kGe, 1),
                                    var_cmp(2, "cnt", Cmp::kGe, 1)});
  DetectResult ef = detect(c, Op::kEF, everyone);
  std::printf("EF(%s): %s   [%s, %llu evals]\n", everyone->describe().c_str(),
              to_string(ef.verdict), ef.algorithm.c_str(),
              static_cast<unsigned long long>(ef.stats.predicate_evals));
  if (ef.verdict == Verdict::kHolds)
    std::printf("  least satisfying cut: %s\n",
                ef.witness_cut->to_string().c_str());

  // "Channels never hold more than one message" — a regular predicate;
  // AG dispatches to Algorithm A2 (meet-irreducibles).
  std::vector<PredicatePtr> bounds;
  for (ProcId i = 0; i < 3; ++i)
    for (ProcId j = 0; j < 3; ++j)
      if (i != j) bounds.push_back(channel_bound_le(i, j, 1));
  DetectResult ag = detect(c, Op::kAG, make_and(std::move(bounds)));
  std::printf("AG(channel bounds): %s   [%s]\n", to_string(ag.verdict),
              ag.algorithm.c_str());

  // ---- 3. Textual CTL ----------------------------------------------------
  for (const char* q : {
           "EF(cnt@P0 == 2 && cnt@P2 == 1)",
           "AG(cnt@P0 - cnt@P2 <= 2)",
           "E[ intransit(1,2) <= 1 U cnt@P2 >= 1 ]",
           "AF(terminated)",
       }) {
    auto r = ctl::evaluate_query(c, q);
    if (!r.ok) {
      std::printf("%-45s  error: %s\n", q, r.error.c_str());
      continue;
    }
    std::printf("%-45s  %-7s  [%s]\n", q, to_string(r.result.verdict),
                r.algorithm.c_str());
  }

  // What does the classifier know about a predicate?
  auto report = classify(*everyone, c);
  std::printf("\nclassification of the conjunctive predicate:\n%s",
              to_string(report).c_str());
  return 0;
}
