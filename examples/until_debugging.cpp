// The Fig. 4 scenario end-to-end: detecting E[p U q] with Algorithm A3 and
// comparing against the explicit-lattice baseline.
//
//   $ example_until_debugging
//
// Reconstructs the paper's Fig. 4 computation, prints its lattice statistics
// and path counts (7 witness prefixes, 2 through I_q), then runs both the
// polynomial A3 algorithm and the exponential baseline.
#include <cstdio>

#include "hbct.h"

using namespace hbct;

int main() {
  // Fig. 4 (see tests/test_fig4.cpp for the provenance of this shape).
  ComputationBuilder b(3);
  VarId x = b.var("x"), z = b.var("z");
  b.set_initial(0, x, 1);
  b.set_initial(2, z, 3);
  MsgId m1 = b.send(0, 1);
  b.label(0, "e1").write(0, x, 2);
  b.internal(0);
  b.label(0, "e2").write(0, x, 3);
  MsgId m2 = b.send(1, 2);
  b.label(1, "f1");
  b.receive(1, m1);
  b.label(1, "f2");
  b.receive(2, m2);
  b.label(2, "g1").write(2, z, 6);
  Computation c = std::move(b).build();

  std::printf("Fig. 4 computation as a trace:\n%s\n",
              trace_to_string(c).c_str());

  auto p = make_conjunctive(
      {var_cmp(2, "z", Cmp::kLt, 6), var_cmp(0, "x", Cmp::kLt, 4)});
  auto q = make_and(all_channels_empty(),
                    PredicatePtr(var_cmp(0, "x", Cmp::kGt, 1)));
  std::printf("p = %s   (classes: %s)\n", p->describe().c_str(),
              classes_to_string(effective_classes(*p, c)).c_str());
  std::printf("q = %s   (classes: %s)\n", q->describe().c_str(),
              classes_to_string(effective_classes(*q, c)).c_str());

  Lattice lat = Lattice::build(c);
  const NodeId iq_node = lat.node_of(Cut({1, 2, 1}));
  BigUint at_iq;
  BigUint total = count_eu_witnesses(
      lat, [&](NodeId v) { return p->eval(c, lat.cut(v)); },
      [&](NodeId v) { return q->eval(c, lat.cut(v)); }, iq_node, &at_iq);
  std::printf("lattice: %zu cuts; EU witness prefixes: %s total, %s through "
              "I_q (paper: 7 and 2)\n",
              lat.size(), total.to_string().c_str(),
              at_iq.to_string().c_str());

  DetectResult a3 = detect_eu(c, *p, *q);
  std::printf("A3: E[p U q] %s  [%llu evals]  I_q = %s\n",
              to_string(a3.verdict),
              static_cast<unsigned long long>(a3.stats.predicate_evals),
              a3.witness_cut->to_string().c_str());
  std::printf("  witness: ");
  for (const Cut& g : a3.witness_path) std::printf("%s ", g.to_string().c_str());
  std::printf("\n");

  LatticeChecker chk(std::move(lat));
  DetectResult brute = chk.detect(Op::kEU, *p, q.get());
  std::printf("baseline: %s  [%llu lattice nodes, %llu evals]\n",
              to_string(brute.verdict),
              static_cast<unsigned long long>(brute.stats.lattice_nodes),
              static_cast<unsigned long long>(brute.stats.predicate_evals));

  // The same query in textual form.
  auto r = ctl::evaluate_query(
      c, "E[ z@P2 < 6 && x@P0 < 4 U channels_empty && x@P0 > 1 ]");
  std::printf("textual query -> %s via %s\n", to_string(r.result.verdict),
              r.algorithm.c_str());
  return 0;
}
