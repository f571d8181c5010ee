#include "lattice/irreducible.h"

namespace hbct {

std::vector<NodeId> meet_irreducibles(const Lattice& lat) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (v != lat.top() && lat.successors(v).size() == 1) out.push_back(v);
  return out;
}

std::vector<NodeId> join_irreducibles(const Lattice& lat) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (v != lat.bottom() && lat.predecessors(v).size() == 1) out.push_back(v);
  return out;
}

namespace {

/// M((i, k)) read off every reverse-clock column: M(e)[j] = N_j - rvc(e)[j],
/// O(n) per cut once the blocks exist.
Cut meet_from_columns(const Computation& c,
                      const Computation::ReverseClocks& rv, ProcId i,
                      EventIndex k) {
  Cut m(static_cast<std::size_t>(c.num_procs()));
  for (ProcId j = 0; j < c.num_procs(); ++j)
    m[static_cast<std::size_t>(j)] = c.num_events(j) - rv.at(i, k, j);
  return m;
}

}  // namespace

std::vector<Cut> meet_irreducible_cuts(const Computation& c) {
  std::vector<Cut> out;
  out.reserve(static_cast<std::size_t>(c.total_events()));
  const Computation::ReverseClocks rv = c.reverse_clocks();
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      out.push_back(meet_from_columns(c, rv, i, k));
  return out;
}

std::vector<Cut> join_irreducible_cuts(const Computation& c) {
  std::vector<Cut> out;
  out.reserve(static_cast<std::size_t>(c.total_events()));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      out.push_back(c.join_irreducible_of(i, k));
  return out;
}

Cut birkhoff_meet_reconstruction(const Computation& c, const Cut& g) {
  Cut acc = c.final_cut();  // meet over the empty set = top
  const Computation::ReverseClocks rv = c.reverse_clocks();
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      Cut m = meet_from_columns(c, rv, i, k);
      if (g.subset_of(m)) acc = Cut::meet(acc, m);
    }
  return acc;
}

Cut birkhoff_join_reconstruction(const Computation& c, const Cut& g) {
  Cut acc = c.initial_cut();  // join over the empty set = bottom
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      Cut j = c.join_irreducible_of(i, k);
      if (j.subset_of(g)) acc = Cut::join(acc, j);
    }
  return acc;
}

}  // namespace hbct
