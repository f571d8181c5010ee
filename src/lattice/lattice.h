// Explicit lattice of consistent cuts.
//
// This module materializes C(E) — every consistent cut of a computation —
// as a DAG (the Hasse diagram of the lattice under ⊆). It exists for two
// reasons:
//   1. it is the *baseline* the paper argues against: model checking on the
//      explicit global state space costs time and memory proportional to
//      |C(E)|, which is exponential in the number of processes;
//   2. it is the ground-truth oracle for the property tests: every
//      polynomial detector in detect/ is validated against brute-force
//      evaluation over this lattice.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "poset/computation.h"
#include "poset/cut_packer.h"

namespace hbct {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

class Lattice {
 public:
  /// Enumerates the consistent cuts at or above the lowest resident cut
  /// (Computation::trim_cut: the initial cut unless prefix GC ran). Aborts via
  /// assertion if the lattice exceeds `max_nodes` — use try_build when the
  /// size is not known to be safe.
  static Lattice build(const Computation& c, std::size_t max_nodes = 1u << 22);

  /// As build(), but returns nullopt instead of aborting when the lattice
  /// is larger than max_nodes.
  static std::optional<Lattice> try_build(const Computation& c,
                                          std::size_t max_nodes);

  std::size_t size() const { return table_.size(); }
  std::size_t num_edges() const { return succ_flat_.size(); }

  const Computation& computation() const {
    return table_.packer().computation();
  }

  /// The cut of node v, unpacked from its stored key.
  Cut cut(NodeId v) const { return table_.packer().unpack(table_.key(v)); }
  /// Scratch form for sweeps: unpacks into `*out` without allocating once
  /// it has the right size.
  void cut(NodeId v, Cut* out) const {
    table_.packer().unpack(table_.key(v), out);
  }
  /// Node id of a cut; kNoNode when the cut is not consistent.
  NodeId node_of(const Cut& g) const;

  NodeId bottom() const { return bottom_; }  // initial cut ∅
  NodeId top() const { return top_; }        // final cut E

  std::span<const NodeId> successors(NodeId v) const;
  std::span<const NodeId> predecessors(NodeId v) const;

  /// Node ids in ascending cut cardinality (a topological order of the
  /// Hasse DAG; rank r holds all cuts with r events). BFS from the bottom
  /// discovers the cuts rank by rank, so this is the id order itself.
  const std::vector<NodeId>& topo_order() const { return topo_; }

  /// Lattice meet/join by componentwise min/max plus lookup.
  NodeId meet(NodeId a, NodeId b) const;
  NodeId join(NodeId a, NodeId b) const;

 private:
  explicit Lattice(const Computation& c) : table_(c) {}

  /// Node v's packed cut is table_.key(v): ids are the table's insertion
  /// (BFS discovery) order.
  CutTable table_;
  // CSR adjacency for successors and predecessors.
  std::vector<NodeId> succ_flat_, pred_flat_;
  std::vector<std::uint32_t> succ_off_, pred_off_;
  std::vector<NodeId> topo_;
  NodeId bottom_ = kNoNode, top_ = kNoNode;
};

}  // namespace hbct
