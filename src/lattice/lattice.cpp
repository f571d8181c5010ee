#include "lattice/lattice.h"

#include <algorithm>
#include <numeric>

#include "util/assert.h"

namespace hbct {

std::optional<Lattice> Lattice::try_build(const Computation& c,
                                          std::size_t max_nodes) {
  Lattice lat(c);
  CutTable& table = lat.table_;
  const CutPacker& packer = table.packer();
  const std::size_t w = packer.words();

  // BFS over packed cuts. The table hands out ids in discovery order, so it
  // is the queue as well: node v is expanded when the scan reaches id v,
  // and its successors land contiguously in the successor CSR. Every edge
  // adds one event, so BFS from the bottom reaches the cuts rank by rank
  // and the id order is already topological.
  std::vector<std::uint64_t> g(w), h(w);
  packer.pack(c.trim_cut(), g.data());
  table.insert(g.data());
  lat.bottom_ = 0;
  lat.succ_off_.push_back(0);
  for (NodeId v = 0; v < table.size(); ++v) {
    // Copy: the key array reallocates as successors are inserted.
    std::copy_n(table.key(v), w, g.begin());
    for (ProcId i = 0; i < c.num_procs(); ++i) {
      if (!packer.enabled(g.data(), i)) continue;
      std::copy(g.begin(), g.end(), h.begin());
      packer.step(h.data(), i);
      const auto [id, inserted] = table.insert(h.data());
      if (inserted && table.size() > max_nodes) return std::nullopt;
      lat.succ_flat_.push_back(id);
    }
    lat.succ_off_.push_back(static_cast<std::uint32_t>(lat.succ_flat_.size()));
  }

  // Predecessor CSR: scanning the sources in id order lists each node's
  // predecessors in ascending id order.
  const std::size_t n = table.size();
  lat.pred_off_.assign(n + 1, 0);
  for (NodeId s : lat.succ_flat_) ++lat.pred_off_[s + 1];
  for (std::size_t i = 0; i < n; ++i) lat.pred_off_[i + 1] += lat.pred_off_[i];
  lat.pred_flat_.resize(lat.succ_flat_.size());
  std::vector<std::uint32_t> fill(lat.pred_off_.begin(),
                                  lat.pred_off_.end() - 1);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId s : lat.successors(u)) lat.pred_flat_[fill[s]++] = u;

  lat.topo_.resize(n);
  std::iota(lat.topo_.begin(), lat.topo_.end(), NodeId{0});

  const NodeId topnode = lat.node_of(c.final_cut());
  HBCT_ASSERT_MSG(topnode != kNoNode, "final cut must be reachable");
  lat.top_ = topnode;
  return lat;
}

Lattice Lattice::build(const Computation& c, std::size_t max_nodes) {
  auto lat = try_build(c, max_nodes);
  HBCT_ASSERT_MSG(lat.has_value(), "lattice exceeds max_nodes cap");
  return std::move(*lat);
}

NodeId Lattice::node_of(const Cut& g) const {
  // Out-of-range counters could alias a valid key under the packed
  // encoding; such cuts are never in the table anyway.
  const Computation& c = computation();
  if (g.size() != static_cast<std::size_t>(c.num_procs())) return kNoNode;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    const std::int32_t gi = g[static_cast<std::size_t>(i)];
    if (gi < 0 || gi > c.num_events(i)) return kNoNode;
  }
  static_assert(CutTable::kAbsent == kNoNode);
  return table_.find(g);
}

std::span<const NodeId> Lattice::successors(NodeId v) const {
  return {succ_flat_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
}

std::span<const NodeId> Lattice::predecessors(NodeId v) const {
  return {pred_flat_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
}

NodeId Lattice::meet(NodeId a, NodeId b) const {
  const NodeId m = node_of(Cut::meet(cut(a), cut(b)));
  HBCT_ASSERT_MSG(m != kNoNode, "meet of consistent cuts must be consistent");
  return m;
}

NodeId Lattice::join(NodeId a, NodeId b) const {
  const NodeId j = node_of(Cut::join(cut(a), cut(b)));
  HBCT_ASSERT_MSG(j != kNoNode, "join of consistent cuts must be consistent");
  return j;
}

}  // namespace hbct
