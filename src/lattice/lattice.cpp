#include "lattice/lattice.h"

#include <algorithm>
#include <deque>

#include "util/assert.h"

namespace hbct {

std::optional<Lattice> Lattice::try_build(const Computation& c,
                                          std::size_t max_nodes) {
  Lattice lat;
  lat.comp_ = &c;

  // BFS over cuts; edges are discovered as (node, advanced node) pairs and
  // converted to CSR afterwards.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::deque<NodeId> queue;

  const Cut init = c.trim_cut();
  lat.index_ = CutIndex(c);
  lat.cuts_.push_back(init);
  lat.index_.try_emplace(init, 0);
  lat.bottom_ = 0;
  queue.push_back(0);

  std::vector<ProcId> enabled;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const Cut g = lat.cuts_[v];  // copy: cuts_ reallocates during the loop
    c.enabled_procs(g, &enabled);
    for (ProcId i : enabled) {
      Cut h = c.advance(g, i);
      const auto [id, inserted] =
          lat.index_.try_emplace(h, static_cast<NodeId>(lat.cuts_.size()));
      if (inserted) {
        if (lat.cuts_.size() >= max_nodes) return std::nullopt;
        lat.cuts_.push_back(std::move(h));
        queue.push_back(id);
      }
      edges.emplace_back(v, id);
    }
  }
  lat.num_edges_ = edges.size();

  const std::size_t n = lat.cuts_.size();
  // CSR for successors.
  lat.succ_off_.assign(n + 1, 0);
  lat.pred_off_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++lat.succ_off_[u + 1];
    ++lat.pred_off_[v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    lat.succ_off_[i + 1] += lat.succ_off_[i];
    lat.pred_off_[i + 1] += lat.pred_off_[i];
  }
  lat.succ_flat_.resize(edges.size());
  lat.pred_flat_.resize(edges.size());
  std::vector<std::uint32_t> sfill(lat.succ_off_.begin(), lat.succ_off_.end() - 1);
  std::vector<std::uint32_t> pfill(lat.pred_off_.begin(), lat.pred_off_.end() - 1);
  for (const auto& [u, v] : edges) {
    lat.succ_flat_[sfill[u]++] = v;
    lat.pred_flat_[pfill[v]++] = u;
  }

  // Topological order: sort by cut cardinality (rank function of the
  // graded lattice).
  lat.topo_.resize(n);
  for (std::size_t i = 0; i < n; ++i) lat.topo_[i] = static_cast<NodeId>(i);
  std::stable_sort(lat.topo_.begin(), lat.topo_.end(),
                   [&](NodeId a, NodeId b) {
                     return lat.cuts_[a].total() < lat.cuts_[b].total();
                   });

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
  // encoding; such cuts are never in the index anyway.
  if (g.size() != static_cast<std::size_t>(comp_->num_procs())) return kNoNode;
  for (ProcId i = 0; i < comp_->num_procs(); ++i) {
    const std::int32_t gi = g[static_cast<std::size_t>(i)];
    if (gi < 0 || gi > comp_->num_events(i)) return kNoNode;
  }
  return index_.find_or(g, kNoNode);
}

std::span<const NodeId> Lattice::successors(NodeId v) const {
  return {succ_flat_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
}

std::span<const NodeId> Lattice::predecessors(NodeId v) const {
  return {pred_flat_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
}

NodeId Lattice::meet(NodeId a, NodeId b) const {
  const NodeId m = node_of(Cut::meet(cuts_[a], cuts_[b]));
  HBCT_ASSERT_MSG(m != kNoNode, "meet of consistent cuts must be consistent");
  return m;
}

NodeId Lattice::join(NodeId a, NodeId b) const {
  const NodeId j = node_of(Cut::join(cuts_[a], cuts_[b]));
  HBCT_ASSERT_MSG(j != kNoNode, "join of consistent cuts must be consistent");
  return j;
}

}  // namespace hbct
