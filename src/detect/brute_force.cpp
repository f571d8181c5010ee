#include "detect/brute_force.h"

#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

LatticeChecker::LatticeChecker(const Computation& c, std::size_t max_nodes)
    : lat_(Lattice::build(c, max_nodes)) {}

LatticeChecker::LatticeChecker(Lattice lattice) : lat_(std::move(lattice)) {}

std::vector<char> LatticeChecker::label(const Predicate& p,
                                        DetectStats* st) const {
  std::vector<char> out(lat_.size());
  for (NodeId v = 0; v < lat_.size(); ++v)
    out[v] = p.eval(lat_.computation(), lat_.cut(v)) ? 1 : 0;
  if (st) st->predicate_evals += lat_.size();
  return out;
}

// All operator labelings sweep the topological order backwards (from the
// final cut down), so successor labels are final when a node is processed.

std::vector<char> LatticeChecker::ef(const std::vector<char>& p) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = p[v];
    for (NodeId s : lat_.successors(v)) {
      if (r) break;
      r = out[s];
    }
    out[v] = r;
  }
  return out;
}

std::vector<char> LatticeChecker::af(const std::vector<char>& p) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = p[v];
    if (!r) {
      const auto succ = lat_.successors(v);
      if (!succ.empty()) {
        r = 1;
        for (NodeId s : succ) r = static_cast<char>(r && out[s]);
      }
    }
    out[v] = r;
  }
  return out;
}

std::vector<char> LatticeChecker::eg(const std::vector<char>& p) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = 0;
    if (p[v]) {
      const auto succ = lat_.successors(v);
      if (succ.empty()) {
        r = 1;  // the final cut: the path may end here
      } else {
        for (NodeId s : succ) {
          if ((r = out[s])) break;
        }
      }
    }
    out[v] = r;
  }
  return out;
}

std::vector<char> LatticeChecker::ag(const std::vector<char>& p) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = p[v];
    for (NodeId s : lat_.successors(v)) {
      if (!r) break;
      r = static_cast<char>(r && out[s]);
    }
    out[v] = r;
  }
  return out;
}

std::vector<char> LatticeChecker::eu(const std::vector<char>& p,
                                     const std::vector<char>& q) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = q[v];
    if (!r && p[v]) {
      for (NodeId s : lat_.successors(v)) {
        if ((r = out[s])) break;
      }
    }
    out[v] = r;
  }
  return out;
}

std::vector<char> LatticeChecker::au(const std::vector<char>& p,
                                     const std::vector<char>& q) const {
  std::vector<char> out(lat_.size(), 0);
  const auto& topo = lat_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    char r = q[v];
    if (!r && p[v]) {
      const auto succ = lat_.successors(v);
      if (!succ.empty()) {
        r = 1;
        for (NodeId s : succ) r = static_cast<char>(r && out[s]);
      }
    }
    out[v] = r;
  }
  return out;
}

DetectResult LatticeChecker::detect(Op op, const Predicate& p,
                                    const Predicate* q,
                                    const Budget& budget) const {
  DetectResult r;
  r.algorithm = "lattice-brute-force";
  r.stats.lattice_nodes = lat_.size();
  r.stats.lattice_edges = lat_.num_edges();
  ScopedSpan span(budget.trace, "brute.lattice");
  span.arg("nodes", static_cast<std::int64_t>(lat_.size()));
  span.arg("edges", static_cast<std::int64_t>(lat_.num_edges()));
  // Bounds are probed at sweep boundaries only, never inside a sweep.
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  if (lat_.size() > t.budget().max_states) {
    t.trip(BoundReason::kStateCap);
    return mark_bounded(r, t);
  }
  std::vector<char> lp;
  {
    ScopedSpan s(budget.trace, "brute.label-sweep");
    lp = label(p, &r.stats);
  }
  if (!t.ok()) return mark_bounded(r, t);
  std::vector<char> res;
  switch (op) {
    case Op::kEF: res = ef(lp); break;
    case Op::kAF: res = af(lp); break;
    case Op::kEG: res = eg(lp); break;
    case Op::kAG: res = ag(lp); break;
    case Op::kEU:
    case Op::kAU: {
      HBCT_ASSERT_MSG(q != nullptr, "EU/AU require a second predicate");
      std::vector<char> lq;
      {
        ScopedSpan s(budget.trace, "brute.label-sweep");
        lq = label(*q, &r.stats);
      }
      if (!t.ok()) return mark_bounded(r, t);
      res = op == Op::kEU ? eu(lp, lq) : au(lp, lq);
      break;
    }
  }
  // The answer is fully established at this point; like a found witness, it
  // stays definite even if a deadline expires between here and the return.
  r.verdict = verdict_of(res[lat_.bottom()] != 0);
  return r;
}

BruteClassCheck brute_check_classes(const LatticeChecker& chk,
                                    const Predicate& p) {
  const Lattice& lat = chk.lattice();
  const std::vector<char> lp = chk.label(p);

  BruteClassCheck out;
  std::vector<NodeId> sat;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (lp[v]) sat.push_back(v);

  // The O(S^2) semilattice sweep stops once both flags are false.
  out.linear = out.post_linear = true;
  for (std::size_t a = 0; a < sat.size() && (out.linear || out.post_linear);
       ++a) {
    for (std::size_t b = a + 1;
         b < sat.size() && (out.linear || out.post_linear); ++b) {
      if (out.linear && !lp[lat.meet(sat[a], sat[b])]) out.linear = false;
      if (out.post_linear && !lp[lat.join(sat[a], sat[b])])
        out.post_linear = false;
    }
  }
  out.regular = out.linear && out.post_linear;

  out.stable = true;
  for (NodeId v = 0; v < lat.size() && out.stable; ++v) {
    if (!lp[v]) continue;
    for (NodeId s : lat.successors(v))
      if (!lp[s]) {
        out.stable = false;
        break;
      }
  }

  out.observer_independent =
      chk.ef(lp)[lat.bottom()] == chk.af(lp)[lat.bottom()];
  return out;
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kEF: return "EF";
    case Op::kAF: return "AF";
    case Op::kEG: return "EG";
    case Op::kAG: return "AG";
    case Op::kEU: return "EU";
    case Op::kAU: return "AU";
  }
  return "?";
}

}  // namespace hbct
