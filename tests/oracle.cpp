#include "oracle.h"

#include <algorithm>
#include <unordered_map>

#include "detect/conjunctive_gw.h"
#include "util/assert.h"

namespace hbct {

DetectResult detect_eu_at_reference(const Computation& c,
                                    const ConjunctivePredicate& p,
                                    const Cut& iq, const Budget& budget) {
  DetectResult r;
  r.algorithm = "A3-eu (given I_q)";
  HBCT_ASSERT_MSG(c.is_consistent(iq), "I_q must be a consistent cut");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);

  // Zero-length prefix: q already holds at the initial cut.
  const Cut initial = c.initial_cut();
  if (iq == initial) {
    r.verdict = Verdict::kHolds;
    r.witness_cut = initial;
    r.witness_path = {initial};
    return r;
  }

  // Step 2 of A3: EG(p) in some sub-computation E' = I_q \ {e},
  // e in frontier(I_q), tried in frontier order. Each branch gets its own
  // budget over its own stats; the first holding branch decides.
  BoundReason bound = BoundReason::kNone;
  for (const ProcId e : c.frontier_procs(iq)) {
    // EG(p) over the prefix sublattice below retreat(I_q, e) — scanned in
    // place instead of materializing a prefix Computation per branch.
    DetectResult eg =
        detect_eg_conjunctive_within(c, p, c.retreat(iq, e), budget);
    r.stats += eg.stats;
    ++r.stats.cut_steps;  // the retreat that formed this sub-computation
    if (eg.verdict == Verdict::kHolds) {
      // A witness prefix is definite even if an earlier branch was bounded.
      r.verdict = Verdict::kHolds;
      r.witness_path = std::move(eg.witness_path);
      r.witness_path.push_back(iq);
      r.witness_cut = iq;
      return r;
    }
    if (bound == BoundReason::kNone) bound = eg.bound;
  }
  if (bound != BoundReason::kNone) mark_bounded(r, bound);
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

std::vector<std::vector<std::vector<std::int32_t>>> reverse_clock_rows(
    const Computation& c) {
  const auto n = static_cast<std::size_t>(c.num_procs());
  std::vector<std::vector<std::vector<std::int32_t>>> rows(n);
  for (ProcId i = 0; i < c.num_procs(); ++i)
    rows[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(c.num_events(i)),
        std::vector<std::int32_t>(n, 0));
  const auto row = [&](EventId e) -> std::vector<std::int32_t>& {
    return rows[static_cast<std::size_t>(e.proc)]
               [static_cast<std::size_t>(e.index - 1)];
  };
  // The first receive of each message met walking backwards: the last one
  // in the linearization.
  std::unordered_map<MsgId, EventId> recv_of;
  const std::vector<EventId>& lin = c.linearization();
  for (auto it = lin.rbegin(); it != lin.rend(); ++it) {
    const EventView ev = c.event_view(*it);
    std::vector<std::int32_t>& out = row(*it);
    if (it->index < c.num_events(it->proc))
      out = row(EventId{it->proc, it->index + 1});
    if (ev.kind == EventKind::kSend) {
      const auto r = recv_of.find(ev.msg);
      if (r != recv_of.end())
        for (std::size_t j = 0; j < n; ++j)
          out[j] = std::max(out[j], row(r->second)[j]);
    }
    out[static_cast<std::size_t>(it->proc)] =
        c.num_events(it->proc) - it->index + 1;
    if (ev.kind == EventKind::kReceive) recv_of.emplace(ev.msg, *it);
  }
  return rows;
}

std::vector<std::int32_t> reverse_clock_row(const Computation& c, ProcId i,
                                            EventIndex idx) {
  const Computation::ReverseClocks rv = c.reverse_clocks();
  std::vector<std::int32_t> out;
  for (ProcId j = 0; j < c.num_procs(); ++j) out.push_back(rv.at(i, idx, j));
  return out;
}

}  // namespace hbct
