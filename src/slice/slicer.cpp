#include "slice/slicer.h"

#include <algorithm>

#include "detect/ef_linear.h"
#include "poset/cut_packer.h"
#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

Slice Slice::compute(const Computation& c, const PredicatePtr& p) {
  HBCT_ASSERT(p);
  Slice s;
  s.comp_ = &c;
  s.pred_ = p;
  s.least_ = least_satisfying_cut(c, *p, s.stats_);
  if (s.least_) s.greatest_ = greatest_satisfying_cut(c, *p, s.stats_);
  s.jp_.resize(sz(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    s.jp_[sz(i)].resize(sz(c.num_events(i)));
    if (!s.least_) continue;  // empty slice: all J_p(e) undefined
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      const Cut start = c.join_irreducible_of(i, k);
      s.jp_[sz(i)][sz(k - 1)] = least_satisfying_cut(c, *p, s.stats_, &start);
    }
  }
  return s;
}

const std::optional<Cut>& Slice::jp(ProcId i, EventIndex idx) const {
  HBCT_ASSERT(idx >= 1 && idx <= comp_->num_events(i));
  return jp_[sz(i)][sz(idx - 1)];
}

bool Slice::satisfies(const Cut& g) const {
  HBCT_DASSERT(comp_->is_consistent(g));
  if (!least_) return false;
  if (g.total() == 0) return least_->total() == 0;  // p(∅) iff I_p == ∅
  // Regular p: g satisfies p iff g is the join of the slice elements of its
  // events. One undefined J_p(e) means no satisfying cut contains e.
  Cut acc(g.size());
  for (ProcId i = 0; i < comp_->num_procs(); ++i) {
    const EventIndex gi = g[sz(i)];
    if (gi == 0) continue;
    // Only the last event per process matters: J_p is monotone along a
    // process (J(e) grows, hence so does the least satisfying cut above it),
    // so the join over e in g equals the join over frontier events.
    const auto& cut = jp_[sz(i)][sz(gi - 1)];
    if (!cut) return false;
    acc = Cut::join(acc, *cut);
  }
  return acc == g;
}

std::optional<std::vector<Cut>> Slice::enumerate_satisfying(
    std::size_t cap) const {
  std::vector<Cut> out;
  if (!least_) return out;  // empty slice
  const std::vector<Cut> elems = elements();

  // BFS: every satisfying cut H ⊋ G is reachable from G by joining with a
  // slice element J_p(e) for some event e ∈ H \ G (the join stays within H
  // and strictly grows), so the closure from I_p covers the sub-lattice.
  // The table of packed cuts is the queue: ids are discovery order.
  CutTable seen(*comp_);
  const CutPacker& packer = seen.packer();
  seen.insert(*least_);
  Cut g, h;
  for (std::uint32_t at = 0; at < seen.size(); ++at) {
    packer.unpack(seen.key(at), &g);
    out.push_back(g);
    for (const Cut& e : elems) {
      if (e.subset_of(g)) continue;
      h = Cut::join(g, e);
      if (seen.insert(h).second && seen.size() > cap) return std::nullopt;
    }
  }
  std::sort(out.begin(), out.end(), [](const Cut& a, const Cut& b) {
    if (a.total() != b.total()) return a.total() < b.total();
    return a.raw() < b.raw();
  });
  return out;
}

std::vector<Cut> Slice::elements() const {
  std::vector<Cut> out;
  for (const auto& per_proc : jp_)
    for (const auto& cut : per_proc)
      if (cut) out.push_back(*cut);
  std::sort(out.begin(), out.end(), [](const Cut& a, const Cut& b) {
    if (a.total() != b.total()) return a.total() < b.total();
    return a.raw() < b.raw();
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace hbct
