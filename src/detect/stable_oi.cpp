#include "detect/stable_oi.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "poset/cut_packer.h"
#include "util/assert.h"

namespace hbct {

DetectResult detect_stable(const Computation& c, const Predicate& p, Op op,
                           const Budget& budget) {
  DetectResult r;
  ScopedSpan span(budget.trace, "stable.endpoint-check");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  switch (op) {
    case Op::kEF:
    case Op::kAF: {
      // Once true, always true: p appears somewhere iff it holds at the end.
      r.algorithm = "stable-final";
      Cut final = c.final_cut();
      const bool hit = eval(final);
      if (t.exceeded()) return mark_bounded(r, t);
      r.verdict = verdict_of(hit);
      if (hit) r.witness_cut = std::move(final);
      return r;
    }
    case Op::kEG:
    case Op::kAG: {
      // p at the initial cut stays true along every sequence.
      r.algorithm = "stable-initial";
      Cut initial = c.initial_cut();
      const bool hit = eval(initial);
      if (t.exceeded()) return mark_bounded(r, t);
      r.verdict = verdict_of(hit);
      if (!hit) r.witness_cut = std::move(initial);
      return r;
    }
    default:
      HBCT_ASSERT_MSG(false, "detect_stable handles EF/AF/EG/AG only");
  }
}

DetectResult detect_ef_observer_independent(const Computation& c,
                                            const Predicate& p,
                                            const Budget& budget) {
  DetectResult r;
  r.algorithm = "oi-single-observation";
  ScopedSpan span(budget.trace, "ef.oi-scan");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  Cut g = c.initial_cut();
  eval.bind(g);
  span.arg("cursor", eval.incremental() ? 1 : 0);
  if (eval.at()) {
    r.verdict = Verdict::kHolds;
    r.witness_cut = std::move(g);
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);
  for (const EventId& e : c.linearization()) {
    eval.advance(g, static_cast<std::size_t>(e.proc));
    ++r.stats.cut_steps;
    if (eval.at()) {
      r.verdict = Verdict::kHolds;
      r.witness_cut = std::move(g);
      return r;
    }
    if (t.exceeded()) return mark_bounded(r, t);
  }
  return r;
}

namespace {

/// Iterative DFS over consistent cuts. `expand` decides whether a cut's
/// successors are explored; `goal` stops the search. Returns the goal cut's
/// path if found. All four bounds (state cap, work budget, deadline,
/// cancellation) abort through the tracker: a nullopt return with
/// t.exceeded() means the search is inconclusive, not exhausted.
///
/// The visited set is a CutTable of packed cuts; a frame is a table id plus
/// its parent's id, so paths are rebuilt by unpacking keys. goal and expand
/// see one scratch cut, moved to each successor in place.
std::optional<std::vector<Cut>> dfs_cuts(
    const Computation& c, BudgetTracker& t, DetectStats& st,
    const std::function<bool(const Cut&)>& expand,
    const std::function<bool(const Cut&)>& goal) {
  CutTable visited(c);
  const CutPacker& packer = visited.packer();
  const std::size_t w = packer.words();
  std::vector<std::ptrdiff_t> parent;  // parent[id]: id it was reached from
  std::vector<std::uint32_t> stack;

  if (!t.ok()) return std::nullopt;
  Cut g = c.initial_cut();
  if (goal(g)) return std::vector<Cut>{g};
  if (t.exceeded()) return std::nullopt;
  if (!expand(g)) return std::nullopt;
  if (t.exceeded()) return std::nullopt;
  std::vector<std::uint64_t> key(w), next(w);
  packer.pack(g, key.data());
  visited.insert(key.data());
  parent.push_back(-1);
  stack.push_back(0);

  while (!stack.empty()) {
    const std::uint32_t at = stack.back();
    stack.pop_back();
    // Copy: the key array reallocates as successors are inserted.
    std::copy_n(visited.key(at), w, key.begin());
    packer.unpack(key.data(), &g);
    for (ProcId i = 0; i < c.num_procs(); ++i) {
      if (!packer.enabled(key.data(), i)) continue;
      std::copy(key.begin(), key.end(), next.begin());
      packer.step(next.data(), i);
      ++st.cut_steps;
      if (!t.ok()) return std::nullopt;
      if (visited.contains(next.data())) continue;
      const auto gi = static_cast<std::size_t>(i);
      ++g[gi];  // g is now the successor
      if (goal(g)) {
        std::vector<Cut> path{g};
        for (std::ptrdiff_t a = at; a >= 0;
             a = parent[static_cast<std::size_t>(a)])
          path.push_back(
              packer.unpack(visited.key(static_cast<std::uint32_t>(a))));
        std::reverse(path.begin(), path.end());
        return path;
      }
      if (t.exceeded()) return std::nullopt;
      const bool grow = expand(g);
      --g[gi];
      if (!grow) {
        if (t.exceeded()) return std::nullopt;
        continue;
      }
      if (visited.size() >= t.budget().max_states) {
        t.trip(BoundReason::kStateCap);
        return std::nullopt;
      }
      const std::uint32_t id = visited.insert(next.data()).first;
      parent.push_back(at);
      stack.push_back(id);
    }
  }
  return std::nullopt;
}

}  // namespace

DetectResult detect_ef_dfs(const Computation& c, const Predicate& p,
                           const Budget& budget) {
  DetectResult r;
  r.algorithm = "ef-dfs";
  ScopedSpan span(budget.trace, "dfs.ef");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  auto path = dfs_cuts(
      c, t, r.stats, [](const Cut&) { return true; },
      [&](const Cut& g) { return eval(g); });
  if (path) {
    // A found witness is definite regardless of any bound tripped later.
    r.verdict = Verdict::kHolds;
    r.witness_cut = path->back();
    r.witness_path = std::move(*path);
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);
  return r;
}

DetectResult detect_eg_dfs(const Computation& c, const Predicate& p,
                           const Budget& budget) {
  DetectResult r;
  r.algorithm = "eg-dfs";
  ScopedSpan span(budget.trace, "dfs.eg");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  const Cut final = c.final_cut();
  // Explore only the p-true region; succeed on reaching the final cut
  // (which must itself satisfy p).
  auto path = dfs_cuts(
      c, t, r.stats, [&](const Cut& g) { return eval(g); },
      [&](const Cut& g) { return g == final && eval(g); });
  if (path) {
    r.verdict = Verdict::kHolds;
    r.witness_path = std::move(*path);
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);
  return r;
}

DetectResult detect_ag_dfs(const Computation& c, const Predicate& p,
                           const Budget& budget) {
  auto notp = p.negate();
  ScopedSpan span(budget.trace, "dfs.ag-negation");
  DetectResult inner = detect_ef_dfs(c, *notp, budget);
  DetectResult r;
  r.algorithm = "ag-dfs = !ef-dfs(!p)";
  r.stats = inner.stats;
  // Kleene negation: an inconclusive inner search must never flip into a
  // definite verdict (an aborted EF(¬p) says nothing about AG(p)).
  r.verdict = negate(inner.verdict);
  r.bound = inner.bound;
  if (inner.witness_cut) r.witness_cut = std::move(*inner.witness_cut);
  return r;
}

DetectResult detect_af_dfs(const Computation& c, const Predicate& p,
                           const Budget& budget) {
  auto notp = p.negate();
  ScopedSpan span(budget.trace, "dfs.af-negation");
  DetectResult inner = detect_eg_dfs(c, *notp, budget);
  DetectResult r;
  r.algorithm = "af-dfs = !eg-dfs(!p)";
  r.stats = inner.stats;
  r.verdict = negate(inner.verdict);
  r.bound = inner.bound;
  if (inner.verdict == Verdict::kHolds)
    r.witness_path = std::move(inner.witness_path);
  return r;
}

DetectResult detect_eu_dfs(const Computation& c, const Predicate& p,
                           const Predicate& q, const Budget& budget) {
  DetectResult r;
  r.algorithm = "eu-dfs";
  ScopedSpan span(budget.trace, "dfs.eu");
  BudgetTracker t(budget, r.stats);
  CountingEval evp(p, c, r.stats, &t);
  CountingEval evq(q, c, r.stats, &t);
  auto path = dfs_cuts(
      c, t, r.stats, [&](const Cut& g) { return evp(g); },
      [&](const Cut& g) { return evq(g); });
  if (path) {
    r.verdict = Verdict::kHolds;
    r.witness_cut = path->back();
    r.witness_path = std::move(*path);
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);
  return r;
}

DetectResult detect_au_dfs(const Computation& c, const PredicatePtr& p,
                           const PredicatePtr& q, const Budget& budget) {
  DetectResult r;
  r.algorithm = "au-dfs = !(eg-dfs(!q) | eu-dfs(!q, !p & !q))";
  ScopedSpan span(budget.trace, "dfs.au");
  auto notq = q->negate();
  auto notp = p->negate();

  // Either refuter returning a definite witness decides kFails, even when
  // the other is inconclusive; kHolds needs both to definitely fail.
  DetectResult eg = detect_eg_dfs(c, *notq, budget);
  r.stats += eg.stats;
  if (eg.verdict == Verdict::kHolds) {
    r.verdict = Verdict::kFails;
    r.witness_path = std::move(eg.witness_path);
    return r;
  }

  auto notp_and_notq = make_and(notp, notq);
  DetectResult eu = detect_eu_dfs(c, *notq, *notp_and_notq, budget);
  r.stats += eu.stats;
  if (eu.verdict == Verdict::kHolds) {
    r.verdict = Verdict::kFails;
    r.witness_path = std::move(eu.witness_path);
    return r;
  }
  if (eg.verdict == Verdict::kUnknown) return mark_bounded(r, eg.bound);
  if (eu.verdict == Verdict::kUnknown) return mark_bounded(r, eu.bound);
  r.verdict = Verdict::kHolds;
  return r;
}

}  // namespace hbct
