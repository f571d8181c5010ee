#include "detect/eg_linear.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hbct {

namespace {

/// One A1 walk: down from the final cut through predecessors (linear p,
/// down = true), or, the dual, up from the initial cut through successors.
DetectResult a1_walk(const Computation& c, const Predicate& p,
                     const Budget& budget, bool down) {
  DetectResult r;
  r.algorithm = down ? "A1-eg-linear" : "A1-eg-post-linear";
  ScopedSpan span(budget.trace, down ? "eg.a1-walk" : "eg.a1-walk-dual");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);

  if (!t.ok()) return mark_bounded(r, t);
  Cut w = down ? c.final_cut() : c.initial_cut();  // Step 1
  eval.bind(w);
  span.arg("cursor", eval.incremental() ? 1 : 0);
  if (!eval.at()) {                       // the start cut must satisfy p
    if (t.exceeded()) return mark_bounded(r, t);
    return r;
  }
  const Cut end = down ? c.initial_cut() : c.final_cut();
  std::vector<Cut> path;
  path.push_back(w);
  std::vector<ProcId> moves;

  while (!(w == end)) {                   // Step 2
    // Step 3: the neighbours of W one step towards `end` are the moves of
    // the processes in frontier(W) (enabled(W) upward); keep the first one
    // satisfying p (Theorem 2: any choice works). W is stepped in place:
    // move one component, test, undo on a miss.
    bool found = false;
    if (down)
      c.frontier_procs(w, &moves);
    else
      c.enabled_procs(w, &moves);
    for (ProcId i : moves) {
      const auto si = static_cast<std::size_t>(i);
      down ? eval.retreat(w, si) : eval.advance(w, si);
      ++r.stats.cut_steps;
      if (eval.at()) {                    // Step 5
        path.push_back(w);
        found = true;
        break;
      }
      down ? eval.advance(w, si) : eval.retreat(w, si);  // undo the miss
      if (t.exceeded()) return mark_bounded(r, t);
    }
    if (!found) return r;                 // Step 4: Q empty
  }
  r.verdict = Verdict::kHolds;            // Step 7: the end cut satisfies p
  if (down) std::reverse(path.begin(), path.end());
  r.witness_path = std::move(path);
  return r;
}

}  // namespace

DetectResult detect_eg_linear(const Computation& c, const Predicate& p,
                              const Budget& budget) {
  return a1_walk(c, p, budget, /*down=*/true);
}

DetectResult detect_eg_post_linear(const Computation& c,
                                   const Predicate& p,
                                   const Budget& budget) {
  return a1_walk(c, p, budget, /*down=*/false);
}

DetectResult detect_eg_linear_randomized(const Computation& c,
                                         const Predicate& p,
                                         std::uint64_t seed,
                                         const Budget& budget) {
  DetectResult r;
  r.algorithm = "A1-eg-linear (randomized choice)";
  ScopedSpan span(budget.trace, "eg.a1-walk-randomized");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);
  Rng rng(seed);

  if (!t.ok()) return mark_bounded(r, t);
  Cut w = c.final_cut();
  eval.bind(w);
  span.arg("cursor", eval.incremental() ? 1 : 0);
  if (!eval.at()) {
    if (t.exceeded()) return mark_bounded(r, t);
    return r;
  }
  const Cut initial = c.initial_cut();
  std::vector<Cut> path;
  path.push_back(w);
  std::vector<ProcId> frontier;

  while (!(w == initial)) {
    // Q = all predecessors satisfying p; pick one uniformly (Theorem 2).
    // Probe each predecessor in place (retreat, test, undo) and remember
    // the hits by process id; the draw below is over the same candidate
    // sequence the allocating version collected.
    std::vector<ProcId> q;
    c.frontier_procs(w, &frontier);
    for (ProcId i : frontier) {
      eval.retreat(w, static_cast<std::size_t>(i));
      ++r.stats.cut_steps;
      const bool hit = eval.at();
      eval.advance(w, static_cast<std::size_t>(i));
      if (t.exceeded()) return mark_bounded(r, t);
      if (hit) q.push_back(i);
    }
    if (q.empty()) return r;
    eval.retreat(w, static_cast<std::size_t>(q[rng.next_below(q.size())]));
    path.push_back(w);
  }
  r.verdict = Verdict::kHolds;
  std::reverse(path.begin(), path.end());
  r.witness_path = std::move(path);
  return r;
}

}  // namespace hbct
