#include "detect/ag_linear.h"

#include <optional>

#include "obs/trace.h"

namespace hbct {

namespace {

/// One A2 sweep: the meet-irreducibles from the final cut (meet = true),
/// or the join-irreducibles from the initial cut.
DetectResult sweep_irreducibles(const Computation& c, const Predicate& p,
                                const Budget& budget, bool meet) {
  DetectResult r;
  r.algorithm = meet ? "A2-ag-linear" : "A2-ag-post-linear";
  ScopedSpan span(budget.trace, meet ? "ag.a2-scan" : "ag.a2-scan-dual");
  BudgetTracker t(budget, r.stats);
  CountingEval eval(p, c, r.stats, &t);

  // Step 1: V = M(L) ∪ {E} (the dual: J(L) ∪ {∅}).
  if (!t.ok()) return mark_bounded(r, t);
  const std::vector<ProcId> support = p.support(c);
  std::vector<char> in_support(static_cast<std::size_t>(c.num_procs()), 0);
  for (const ProcId j : support) {
    HBCT_DASSERT(j >= 0 && j < c.num_procs());
    in_support[static_cast<std::size_t>(j)] = 1;
  }
  std::int64_t rows = 0;
  span.arg("support", static_cast<std::int64_t>(support.size()));
  const auto stop = [&](std::optional<Cut> witness) -> DetectResult& {
    span.arg("rows", rows);
    if (t.exceeded()) return mark_bounded(r, t);
    r.witness_cut = std::move(witness);
    return r;
  };
  Cut w = meet ? c.final_cut() : c.initial_cut();
  eval.bind(w);
  if (!eval.at()) return stop(w);
  // M(e) is read only on the support, so only the reverse-clock column
  // blocks that hold it are derived.
  const std::optional<Computation::ReverseClocks> rv =
      meet ? std::optional(c.reverse_clocks(support, budget.trace))
           : std::nullopt;
  // One cursor-bound cut seeks from irreducible to irreducible, but only
  // on the support: it agrees with the irreducible there, components
  // outside it stay where they were, and no evaluation reads them. The
  // support's components are those of a consistent cut when value() is
  // read; between move_to calls the cut may be transiently inconsistent,
  // which the cursor protocol permits.
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    const auto si = static_cast<std::size_t>(i);
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      ++r.stats.cut_steps;
      // Outside component i the irreducible changes only at a new process
      // and after a send (M) or at a receive (J); see ag_linear.h.
      const bool reread =
          k == 1 || (meet ? c.event_view(i, k - 1).kind == EventKind::kSend
                          : c.event_view(i, k).kind == EventKind::kReceive);
      if (reread) {
        ++rows;
        if (meet) {
          for (const ProcId j : support)
            eval.move_to(w, static_cast<std::size_t>(j),
                         c.num_events(j) - rv->at(i, k, j));
        } else {
          const VClockView vc = c.vclock(i, k);
          for (const ProcId j : support) {
            const auto sj = static_cast<std::size_t>(j);
            eval.move_to(w, sj, vc[sj]);
          }
        }
      } else if (in_support[si]) {
        eval.move_to(w, si, meet ? k - 1 : k);
      }
      if (!eval.at())  // Step 2
        return stop(meet ? c.meet_irreducible_of(i, k)
                         : c.join_irreducible_of(i, k));
    }
  }
  span.arg("rows", rows);
  r.verdict = Verdict::kHolds;
  return r;
}

}  // namespace

DetectResult detect_ag_linear(const Computation& c, const Predicate& p,
                              const Budget& budget) {
  return sweep_irreducibles(c, p, budget, /*meet=*/true);
}

DetectResult detect_ag_post_linear(const Computation& c,
                                   const Predicate& p,
                                   const Budget& budget) {
  return sweep_irreducibles(c, p, budget, /*meet=*/false);
}

}  // namespace hbct
