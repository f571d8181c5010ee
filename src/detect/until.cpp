#include "detect/until.h"

#include "detect/conjunctive_gw.h"
#include "detect/ef_linear.h"
#include "detect/first_match.h"
#include "detect/until_inc.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

DetectResult detect_eu_at(const Computation& c, const ConjunctivePredicate& p,
                          const Cut& iq, const Budget& budget) {
  EgPrefixState state;
  state.bind(c, p, /*instrumented=*/false);
  return state.decide_at(iq, budget, /*want_path=*/true);
}

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

DetectResult detect_eu(const Computation& c, const ConjunctivePredicate& p,
                       const Predicate& q, const Budget& budget) {
  DetectResult r;
  r.algorithm = "A3-eu";
  ScopedSpan span(budget.trace, "eu.a3");
  BudgetTracker t(budget, r.stats);
  CountingEval evq(q, c, r.stats, &t);

  if (!t.ok()) return mark_bounded(r, t);
  // Zero-length prefix: q at the initial cut.
  const Cut initial = c.initial_cut();
  if (evq(initial)) {
    r.verdict = Verdict::kHolds;
    r.witness_cut = initial;
    r.witness_path = {initial};
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);

  // Step 1: I_q, the least cut satisfying q (Chase–Garg).
  std::optional<Cut> iq;
  {
    ScopedSpan s(budget.trace, "eu.least-cut-of-q");
    iq = least_satisfying_cut(c, q, r.stats, nullptr, &t);
  }
  if (t.exceeded()) return mark_bounded(r, t);
  if (!iq) return r;

  DetectResult inner = detect_eu_at(c, p, *iq, budget);
  inner.algorithm = "A3-eu";
  inner.stats += r.stats;
  return inner;
}

DetectResult detect_au_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const DisjunctivePredicate& q,
                                   const Budget& budget) {
  DetectResult r;
  r.algorithm = "au-disjunctive = !(eg(!q) | eu(!q, !p & !q))";
  ScopedSpan span(budget.trace, "au.disjunctive");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);

  auto notq = as_conjunctive(q.negate());
  HBCT_ASSERT(notq);

  // The two refuters are independent; the first that holds decides.
  // Branch 0 — EG(¬q): a path on which q never holds refutes A[p U q].
  // Branch 1 — E[¬q U (¬p ∧ ¬q)]: a path reaching a cut where neither p nor
  // q holds, with q false all the way, also refutes A[p U q]. ¬p ∧ ¬q is a
  // conjunction of two conjunctive predicates — conjunctive, hence linear.
  FirstMatch m = detect_first_match(
      2,
      [&](std::size_t k) {
        if (k == 0) return detect_eg_conjunctive(c, *notq, budget);
        auto notp = as_conjunctive(p.negate());
        HBCT_ASSERT(notp);
        std::vector<LocalPredicatePtr> merged = notp->locals();
        merged.insert(merged.end(), notq->locals().begin(),
                      notq->locals().end());
        auto notp_and_notq = make_conjunctive(std::move(merged));
        return detect_eu(c, *notq, *notp_and_notq, budget);
      },
      [](const DetectResult& sub) { return sub.verdict == Verdict::kHolds; },
      r.stats, budget.trace, "au.refuter-fanout");

  if (m.found()) {
    // A definite refuter decides kFails even if the other branch was
    // inconclusive (Kleene conjunction with a definite false operand).
    r.verdict = Verdict::kFails;
    r.witness_path = std::move(m.result.witness_path);
  } else if (m.bound != BoundReason::kNone) {
    r.verdict = Verdict::kUnknown;
    r.bound = m.bound;
  } else {
    r.verdict = Verdict::kHolds;
  }
  return r;
}

}  // namespace hbct
