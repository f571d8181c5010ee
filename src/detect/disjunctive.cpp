#include "detect/disjunctive.h"

#include <algorithm>

#include "detect/conjunctive_gw.h"
#include "detect/ef_linear.h"
#include "obs/trace.h"
#include "predicate/conjunctive.h"
#include "util/assert.h"

namespace hbct {

void DisjunctiveScan::bind(const Computation& c,
                           const DisjunctivePredicate& p) {
  c_ = &c;
  locals_.clear();
  for (const auto& local : p.locals())
    if (local->proc() < c.num_procs()) locals_.push_back(local.get());
  scan_.assign(locals_.size(), 0);
  found_ = 0;
}

SearchStatus DisjunctiveScan::advance_to(const Cut& limits, DetectStats& st,
                                         BudgetTracker& t) {
  for (std::size_t l = 0; l < locals_.size(); ++l) {
    const EventIndex limit =
        limits[static_cast<std::size_t>(locals_[l]->proc())];
    if (scan_[l] > limit) continue;
    const LocalEval ev(*c_, *locals_[l]);
    for (EventIndex& pos = scan_[l]; pos <= limit; ++pos) {
      if (!t.ok()) return SearchStatus::kTripped;
      ++st.predicate_evals;
      if (ev(pos)) {
        found_ = l;
        return SearchStatus::kFound;
      }
    }
  }
  return SearchStatus::kExhausted;
}

Cut DisjunctiveScan::witness() const {
  const ProcId i = locals_[found_]->proc();
  const EventIndex pos = scan_[found_];
  return pos == 0 ? c_->initial_cut() : c_->join_irreducible_of(i, pos);
}

EventIndex DisjunctiveScan::scan_floor(ProcId i, EventIndex floor) const {
  for (std::size_t l = 0; l < locals_.size(); ++l)
    if (locals_[l]->proc() == i) return std::min(floor, scan_[l]);
  return floor;
}

std::size_t DisjunctiveScan::state_bytes() const {
  return locals_.capacity() * sizeof(const LocalPredicate*) +
         scan_.capacity() * sizeof(EventIndex);
}

DetectResult detect_ef_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget) {
  DetectResult r;
  r.algorithm = "ef-disjunctive-scan";
  ScopedSpan span(budget.trace, "ef.disjunctive-scan");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  DisjunctiveScan scan;
  scan.bind(c, p);
  switch (scan.advance_to(c.final_cut(), r.stats, t)) {
    case SearchStatus::kTripped: return mark_bounded(r, t);
    case SearchStatus::kExhausted: return r;
    case SearchStatus::kFound: break;
  }
  r.verdict = Verdict::kHolds;
  r.witness_cut = scan.witness();
  return r;
}

DetectResult detect_af_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget) {
  DetectResult r = detect_ef_disjunctive(c, p, budget);
  r.algorithm = "af-disjunctive = ef (observer-independent)";
  return r;
}

DetectResult detect_eg_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget) {
  // EG(q) = ¬AF(¬q): some path keeps q true everywhere iff the negated
  // conjunctive predicate does not *definitely* hold (Garg–Waldecker
  // unavoidable-box search, see detect_af_conjunctive).
  auto notp = as_conjunctive(p.negate());
  HBCT_ASSERT(notp);
  ScopedSpan span(budget.trace, "eg.disjunctive-negation");
  DetectResult inner = detect_af_conjunctive(c, *notp, budget);
  DetectResult r;
  r.algorithm = "eg-disjunctive = !af-conjunctive(!p)";
  r.stats = inner.stats;
  r.verdict = negate(inner.verdict);
  r.bound = inner.bound;
  return r;
}

DetectResult detect_ag_disjunctive(const Computation& c,
                                   const DisjunctivePredicate& p,
                                   const Budget& budget) {
  auto notp = as_conjunctive(p.negate());
  HBCT_ASSERT(notp);
  DetectResult r;
  r.algorithm = "ag-disjunctive = !ef-conjunctive(!p)";
  ScopedSpan span(budget.trace, "ag.disjunctive-negation");
  BudgetTracker t(budget, r.stats);
  auto bad = least_satisfying_cut(c, *notp, r.stats, nullptr, &t);
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = verdict_of(!bad.has_value());
  if (bad) r.witness_cut = std::move(*bad);
  return r;
}

}  // namespace hbct
