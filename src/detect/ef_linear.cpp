#include "detect/ef_linear.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

void ChaseGargSearch::bind(const Computation& c, const Predicate& q,
                           const Cut* start) {
  c_ = &c;
  q_ = &q;
  cut_ = start != nullptr ? *start : c.initial_cut();
  HBCT_DASSERT(c.is_consistent(cut_));
  forbidden_ = -1;
  incremental_ = false;
}

SearchStatus ChaseGargSearch::advance_to(const Cut& limits, DetectStats& st,
                                         BudgetTracker& t) {
  const Computation& c = *c_;
  // Nothing new below the limits since the last call: evaluate nothing.
  if (forbidden_ >= 0 ? cut_[sz(forbidden_)] >= limits[sz(forbidden_)]
                      : !cut_.subset_of(limits))
    return SearchStatus::kExhausted;
  // The cursor lives for this call only, so it never outlives a growth or a
  // collection of the computation.
  CountingEval eval(*q_, c, st, &t);
  eval.bind(cut_);
  incremental_ = eval.incremental();
  if (!t.ok()) return SearchStatus::kTripped;
  for (;;) {
    if (forbidden_ < 0) {
      if (eval.at()) return SearchStatus::kFound;
      if (t.exceeded()) return SearchStatus::kTripped;
      forbidden_ = q_->forbidden(c, cut_);
      HBCT_DASSERT(forbidden_ >= 0 && forbidden_ < c.num_procs());
      if (cut_[sz(forbidden_)] >= limits[sz(forbidden_)])
        return SearchStatus::kExhausted;  // suspended on the forbidden process
    }
    // Add the next event of the forbidden process together with its causal
    // past: the join with J(e), the least consistent cut extending the cut
    // by e, applied component-wise in place (the cut only grows toward it).
    const VClockView je = c.vclock(forbidden_, cut_[sz(forbidden_)] + 1);
    forbidden_ = -1;
    for (std::size_t j = 0; j < cut_.size(); ++j) {
      if (je[j] <= cut_[j]) continue;
      st.cut_steps += static_cast<std::uint64_t>(je[j] - cut_[j]);
      eval.move_to(cut_, j, je[j]);
    }
    if (!t.ok()) return SearchStatus::kTripped;
    // The join reached past the limits: wait until they cover it.
    if (!cut_.subset_of(limits)) return SearchStatus::kExhausted;
  }
}

EventIndex ChaseGargSearch::scan_floor(ProcId i, EventIndex floor) const {
  return std::min(floor, cut_[sz(i)]);
}

std::size_t ChaseGargSearch::state_bytes() const {
  return cut_.size() * sizeof(EventIndex);
}

std::optional<Cut> least_satisfying_cut(const Computation& c,
                                        const Predicate& p, DetectStats& st,
                                        const Cut* start,
                                        BudgetTracker* budget) {
  ScopedSpan span(budget != nullptr ? budget->budget().trace : nullptr,
                  "walk.least-cut");
  const Budget unbounded;
  BudgetTracker none(unbounded, st);
  ChaseGargSearch search;
  search.bind(c, p, start);
  const SearchStatus s = search.advance_to(
      c.final_cut(), st, budget != nullptr ? *budget : none);
  span.arg("cursor", search.incremental() ? 1 : 0);
  if (s != SearchStatus::kFound) return std::nullopt;
  return search.cut();
}

std::optional<Cut> greatest_satisfying_cut(const Computation& c,
                                           const Predicate& p,
                                           DetectStats& st, const Cut* start,
                                           BudgetTracker* budget) {
  Cut g = start ? *start : c.final_cut();
  HBCT_DASSERT(c.is_consistent(g));
  ScopedSpan span(budget != nullptr ? budget->budget().trace : nullptr,
                  "walk.greatest-cut");
  CountingEval eval(p, c, st, budget);
  eval.bind(g);
  span.arg("cursor", eval.incremental() ? 1 : 0);
  if (budget != nullptr && !budget->ok()) return std::nullopt;
  Cut me = g;  // scratch for M(e)
  const std::size_t n = static_cast<std::size_t>(c.num_procs());
  while (!eval.at()) {
    if (budget != nullptr && budget->exceeded()) return std::nullopt;
    const ProcId i = p.forbidden_down(c, g);
    HBCT_DASSERT(i >= 0 && i < c.num_procs());
    if (g[sz(i)] <= 0) return std::nullopt;  // i already at the initial state
    // Remove the last event of i together with its causal future: the meet
    // with M(e) = E \ up-set(e) is the greatest consistent cut below g not
    // containing e, applied component-wise in place.
    c.meet_irreducible_of(i, g[sz(i)], &me);
    for (std::size_t j = 0; j < n; ++j) {
      if (me[j] < g[j]) {
        st.cut_steps += static_cast<std::uint64_t>(g[j] - me[j]);
        eval.move_to(g, j, me[j]);
      }
    }
    if (budget != nullptr && !budget->ok()) return std::nullopt;
  }
  return g;
}

DetectResult detect_ef_linear(const Computation& c, const Predicate& p,
                              const Budget& budget) {
  DetectResult r;
  r.algorithm = "chase-garg-ef";
  ScopedSpan span(budget.trace, "ef.chase-garg");
  BudgetTracker t(budget, r.stats);
  auto cut = least_satisfying_cut(c, p, r.stats, nullptr, &t);
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = verdict_of(cut.has_value());
  if (cut) r.witness_cut = std::move(*cut);
  return r;
}

DetectResult detect_ef_post_linear(const Computation& c, const Predicate& p,
                                   const Budget& budget) {
  DetectResult r;
  r.algorithm = "chase-garg-ef-dual";
  ScopedSpan span(budget.trace, "ef.chase-garg-dual");
  BudgetTracker t(budget, r.stats);
  auto cut = greatest_satisfying_cut(c, p, r.stats, nullptr, &t);
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = verdict_of(cut.has_value());
  if (cut) r.witness_cut = std::move(*cut);
  return r;
}

}  // namespace hbct
