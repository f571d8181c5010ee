#include "detect/until_inc.h"

#include <algorithm>
#include <optional>

#include "detect/first_match.h"
#include "obs/trace.h"
#include "predicate/local.h"
#include "util/assert.h"

namespace hbct {

namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

/// Position evaluator for one conjunct: the specialized LocalEval fast
/// path while the timeline is fully resident, the function path once GC
/// has trimmed it (value_timeline views require trimmed == 0; value_at
/// handles the storage offset). Identical booleans either way.
class PosEval {
 public:
  PosEval(const Computation& c, const LocalPredicate& p) : c_(&c), p_(&p) {
    if (c.trimmed(p.proc()) == 0) fast_.emplace(c, p);
  }
  bool operator()(EventIndex pos) const {
    return fast_.has_value() ? (*fast_)(pos) : p_->eval_local(*c_, pos);
  }

 private:
  const Computation* c_;
  const LocalPredicate* p_;
  std::optional<LocalEval> fast_;
};

}  // namespace

void EgPrefixState::bind(const Computation& c, const ConjunctivePredicate& p,
                         bool instrumented) {
  c_ = &c;
  pred_ = &p;
  instrumented_ = instrumented;
  const auto& locals = p.locals();
  procs_.clear();
  first_false_.clear();
  scanned_.clear();
  procs_.reserve(locals.size());
  first_false_.reserve(locals.size());
  scanned_.reserve(locals.size());
  for (const auto& local : locals) {
    HBCT_ASSERT_MSG(local->proc() < c.num_procs(),
                    "conjunct references a process outside the computation");
    procs_.push_back(local->proc());
    first_false_.push_back(-1);
    scanned_.push_back(0);
  }
}

void EgPrefixState::advance_to(const Cut& limits, DetectStats& st,
                               BudgetTracker* t) {
  HBCT_DASSERT(bound());
  for (std::size_t l = 0; l < procs_.size(); ++l) {
    if (first_false_[l] >= 0) continue;  // decided: never read again
    const EventIndex limit = limits[sz(procs_[l])];
    if (scanned_[l] > limit) continue;
    const PosEval ev(*c_, *pred_->locals()[l]);
    for (EventIndex pos = scanned_[l]; pos <= limit; ++pos) {
      if (t != nullptr && !t->ok()) return;  // suspended; resumes here
      ++st.predicate_evals;
      if (instrumented_) ++st.until_inc_evals;
      scanned_[l] = pos + 1;
      if (!ev(pos)) {
        first_false_[l] = pos;
        break;
      }
    }
  }
}

EgPrefixState::Sim EgPrefixState::sim_scan(std::size_t l, EventIndex last,
                                           DetectStats& st, BudgetTracker& t,
                                           EventIndex* false_pos) {
  const EventIndex ff = first_false_[l];
  if (ff >= 0 && ff <= last) {
    // The reference scans 0..ff: ff true evaluations, then the false one.
    const auto need = static_cast<std::uint64_t>(ff) + 1;
    if (t.charge_evals(st, need) < need) return Sim::kTripped;
    *false_pos = ff;
    return Sim::kFalse;
  }
  // Every scanned position <= last is true: ff < 0, or ff > last (which
  // implies scanned > last). Charge the known-true span arithmetically.
  const EventIndex known =
      std::min<EventIndex>(scanned_[l], last + 1);
  const auto span = static_cast<std::uint64_t>(known);
  if (t.charge_evals(st, span) < span) return Sim::kTripped;
  if (scanned_[l] > last) return Sim::kAllTrue;
  // Lazy extension over the unscanned tail — the reference loop verbatim,
  // additionally recording what it learns into the table.
  const PosEval ev(*c_, *pred_->locals()[l]);
  for (EventIndex pos = scanned_[l]; pos <= last; ++pos) {
    if (!t.ok()) return Sim::kTripped;
    ++st.predicate_evals;
    if (instrumented_) ++st.until_dec_evals;
    scanned_[l] = pos + 1;
    if (!ev(pos)) {
      first_false_[l] = pos;
      *false_pos = pos;
      return Sim::kFalse;
    }
  }
  return Sim::kAllTrue;
}

DetectResult EgPrefixState::eg_within(const Cut& k, const Budget& budget,
                                      bool want_path) {
  const Computation& c = *c_;
  DetectResult r;
  r.algorithm = "eg-conjunctive-scan";
  ScopedSpan span(budget.trace, "eg.conjunctive-scan");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  for (std::size_t l = 0; l < procs_.size(); ++l) {
    EventIndex false_pos = -1;
    switch (sim_scan(l, k[sz(procs_[l])], r.stats, t, &false_pos)) {
      case Sim::kTripped: return mark_bounded(r, t);
      case Sim::kFalse: return r;  // violation: EG(p) fails here
      case Sim::kAllTrue: break;
    }
  }
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = Verdict::kHolds;
  if (want_path) {
    Cut g = c.initial_cut();
    r.witness_path.push_back(g);
    for (const EventId& e : c.linearization()) {
      if (e.index > k[sz(e.proc)]) continue;
      ++g[sz(e.proc)];
      r.witness_path.push_back(g);
    }
  }
  return r;
}

DetectResult EgPrefixState::decide_at(const Cut& iq, const Budget& budget,
                                      bool want_path) {
  HBCT_DASSERT(bound());
  const Computation& c = *c_;
  DetectResult r;
  r.algorithm = "A3-eu (given I_q)";
  HBCT_ASSERT_MSG(c.is_consistent(iq), "I_q must be a consistent cut");
  ScopedSpan span(budget.trace, "eu.frontier-sweep");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);

  const Cut initial = c.initial_cut();
  if (iq == initial) {
    r.verdict = Verdict::kHolds;
    r.witness_cut = initial;
    r.witness_path = {initial};
    return r;
  }

  // The reference frontier sweep, replayed sequentially off the shared
  // table. Branches share the table — the first branch's physical scan
  // turns the rest into arithmetic.
  const std::vector<ProcId> frontier = c.frontier_procs(iq);
  FirstMatch m = detect_first_match(
      frontier.size(),
      [&](std::size_t k) {
        const Cut sub = c.retreat(iq, frontier[k]);
        DetectResult eg = eg_within(sub, budget, want_path);
        ++eg.stats.cut_steps;  // the retreat that formed this sub-computation
        return eg;
      },
      [](const DetectResult& eg) { return eg.verdict == Verdict::kHolds; },
      r.stats, budget.trace, "eu.frontier-fanout");
  span.arg("frontier", static_cast<std::int64_t>(frontier.size()));
  if (m.found()) {
    r.verdict = Verdict::kHolds;
    r.witness_path = std::move(m.result.witness_path);
    if (want_path) r.witness_path.push_back(iq);
    r.witness_cut = iq;
  } else if (m.bound != BoundReason::kNone) {
    r.verdict = Verdict::kUnknown;
    r.bound = m.bound;
  }
  return r;
}

EventIndex EgPrefixState::scan_floor(ProcId i, EventIndex fallback) const {
  EventIndex f = fallback;
  for (std::size_t l = 0; l < procs_.size(); ++l)
    if (procs_[l] == i && first_false_[l] < 0)
      f = std::min(f, scanned_[l]);
  return f;
}

std::size_t EgPrefixState::state_bytes() const {
  return sizeof(*this) + procs_.capacity() * sizeof(ProcId) +
         (first_false_.capacity() + scanned_.capacity()) * sizeof(EventIndex);
}

}  // namespace hbct
