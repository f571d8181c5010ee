#include "detect/conjunctive_gw.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

void WeakConjunctiveSearch::bind(const Computation& c,
                                 const ConjunctivePredicate& p,
                                 bool streaming) {
  c_ = &c;
  streaming_ = streaming;
  const std::size_t n = sz(c.num_procs());
  locals_.resize(n);
  for (ProcId i = 0; i < c.num_procs(); ++i) locals_[sz(i)] = p.local_for(i);
  cand_ = Cut(std::vector<EventIndex>(n, -1));
  scan_ = Cut(n);
  repairing_ = -1;
}

SearchStatus WeakConjunctiveSearch::scan(ProcId i, EventIndex limit,
                                         DetectStats& st, BudgetTracker& t) {
  EventIndex& pos = scan_[sz(i)];
  if (pos > limit) return SearchStatus::kExhausted;
  std::optional<LocalEval> ev;
  if (locals_[sz(i)] != nullptr) ev.emplace(*c_, *locals_[sz(i)]);
  for (; pos <= limit; ++pos) {
    if (!t.ok()) return SearchStatus::kTripped;
    ++st.predicate_evals;
    if (ev && !(*ev)(pos)) continue;
    cand_[sz(i)] = pos++;
    if (repairing_ == i) {
      ++st.cut_steps;
      repairing_ = -1;
    }
    return SearchStatus::kFound;
  }
  return SearchStatus::kExhausted;
}

SearchStatus WeakConjunctiveSearch::advance_to(const Cut& limits,
                                               DetectStats& st,
                                               BudgetTracker& t) {
  const Computation& c = *c_;
  const std::int32_t n = c.num_procs();
  for (;;) {
    bool exhausted = false;
    for (ProcId i = 0; i < n; ++i) {
      if (cand_[sz(i)] >= 0) continue;
      const SearchStatus s = scan(i, limits[sz(i)], st, t);
      if (s == SearchStatus::kTripped) return s;
      if (s == SearchStatus::kExhausted) {
        if (!streaming_) return s;
        exhausted = true;
      }
    }
    if (exhausted) return SearchStatus::kExhausted;

    // All candidates set: if the candidate event on process i has seen more
    // events of process j than cand[j], j's candidate must move to the next
    // true position at or after that clock entry. Each repair strictly
    // advances one scan position, so the search takes at most |E| repairs.
    ProcId repaired = -1;
    for (ProcId i = 0; i < n && repaired < 0; ++i) {
      if (cand_[sz(i)] == 0) continue;
      const VClockView vc = c.vclock(i, cand_[sz(i)]);
      for (ProcId j = 0; j < n; ++j) {
        if (j == i || vc[sz(j)] <= cand_[sz(j)]) continue;
        scan_[sz(j)] = vc[sz(j)];
        cand_[sz(j)] = -1;
        repaired = j;
        break;
      }
    }
    if (repaired < 0) return SearchStatus::kFound;
    if (streaming_) {
      ++st.cut_steps;
    } else {
      repairing_ = repaired;
    }
  }
}

EventIndex WeakConjunctiveSearch::scan_floor(ProcId i,
                                             EventIndex floor) const {
  const EventIndex need =
      cand_[sz(i)] >= 0 ? cand_[sz(i)] : scan_[sz(i)];
  return std::min(floor, need);
}

std::size_t WeakConjunctiveSearch::state_bytes() const {
  return locals_.capacity() * sizeof(const LocalPredicate*) +
         (cand_.size() + scan_.size()) * sizeof(EventIndex);
}

std::vector<Cut> linearization_path(const Computation& c, const Cut& k) {
  std::vector<Cut> path;
  Cut g = c.initial_cut();
  path.push_back(g);
  for (const EventId& e : c.linearization()) {
    if (e.index > k[sz(e.proc)]) continue;
    ++g[sz(e.proc)];
    path.push_back(g);
  }
  return path;
}

DetectResult detect_ef_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget) {
  DetectResult r;
  r.algorithm = "gw-weak-conjunctive";
  ScopedSpan span(budget.trace, "ef.gw-weak");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  WeakConjunctiveSearch search;
  search.bind(c, p, /*streaming=*/false);
  switch (search.advance_to(c.final_cut(), r.stats, t)) {
    case SearchStatus::kTripped: return mark_bounded(r, t);
    case SearchStatus::kExhausted: return r;  // some conjunct never holds
    case SearchStatus::kFound: break;
  }
  HBCT_DASSERT(c.is_consistent(search.cut()));
  r.verdict = Verdict::kHolds;
  r.witness_cut = search.cut();
  return r;
}

namespace {

/// Shared scan: finds a violating (process, position) or reports all-true.
/// Every local evaluation is counted in st. Returns nullopt with the
/// tracker tripped when the budget ran out mid-scan (callers must check
/// before treating nullopt as "all positions true"). The scan is restricted
/// to positions 0..k[i] — the prefix sublattice below k.
std::optional<std::pair<ProcId, EventIndex>> find_false_position(
    const Computation& c, const ConjunctivePredicate& p, const Cut& k,
    DetectStats& st, BudgetTracker& t) {
  for (const auto& local : p.locals()) {
    const ProcId i = local->proc();
    HBCT_ASSERT_MSG(i < c.num_procs(),
                    "conjunct references a process outside the computation");
    const LocalEval le(c, *local);
    for (EventIndex pos = 0; pos <= k[sz(i)]; ++pos) {
      if (!t.ok()) return std::nullopt;
      ++st.predicate_evals;
      if (!le(pos)) return std::make_pair(i, pos);
    }
  }
  return std::nullopt;
}

}  // namespace

DetectResult detect_eg_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget) {
  return detect_eg_conjunctive_within(c, p, c.final_cut(), budget);
}

DetectResult detect_eg_conjunctive_within(const Computation& c,
                                          const ConjunctivePredicate& p,
                                          const Cut& k,
                                          const Budget& budget) {
  // Equivalent to detect_eg_conjunctive(c.prefix(k), p, budget) without
  // materializing the prefix computation: local values at positions <= k[i]
  // agree between c and the prefix, and the prefix's canonical
  // linearization is exactly c's restricted to events inside k.
  DetectResult r;
  r.algorithm = "eg-conjunctive-scan";
  ScopedSpan span(budget.trace, "eg.conjunctive-scan");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  if (find_false_position(c, p, k, r.stats, t)) return r;
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = Verdict::kHolds;
  // Any maximal cut sequence is a witness; use the canonical linearization.
  r.witness_path = linearization_path(c, k);
  return r;
}

DetectResult detect_ag_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget) {
  DetectResult r;
  r.algorithm = "ag-conjunctive-scan";
  ScopedSpan span(budget.trace, "ag.conjunctive-scan");
  BudgetTracker t(budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  if (auto bad = find_false_position(c, p, c.final_cut(), r.stats, t)) {
    // A consistent cut exhibiting the violation: the least cut placing the
    // process at the bad position (J(e) for pos >= 1, initial cut else).
    auto [i, pos] = *bad;
    r.witness_cut = pos == 0 ? c.initial_cut() : c.join_irreducible_of(i, pos);
    return r;
  }
  if (t.exceeded()) return mark_bounded(r, t);
  r.verdict = Verdict::kHolds;
  return r;
}

DetectResult detect_af_conjunctive(const Computation& c,
                                   const ConjunctivePredicate& p,
                                   const Budget& budget) {
  // Garg–Waldecker strong conjunctive detection, reformulated as the search
  // for an *unavoidable box*: one true-interval X_i = [a_i, b_i] per process
  // such that for every ordered pair (i, j) entering X_j is forced before
  // exiting X_i — i.e. (j, a_j) happened-before (i, b_i + 1), with the
  // boundary conventions a_j == 0 (entered from the start) and b_i == N_i
  // (exit impossible) counting as forced. Every maximal cut sequence then
  // passes a cut inside the box, where all conjuncts hold, so AF(p) is true.
  // Conversely (GW96) if no such box exists some sequence avoids p.
  //
  // Greedy search: keep the earliest candidate interval per process; a
  // violated pair (i, j) can never be fixed by later intervals of j (their
  // entries only move later, making "entered before exit of X_i" harder),
  // so advance process i's candidate. O(n^2 * #intervals) clock tests.
  DetectResult r;
  r.algorithm = "gw-strong-conjunctive";
  ScopedSpan span(budget.trace, "af.gw-strong");
  BudgetTracker t(budget, r.stats);
  const std::int32_t n = c.num_procs();
  if (!t.ok()) return mark_bounded(r, t);

  struct Iv {
    EventIndex a, b;
  };
  std::vector<std::vector<Iv>> ivs(static_cast<std::size_t>(n));
  for (ProcId i = 0; i < n; ++i) {
    const LocalPredicate* local = p.local_for(i);
    if (local == nullptr) {
      // No conjunct on i: vacuously true everywhere.
      ivs[static_cast<std::size_t>(i)].push_back(Iv{0, c.num_events(i)});
      continue;
    }
    const LocalEval le(c, *local);
    EventIndex run = -1;
    for (EventIndex pos = 0; pos <= c.num_events(i); ++pos) {
      if (!t.ok()) return mark_bounded(r, t);
      ++r.stats.predicate_evals;
      const bool tr = le(pos);
      if (tr && run < 0) run = pos;
      if (!tr && run >= 0) {
        ivs[static_cast<std::size_t>(i)].push_back(Iv{run, pos - 1});
        run = -1;
      }
    }
    if (run >= 0)
      ivs[static_cast<std::size_t>(i)].push_back(Iv{run, c.num_events(i)});
    if (ivs[static_cast<std::size_t>(i)].empty()) return r;  // conjunct never true
  }

  std::vector<std::size_t> cand(static_cast<std::size_t>(n), 0);
  auto interval = [&](ProcId i) -> const Iv& {
    return ivs[static_cast<std::size_t>(i)][cand[static_cast<std::size_t>(i)]];
  };
  // Forced "enter X_j before exit X_i" test.
  auto forced = [&](ProcId i, ProcId j) {
    const Iv& xi = interval(i);
    const Iv& xj = interval(j);
    if (xj.a == 0) return true;                // entered from the start
    if (xi.b == c.num_events(i)) return true;  // exit impossible
    return c.vclock(i, xi.b + 1)[static_cast<std::size_t>(j)] >= xj.a;
  };

  for (;;) {
    if (!t.ok()) return mark_bounded(r, t);
    ProcId bad = -1;
    for (ProcId i = 0; i < n && bad < 0; ++i)
      for (ProcId j = 0; j < n; ++j) {
        if (i == j) continue;
        if (!forced(i, j)) {
          bad = i;
          break;
        }
      }
    if (bad < 0) {
      r.verdict = Verdict::kHolds;  // unavoidable box found
      return r;
    }
    ++r.stats.cut_steps;
    if (++cand[static_cast<std::size_t>(bad)] >=
        ivs[static_cast<std::size_t>(bad)].size())
      return r;  // process exhausted: no unavoidable box, AF(p) is false
  }
}

}  // namespace hbct
