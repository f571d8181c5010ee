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
  procs_.clear();
  tracks_.clear();
  procs_.reserve(sz(c.num_procs()));
  tracks_.reserve(sz(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    const LocalPredicate* local = p.local_for(i);
    if (streaming && local == nullptr) continue;
    procs_.push_back(i);
    tracks_.emplace_back().local = local;
  }
  cand_ = Cut(std::vector<EventIndex>(sz(c.num_procs()), -1));
  cut_ = Cut(sz(c.num_procs()));
  repairing_ = -1;
}

SearchStatus WeakConjunctiveSearch::scan(std::size_t a, EventIndex limit,
                                         bool fill, DetectStats& st,
                                         BudgetTracker& t) {
  const ProcId i = procs_[a];
  Track& k = tracks_[a];
  EventIndex& cand = cand_[sz(i)];
  if (k.scan <= limit) {
    const std::size_t n = sz(c_->num_procs());
    std::optional<LocalEval> ev;
    if (k.local != nullptr) ev.emplace(*c_, *k.local);
    for (EventIndex& pos = k.scan; pos <= limit; ++pos) {
      // Another candidate's row requires this process to have reached one
      // of its sends (the latest of its events another process has seen),
      // so a repair pops whole send-to-send segments: only the first true
      // position after each send can become the candidate.
      if (cand >= 0 && !k.after_send) {
        if (c_->event_view(i, pos).kind != EventKind::kSend) continue;
        k.after_send = true;
      }
      if (!t.ok()) return SearchStatus::kTripped;
      ++st.predicate_evals;
      if (ev && !(*ev)(pos)) continue;
      k.after_send = false;
      if (pos > 0 && streaming_) {
        const VClockView vc = c_->vclock(i, pos);
        HBCT_DASSERT(vc[sz(i)] == pos);
        k.rows.insert(k.rows.end(), vc.data(), vc.data() + n);
      }
      if (cand < 0) cand = pos;
      if (repairing_ == i) {
        ++st.cut_steps;
        repairing_ = -1;
      }
      if (!fill) {
        ++pos;
        break;
      }
    }
  }
  return cand < 0 ? SearchStatus::kExhausted : SearchStatus::kFound;
}

void WeakConjunctiveSearch::pop_below(std::size_t a, EventIndex need) {
  const ProcId i = procs_[a];
  Track& k = tracks_[a];
  HBCT_DASSERT(need <= c_->trimmed(i) ||
               c_->event_view(i, need).kind == EventKind::kSend);
  const std::size_t n = sz(c_->num_procs());
  while (k.head < k.rows.size() && k.rows[k.head + sz(i)] < need) k.head += n;
  if (k.head == k.rows.size()) {
    k.rows.clear();
    k.head = 0;
    cand_[sz(i)] = -1;
  } else {
    if (k.head * 2 > k.rows.size()) {
      k.rows.erase(k.rows.begin(),
                   k.rows.begin() + static_cast<std::ptrdiff_t>(k.head));
      k.head = 0;
    }
    cand_[sz(i)] = k.rows[k.head + sz(i)];
  }
  k.scan = std::max(k.scan, need);
}

const std::int32_t* WeakConjunctiveSearch::cand_row(std::size_t a) const {
  const ProcId i = procs_[a];
  if (!streaming_) return c_->vclock(i, cand_[sz(i)]).data();
  return tracks_[a].rows.data() + tracks_[a].head;
}

SearchStatus WeakConjunctiveSearch::advance_to(const Cut& limits,
                                               DetectStats& st,
                                               BudgetTracker& t) {
  const std::size_t m = procs_.size();
  for (;;) {
    bool exhausted = false;
    for (std::size_t a = 0; a < m; ++a) {
      if (cand_[sz(procs_[a])] >= 0) continue;
      const SearchStatus s = scan(a, limits[sz(procs_[a])], false, st, t);
      if (s == SearchStatus::kTripped) return s;
      if (s == SearchStatus::kExhausted) {
        if (!streaming_) return s;
        exhausted = true;
      }
    }
    if (exhausted) break;

    // All candidates set: if the candidate event on process i has seen more
    // events of process j than cand[j], every queued position of j below
    // that clock entry is ruled out. Each repair strictly advances one
    // candidate, so the search takes at most |E| repairs.
    ProcId repaired = -1;
    for (std::size_t a = 0; a < m && repaired < 0; ++a) {
      if (cand_[sz(procs_[a])] == 0) continue;
      const std::int32_t* row = cand_row(a);
      for (std::size_t b = 0; b < m; ++b) {
        const ProcId j = procs_[b];
        if (b == a || row[sz(j)] <= cand_[sz(j)]) continue;
        pop_below(b, row[sz(j)]);
        repaired = j;
        break;
      }
    }
    if (repaired < 0) return found();
    if (streaming_) {
      ++st.cut_steps;
    } else {
      repairing_ = repaired;
    }
  }
  // Streaming, some process exhausted: the search waits for its events.
  // Meanwhile every process scans on to its limit, queueing its true
  // positions, so the scans (the GC pins) keep up with the limits.
  for (std::size_t a = 0; a < m; ++a)
    if (scan(a, limits[sz(procs_[a])], true, st, t) ==
        SearchStatus::kTripped)
      return SearchStatus::kTripped;
  // An exhausted process takes its candidate at or above its scan position,
  // so that candidate's row dominates the clock of its last scanned
  // position: queued positions below it are ruled out already. Popping
  // them keeps each queue to what a candidate can still use.
  for (std::size_t a = 0; a < m; ++a) {
    const ProcId i = procs_[a];
    if (cand_[sz(i)] >= 0 || tracks_[a].scan < 2) continue;
    const VClockView vc = c_->vclock(i, tracks_[a].scan - 1);
    for (std::size_t b = 0; b < m; ++b) {
      const ProcId j = procs_[b];
      if (b != a && cand_[sz(j)] >= 0 && vc[sz(j)] > cand_[sz(j)])
        pop_below(b, vc[sz(j)]);
    }
  }
  return SearchStatus::kExhausted;
}

SearchStatus WeakConjunctiveSearch::found() {
  // The cut is the join of the candidates' rows: a tracked process sits at
  // its candidate (the rows are pairwise consistent at the fixpoint), an
  // untracked one at the latest of its events some candidate has seen.
  cut_ = cand_;
  for (std::size_t j = 0; j < cut_.size(); ++j) {
    if (cut_[j] >= 0) continue;
    cut_[j] = 0;
    for (std::size_t a = 0; a < procs_.size(); ++a)
      if (cand_[sz(procs_[a])] > 0)
        cut_[j] = std::max(cut_[j], cand_row(a)[j]);
  }
  return SearchStatus::kFound;
}

EventIndex WeakConjunctiveSearch::scan_floor(ProcId i,
                                             EventIndex floor) const {
  for (std::size_t a = 0; a < procs_.size(); ++a)
    if (procs_[a] == i)
      return std::min(floor, std::max<EventIndex>(tracks_[a].scan - 1, 0));
  return floor;
}

std::size_t WeakConjunctiveSearch::state_bytes() const {
  std::size_t bytes = procs_.capacity() * sizeof(ProcId) +
                      tracks_.capacity() * sizeof(Track) +
                      (cand_.size() + cut_.size()) * sizeof(EventIndex);
  for (const Track& k : tracks_)
    bytes += k.rows.capacity() * sizeof(std::int32_t);
  return bytes;
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
