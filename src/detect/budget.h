// Resource governance for the detection stack: three-valued verdicts and
// bounded search.
//
// The exponential fallbacks of Table 1 (the explicit DFS detectors, the
// brute-force LatticeChecker) can blow up on adversarial computations, and
// even the polynomial algorithms may exceed a latency-bound monitor's
// budget on very large computations. A Budget caps the work a detection may
// perform — distinct states materialized, cut-step/predicate-eval work
// units, wall-clock deadline, caller-driven cancellation — and a detector
// that runs out degrades gracefully: it returns Verdict::kUnknown together
// with the BoundReason that tripped, partial stats, and any best-effort
// witness, instead of asserting or (worse) reporting a definite verdict it
// never established.
//
// Soundness contract, relied on by tests/test_budget_soundness.cpp:
//   * a definite verdict (kHolds/kFails) under ANY budget equals the
//     verdict of the unbudgeted detection;
//   * kUnknown is returned only with a BoundReason set;
//   * verdicts are monotone in the budget: once definite at some budget,
//     the verdict is definite and identical at every larger budget.
// Negation-based compositions (AG = ¬EF(¬p), AF = ¬EG(¬p), the AU
// refuters) preserve the contract by mapping kUnknown to kUnknown — ¬ is
// strict in the unknown value, as in Kleene's strong three-valued logic.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

#include "util/assert.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hbct {

class Tracer;

/// Three-valued detection verdict. kHolds/kFails are definite and sound;
/// kUnknown means a resource bound stopped the detection first.
enum class Verdict : std::uint8_t { kHolds, kFails, kUnknown };

/// Which bound stopped a detection (kNone for definite verdicts).
enum class BoundReason : std::uint8_t {
  kNone,
  kStateCap,    // distinct-state cap of an explicit search, or a refused
                // exponential fallback (DispatchOptions::allow_exponential)
  kStepBudget,  // cut-step / predicate-eval work budget exhausted
  kDeadline,    // wall-clock deadline passed
  kCancelled,   // the caller's CancelToken fired
  kAuditFailed, // the pre-detection class audit (DispatchOptions::audit ==
                // AuditMode::kFull) found a class-claim violation; running
                // the class-specific algorithm could return a wrong definite
                // verdict, so the detection degrades to kUnknown instead
};

const char* to_string(Verdict v);
const char* to_string(BoundReason r);

/// Raises a "budget.trip" anomaly on the global flight recorder, traced or
/// not; a non-null `t` also gets the record in its capture and a
/// budget.trips.<reason> counter. Out of line: budget.h includes no obs.
void record_budget_trip(Tracer* t, BoundReason r);

inline Verdict verdict_of(bool holds) {
  return holds ? Verdict::kHolds : Verdict::kFails;
}

/// Kleene negation: definite verdicts flip, kUnknown stays unknown.
inline Verdict negate(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return Verdict::kFails;
    case Verdict::kFails: return Verdict::kHolds;
    default: return Verdict::kUnknown;
  }
}

/// Resource bounds for one detection. Default-constructed budgets keep the
/// historical behavior: a generous state cap on the explicit searches and
/// no other limit.
struct Budget {
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  /// Cap on distinct cuts an explicit search may visit (DFS detectors) or
  /// materialize (lattice construction). The polynomial algorithms never
  /// enumerate states and ignore this.
  std::size_t max_states = std::size_t{1} << 22;
  /// Work budget: cut advancements + predicate evaluations, the same units
  /// DetectStats counts. Checked at cut-step granularity.
  std::uint64_t max_work = kUnlimited;
  /// Wall-clock deadline; probed every few work units (and always at the
  /// first checkpoint, so an already-passed deadline aborts immediately).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Caller-supplied cooperative cancellation; polled at every checkpoint.
  /// Not owned; must outlive the detection.
  CancelToken* cancel = nullptr;
  /// Capture of the enclosing traced detection (obs/trace.h); not owned.
  /// Set by dispatch when DispatchOptions::trace is on and threaded here so
  /// every detector can emit spans without signature changes. nullptr (the
  /// default) keeps capture-only sites on a single-pointer-test fast path.
  Tracer* trace = nullptr;

  /// True when any bound other than the (rarely reached) state cap is set —
  /// the fast-path test the per-step checkpoint uses.
  bool has_step_bounds() const {
    return max_work != kUnlimited || deadline.has_value() || cancel != nullptr;
  }

  /// Convenience: a budget whose deadline is `d` from now.
  static Budget with_deadline_in(std::chrono::nanoseconds d) {
    Budget b;
    b.deadline = std::chrono::steady_clock::now() + d;
    return b;
  }
};

/// Per-detection checkpoint state. One tracker is created per DetectResult
/// (they share the DetectStats object, so work already counted by
/// CountingEval and the cut-step counters is exactly the work charged
/// against the budget). Trackers are cheap to construct and NOT
/// thread-safe; parallel fan-outs give every branch its own tracker over
/// the branch's own stats, which keeps verdicts deterministic across
/// parallelism widths.
class BudgetTracker {
 public:
  BudgetTracker(const Budget& b, const DetectStats& st)
      : b_(b), st_(st), base_(work()), active_(b.has_step_bounds()) {}

  /// The per-cut-step checkpoint. Returns true while within bounds; trips
  /// (stickily) and returns false once any bound is exceeded. The first
  /// call always probes the deadline and the cancel token, so a
  /// pre-cancelled token or an already-passed deadline aborts before any
  /// predicate is evaluated.
  bool ok() {
    if (reason_ != BoundReason::kNone) return false;
    if (!active_) return true;
    if (b_.cancel && b_.cancel->cancelled()) {
      trip(BoundReason::kCancelled);
      return false;
    }
    const std::uint64_t spent = work() - base_;
    if (spent > b_.max_work) {
      trip(BoundReason::kStepBudget);
      return false;
    }
    if (b_.deadline && spent >= next_clock_probe_) {
      next_clock_probe_ = spent + kClockStride;
      if (std::chrono::steady_clock::now() >= *b_.deadline) {
        trip(BoundReason::kDeadline);
        return false;
      }
    }
    return true;
  }

  /// Explicitly trip a bound (the DFS state cap is charged here rather
  /// than through the work counters). Every trip — explicit or from ok() —
  /// funnels here, so a traced detection records one instant per bound.
  void trip(BoundReason r) {
    if (reason_ != BoundReason::kNone) return;
    reason_ = r;
    record_budget_trip(b_.trace, r);
  }

  /// Charges `n` predicate evaluations against `st` with the exact
  /// semantics of the canonical scan loop
  ///
  ///   repeat n times { if (!ok()) break; ++st.predicate_evals; }
  ///
  /// but in O(1) when only the work bound is active (the common case on
  /// the budget ladders). Returns the number of evaluations actually
  /// charged — n unless a bound tripped mid-span, in which case the
  /// tracker is left tripped exactly as the loop would leave it. Deadline
  /// and cancellation budgets fall back to the literal per-unit loop so
  /// the clock-probe stride and poll points stay bit-identical too. `st`
  /// must be the stats object this tracker watches. The incremental until
  /// evaluator uses this to replay the reference sweep's budget arithmetic
  /// over spans whose outcome it already knows (detect/until_inc.h).
  std::uint64_t charge_evals(DetectStats& st, std::uint64_t n) {
    HBCT_DASSERT(&st == &st_);
    if (reason_ != BoundReason::kNone) return 0;
    if (!active_) {
      st.predicate_evals += n;
      return n;
    }
    if (b_.deadline || b_.cancel != nullptr) {
      std::uint64_t done = 0;
      while (done < n && ok()) {
        ++st.predicate_evals;
        ++done;
      }
      return done;
    }
    // Work bound only: the loop charges one eval per check that passes.
    // The check before the j-th eval of this span (0-based) sees
    // spent + j work units, so it passes iff spent + j <= max_work.
    const std::uint64_t spent = work() - base_;
    if (spent > b_.max_work) {
      trip(BoundReason::kStepBudget);
      return 0;
    }
    const std::uint64_t allowed =
        std::min<std::uint64_t>(n, b_.max_work - spent + 1);
    st.predicate_evals += allowed;
    if (allowed < n) trip(BoundReason::kStepBudget);
    return allowed;
  }

  bool exceeded() const { return reason_ != BoundReason::kNone; }
  BoundReason reason() const { return reason_; }
  const Budget& budget() const { return b_; }

  /// True when per-evaluation checkpoints can do anything: a budget with no
  /// step bounds never trips mid-evaluation, so CountingEval skips the
  /// tracker entirely and the checkpoint costs nothing on the default
  /// (unlimited) budget's hot paths. The explicit searches still poll ok()
  /// per cut step, which also observes trip()-ed state caps.
  bool polls_evals() const { return active_; }

 private:
  // Reading the clock every cut step would dominate the cheap detectors;
  // probe every kClockStride work units instead (plus once up front).
  static constexpr std::uint64_t kClockStride = 256;

  std::uint64_t work() const { return st_.cut_steps + st_.predicate_evals; }

  const Budget& b_;
  const DetectStats& st_;
  std::uint64_t base_;
  std::uint64_t next_clock_probe_ = 0;
  bool active_;
  BoundReason reason_ = BoundReason::kNone;
};

}  // namespace hbct
