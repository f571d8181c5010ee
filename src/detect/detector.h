// Common result types for the detection algorithms.
//
// Every detector returns a DetectResult: a three-valued verdict (budgeted
// detections may come back kUnknown, see detect/budget.h), which algorithm
// ran, operation counts (see util/stats.h) and — where the algorithm
// naturally produces one — a witness: a satisfying cut for EF, a path of
// cuts for EG/EU, a violating cut for failed AG.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "detect/budget.h"
#include "poset/computation.h"
#include "poset/cut.h"
#include "predicate/predicate.h"
#include "util/stats.h"

namespace hbct {

/// The CTL operators of the paper's fragment.
enum class Op { kEF, kAF, kEG, kAG, kEU, kAU };

const char* to_string(Op op);

class Tracer;

/// Shared ownership of the capture of a traced detection: the flight
/// records (obs/flight.h) the run wrote, with parent links. Dispatch
/// creates one per detect() call when DispatchOptions::trace is set and
/// hands it out on the result, so callers can export the span tree
/// (Tracer::chrome_trace_json) or the full run report (obs/report.h).
using TraceHandle = std::shared_ptr<Tracer>;

struct DetectResult {
  /// The three-valued verdict. kUnknown only ever appears together with a
  /// BoundReason in `bound`, and never contradicts the unbudgeted verdict.
  Verdict verdict = Verdict::kFails;
  /// The bound that stopped the detection when verdict == kUnknown; kNone
  /// for definite verdicts.
  BoundReason bound = BoundReason::kNone;
  /// Name of the algorithm that produced the verdict ("A1", "chase-garg",
  /// "brute-eg", ...).
  std::string algorithm;
  DetectStats stats;
  /// EF/A3: the (least) satisfying cut. AG: a violating cut when kFails.
  /// Under a budget, any best-effort witness found before the bound hit.
  std::optional<Cut> witness_cut;
  /// EG/EU: a sequence of cuts from the initial cut witnessing the verdict
  /// (empty when not applicable or not kHolds).
  std::vector<Cut> witness_path;
  /// Predicted dispatch plan, e.g. "chase-garg-ef (O(n^2|E|))". Populated
  /// only when DispatchOptions::audit != AuditMode::kOff (the default path
  /// pays nothing for it). The plan name is always a prefix of `algorithm`.
  std::string plan;
  /// Lint findings for the dispatched query plus, under AuditMode::kFull,
  /// any audit violations (severity kError, code E1xx). Empty when audit is
  /// off.
  std::vector<Diagnostic> diagnostics;
  /// The capture of this run; null unless DispatchOptions::trace was set.
  /// Shared so the result stays copyable.
  TraceHandle trace;
  /// The equivalence-preserving rewrite chain the query optimizer applied
  /// (OptimizeMode::kApply) or proposes (kAnalyzeOnly), in application
  /// order. Empty when optimization is off or nothing rewrites. Populated
  /// by ctl::evaluate_query; predicate-level detect() never rewrites.
  std::vector<RewriteStep> rewrites;

  bool definite() const { return verdict != Verdict::kUnknown; }
};

/// Progress report of a resumable search (WeakConjunctiveSearch,
/// DisjunctiveScan, ChaseGargSearch): each call advances it to per-process
/// position limits.
enum class SearchStatus : std::uint8_t {
  kFound,      // the answer lies at or below the limits
  kExhausted,  // nothing at or below the limits: impossible when the limits
               // are the final cut, otherwise it needs more events
  kTripped,    // the budget ran out mid-scan; the next call resumes there
};

/// Sets verdict = kUnknown with the given reason (must not be kNone).
DetectResult& mark_bounded(DetectResult& r, BoundReason why);
DetectResult& mark_bounded(DetectResult& r, const BudgetTracker& t);

/// Predicate evaluation with op counting; all detectors evaluate through
/// this helper so stats are comparable across algorithms. An optional
/// BudgetTracker turns every evaluation into a budget checkpoint: once the
/// tracker has tripped, evaluation is refused (returns false without
/// calling the predicate). Detectors must therefore consult the tracker
/// before concluding anything definite from a false evaluation.
///
/// Two evaluation modes:
///  - operator()(g): one-shot scratch evaluation of an arbitrary cut.
///  - bind(g) + at(): incremental mode for the lattice walks. bind attaches
///    an EvalCursor to a walker-owned cut; the walker mutates that cut only
///    through advance()/retreat()/move_to() (or notifies with moved()), and
///    at() reads the cursor's O(1) value. Budget gating and the
///    predicate_evals count are identical in both modes, so a walk rewritten
///    onto the cursor protocol produces bit-identical stats; the
///    eval_incremental / eval_fallback counters record which mode served
///    each evaluation.
class CountingEval {
 public:
  CountingEval(const Predicate& p, const Computation& c, DetectStats& st,
               BudgetTracker* budget = nullptr)
      : p_(p),
        c_(c),
        st_(st),
        budget_(budget != nullptr && budget->polls_evals() ? budget
                                                           : nullptr) {}

  bool operator()(const Cut& g) const {
    if (budget_ != nullptr && !budget_->ok()) return false;
    ++st_.predicate_evals;
    ++st_.eval_fallback;
    return p_.eval(c_, g);
  }

  /// Attaches an incremental cursor to `g`, which must outlive the binding
  /// at a stable address. Predicates without an O(1)-steppable cursor hand
  /// out the scratch fallback, whose value() re-runs eval().
  void bind(const Cut& g) { cursor_ = p_.make_cursor(c_, g); }

  /// Evaluates the bound cut (bind() first); counting and budget gating as
  /// operator().
  bool at() const {
    if (budget_ != nullptr && !budget_->ok()) return false;
    ++st_.predicate_evals;
    if (cursor_->incremental()) {
      ++st_.eval_incremental;
    } else {
      ++st_.eval_fallback;
    }
    return cursor_->value();
  }

  /// Notifies the cursor that component i moved away from old_pos (the cut
  /// has already been mutated).
  void moved(ProcId i, EventIndex old_pos) const {
    cursor_->on_update(i, old_pos);
  }

  /// In-place mutations of the bound cut that keep the cursor in sync.
  /// Callers count cut_steps themselves (placement differs per algorithm).
  void advance(Cut& g, std::size_t i) const {
    const EventIndex old = g[i]++;
    moved(static_cast<ProcId>(i), old);
  }
  void retreat(Cut& g, std::size_t i) const {
    const EventIndex old = g[i]--;
    moved(static_cast<ProcId>(i), old);
  }
  void move_to(Cut& g, std::size_t i, EventIndex pos) const {
    const EventIndex old = g[i];
    if (old == pos) return;
    g[i] = pos;
    moved(static_cast<ProcId>(i), old);
  }

  /// True when at() is served by an incremental cursor (for span tagging).
  bool incremental() const { return cursor_->incremental(); }

 private:
  const Predicate& p_;
  const Computation& c_;
  DetectStats& st_;
  BudgetTracker* budget_;
  EvalCursorPtr cursor_;
};

}  // namespace hbct
