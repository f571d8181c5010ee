// Local predicates: truth depends on the state of one process only.
//
// A local predicate is simultaneously conjunctive (one conjunct) and
// disjunctive (one disjunct), hence also regular, linear, post-linear and
// observer-independent by the containments of Section 4.
#pragma once

#include <functional>

#include "predicate/predicate.h"

namespace hbct {

/// Comparison operators for variable predicates.
enum class Cmp { kLt, kLe, kEq, kNe, kGe, kGt };

const char* to_string(Cmp op);
bool cmp_eval(Cmp op, std::int64_t lhs, std::int64_t rhs);

/// Structured shape of a local predicate, recorded by the factories below.
/// The walk hot paths (LocalEval) use it to resolve the variable id once
/// per detection and read the precomputed timeline directly, instead of
/// going through the std::function + name lookup on every evaluation.
/// kOpaque (a hand-written lambda) keeps the function path.
struct LocalSpec {
  enum class Kind { kOpaque, kVarCmp, kPosCmp, kConst };
  Kind kind = Kind::kOpaque;
  std::string var;            // kVarCmp: variable name
  Cmp op = Cmp::kEq;          // kVarCmp / kPosCmp
  std::int64_t rhs = 0;       // kVarCmp / kPosCmp
  bool value = false;         // kConst
};

class LocalPredicate final : public Predicate {
 public:
  /// fn(c, pos) evaluates on the local state of `proc` after `pos` events.
  LocalPredicate(ProcId proc,
                 std::function<bool(const Computation&, EventIndex)> fn,
                 std::string desc);
  /// As above, with a structured spec the hot paths can specialize on. The
  /// spec must agree with fn on every position (the factories guarantee it).
  LocalPredicate(ProcId proc,
                 std::function<bool(const Computation&, EventIndex)> fn,
                 std::string desc, LocalSpec spec);

  ProcId proc() const { return proc_; }
  const LocalSpec& spec() const { return spec_; }

  /// Local evaluation, bypassing the cut.
  bool eval_local(const Computation& c, EventIndex pos) const {
    return fn_(c, pos);
  }

  bool eval(const Computation& c, const Cut& g) const override {
    return fn_(c, g[static_cast<std::size_t>(proc_)]);
  }
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassLocal);
  }
  std::string describe() const override { return desc_; }
  std::vector<ProcId> support(const Computation&) const override {
    return {proc_};
  }

  /// For a false local predicate the owning process must advance.
  ProcId forbidden(const Computation&, const Cut&) const override {
    return proc_;
  }
  /// Dually, going down, the owning process must retreat.
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return proc_;
  }

  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }

  PredicatePtr negate() const override;

  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override;

 private:
  ProcId proc_;
  std::function<bool(const Computation&, EventIndex)> fn_;
  std::string desc_;
  LocalSpec spec_;
};

using LocalPredicatePtr = std::shared_ptr<const LocalPredicate>;

/// Resolved per-(computation, local) evaluator for the walk inner loops:
/// kVarCmp binds the variable timeline once (absolute positions, so a
/// prefix-collected process reads its resident entries directly),
/// kPosCmp/kConst skip the computation entirely, and kOpaque falls back to
/// the std::function. The computation and the predicate must outlive the
/// evaluator, and the computation must not be grown or collected while it
/// is in use — online appends can reallocate the bound timeline.
class LocalEval {
 public:
  LocalEval(const Computation& c, const LocalPredicate& p);

  bool operator()(EventIndex pos) const {
    switch (kind_) {
      case LocalSpec::Kind::kVarCmp:
        return cmp_eval(op_, timeline_[static_cast<std::size_t>(pos)], rhs_);
      case LocalSpec::Kind::kPosCmp:
        return cmp_eval(op_, pos, rhs_);
      case LocalSpec::Kind::kConst:
        return const_;
      default:
        return p_->eval_local(*c_, pos);
    }
  }

  ProcId proc() const { return p_->proc(); }

 private:
  const Computation* c_;
  const LocalPredicate* p_;
  LocalSpec::Kind kind_ = LocalSpec::Kind::kOpaque;
  TimelineView timeline_;  // kVarCmp
  Cmp op_ = Cmp::kEq;
  std::int64_t rhs_ = 0;
  bool const_ = false;
};

/// "variable <op> constant" on one process, e.g. var_cmp(0, "x", Cmp::kLt, 4)
/// reads as: x on P0 is less than 4.
LocalPredicatePtr var_cmp(ProcId proc, std::string var, Cmp op,
                          std::int64_t rhs);

/// "process i has executed at least k events" (local progress predicate).
LocalPredicatePtr progress_ge(ProcId proc, EventIndex k);

/// "number of events executed by process i <op> k".
LocalPredicatePtr pos_cmp(ProcId proc, Cmp op, std::int64_t k);

/// Constant-valued local predicate on one process (as_conjunctive /
/// as_disjunctive use it to fold make_true / make_false into structured
/// form).
LocalPredicatePtr local_const(ProcId proc, bool value);

/// Local predicate from an explicit truth table over positions 0..N_i
/// (used by the NP-reduction gadgets and tests).
LocalPredicatePtr local_table(ProcId proc, std::vector<bool> truth,
                              std::string desc);

}  // namespace hbct
