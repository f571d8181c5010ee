#include "predicate/predicate.h"

#include <algorithm>
#include <sstream>

#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "util/assert.h"

namespace hbct {

ClassSet close_classes(ClassSet s) {
  ClassSet prev;
  do {
    prev = s;
    if (s & kClassLocal) s |= kClassConjunctive | kClassDisjunctive;
    if (s & kClassConjunctive) s |= kClassRegular;
    if (s & kClassRegular) s |= kClassLinear | kClassPostLinear;
    if (s & kClassDisjunctive) s |= kClassObserverIndependent;
    if (s & kClassStable) s |= kClassObserverIndependent;
  } while (s != prev);
  return s;
}

std::string classes_to_string(ClassSet s) {
  static constexpr std::pair<ClassSet, const char*> kNames[] = {
      {kClassLocal, "local"},
      {kClassConjunctive, "conjunctive"},
      {kClassDisjunctive, "disjunctive"},
      {kClassStable, "stable"},
      {kClassObserverIndependent, "observer-independent"},
      {kClassLinear, "linear"},
      {kClassPostLinear, "post-linear"},
      {kClassRegular, "regular"},
      {kClassEquilevel, "equilevel"},
  };
  std::string out;
  for (const auto& [flag, name] : kNames) {
    if (!(s & flag)) continue;
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? "arbitrary" : out;
}

ProcId Predicate::forbidden(const Computation&, const Cut&) const {
  HBCT_ASSERT_MSG(false, "predicate has no linear-advancement oracle");
}

ProcId Predicate::forbidden_down(const Computation&, const Cut&) const {
  HBCT_ASSERT_MSG(false, "predicate has no post-linear oracle");
}

ClassSet effective_classes(const Predicate& p, const Computation& c) {
  ClassSet s = p.classes(c);
  if (p.eval(c, c.trim_cut())) s |= kClassObserverIndependent;
  return close_classes(s);
}

namespace {

// ---- Cursors for the generic combinators ------------------------------------

/// Fallback cursor: value() re-evaluates from scratch. Used for every
/// predicate without structure to exploit (make_asserted, make_stable).
class ScratchEvalCursor final : public EvalCursor {
 public:
  ScratchEvalCursor(const Predicate& p, const Computation& c, const Cut& g)
      : EvalCursor(c, g), p_(p) {}
  void on_update(ProcId, EventIndex) override {}
  bool value() override { return p_.eval(comp(), cut()); }
  bool incremental() const override { return false; }

 private:
  const Predicate& p_;
};

class ConstCursor final : public EvalCursor {
 public:
  ConstCursor(const Computation& c, const Cut& g, bool v)
      : EvalCursor(c, g), v_(v) {}
  void on_update(ProcId, EventIndex) override {}
  bool value() override { return v_; }

 private:
  bool v_;
};

class NotCursor final : public EvalCursor {
 public:
  NotCursor(const Computation& c, const Cut& g, EvalCursorPtr child)
      : EvalCursor(c, g), ch_(std::move(child)) {}
  void on_update(ProcId i, EventIndex old_pos) override {
    ch_->on_update(i, old_pos);
  }
  bool value() override { return !ch_->value(); }
  bool incremental() const override { return ch_->incremental(); }

 private:
  EvalCursorPtr ch_;
};

/// Updates are forwarded eagerly (cheap: children cache per-process state);
/// truth short-circuits lazily in value(), matching the And/Or eval order —
/// a fallback child's value() is only paid when the scan reaches it,
/// exactly as its eval() would be.
class JunctionCursor final : public EvalCursor {
 public:
  JunctionCursor(const Computation& c, const Cut& g,
                 std::vector<EvalCursorPtr> children, bool conjunction)
      : EvalCursor(c, g), ch_(std::move(children)), and_(conjunction) {}
  void on_update(ProcId i, EventIndex old_pos) override {
    for (auto& ch : ch_) ch->on_update(i, old_pos);
  }
  bool value() override {
    for (auto& ch : ch_)
      if (ch->value() != and_) return !and_;
    return and_;
  }
  bool incremental() const override {
    for (const auto& ch : ch_)
      if (!ch->incremental()) return false;
    return true;
  }

 private:
  std::vector<EvalCursorPtr> ch_;
  bool and_;
};

/// Union of the children's supports.
std::vector<ProcId> union_support(const std::vector<PredicatePtr>& ch,
                                  const Computation& c) {
  std::vector<ProcId> procs;
  for (const auto& p : ch) {
    const std::vector<ProcId> s = p->support(c);
    procs.insert(procs.end(), s.begin(), s.end());
  }
  return make_support(std::move(procs));
}

EvalCursorPtr make_junction_cursor(const std::vector<PredicatePtr>& ch,
                                   const Computation& c, const Cut& g,
                                   bool conjunction) {
  std::vector<EvalCursorPtr> cursors;
  cursors.reserve(ch.size());
  for (const auto& p : ch) cursors.push_back(p->make_cursor(c, g));
  return std::make_unique<JunctionCursor>(c, g, std::move(cursors),
                                          conjunction);
}

// ---- Constants --------------------------------------------------------------

class ConstPredicate final : public Predicate {
 public:
  explicit ConstPredicate(bool v) : v_(v) {}
  bool eval(const Computation&, const Cut&) const override { return v_; }
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassLocal | kClassStable);
  }
  std::string describe() const override { return v_ ? "true" : "false"; }
  std::vector<ProcId> support(const Computation&) const override {
    return {};
  }
  ProcId forbidden(const Computation&, const Cut&) const override {
    // Only reachable for the constant-false predicate; no cut satisfies it,
    // so every process is forbidden.
    return 0;
  }
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return 0;
  }
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }
  PredicatePtr negate() const override {
    return std::make_shared<ConstPredicate>(!v_);
  }
  std::optional<bool> as_constant() const override { return v_; }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<ConstCursor>(c, g, v_);
  }

 private:
  bool v_;
};

// ---- Not ---------------------------------------------------------------------

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr p) : p_(std::move(p)) {}
  bool eval(const Computation& c, const Cut& g) const override {
    return !p_->eval(c, g);
  }
  ClassSet classes(const Computation&) const override { return 0; }
  std::string describe() const override { return "!(" + p_->describe() + ")"; }
  std::vector<ProcId> support(const Computation& c) const override {
    return p_->support(c);
  }
  PredicatePtr negate() const override { return p_; }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<NotCursor>(c, g, p_->make_cursor(c, g));
  }

 private:
  PredicatePtr p_;
};

// ---- And / Or -----------------------------------------------------------------

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> ch) : ch_(std::move(ch)) {}

  bool eval(const Computation& c, const Cut& g) const override {
    for (const auto& p : ch_)
      if (!p->eval(c, g)) return false;
    return true;
  }

  ClassSet classes(const Computation& c) const override {
    // Intersection-stable classes survive conjunction. kClassLocal is
    // dropped: two locals on different processes are conjunctive but not
    // local (and via closure a wrong local claim would imply disjunctive).
    ClassSet acc = kClassConjunctive | kClassLinear | kClassPostLinear |
                   kClassRegular | kClassStable;
    for (const auto& p : ch_) acc &= p->classes(c);
    return close_classes(acc);
  }

  std::string describe() const override { return join_desc(" && "); }
  std::vector<ProcId> support(const Computation& c) const override {
    return union_support(ch_, c);
  }

  ProcId forbidden(const Computation& c, const Cut& g) const override {
    for (const auto& p : ch_)
      if (!p->eval(c, g)) return p->forbidden(c, g);
    HBCT_ASSERT_MSG(false, "forbidden() called on satisfied conjunction");
  }

  ProcId forbidden_down(const Computation& c, const Cut& g) const override {
    for (const auto& p : ch_)
      if (!p->eval(c, g)) return p->forbidden_down(c, g);
    HBCT_ASSERT_MSG(false, "forbidden_down() called on satisfied conjunction");
  }

  // Any conjunct may be the false one forbidden() delegates to, so the
  // conjunction has an oracle only when every conjunct does.
  bool has_forbidden() const override {
    for (const auto& p : ch_)
      if (!p->has_forbidden()) return false;
    return true;
  }
  bool has_forbidden_down() const override {
    for (const auto& p : ch_)
      if (!p->has_forbidden_down()) return false;
    return true;
  }

  PredicatePtr negate() const override {
    std::vector<PredicatePtr> neg;
    neg.reserve(ch_.size());
    for (const auto& p : ch_) neg.push_back(p->negate());
    return make_or(std::move(neg));
  }

  std::vector<PredicatePtr> conjuncts() const override { return ch_; }

  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return make_junction_cursor(ch_, c, g, /*conjunction=*/true);
  }

  std::string join_desc(const char* sep) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < ch_.size(); ++i) {
      if (i) os << sep;
      os << "(" << ch_[i]->describe() << ")";
    }
    return os.str();
  }

 private:
  std::vector<PredicatePtr> ch_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> ch) : ch_(std::move(ch)) {}

  bool eval(const Computation& c, const Cut& g) const override {
    for (const auto& p : ch_)
      if (p->eval(c, g)) return true;
    return false;
  }

  ClassSet classes(const Computation& c) const override {
    // Union-stable classes survive disjunction (kClassLocal dropped, as for
    // conjunction: a wrong local claim would imply conjunctive).
    ClassSet acc = kClassDisjunctive | kClassStable;
    for (const auto& p : ch_) acc &= p->classes(c);
    return close_classes(acc);
  }

  std::string describe() const override {
    std::ostringstream os;
    for (std::size_t i = 0; i < ch_.size(); ++i) {
      if (i) os << " || ";
      os << "(" << ch_[i]->describe() << ")";
    }
    return os.str();
  }

  PredicatePtr negate() const override {
    std::vector<PredicatePtr> neg;
    neg.reserve(ch_.size());
    for (const auto& p : ch_) neg.push_back(p->negate());
    return make_and(std::move(neg));
  }

  std::vector<PredicatePtr> disjuncts() const override { return ch_; }

  std::vector<ProcId> support(const Computation& c) const override {
    return union_support(ch_, c);
  }

  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return make_junction_cursor(ch_, c, g, /*conjunction=*/false);
  }

 private:
  std::vector<PredicatePtr> ch_;
};

// ---- Asserted-class wrapper -----------------------------------------------------

class AssertedPredicate final : public Predicate {
 public:
  AssertedPredicate(std::function<bool(const Computation&, const Cut&)> fn,
                    ClassSet cls, std::string desc)
      : fn_(std::move(fn)), cls_(close_classes(cls)), desc_(std::move(desc)) {}
  bool eval(const Computation& c, const Cut& g) const override {
    return fn_(c, g);
  }
  ClassSet classes(const Computation&) const override { return cls_; }
  std::string describe() const override { return desc_; }
  bool classes_asserted() const override { return cls_ != 0; }

 private:
  std::function<bool(const Computation&, const Cut&)> fn_;
  ClassSet cls_;
  std::string desc_;
};

// ---- Inference-refined wrapper ---------------------------------------------

/// Forwards everything to the wrapped predicate but unions machine-derived
/// class bits (analysis/infer.h) into classes(). The structural probes
/// (as_conjunctive / as_disjunctive dynamic casts) do not see through the
/// wrapper, so the optimizer only installs it when the class-based route it
/// unlocks outranks the structural ones.
class RefinedPredicate final : public Predicate {
 public:
  RefinedPredicate(PredicatePtr inner, ClassSet extra, ClassSet neg_extra)
      : inner_(std::move(inner)),
        extra_(close_classes(extra)),
        neg_extra_(close_classes(neg_extra)) {}

  bool eval(const Computation& c, const Cut& g) const override {
    return inner_->eval(c, g);
  }
  ClassSet classes(const Computation& c) const override {
    return close_classes(inner_->classes(c) | extra_);
  }
  std::string describe() const override { return inner_->describe(); }
  std::vector<ProcId> support(const Computation& c) const override {
    return inner_->support(c);
  }
  ProcId forbidden(const Computation& c, const Cut& g) const override {
    return inner_->forbidden(c, g);
  }
  ProcId forbidden_down(const Computation& c, const Cut& g) const override {
    return inner_->forbidden_down(c, g);
  }
  bool has_forbidden() const override { return inner_->has_forbidden(); }
  bool has_forbidden_down() const override {
    return inner_->has_forbidden_down();
  }
  bool classes_asserted() const override {
    return inner_->classes_asserted();
  }
  PredicatePtr negate() const override {
    return make_refined(inner_->negate(), neg_extra_, extra_);
  }
  std::optional<bool> as_constant() const override {
    return inner_->as_constant();
  }
  std::vector<PredicatePtr> disjuncts() const override {
    return inner_->disjuncts();
  }
  std::vector<PredicatePtr> conjuncts() const override {
    return inner_->conjuncts();
  }
  EvalCursorPtr make_cursor(const Computation& c,
                            const Cut& g) const override {
    return inner_->make_cursor(c, g);
  }

 private:
  PredicatePtr inner_;
  ClassSet extra_;
  ClassSet neg_extra_;
};

}  // namespace

PredicatePtr Predicate::negate() const {
  return std::make_shared<NotPredicate>(shared_from_this());
}

std::vector<ProcId> Predicate::support(const Computation& c) const {
  std::vector<ProcId> all(static_cast<std::size_t>(c.num_procs()));
  for (ProcId i = 0; i < c.num_procs(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  return all;
}

std::vector<ProcId> make_support(std::vector<ProcId> procs) {
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  return procs;
}

EvalCursorPtr Predicate::make_cursor(const Computation& c,
                                     const Cut& g) const {
  return std::make_unique<ScratchEvalCursor>(*this, c, g);
}

PredicatePtr make_true() { return std::make_shared<ConstPredicate>(true); }
PredicatePtr make_false() { return std::make_shared<ConstPredicate>(false); }

PredicatePtr make_and(std::vector<PredicatePtr> children) {
  HBCT_ASSERT(!children.empty());
  if (children.size() == 1) return children[0];
  // A conjunction of conjunctive predicates is itself conjunctive; build the
  // structured form so dispatch can use the conjunctive-specific algorithms.
  std::vector<LocalPredicatePtr> locals;
  bool all_conjunctive = true;
  for (const auto& ch : children) {
    auto conj = as_conjunctive(ch);
    if (!conj) {
      all_conjunctive = false;
      break;
    }
    locals.insert(locals.end(), conj->locals().begin(), conj->locals().end());
  }
  if (all_conjunctive) return make_conjunctive(std::move(locals));
  return std::make_shared<AndPredicate>(std::move(children));
}

PredicatePtr make_and(PredicatePtr a, PredicatePtr b) {
  std::vector<PredicatePtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return make_and(std::move(v));
}

PredicatePtr make_or(std::vector<PredicatePtr> children) {
  HBCT_ASSERT(!children.empty());
  if (children.size() == 1) return children[0];
  // Dually, a disjunction of disjunctive predicates stays disjunctive.
  std::vector<LocalPredicatePtr> locals;
  bool all_disjunctive = true;
  for (const auto& ch : children) {
    auto disj = as_disjunctive(ch);
    if (!disj) {
      all_disjunctive = false;
      break;
    }
    locals.insert(locals.end(), disj->locals().begin(), disj->locals().end());
  }
  if (all_disjunctive) return make_disjunctive(std::move(locals));
  return std::make_shared<OrPredicate>(std::move(children));
}

PredicatePtr make_or(PredicatePtr a, PredicatePtr b) {
  std::vector<PredicatePtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return make_or(std::move(v));
}

PredicatePtr make_not(PredicatePtr p) {
  HBCT_ASSERT(p);
  return p->negate();
}

PredicatePtr make_asserted(
    std::function<bool(const Computation&, const Cut&)> fn, ClassSet classes,
    std::string description) {
  return std::make_shared<AssertedPredicate>(std::move(fn), classes,
                                             std::move(description));
}

PredicatePtr make_stable(std::function<bool(const Computation&, const Cut&)> fn,
                         std::string description) {
  return make_asserted(std::move(fn), kClassStable, std::move(description));
}

PredicatePtr make_terminated() {
  return make_stable(
      [](const Computation& c, const Cut& g) { return g == c.final_cut(); },
      "terminated");
}

PredicatePtr make_refined(PredicatePtr p, ClassSet extra,
                          ClassSet negation_extra) {
  HBCT_ASSERT(p);
  if (extra == 0 && negation_extra == 0) return p;
  return std::make_shared<RefinedPredicate>(std::move(p), extra,
                                            negation_extra);
}

}  // namespace hbct
