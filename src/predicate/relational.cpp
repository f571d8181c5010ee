#include "predicate/relational.h"

#include <sstream>

#include "predicate/local.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

bool is_nondecreasing(const Computation& c, ProcId proc,
                      std::string_view var) {
  auto v = c.var_id(var);
  if (!v) return true;  // never written: constant
  for (EventIndex k = 1; k <= c.num_events(proc); ++k)
    if (c.value_at(proc, *v, k) < c.value_at(proc, *v, k - 1)) return false;
  return true;
}

bool is_nonincreasing(const Computation& c, ProcId proc,
                      std::string_view var) {
  auto v = c.var_id(var);
  if (!v) return true;
  for (EventIndex k = 1; k <= c.num_events(proc); ++k)
    if (c.value_at(proc, *v, k) > c.value_at(proc, *v, k - 1)) return false;
  return true;
}

namespace {

std::int64_t term_value(const Computation& c, const VarRef& t, const Cut& g) {
  auto v = c.var_id(t.var);
  HBCT_ASSERT_MSG(v.has_value(), "relational predicate references unknown variable");
  return c.value_in(t.proc, *v, g);
}

bool all_nondecreasing(const Computation& c, const std::vector<VarRef>& ts) {
  for (const VarRef& t : ts)
    if (!is_nondecreasing(c, t.proc, t.var)) return false;
  return true;
}

std::vector<ProcId> terms_support(const std::vector<VarRef>& ts) {
  std::vector<ProcId> procs;
  procs.reserve(ts.size());
  for (const VarRef& t : ts) procs.push_back(t.proc);
  return make_support(std::move(procs));
}

std::string terms_desc(const std::vector<VarRef>& ts) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (i) os << " + ";
    os << ts[i].var << "@P" << ts[i].proc;
  }
  return os.str();
}

/// Incremental Σ sign·term <op> k: each term binds its variable timeline
/// once, and a component step adjusts the running sum by the timeline delta
/// of the terms owned by the moved process. Timeline reads are per-process
/// state, so updates are safe on transiently inconsistent cuts.
class SumCursor final : public EvalCursor {
 public:
  struct Term {
    ProcId proc;
    TimelineView tl;
    std::int64_t sign;
  };

  SumCursor(const Computation& c, const Cut& g, std::vector<Term> terms,
            Cmp op, std::int64_t k)
      : EvalCursor(c, g), terms_(std::move(terms)), op_(op), k_(k) {
    for (const Term& t : terms_)
      sum_ += t.sign *
              t.tl[static_cast<std::size_t>(g[static_cast<std::size_t>(t.proc)])];
  }

  void on_update(ProcId i, EventIndex old_pos) override {
    const EventIndex now = cut()[static_cast<std::size_t>(i)];
    for (const Term& t : terms_)
      if (t.proc == i)
        sum_ += t.sign * (t.tl[static_cast<std::size_t>(now)] -
                          t.tl[static_cast<std::size_t>(old_pos)]);
  }

  bool value() override { return cmp_eval(op_, sum_, k_); }

 private:
  std::vector<Term> terms_;
  Cmp op_;
  std::int64_t k_;
  std::int64_t sum_ = 0;
};

/// Binds each term's timeline; returns nullptr when some variable is
/// unregistered (the caller falls back to scratch evaluation, which reports
/// the error on first evaluation exactly as eval() would).
EvalCursorPtr make_sum_cursor(const Computation& c, const Cut& g,
                              const std::vector<VarRef>& ts,
                              const std::vector<std::int64_t>& signs,
                              Cmp op, std::int64_t k) {
  std::vector<SumCursor::Term> terms;
  terms.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto v = c.var_id(ts[i].var);
    if (!v.has_value()) return nullptr;
    terms.push_back(
        {ts[i].proc, c.value_timeline(ts[i].proc, *v), signs[i]});
  }
  return std::make_unique<SumCursor>(c, g, std::move(terms), op, k);
}

/// Σ terms <= k (op kLe) or Σ terms >= k (op kGe). With every term
/// non-decreasing the satisfying set of the upper bound is down-closed,
/// hence meet-closed, hence linear; that of the lower bound is up-closed,
/// hence join-closed, hence post-linear. Neither is closed under the other
/// operation in general.
class SumBound final : public Predicate {
 public:
  SumBound(std::vector<VarRef> terms, Cmp op, std::int64_t k)
      : terms_(std::move(terms)), op_(op), k_(k) {
    HBCT_ASSERT(!terms_.empty());
  }
  bool eval(const Computation& c, const Cut& g) const override {
    std::int64_t s = 0;
    for (const VarRef& t : terms_) s += term_value(c, t, g);
    return cmp_eval(op_, s, k_);
  }
  ClassSet classes(const Computation& c) const override {
    if (!all_nondecreasing(c, terms_)) return 0;
    return close_classes(op_ == Cmp::kLe ? kClassLinear : kClassPostLinear);
  }
  std::string describe() const override {
    return terms_desc(terms_) + strfmt(" %s %lld", to_string(op_),
                                       static_cast<long long>(k_));
  }
  std::vector<ProcId> support(const Computation&) const override {
    return terms_support(terms_);
  }
  // Down-closed (<=) and false at g: no cut above g satisfies the predicate
  // at all, so every process is forbidden; report the first term's owner.
  // Dually, up-closed (>=) and false at g: nothing below g satisfies it.
  ProcId forbidden(const Computation&, const Cut&) const override {
    return terms_[0].proc;
  }
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return terms_[0].proc;
  }
  bool has_forbidden() const override { return op_ == Cmp::kLe; }
  bool has_forbidden_down() const override { return op_ == Cmp::kGe; }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    auto cur = make_sum_cursor(
        c, g, terms_, std::vector<std::int64_t>(terms_.size(), 1), op_, k_);
    return cur ? std::move(cur) : Predicate::make_cursor(c, g);
  }

 private:
  std::vector<VarRef> terms_;
  Cmp op_;
  std::int64_t k_;
};

class DiffLe final : public Predicate {
 public:
  DiffLe(VarRef a, VarRef b, std::int64_t k)
      : a_(std::move(a)), b_(std::move(b)), k_(k) {}
  bool eval(const Computation& c, const Cut& g) const override {
    return term_value(c, a_, g) - term_value(c, b_, g) <= k_;
  }
  ClassSet classes(const Computation& c) const override {
    const bool mono = is_nondecreasing(c, a_.proc, a_.var) &&
                      is_nondecreasing(c, b_.proc, b_.var);
    return mono ? close_classes(kClassRegular) : 0;
  }
  std::string describe() const override {
    return strfmt("%s@P%d - %s@P%d <= %lld", a_.var.c_str(), a_.proc,
                  b_.var.c_str(), b_.proc, static_cast<long long>(k_));
  }
  std::vector<ProcId> support(const Computation&) const override {
    return make_support({a_.proc, b_.proc});
  }
  // a - b too large: freezing b's owner keeps b fixed while a can only grow,
  // so b's owner must advance. Dually a's owner must retreat.
  ProcId forbidden(const Computation&, const Cut&) const override {
    return b_.proc;
  }
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return a_.proc;
  }
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    auto cur = make_sum_cursor(c, g, {a_, b_}, {1, -1}, Cmp::kLe, k_);
    return cur ? std::move(cur) : Predicate::make_cursor(c, g);
  }

 private:
  VarRef a_, b_;
  std::int64_t k_;
};

}  // namespace

PredicatePtr sum_le(std::vector<VarRef> terms, std::int64_t k) {
  return std::make_shared<SumBound>(std::move(terms), Cmp::kLe, k);
}

PredicatePtr sum_ge(std::vector<VarRef> terms, std::int64_t k) {
  return std::make_shared<SumBound>(std::move(terms), Cmp::kGe, k);
}

PredicatePtr diff_le(VarRef a, VarRef b, std::int64_t k) {
  return std::make_shared<DiffLe>(std::move(a), std::move(b), k);
}

}  // namespace hbct
