#include "predicate/conjunctive.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "predicate/disjunctive.h"
#include "util/assert.h"

namespace hbct {

namespace {

/// ANDs several locals on the same process into one local.
LocalPredicatePtr and_locals(ProcId proc,
                             std::vector<LocalPredicatePtr> parts) {
  if (parts.size() == 1) return parts[0];
  std::ostringstream desc;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) desc << " && ";
    desc << parts[i]->describe();
  }
  return std::make_shared<LocalPredicate>(
      proc,
      [parts = std::move(parts)](const Computation& c, EventIndex pos) {
        for (const auto& l : parts)
          if (!l->eval_local(c, pos)) return false;
        return true;
      },
      desc.str());
}

/// One resolved LocalEval + cached truth bit per conjunct, plus a count of
/// false conjuncts: value() is O(1) and a component step re-evaluates at
/// most one local.
class ConjunctiveCursor final : public EvalCursor {
 public:
  ConjunctiveCursor(const ConjunctivePredicate& p, const Computation& c,
                    const Cut& g)
      : EvalCursor(c, g) {
    const auto& locals = p.locals();
    evals_.reserve(locals.size());
    truth_.resize(locals.size());
    slot_.assign(c.num_procs(), -1);
    for (std::size_t s = 0; s < locals.size(); ++s) {
      evals_.emplace_back(c, *locals[s]);
      const std::size_t proc = static_cast<std::size_t>(locals[s]->proc());
      if (proc < slot_.size()) slot_[proc] = static_cast<std::int32_t>(s);
      truth_[s] = evals_[s](g[proc]);
      if (!truth_[s]) ++false_count_;
    }
  }

  void on_update(ProcId i, EventIndex) override {
    if (i < 0 || static_cast<std::size_t>(i) >= slot_.size()) return;
    const std::int32_t s = slot_[static_cast<std::size_t>(i)];
    if (s < 0) return;
    const bool now = evals_[static_cast<std::size_t>(s)](
        cut()[static_cast<std::size_t>(i)]);
    if (now != truth_[static_cast<std::size_t>(s)]) {
      truth_[static_cast<std::size_t>(s)] = now;
      false_count_ += now ? -1 : 1;
    }
  }

  bool value() override { return false_count_ == 0; }

 private:
  std::vector<LocalEval> evals_;
  std::vector<char> truth_;
  std::vector<std::int32_t> slot_;  // proc -> index in evals_ or -1
  int false_count_ = 0;
};

}  // namespace

ConjunctivePredicate::ConjunctivePredicate(
    std::vector<LocalPredicatePtr> locals) {
  HBCT_ASSERT(!locals.empty());
  std::map<ProcId, std::vector<LocalPredicatePtr>> by_proc;
  ProcId max_proc = 0;
  for (auto& l : locals) {
    HBCT_ASSERT(l);
    max_proc = std::max(max_proc, l->proc());
    by_proc[l->proc()].push_back(std::move(l));
  }
  slot_.assign(static_cast<std::size_t>(max_proc) + 1, -1);
  for (auto& [proc, parts] : by_proc) {
    slot_[static_cast<std::size_t>(proc)] =
        static_cast<std::int32_t>(locals_.size());
    locals_.push_back(and_locals(proc, std::move(parts)));
  }
}

const LocalPredicate* ConjunctivePredicate::local_for(ProcId i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= slot_.size()) return nullptr;
  const std::int32_t s = slot_[static_cast<std::size_t>(i)];
  return s < 0 ? nullptr : locals_[static_cast<std::size_t>(s)].get();
}

bool ConjunctivePredicate::eval(const Computation& c, const Cut& g) const {
  for (const auto& l : locals_)
    if (!l->eval(c, g)) return false;
  return true;
}

std::vector<ProcId> ConjunctivePredicate::support(const Computation&) const {
  std::vector<ProcId> procs;
  procs.reserve(locals_.size());
  for (const auto& l : locals_) procs.push_back(l->proc());
  return procs;  // locals_ is sorted by process, one per process
}

std::string ConjunctivePredicate::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    if (i) os << " && ";
    os << locals_[i]->describe();
  }
  return os.str();
}

ProcId ConjunctivePredicate::forbidden(const Computation& c,
                                       const Cut& g) const {
  for (const auto& l : locals_)
    if (!l->eval(c, g)) return l->proc();
  HBCT_ASSERT_MSG(false, "forbidden() called on satisfied predicate");
}

EvalCursorPtr ConjunctivePredicate::make_cursor(const Computation& c,
                                                const Cut& g) const {
  return std::make_unique<ConjunctiveCursor>(*this, c, g);
}

PredicatePtr ConjunctivePredicate::negate() const {
  std::vector<LocalPredicatePtr> neg;
  neg.reserve(locals_.size());
  for (const auto& l : locals_) {
    auto n = std::dynamic_pointer_cast<const LocalPredicate>(l->negate());
    HBCT_ASSERT(n);
    neg.push_back(std::move(n));
  }
  return std::make_shared<DisjunctivePredicate>(std::move(neg));
}

ConjunctivePredicatePtr make_conjunctive(
    std::vector<LocalPredicatePtr> locals) {
  return std::make_shared<ConjunctivePredicate>(std::move(locals));
}

ConjunctivePredicatePtr as_conjunctive(const PredicatePtr& p) {
  if (auto c = std::dynamic_pointer_cast<const ConjunctivePredicate>(p))
    return c;
  if (auto l = std::dynamic_pointer_cast<const LocalPredicate>(p))
    return make_conjunctive({l});
  if (auto k = p->as_constant()) {
    // A constant is a one-conjunct predicate on process 0.
    return make_conjunctive({local_const(0, *k)});
  }
  return nullptr;
}

}  // namespace hbct
