#include "predicate/disjunctive.h"

#include <map>
#include <sstream>

#include "predicate/conjunctive.h"
#include "util/assert.h"

namespace hbct {

namespace {

LocalPredicatePtr or_locals(ProcId proc, std::vector<LocalPredicatePtr> parts) {
  if (parts.size() == 1) return parts[0];
  std::ostringstream desc;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) desc << " || ";
    desc << parts[i]->describe();
  }
  return std::make_shared<LocalPredicate>(
      proc,
      [parts = std::move(parts)](const Computation& c, EventIndex pos) {
        for (const auto& l : parts)
          if (l->eval_local(c, pos)) return true;
        return false;
      },
      desc.str());
}

/// Dual of ConjunctiveCursor: cached truth bits and a count of true
/// disjuncts.
class DisjunctiveCursor final : public EvalCursor {
 public:
  DisjunctiveCursor(const DisjunctivePredicate& p, const Computation& c,
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
      if (truth_[s]) ++true_count_;
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
      true_count_ += now ? 1 : -1;
    }
  }

  bool value() override { return true_count_ > 0; }

 private:
  std::vector<LocalEval> evals_;
  std::vector<char> truth_;
  std::vector<std::int32_t> slot_;  // proc -> index in evals_ or -1
  int true_count_ = 0;
};

}  // namespace

DisjunctivePredicate::DisjunctivePredicate(
    std::vector<LocalPredicatePtr> locals) {
  HBCT_ASSERT(!locals.empty());
  std::map<ProcId, std::vector<LocalPredicatePtr>> by_proc;
  for (auto& l : locals) {
    HBCT_ASSERT(l);
    by_proc[l->proc()].push_back(std::move(l));
  }
  for (auto& [proc, parts] : by_proc)
    locals_.push_back(or_locals(proc, std::move(parts)));
}

bool DisjunctivePredicate::eval(const Computation& c, const Cut& g) const {
  for (const auto& l : locals_)
    if (l->eval(c, g)) return true;
  return false;
}

std::string DisjunctivePredicate::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < locals_.size(); ++i) {
    if (i) os << " || ";
    os << locals_[i]->describe();
  }
  return os.str();
}

EvalCursorPtr DisjunctivePredicate::make_cursor(const Computation& c,
                                                const Cut& g) const {
  return std::make_unique<DisjunctiveCursor>(*this, c, g);
}

PredicatePtr DisjunctivePredicate::negate() const {
  std::vector<LocalPredicatePtr> neg;
  neg.reserve(locals_.size());
  for (const auto& l : locals_) {
    auto n = std::dynamic_pointer_cast<const LocalPredicate>(l->negate());
    HBCT_ASSERT(n);
    neg.push_back(std::move(n));
  }
  return std::make_shared<ConjunctivePredicate>(std::move(neg));
}

DisjunctivePredicatePtr make_disjunctive(
    std::vector<LocalPredicatePtr> locals) {
  return std::make_shared<DisjunctivePredicate>(std::move(locals));
}

DisjunctivePredicatePtr as_disjunctive(const PredicatePtr& p) {
  if (auto d = std::dynamic_pointer_cast<const DisjunctivePredicate>(p))
    return d;
  if (auto l = std::dynamic_pointer_cast<const LocalPredicate>(p))
    return make_disjunctive({l});
  if (auto k = p->as_constant()) {
    return make_disjunctive({local_const(0, *k)});
  }
  return nullptr;
}

}  // namespace hbct
