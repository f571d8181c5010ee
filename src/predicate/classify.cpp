#include "predicate/classify.h"

#include <sstream>

#include "analysis/plan.h"
#include "util/string_util.h"

namespace hbct {

namespace {

std::string render(Op op, const PredShape& s) {
  const DetectPlan pl = plan_unary(op, s, /*allow_exponential=*/true);
  const char* np = "";
  if (pl.np_hard)
    np = op == Op::kEG ? "; NP-complete, Thm 5" : "; co-NP-complete, Thm 6";
  return strfmt("%s (%s%s)", pl.name, pl.cost, np);
}

}  // namespace

ClassReport classify(const Predicate& p, const Computation& c) {
  return classify(p, c, /*inferred_extra=*/0);
}

ClassReport classify(const Predicate& p, const Computation& c,
                     ClassSet inferred_extra) {
  ClassReport r;
  r.holds_initially = p.eval(c, c.initial_cut());
  // classify() takes a reference, shape_of() a shared_ptr (the structural
  // as_conjunctive/as_disjunctive views need one). A stack-allocated
  // predicate has no owner; it is viewed through a non-owning pointer, which
  // shape_of does not keep.
  const PredicatePtr owner = p.weak_from_this().lock();
  PredShape s = shape_of(owner ? owner : PredicatePtr(PredicatePtr(), &p), c);
  s.classes = close_classes(s.classes | inferred_extra);
  r.classes = s.classes;
  // The same planner detect() routes through, so the report can never drift
  // from the dispatch again (tests/test_plan_parity.cpp pins this).
  r.ef = render(Op::kEF, s);
  r.af = render(Op::kAF, s);
  r.eg = render(Op::kEG, s);
  r.ag = render(Op::kAG, s);
  return r;
}

std::string to_string(const ClassReport& r) {
  std::ostringstream os;
  os << "classes: " << classes_to_string(r.classes)
     << (r.holds_initially ? " (holds initially)" : "") << "\n"
     << "  EF -> " << r.ef << "\n"
     << "  AF -> " << r.af << "\n"
     << "  EG -> " << r.eg << "\n"
     << "  AG -> " << r.ag << "\n";
  return os.str();
}

}  // namespace hbct
