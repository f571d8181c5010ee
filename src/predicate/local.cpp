#include "predicate/local.h"

#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

const char* to_string(Cmp op) {
  switch (op) {
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
    case Cmp::kEq: return "==";
    case Cmp::kNe: return "!=";
    case Cmp::kGe: return ">=";
    case Cmp::kGt: return ">";
  }
  return "?";
}

bool cmp_eval(Cmp op, std::int64_t lhs, std::int64_t rhs) {
  switch (op) {
    case Cmp::kLt: return lhs < rhs;
    case Cmp::kLe: return lhs <= rhs;
    case Cmp::kEq: return lhs == rhs;
    case Cmp::kNe: return lhs != rhs;
    case Cmp::kGe: return lhs >= rhs;
    case Cmp::kGt: return lhs > rhs;
  }
  return false;
}

namespace {

Cmp negate_cmp(Cmp op) {
  switch (op) {
    case Cmp::kLt: return Cmp::kGe;
    case Cmp::kLe: return Cmp::kGt;
    case Cmp::kEq: return Cmp::kNe;
    case Cmp::kNe: return Cmp::kEq;
    case Cmp::kGe: return Cmp::kLt;
    case Cmp::kGt: return Cmp::kLe;
  }
  return Cmp::kEq;
}

LocalSpec negate_spec(const LocalSpec& s) {
  LocalSpec out = s;
  switch (s.kind) {
    case LocalSpec::Kind::kVarCmp:
    case LocalSpec::Kind::kPosCmp:
      out.op = negate_cmp(s.op);
      break;
    case LocalSpec::Kind::kConst:
      out.value = !s.value;
      break;
    case LocalSpec::Kind::kOpaque:
      break;
  }
  return out;
}

/// Caches the per-owner truth value; recomputed only when the owning
/// process moves, so a step on any other process is a no-op.
class LocalCursor final : public EvalCursor {
 public:
  LocalCursor(const LocalPredicate& p, const Computation& c, const Cut& g)
      : EvalCursor(c, g),
        eval_(c, p),
        proc_(static_cast<std::size_t>(p.proc())),
        val_(eval_(g[static_cast<std::size_t>(p.proc())])) {}

  void on_update(ProcId i, EventIndex) override {
    if (static_cast<std::size_t>(i) == proc_) val_ = eval_(cut()[proc_]);
  }
  bool value() override { return val_; }

 private:
  LocalEval eval_;
  std::size_t proc_;
  bool val_;
};

}  // namespace

LocalPredicate::LocalPredicate(
    ProcId proc, std::function<bool(const Computation&, EventIndex)> fn,
    std::string desc)
    : LocalPredicate(proc, std::move(fn), std::move(desc), LocalSpec{}) {}

LocalPredicate::LocalPredicate(
    ProcId proc, std::function<bool(const Computation&, EventIndex)> fn,
    std::string desc, LocalSpec spec)
    : proc_(proc),
      fn_(std::move(fn)),
      desc_(std::move(desc)),
      spec_(std::move(spec)) {
  HBCT_ASSERT(proc_ >= 0);
  HBCT_ASSERT(fn_);
}

PredicatePtr LocalPredicate::negate() const {
  const ProcId proc = proc_;
  auto fn = fn_;
  return std::make_shared<LocalPredicate>(
      proc,
      [fn](const Computation& c, EventIndex pos) { return !fn(c, pos); },
      "!(" + desc_ + ")", negate_spec(spec_));
}

EvalCursorPtr LocalPredicate::make_cursor(const Computation& c,
                                          const Cut& g) const {
  return std::make_unique<LocalCursor>(*this, c, g);
}

LocalEval::LocalEval(const Computation& c, const LocalPredicate& p)
    : c_(&c), p_(&p) {
  const LocalSpec& s = p.spec();
  switch (s.kind) {
    case LocalSpec::Kind::kVarCmp: {
      // An unregistered variable keeps the function path, which reports the
      // error on first evaluation exactly as the un-specialized predicate
      // would (never earlier).
      const auto v = c.var_id(s.var);
      if (!v.has_value()) break;
      timeline_ = c.value_timeline(p.proc(), *v);
      kind_ = s.kind;
      op_ = s.op;
      rhs_ = s.rhs;
      break;
    }
    case LocalSpec::Kind::kPosCmp:
      kind_ = s.kind;
      op_ = s.op;
      rhs_ = s.rhs;
      break;
    case LocalSpec::Kind::kConst:
      kind_ = s.kind;
      const_ = s.value;
      break;
    case LocalSpec::Kind::kOpaque:
      break;
  }
}

LocalPredicatePtr var_cmp(ProcId proc, std::string var, Cmp op,
                          std::int64_t rhs) {
  std::string desc = strfmt("%s@P%d %s %lld", var.c_str(), proc,
                            to_string(op), static_cast<long long>(rhs));
  LocalSpec spec;
  spec.kind = LocalSpec::Kind::kVarCmp;
  spec.var = var;
  spec.op = op;
  spec.rhs = rhs;
  return std::make_shared<LocalPredicate>(
      proc,
      [proc, var = std::move(var), op, rhs](const Computation& c,
                                            EventIndex pos) {
        auto v = c.var_id(var);
        HBCT_ASSERT_MSG(v.has_value(), "predicate references unknown variable");
        return cmp_eval(op, c.value_at(proc, *v, pos), rhs);
      },
      std::move(desc), std::move(spec));
}

LocalPredicatePtr progress_ge(ProcId proc, EventIndex k) {
  LocalSpec spec;
  spec.kind = LocalSpec::Kind::kPosCmp;
  spec.op = Cmp::kGe;
  spec.rhs = k;
  return std::make_shared<LocalPredicate>(
      proc,
      [k](const Computation&, EventIndex pos) { return pos >= k; },
      strfmt("progress@P%d >= %d", proc, k), std::move(spec));
}

LocalPredicatePtr pos_cmp(ProcId proc, Cmp op, std::int64_t k) {
  LocalSpec spec;
  spec.kind = LocalSpec::Kind::kPosCmp;
  spec.op = op;
  spec.rhs = k;
  return std::make_shared<LocalPredicate>(
      proc,
      [op, k](const Computation&, EventIndex pos) {
        return cmp_eval(op, pos, k);
      },
      strfmt("pos@P%d %s %lld", proc, to_string(op),
             static_cast<long long>(k)),
      std::move(spec));
}

LocalPredicatePtr local_const(ProcId proc, bool value) {
  LocalSpec spec;
  spec.kind = LocalSpec::Kind::kConst;
  spec.value = value;
  return std::make_shared<LocalPredicate>(
      proc, [value](const Computation&, EventIndex) { return value; },
      value ? "true" : "false", std::move(spec));
}

LocalPredicatePtr local_table(ProcId proc, std::vector<bool> truth,
                              std::string desc) {
  return std::make_shared<LocalPredicate>(
      proc,
      [truth = std::move(truth)](const Computation&, EventIndex pos) {
        HBCT_ASSERT(pos >= 0 && static_cast<std::size_t>(pos) < truth.size());
        return truth[static_cast<std::size_t>(pos)];
      },
      std::move(desc));
}

}  // namespace hbct
