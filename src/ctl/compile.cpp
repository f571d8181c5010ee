#include "ctl/compile.h"

#include <algorithm>

#include "analysis/lint.h"
#include "analysis/optimize.h"
#include "detect/brute_force.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/relational.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace hbct::ctl {

namespace {

std::int64_t term_eval(const Computation& c, const Term& t, const Cut& g) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return t.value;
    case Term::Kind::kVar: {
      auto v = c.var_id(t.var);
      HBCT_ASSERT_MSG(v.has_value(), "unknown variable at evaluation");
      return c.value_in(t.proc, *v, g);
    }
    case Term::Kind::kPos:
      return g[static_cast<std::size_t>(t.proc)];
    case Term::Kind::kInTransit:
      return c.in_transit(t.from, t.to, g);
  }
  return 0;
}

/// Normalized atom: Σ coef_i * term_i  <op>  k, with only non-constant terms
/// on the left.
struct NormAtom {
  std::vector<std::pair<int, Term>> terms;
  Cmp op = Cmp::kEq;
  std::int64_t k = 0;
};

NormAtom normalize(const Atom& a) {
  NormAtom n;
  n.op = a.op;
  for (const auto& [coef, t] : a.lhs.terms) {
    if (t.kind == Term::Kind::kConst)
      n.k -= coef * t.value;
    else
      n.terms.emplace_back(coef, t);
  }
  for (const auto& [coef, t] : a.rhs.terms) {
    if (t.kind == Term::Kind::kConst)
      n.k += coef * t.value;
    else
      n.terms.emplace_back(-coef, t);
  }
  return n;
}

/// Generic fallback: evaluate the normalized atom directly; no structural
/// class is claimed, so detection uses the explicit-search algorithms.
PredicatePtr arith_fallback(const NormAtom& n, std::string desc) {
  auto terms = n.terms;
  const Cmp op = n.op;
  const std::int64_t k = n.k;
  return make_asserted(
      [terms, op, k](const Computation& c, const Cut& g) {
        std::int64_t s = 0;
        for (const auto& [coef, t] : terms) s += coef * term_eval(c, t, g);
        return cmp_eval(op, s, k);
      },
      0, std::move(desc));
}

/// Lowers "<single non-const term> <op> k".
PredicatePtr lower_single(const Term& t, Cmp op, std::int64_t k) {
  switch (t.kind) {
    case Term::Kind::kVar:
      return var_cmp(t.proc, t.var, op, k);
    case Term::Kind::kPos:
      return pos_cmp(t.proc, op, k);
    case Term::Kind::kInTransit: {
      const std::int32_t ik = static_cast<std::int32_t>(k);
      switch (op) {
        case Cmp::kLe: return channel_bound_le(t.from, t.to, ik);
        case Cmp::kLt: return channel_bound_le(t.from, t.to, ik - 1);
        case Cmp::kGe: return channel_bound_ge(t.from, t.to, ik);
        case Cmp::kGt: return channel_bound_ge(t.from, t.to, ik + 1);
        case Cmp::kEq:
          return make_and(channel_bound_le(t.from, t.to, ik),
                          channel_bound_ge(t.from, t.to, ik));
        case Cmp::kNe:
          return make_or(channel_bound_le(t.from, t.to, ik - 1),
                         channel_bound_ge(t.from, t.to, ik + 1));
      }
      break;
    }
    case Term::Kind::kConst:
      break;  // unreachable: constants were folded
  }
  HBCT_ASSERT_MSG(false, "lower_single: unexpected term");
}

PredicatePtr lower_atom(const Atom& a) {
  NormAtom n = normalize(a);
  const std::string desc = to_string(a.lhs) + " " +
                           std::string(hbct::to_string(a.op)) + " " +
                           to_string(a.rhs);

  if (n.terms.empty())  // constant comparison
    return cmp_eval(n.op, 0, n.k) ? make_true() : make_false();

  if (n.terms.size() == 1) {
    auto [coef, t] = n.terms[0];
    if (coef == 1) return lower_single(t, n.op, n.k);
    // -t <op> k  ⟺  t <mirror op> -k
    Cmp m = n.op;
    switch (n.op) {
      case Cmp::kLt: m = Cmp::kGt; break;
      case Cmp::kLe: m = Cmp::kGe; break;
      case Cmp::kGt: m = Cmp::kLt; break;
      case Cmp::kGe: m = Cmp::kLe; break;
      default: break;  // == and != are symmetric
    }
    return lower_single(t, m, -n.k);
  }

  // Pure-variable sums map to the relational predicates of Section 4.
  const bool all_vars = std::all_of(
      n.terms.begin(), n.terms.end(),
      [](const auto& ct) { return ct.second.kind == Term::Kind::kVar; });
  if (all_vars) {
    const bool all_plus = std::all_of(n.terms.begin(), n.terms.end(),
                                      [](const auto& ct) { return ct.first == 1; });
    auto refs = [&]() {
      std::vector<VarRef> out;
      out.reserve(n.terms.size());
      for (const auto& [coef, t] : n.terms)
        out.push_back(VarRef{t.proc, t.var});
      return out;
    };
    if (all_plus) {
      switch (n.op) {
        case Cmp::kLe: return sum_le(refs(), n.k);
        case Cmp::kLt: return sum_le(refs(), n.k - 1);
        case Cmp::kGe: return sum_ge(refs(), n.k);
        case Cmp::kGt: return sum_ge(refs(), n.k + 1);
        case Cmp::kEq:
          return make_and(sum_le(refs(), n.k), sum_ge(refs(), n.k));
        case Cmp::kNe:
          return make_or(sum_le(refs(), n.k - 1), sum_ge(refs(), n.k + 1));
      }
    }
    if (n.terms.size() == 2 && n.terms[0].first + n.terms[1].first == 0) {
      // a - b <op> k (in some order).
      const Term& pos = n.terms[0].first == 1 ? n.terms[0].second
                                              : n.terms[1].second;
      const Term& neg = n.terms[0].first == 1 ? n.terms[1].second
                                              : n.terms[0].second;
      VarRef a{pos.proc, pos.var}, b{neg.proc, neg.var};
      switch (n.op) {
        case Cmp::kLe: return diff_le(a, b, n.k);
        case Cmp::kLt: return diff_le(a, b, n.k - 1);
        case Cmp::kGe: return diff_le(b, a, -n.k);    // a-b>=k ⟺ b-a<=-k
        case Cmp::kGt: return diff_le(b, a, -n.k - 1);
        case Cmp::kEq:
          return make_and(diff_le(a, b, n.k), diff_le(b, a, -n.k));
        case Cmp::kNe:
          return make_or(diff_le(a, b, n.k - 1), diff_le(b, a, -n.k - 1));
      }
    }
  }
  return arith_fallback(n, desc);
}

PredicatePtr lower(const NodePtr& node) {
  HBCT_ASSERT(node);
  switch (node->kind) {
    case Node::Kind::kTrue:
      return make_true();
    case Node::Kind::kFalse:
      return make_false();
    case Node::Kind::kChannelsEmpty:
      return all_channels_empty();
    case Node::Kind::kTerminated:
      return make_terminated();
    case Node::Kind::kAtom:
      return lower_atom(node->atom);
    case Node::Kind::kNot:
      return make_not(lower(node->children[0]));
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      std::vector<PredicatePtr> parts;
      parts.reserve(node->children.size());
      for (const auto& ch : node->children) parts.push_back(lower(ch));
      return node->kind == Node::Kind::kAnd ? make_and(std::move(parts))
                                            : make_or(std::move(parts));
    }
  }
  HBCT_ASSERT_MSG(false, "lower: unknown node kind");
}

/// Per-node labels of a (possibly nested) formula on the explicit lattice.
/// Temporal-free subtrees are compiled to predicates and labeled in one
/// pass; temporal nodes apply the checker's operator labelings. The budget
/// is probed between labelling passes, never inside one; once it trips the
/// recursion unwinds with empty labels (a lattice is never empty).
std::vector<char> eval_node_on_lattice(const LatticeChecker& chk,
                                       const NodePtr& node, DetectStats& st,
                                       BudgetTracker& t) {
  HBCT_ASSERT(node);
  if (!t.ok()) return {};
  if (!contains_temporal(node)) {
    CompileResult cr = compile_state(node);
    HBCT_ASSERT_MSG(cr.ok, "validated formula must compile");
    std::vector<char> labels = chk.label(*cr.pred, &st);
    if (!t.ok()) return {};
    return labels;
  }
  switch (node->kind) {
    case Node::Kind::kNot: {
      auto v = eval_node_on_lattice(chk, node->children[0], st, t);
      for (auto& x : v) x = !x;
      return v;
    }
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      auto acc = eval_node_on_lattice(chk, node->children[0], st, t);
      for (std::size_t i = 1; i < node->children.size() && !acc.empty(); ++i) {
        const auto v = eval_node_on_lattice(chk, node->children[i], st, t);
        if (v.empty()) return v;
        for (std::size_t k = 0; k < acc.size(); ++k)
          acc[k] = node->kind == Node::Kind::kAnd
                       ? static_cast<char>(acc[k] && v[k])
                       : static_cast<char>(acc[k] || v[k]);
      }
      return acc;
    }
    case Node::Kind::kTemporal: {
      const auto p = eval_node_on_lattice(chk, node->children[0], st, t);
      if (p.empty()) return p;
      switch (node->op) {
        case Op::kEF: return chk.ef(p);
        case Op::kAF: return chk.af(p);
        case Op::kEG: return chk.eg(p);
        case Op::kAG: return chk.ag(p);
        case Op::kEU:
        case Op::kAU: {
          const auto q = eval_node_on_lattice(chk, node->children[1], st, t);
          if (q.empty()) return q;
          return node->op == Op::kEU ? chk.eu(p, q) : chk.au(p, q);
        }
      }
      break;
    }
    default:
      break;  // unreachable: temporal-free kinds handled above
  }
  HBCT_ASSERT_MSG(false, "eval_node_on_lattice: unexpected node");
}

void collect_term_errors(const Computation& c, const NodePtr& node,
                         std::string& err) {
  if (!node || !err.empty()) return;
  auto check_proc = [&](ProcId p, const char* what) {
    if (err.empty() && (p < 0 || p >= c.num_procs()))
      err = strfmt("%s references process %d, but the computation has %d",
                   what, p, c.num_procs());
  };
  auto check_term = [&](const Term& t) {
    if (!err.empty()) return;
    switch (t.kind) {
      case Term::Kind::kConst:
        break;
      case Term::Kind::kVar:
        check_proc(t.proc, t.var.c_str());
        if (err.empty() && !c.var_id(t.var))
          err = "unknown variable '" + t.var + "'";
        break;
      case Term::Kind::kPos:
        check_proc(t.proc, "pos()");
        break;
      case Term::Kind::kInTransit:
        check_proc(t.from, "intransit()");
        check_proc(t.to, "intransit()");
        break;
    }
  };
  if (node->kind == Node::Kind::kAtom) {
    for (const auto& [coef, t] : node->atom.lhs.terms) check_term(t);
    for (const auto& [coef, t] : node->atom.rhs.terms) check_term(t);
  }
  for (const auto& ch : node->children) collect_term_errors(c, ch, err);
}

}  // namespace

CompileResult compile_state(const NodePtr& node) {
  CompileResult r;
  if (!node) {
    r.error = "empty formula";
    return r;
  }
  if (contains_temporal(node)) {
    r.error = "temporal operators cannot be compiled to a state predicate";
    return r;
  }
  r.pred = lower(node);
  r.ok = true;
  return r;
}

std::string validate_query(const Computation& c, const Query& q) {
  std::string err;
  collect_term_errors(c, q.root ? q.root : q.p, err);
  if (!q.root) collect_term_errors(c, q.q, err);
  return err;
}

namespace {

/// Evaluates a nested query on the explicit lattice under the dispatcher's
/// contract: refused when allow_exponential is off, and kUnknown with the
/// tripped BoundReason when the lattice exceeds max_states or the budget
/// runs out before or between labelling passes.
DetectResult detect_nested(const Computation& c, const NodePtr& root,
                           const DispatchOptions& opt) {
  DetectResult r;
  r.algorithm = "lattice-nested-ctl";
  if (!opt.allow_exponential) {
    r.algorithm += " (refused)";
    return mark_bounded(r, BoundReason::kStateCap);
  }
  BudgetTracker t(opt.budget, r.stats);
  if (!t.ok()) return mark_bounded(r, t);
  auto lat = Lattice::try_build(c, opt.budget.max_states);
  if (!lat) {
    t.trip(BoundReason::kStateCap);
    return mark_bounded(r, t);
  }
  const LatticeChecker chk(std::move(*lat));
  r.stats.lattice_nodes = chk.lattice().size();
  r.stats.lattice_edges = chk.lattice().num_edges();
  const auto labels = eval_node_on_lattice(chk, root, r.stats, t);
  if (labels.empty()) return mark_bounded(r, t);
  r.verdict = verdict_of(labels[chk.lattice().bottom()] != 0);
  return r;
}

/// Evaluates a (validated) query. When `oc` is non-null the query came out
/// of the optimizer under OptimizeMode::kApply: its pre-compiled (possibly
/// class-refined) operands are used, the applied rewrite chain is attached
/// to the result, and diagnostics come from the optimizer's residual
/// findings (a fresh lint of the rewritten text could not see the refined
/// classes and would contradict the actual route).
EvalResult evaluate_plain(const Computation& c, const Query& q,
                          const DispatchOptions& opt,
                          const OptimizeOutcome* oc) {
  EvalResult out;

  const auto attach_optimizer = [&]() {
    if (oc == nullptr) return;
    out.result.rewrites = oc->steps;
    if (opt.audit != AuditMode::kOff) {
      std::vector<Diagnostic> ds =
          optimize_diagnostics(*oc, OptimizeMode::kApply);
      ds.insert(ds.end(), oc->residual.begin(), oc->residual.end());
      // Keep any audit errors detect() raised; everything else is
      // re-stated by the optimizer's findings.
      for (Diagnostic& d : out.result.diagnostics)
        if (d.severity == DiagSeverity::kError) ds.push_back(std::move(d));
      out.result.diagnostics = std::move(ds);
    }
  };

  // Outside the paper's fragment (nested temporal operators, or boolean
  // structure over temporal subformulas): evaluate on the explicit lattice.
  if (!q.temporal && q.root && contains_temporal(q.root)) {
    out.result = detect_nested(c, q.root, opt);
    if (opt.audit != AuditMode::kOff) {
      out.result.plan = "lattice-nested-ctl (exponential)";
      out.result.diagnostics = oc != nullptr
                                   ? oc->residual
                                   : lint_query(c, q, opt.allow_exponential);
      if (oc != nullptr) {
        std::vector<Diagnostic> ds =
            optimize_diagnostics(*oc, OptimizeMode::kApply);
        ds.insert(ds.end(), out.result.diagnostics.begin(),
                  out.result.diagnostics.end());
        out.result.diagnostics = std::move(ds);
      }
    }
    if (oc != nullptr) out.result.rewrites = oc->steps;
    out.ok = true;
    out.algorithm = out.result.algorithm;
    return out;
  }

  PredicatePtr ppred = oc != nullptr ? oc->p : nullptr;
  if (!ppred) {
    CompileResult p = compile_state(q.p);
    if (!p.ok) {
      out.error = p.error;
      return out;
    }
    ppred = p.pred;
  }
  if (!q.temporal) {
    out.ok = true;
    out.result.algorithm = "state-eval(initial)";
    if (opt.audit != AuditMode::kOff)
      out.result.plan = "state-eval(initial) (O(1) evals)";
    out.result.verdict = verdict_of(ppred->eval(c, c.initial_cut()));
    ++out.result.stats.predicate_evals;
    out.algorithm = out.result.algorithm;
    attach_optimizer();
    return out;
  }
  PredicatePtr qpred = oc != nullptr ? oc->q : nullptr;
  if (!qpred && (q.op == Op::kEU || q.op == Op::kAU)) {
    CompileResult qq = compile_state(q.q);
    if (!qq.ok) {
      out.error = qq.error;
      return out;
    }
    qpred = qq.pred;
  }
  out.result = detect(c, q.op, ppred, qpred, opt);
  if (oc == nullptr && opt.audit != AuditMode::kOff) {
    // detect() raised the lint findings span-less (it never sees the query
    // text). Substitute the source-anchored versions and keep the audit
    // errors, which have no source anchor to gain.
    std::vector<Diagnostic> ds = lint_query(c, q, opt.allow_exponential);
    for (Diagnostic& d : out.result.diagnostics)
      if (d.severity == DiagSeverity::kError) ds.push_back(std::move(d));
    out.result.diagnostics = std::move(ds);
  }
  attach_optimizer();
  out.algorithm = out.result.algorithm;
  out.ok = true;
  return out;
}

}  // namespace

EvalResult evaluate_query(const Computation& c, const Query& q,
                          const DispatchOptions& opt) {
  EvalResult out;
  out.error = validate_query(c, q);
  if (!out.error.empty()) return out;

  if (opt.optimize == OptimizeMode::kOff) return evaluate_plain(c, q, opt, nullptr);

  OptimizeOutcome oc = optimize_query(c, q, opt.allow_exponential);
  if (opt.optimize == OptimizeMode::kApply && oc.changed)
    return evaluate_plain(c, oc.query, opt, &oc);
  if (opt.optimize == OptimizeMode::kApply && !oc.changed) {
    // Nothing improved: evaluate as written, but still report that the
    // optimizer ran (empty chain).
    return evaluate_plain(c, q, opt, &oc);
  }

  // kAnalyzeOnly: evaluate the original query untouched, then attach the
  // chain the optimizer *would* apply.
  out = evaluate_plain(c, q, opt, nullptr);
  if (opt.audit != AuditMode::kOff) {
    std::vector<Diagnostic> ds =
        optimize_diagnostics(oc, OptimizeMode::kAnalyzeOnly);
    out.result.diagnostics.insert(out.result.diagnostics.end(),
                                  std::make_move_iterator(ds.begin()),
                                  std::make_move_iterator(ds.end()));
  }
  out.result.rewrites = std::move(oc.steps);
  return out;
}

EvalResult evaluate_query(const Computation& c, std::string_view text,
                          const DispatchOptions& opt) {
  ParseResult parsed = parse_query(text);
  if (!parsed.ok) {
    EvalResult out;
    out.error = parsed.error;
    return out;
  }
  return evaluate_query(c, parsed.query, opt);
}

}  // namespace hbct::ctl
