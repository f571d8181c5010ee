#include "analysis/optimize.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "analysis/plan.h"
#include "analysis/rewrite.h"
#include "analysis/rules.h"
#include "util/string_util.h"

namespace hbct::ctl {

namespace {

constexpr double kCostCap = 1e18;

/// Per-computation magnitudes the Table-1 formulas are written in.
struct CostModel {
  double n = 1;        // processes
  double events = 1;   // |E|
  double min_e = 1;    // min_i |E_i|
  double lattice = 1;  // Π (|E_i| + 1): explicit state-space size
};

CostModel cost_model(const Computation& c) {
  CostModel m;
  m.n = std::max<double>(1, c.num_procs());
  m.events = std::max<double>(1, static_cast<double>(c.total_events()));
  m.min_e = m.events;
  m.lattice = 1;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    const double e = static_cast<double>(c.num_events(i));
    m.min_e = std::min(m.min_e, e);
    m.lattice = std::min(kCostCap, m.lattice * (e + 1));
  }
  m.min_e = std::max(1.0, m.min_e);
  return m;
}

double algo_cost(Algo a, const CostModel& m) {
  switch (a) {
    case Algo::kStableFinal:
    case Algo::kStableInitial:
      return m.n;
    case Algo::kOiScan:
    case Algo::kEfDisjunctive:
    case Algo::kAfDisjunctive:
    case Algo::kA2AgLinear:
    case Algo::kA2AgPostLinear:
      return m.n * m.events;
    case Algo::kEquilevelScan:
      return m.n * m.n * m.min_e;
    case Algo::kGwWeakConjunctive:
    case Algo::kGwStrongConjunctive:
    case Algo::kChaseGargEf:
    case Algo::kChaseGargEfDual:
    case Algo::kEgConjunctiveScan:
    case Algo::kEgDisjunctive:
    case Algo::kAgConjunctiveScan:
    case Algo::kAgDisjunctive:
    case Algo::kA1EgLinear:
    case Algo::kA1EgPostLinear:
    case Algo::kA3Eu:
    case Algo::kAuDisjunctive:
      return m.n * m.n * m.events;
    case Algo::kEfOrSplit:
    case Algo::kAgAndSplit:
    case Algo::kEuOrSplit:
      return 0;  // caller sums the per-part plans
    case Algo::kEfDfs:
    case Algo::kAfDfs:
    case Algo::kEgDfs:
    case Algo::kAgDfs:
    case Algo::kEuDfs:
    case Algo::kAuDfs:
      return m.lattice;
  }
  return m.lattice;
}

double unary_route_cost(Op op, const PredicatePtr& p, const Computation& c,
                        bool allow_exp, const CostModel& m) {
  const PredShape s = shape_of(p, c);
  const DetectPlan pl = plan_unary(op, s, allow_exp);
  if (pl.algo == Algo::kEfOrSplit || pl.algo == Algo::kAgAndSplit) {
    const auto parts = pl.algo == Algo::kEfOrSplit ? p->disjuncts()
                                                   : p->conjuncts();
    double sum = 0;
    for (const PredicatePtr& part : parts)
      sum = std::min(kCostCap,
                     sum + unary_route_cost(op, part, c, allow_exp, m));
    return sum;
  }
  return algo_cost(pl.algo, m);
}

std::size_t node_count(const NodePtr& n) {
  if (!n) return 0;
  std::size_t k = 1;
  for (const NodePtr& c : n->children) k += node_count(c);
  return k;
}

/// One priced alternative: a query form plus (already compiled, possibly
/// refined) operands.
struct Candidate {
  Query query;
  PredicatePtr p;  // null on the lattice path or when compiling failed
  PredicatePtr q;
  std::vector<RewriteStep> steps;
  double cost = kCostCap;
  std::string plan;
};

RewriteStep make_step(RuleId id, std::string before, std::string after,
                      SourceSpan span) {
  const RuleInfo& ri = rule_info(id);
  return RewriteStep{ri.name, ri.soundness, std::move(before),
                     std::move(after), span};
}

/// Prices `cand` and fills its plan string. The route cost is scaled by
/// the formula's node count as a per-evaluation proxy, so redundancy
/// removals (dedup, absorption, constant folding) price strictly cheaper
/// even when the route is unchanged.
void price(const Computation& c, Candidate& cand, bool allow_exp,
           const CostModel& m) {
  const NodePtr& root = cand.query.root ? cand.query.root : cand.query.p;
  const double size = static_cast<double>(std::max<std::size_t>(
      1, node_count(root)));
  if (!cand.query.temporal && root && contains_temporal(root)) {
    cand.plan = "lattice-nested-ctl (exponential)";
    cand.cost = std::min(kCostCap, m.n * m.lattice * size);
    return;
  }
  if (!cand.query.temporal) {
    cand.plan = "state-eval(initial) (O(1) evals)";
    cand.cost = size;
    return;
  }
  if (!cand.p) {
    cand.cost = kCostCap;
    return;
  }
  if (cand.query.op == Op::kEU || cand.query.op == Op::kAU) {
    if (!cand.q) {
      cand.cost = kCostCap;
      return;
    }
    const PredShape sp = shape_of(cand.p, c);
    const PredShape sq = shape_of(cand.q, c);
    const DetectPlan pl = plan_until(
        cand.query.op, sp, sq,
        cand.query.op == Op::kEU && q_splits_into_linear(c, cand.q),
        allow_exp);
    cand.plan = plan_to_string(pl);
    double route = algo_cost(pl.algo, m);
    if (pl.algo == Algo::kEuOrSplit)
      route = static_cast<double>(std::max<std::size_t>(
                  1, cand.q->disjuncts().size())) *
              algo_cost(Algo::kA3Eu, m);
    cand.cost = std::min(kCostCap, route * size);
    return;
  }
  const PredShape sp = shape_of(cand.p, c);
  const DetectPlan pl = plan_unary(cand.query.op, sp, allow_exp);
  cand.plan = plan_to_string(pl);
  cand.cost = std::min(
      kCostCap, unary_route_cost(cand.query.op, cand.p, c, allow_exp, m) *
                    size);
}

/// Compiles the candidate's operands in place; returns false when the
/// (non-lattice) form does not compile.
bool compile_candidate(Candidate& cand) {
  const NodePtr& root = cand.query.root ? cand.query.root : cand.query.p;
  if (!cand.query.temporal && root && contains_temporal(root)) return true;
  CompileResult p = compile_state(cand.query.p);
  if (!p.ok) return false;
  cand.p = p.pred;
  if (cand.query.temporal &&
      (cand.query.op == Op::kEU || cand.query.op == Op::kAU)) {
    CompileResult q = compile_state(cand.query.q);
    if (!q.ok) return false;
    cand.q = q.pred;
  }
  return true;
}

/// Dispatch findings for the chosen form, span-anchored exactly as
/// analysis/lint.cpp does (per-operand anchoring, plan-level findings
/// raised once on p).
std::vector<Diagnostic> residual_of(const Computation& c,
                                    const Candidate& cand, bool allow_exp) {
  std::vector<Diagnostic> out;
  const NodePtr& root = cand.query.root ? cand.query.root : cand.query.p;
  if (!root) return out;
  const auto anchor = [](std::vector<Diagnostic>& ds, SourceSpan span) {
    for (Diagnostic& d : ds)
      if (!d.span.valid()) d.span = span;
  };
  if (!cand.query.temporal && contains_temporal(root)) {
    Diagnostic d;
    d.code = DiagCode::kNestedTemporal;
    d.message =
        "formula nests temporal operators (outside the Section 4 "
        "fragment); it is evaluated by labeling the explicit lattice of "
        "consistent cuts, worst-case exponential in the number of "
        "processes";
    d.suggestion =
        "restructure as a single outermost EF/AF/EG/AG/E[U]/A[U] over "
        "temporal-free state formulas to enable the Table-1 algorithms";
    d.span = root->span;
    out.push_back(std::move(d));
    return out;
  }
  if (!cand.query.temporal || !cand.p) return out;
  const PredShape sp = shape_of(cand.p, c);
  if (cand.query.op == Op::kEU || cand.query.op == Op::kAU) {
    if (!cand.q) return out;
    const PredShape sq = shape_of(cand.q, c);
    const DetectPlan pl = plan_until(
        cand.query.op, sp, sq,
        cand.query.op == Op::kEU && q_splits_into_linear(c, cand.q),
        allow_exp);
    out = plan_diagnostics(cand.query.op, *cand.p, sp, pl);
    anchor(out, cand.query.p->span);
    std::vector<Diagnostic> dq =
        plan_diagnostics(cand.query.op, *cand.q, sq, pl);
    anchor(dq, cand.query.q->span);
    for (Diagnostic& d : dq)
      if (d.code != DiagCode::kExponentialFallback &&
          d.code != DiagCode::kIntractableClass &&
          d.code != DiagCode::kSplitDispatch)
        out.push_back(std::move(d));
    return out;
  }
  const DetectPlan pl = plan_unary(cand.query.op, sp, allow_exp);
  out = plan_diagnostics(cand.query.op, *cand.p, sp, pl);
  anchor(out, cand.query.p->span);
  return out;
}

}  // namespace

OptimizeOutcome optimize_query(const Computation& c, const Query& query,
                               bool allow_exponential) {
  const CostModel m = cost_model(c);
  std::vector<Candidate> cands;

  // Candidate 0: the query as written.
  {
    Candidate base;
    base.query = query;
    compile_candidate(base);
    price(c, base, allow_exponential, m);
    cands.push_back(std::move(base));
  }
  const double cost_before = cands[0].cost;
  const std::string plan_before = cands[0].plan;

  // Candidate 1: boolean + temporal rewrite of the whole formula.
  const NodePtr root = query.root ? query.root : query.p;
  Rewritten rw = rescue_temporal(root);
  Query rw_query = query;
  if (!rw.steps.empty()) {
    rw_query = reframe(rw.node);
    Candidate cand;
    cand.query = rw_query;
    cand.steps = rw.steps;
    if (compile_candidate(cand)) {
      price(c, cand, allow_exponential, m);
      cands.push_back(std::move(cand));
    }
  }

  // Operand-level candidates build on the rewritten fragment form.
  Inference inf;
  if (rw_query.temporal && rw_query.op != Op::kEU &&
      rw_query.op != Op::kAU) {
    const Op op = rw_query.op;
    const NodePtr& operand = rw_query.p;
    inf = infer_classes(c, operand);
    CompileResult cp = compile_state(operand);

    if (cp.ok) {
      const ClassSet structural = effective_classes(*cp.pred, c);

      // Costable collapse: EF/AF of a down-closed operand — or EG/AG of a
      // stable one — is decided by one evaluation at the initial cut.
      const bool ef_side = op == Op::kEF || op == Op::kAF;
      const bool collapses =
          ef_side ? inf.down_closed()
                  : (((inf.classes | structural) & kClassStable) != 0);
      if (collapses) {
        Candidate cand;
        cand.query.temporal = false;
        cand.query.p = operand;
        cand.query.root = operand;
        cand.steps = rw.steps;
        cand.steps.push_back(make_step(
            RuleId::kCostableCollapse, to_string(*rw_query.root),
            to_string(*operand),
            rw_query.root ? rw_query.root->span : operand->span));
        cand.p = cp.pred;
        price(c, cand, allow_exponential, m);
        cands.push_back(std::move(cand));
      }

      // Inferred-class refinement: attach derived bits the structural
      // probe cannot see.
      if ((inf.classes & ~structural) != 0) {
        Candidate cand;
        cand.query = rw_query;
        cand.steps = rw.steps;
        cand.steps.push_back(make_step(
            RuleId::kInferClasses, to_string(*operand),
            strfmt("%s [inferred: %s]", to_string(*operand).c_str(),
                   classes_to_string(inf.classes).c_str()),
            operand->span));
        cand.p = make_refined(cp.pred, inf.classes, inf.co_classes);
        price(c, cand, allow_exponential, m);
        cands.push_back(std::move(cand));
      }
    }

    // Distribution: EF over a DNF operand / AG over a CNF operand, so the
    // dispatcher's or-/and-split routes fire.
    if (op == Op::kEF || op == Op::kAG) {
      const bool dnf = op == Op::kEF;
      Rewritten norm_op = normalize(operand);
      NodePtr split = dnf ? to_dnf(norm_op.node, 8)
                          : to_cnf(norm_op.node, 8);
      if (split && !node_equal(split, operand)) {
        Node t;
        t.kind = Node::Kind::kTemporal;
        t.op = op;
        t.span = rw_query.root ? rw_query.root->span : operand->span;
        t.children = {split};
        Candidate cand;
        cand.query = reframe(std::make_shared<const Node>(std::move(t)));
        cand.steps = rw.steps;
        cand.steps.insert(cand.steps.end(), norm_op.steps.begin(),
                          norm_op.steps.end());
        cand.steps.push_back(make_step(
            dnf ? RuleId::kEfDnfSplit : RuleId::kAgCnfSplit,
            to_string(*operand), to_string(*split), operand->span));
        if (compile_candidate(cand)) {
          price(c, cand, allow_exponential, m);
          cands.push_back(std::move(cand));
        }
      }
    }
  } else if (rw_query.temporal) {
    inf = infer_classes(c, rw_query.p);
  } else {
    inf = infer_classes(c, rw_query.root ? rw_query.root : rw_query.p);
  }

  // Choose: cheapest, ties to the fewest rewrite steps (the original wins
  // exact ties).
  std::size_t best = 0;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (cands[i].cost < cands[best].cost ||
        (cands[i].cost == cands[best].cost &&
         cands[i].steps.size() < cands[best].steps.size()))
      best = i;
  }

  OptimizeOutcome out;
  out.query = cands[best].query;
  out.p = cands[best].p;
  out.q = cands[best].q;
  out.steps = std::move(cands[best].steps);
  out.plan_before = plan_before;
  out.plan_after = cands[best].plan;
  out.cost_before = cost_before;
  out.cost_after = cands[best].cost;
  out.changed = best != 0;
  out.inference = std::move(inf);
  out.residual = residual_of(c, cands[best], allow_exponential);
  return out;
}

std::vector<Diagnostic> optimize_diagnostics(const OptimizeOutcome& o,
                                             OptimizeMode mode) {
  std::vector<Diagnostic> out;
  if (mode == OptimizeMode::kOff) return out;
  for (const RewriteStep& s : o.steps) {
    const RuleInfo* ri = find_rule(s.rule);
    Diagnostic d;
    d.code = ri != nullptr && ri->redundancy
                 ? DiagCode::kRedundantSubformula
                 : DiagCode::kRewriteApplied;
    d.severity = DiagSeverity::kInfo;
    d.message = strfmt(
        "%s %s: %s => %s",
        mode == OptimizeMode::kApply ? "applied" : "optimizer proposes",
        s.rule.c_str(), s.before.c_str(), s.after.c_str());
    if (!s.note.empty()) d.message += strfmt(" [%s]", s.note.c_str());
    d.span = s.span;
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace hbct::ctl
