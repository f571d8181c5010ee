#include "analysis/lint.h"

#include "analysis/infer.h"
#include "analysis/optimize.h"
#include "analysis/plan.h"
#include "analysis/rules.h"
#include "ctl/parser.h"

namespace hbct::ctl {

namespace {

/// Give span-less findings a source anchor. plan_diagnostics never sets
/// spans (it works below the parser), so in practice this anchors all of
/// them to the operand's subformula.
void anchor(std::vector<Diagnostic>& ds, SourceSpan span) {
  for (Diagnostic& d : ds)
    if (!d.span.valid()) d.span = span;
}

/// Findings about the dispatch as a whole rather than one operand; for
/// EU/AU they are raised once on p and suppressed on q.
bool plan_level(DiagCode c) {
  return c == DiagCode::kExponentialFallback ||
         c == DiagCode::kIntractableClass || c == DiagCode::kSplitDispatch;
}

}  // namespace

std::vector<Diagnostic> lint_query(const Computation& c, const Query& q,
                                   bool allow_exponential) {
  std::vector<Diagnostic> out;
  const NodePtr& root = q.root ? q.root : q.p;
  if (!root) return out;

  // Outside the paper's fragment: the whole formula is evaluated by
  // labeling the explicit lattice of consistent cuts. One finding for the
  // whole query; per-operand plans would be fiction (nothing dispatches).
  if (!q.temporal && contains_temporal(root)) {
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

  // A bare state formula is one predicate evaluation at the initial cut;
  // there is no dispatch to predict.
  if (!q.temporal) return out;

  const CompileResult p = compile_state(q.p);
  if (!p.ok) return out;
  const PredShape sp = shape_of(p.pred, c);

  if (q.op == Op::kEU || q.op == Op::kAU) {
    const CompileResult qq = compile_state(q.q);
    if (!qq.ok) return out;
    const PredShape sq = shape_of(qq.pred, c);
    const DetectPlan plan =
        plan_until(q.op, sp, sq,
                   q.op == Op::kEU && q_splits_into_linear(c, qq.pred),
                   allow_exponential);
    out = plan_diagnostics(q.op, *p.pred, sp, plan);
    anchor(out, q.p->span);
    std::vector<Diagnostic> dq = plan_diagnostics(q.op, *qq.pred, sq, plan);
    anchor(dq, q.q->span);
    for (Diagnostic& d : dq)
      if (!plan_level(d.code)) out.push_back(std::move(d));
    return out;
  }

  const DetectPlan plan = plan_unary(q.op, sp, allow_exponential);
  out = plan_diagnostics(q.op, *p.pred, sp, plan);
  anchor(out, q.p->span);
  return out;
}

namespace {

/// Softens a W004 finding whose operand the inference engine *can*
/// classify: the structural probe is blind to arithmetic monotonicity (and
/// to co-classes through negation), but the syntactic judgments are not,
/// so "no structural class" overstates the cost cliff.
void amend_unclassified(const Computation& c, const NodePtr& operand,
                        std::vector<Diagnostic>& ds) {
  if (!operand) return;
  for (Diagnostic& d : ds) {
    if (d.code != DiagCode::kUnclassifiedPredicate) continue;
    if (d.span != operand->span) continue;
    const Inference inf = infer_classes(c, operand);
    if (inf.classes == 0 && inf.co_classes == 0) continue;
    d.severity = DiagSeverity::kInfo;
    d.message +=
        "; however, syntactic inference derives " +
        (inf.classes != 0 ? classes_to_string(inf.classes)
                          : "co-classes " + classes_to_string(inf.co_classes)) +
        " for it";
    d.suggestion = rule_info(RuleId::kInferClasses).suggestion;
  }
}

}  // namespace

std::vector<Diagnostic> lint_query(const Computation& c, const Query& q,
                                   bool allow_exponential,
                                   OptimizeMode optimize) {
  if (optimize == OptimizeMode::kOff)
    return lint_query(c, q, allow_exponential);

  OptimizeOutcome oc = optimize_query(c, q, allow_exponential);
  if (optimize == OptimizeMode::kApply) {
    std::vector<Diagnostic> out =
        optimize_diagnostics(oc, OptimizeMode::kApply);
    out.insert(out.end(), std::make_move_iterator(oc.residual.begin()),
               std::make_move_iterator(oc.residual.end()));
    return out;
  }

  // kAnalyzeOnly: the as-written findings, inference-amended, plus the
  // chain the optimizer proposes.
  std::vector<Diagnostic> out = lint_query(c, q, allow_exponential);
  if (q.temporal) {
    amend_unclassified(c, q.p, out);
    amend_unclassified(c, q.q, out);
  }
  std::vector<Diagnostic> ds =
      optimize_diagnostics(oc, OptimizeMode::kAnalyzeOnly);
  out.insert(out.end(), std::make_move_iterator(ds.begin()),
             std::make_move_iterator(ds.end()));
  return out;
}

std::vector<Diagnostic> lint_query(const Computation& c,
                                   std::string_view query,
                                   bool allow_exponential) {
  ParseResult parsed = parse_query(query);
  if (!parsed.ok) return {};
  return lint_query(c, parsed.query, allow_exponential);
}

}  // namespace hbct::ctl
