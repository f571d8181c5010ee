#include "analysis/infer.h"

#include <utility>

#include "predicate/relational.h"
#include "util/string_util.h"

namespace hbct::ctl {

namespace {

/// Monotonicity of one ±term along every lattice walk: `up` when its value
/// never decreases as any process advances, `down` when it never increases.
struct Mono {
  bool up = false;
  bool down = false;
};

Mono term_mono(const Computation& c, int coef, const Term& t) {
  Mono m;
  switch (t.kind) {
    case Term::Kind::kConst:
      m.up = m.down = true;
      break;
    case Term::Kind::kPos:
      m.up = true;  // positions only ever advance
      break;
    case Term::Kind::kVar:
      m.up = is_nondecreasing(c, t.proc, t.var);
      m.down = is_nonincreasing(c, t.proc, t.var);
      break;
    case Term::Kind::kInTransit:
      break;  // channel occupancy rises and falls
  }
  if (coef < 0) std::swap(m.up, m.down);
  return m;
}

constexpr ClassSet kAndMask = kClassConjunctive | kClassLinear |
                              kClassPostLinear | kClassRegular | kClassStable;
constexpr ClassSet kOrMask = kClassDisjunctive | kClassStable;

Inference leaf(std::string rule, ClassSet pos, ClassSet neg,
               std::string detail, SourceSpan span) {
  Inference inf;
  inf.classes = close_classes(pos);
  inf.co_classes = close_classes(neg);
  inf.derivation = Derivation{std::move(rule), inf.classes, inf.co_classes,
                              std::move(detail), span, {}};
  return inf;
}

/// A predicate constant on every cut (and its negation likewise) belongs to
/// every closure class except equilevel: its satisfying set is the whole
/// lattice or empty, both of which are trivially meet-/join-/up-closed,
/// observer-independent, and dependent on (at most) one process.
constexpr ClassSet kConstantClasses = kClassLocal | kClassStable;

Inference infer_atom(const Computation& c, const Node& node) {
  const NormAtom n = normalize_atom(node.atom);
  const std::string text = to_string(node);

  if (n.terms.empty()) {
    const bool v = cmp_eval(n.op, 0, n.k);
    return leaf("atom-constant", kConstantClasses, kConstantClasses,
                strfmt("'%s' has no state-dependent term; it is constantly "
                       "%s on every cut",
                       text.c_str(), v ? "true" : "false"),
                node.span);
  }

  // pos(i) == pos(j) on a 2-process computation: the satisfying cuts are
  // exactly the diagonal cuts (l, l), i.e. the equilevel chain.
  if (n.op == Cmp::kEq && c.num_procs() == 2 && n.terms.size() == 2 &&
      n.terms[0].second.kind == Term::Kind::kPos &&
      n.terms[1].second.kind == Term::Kind::kPos &&
      n.terms[0].first + n.terms[1].first == 0 && n.k == 0 &&
      n.terms[0].second.proc != n.terms[1].second.proc) {
    return leaf("atom-equilevel", kClassEquilevel, 0,
                strfmt("'%s' equates the positions of both processes; every "
                       "satisfying cut lies on the diagonal chain",
                       text.c_str()),
                node.span);
  }

  // Per-computation monotonicity of the summed value.
  bool up = true, down = true;
  bool single_proc = true, has_channel = false;
  ProcId proc = -1;
  for (const auto& [coef, t] : n.terms) {
    const Mono m = term_mono(c, coef, t);
    up = up && m.up;
    down = down && m.down;
    if (t.kind == Term::Kind::kInTransit) {
      has_channel = true;
      single_proc = false;
    } else {
      if (proc == -1) proc = t.proc;
      if (t.proc != proc) single_proc = false;
    }
  }

  ClassSet pos = 0, neg = 0;
  std::string why;
  const char* rule = "atom-monotone";
  if (up && down) {
    // Every term is constant over its process timeline, so the atom has
    // one truth value on every cut.
    pos = neg = kConstantClasses;
    why = "every term is constant on this computation, so the atom is "
          "constant on every cut";
  } else if (up || down) {
    const char* dir = up ? "non-decreasing" : "non-increasing";
    // For a non-decreasing sum, `>= k` is up-closed (stable) and
    // join-closed (post-linear); `<= k` is down-closed, hence meet-closed
    // (linear) and observer-independent, with a stable negation. A
    // non-increasing sum mirrors the two roles.
    const bool ge_side = n.op == Cmp::kGe || n.op == Cmp::kGt;
    const bool le_side = n.op == Cmp::kLe || n.op == Cmp::kLt;
    const bool stable_side = (up && ge_side) || (down && le_side);
    const bool costable_side = (up && le_side) || (down && ge_side);
    if (stable_side) {
      pos = kClassStable | kClassPostLinear;
      neg = kClassLinear | kClassObserverIndependent;
      why = strfmt("the summed value is %s on this computation, so the "
                   "bound is up-closed (stable) and join-closed "
                   "(post-linear); its complement is down-closed",
                   dir);
    } else if (costable_side) {
      pos = kClassLinear | kClassObserverIndependent;
      neg = kClassStable | kClassPostLinear;
      why = strfmt("the summed value is %s on this computation, so the "
                   "bound is down-closed: meet-closed (linear), "
                   "observer-independent, and its negation is stable",
                   dir);
    }
  }

  // A single-process atom over vars/positions is local regardless of
  // monotonicity; the bits compose with the monotone ones.
  if (single_proc && !has_channel) {
    pos |= kClassLocal;
    neg |= kClassLocal;
    if (why.empty()) {
      rule = "atom-local";
      why = strfmt("'%s' reads process %d only", text.c_str(), proc);
    } else {
      why += strfmt("; the atom reads process %d only", proc);
    }
  }

  // A single channel-occupancy bound is regular on both sides: in-transit
  // counts at meets/joins never exceed/undershoot both operands' counts.
  if (has_channel && n.terms.size() == 1 && n.op != Cmp::kEq &&
      n.op != Cmp::kNe) {
    pos |= kClassRegular;
    neg |= kClassRegular;
    rule = "atom-channel";
    why = strfmt("'%s' bounds one channel's occupancy; the satisfying set "
                 "is a sublattice on both sides",
                 text.c_str());
  }

  if (pos == 0 && neg == 0)
    return leaf("atom-opaque", 0, 0,
                strfmt("no judgment applies to '%s'", text.c_str()),
                node.span);
  return leaf(rule, pos, neg, std::move(why), node.span);
}

Inference infer_node(const Computation& c, const NodePtr& n) {
  if (!n) return {};
  switch (n->kind) {
    case Node::Kind::kTrue:
    case Node::Kind::kFalse:
      return leaf("constant", kConstantClasses, kConstantClasses,
                  "constant formulas hold on every cut or on none",
                  n->span);
    case Node::Kind::kAtom:
      return infer_atom(c, *n);
    case Node::Kind::kChannelsEmpty:
      // All-channels-empty is regular (sublattice); its complement has no
      // derivable class.
      return leaf("channels-empty", kClassRegular, 0,
                  "the empty-channels cuts form a sublattice", n->span);
    case Node::Kind::kTerminated:
      // The singleton {top} is stable and a sublattice; everything below
      // the top cut is down-closed.
      return leaf("terminated", kClassStable | kClassRegular,
                  kClassLinear | kClassObserverIndependent,
                  "termination holds exactly at the final cut; its "
                  "complement is down-closed",
                  n->span);
    case Node::Kind::kNot: {
      Inference ch = infer_node(c, n->children[0]);
      Inference inf;
      inf.classes = ch.co_classes;
      inf.co_classes = ch.classes;
      inf.derivation =
          Derivation{"not-dual", inf.classes, inf.co_classes,
                     "negation swaps a formula's classes with its "
                     "co-classes",
                     n->span,
                     {std::move(ch.derivation)}};
      return inf;
    }
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      const bool is_and = n->kind == Node::Kind::kAnd;
      ClassSet acc = is_and ? kAndMask : kOrMask;
      ClassSet co_acc = is_and ? kOrMask : kAndMask;
      bool any_equilevel = false, all_equilevel = true;
      bool any_co_equilevel = false, all_co_equilevel = true;
      std::vector<Derivation> premises;
      premises.reserve(n->children.size());
      for (const auto& ch : n->children) {
        Inference ci = infer_node(c, ch);
        acc &= ci.classes;
        co_acc &= ci.co_classes;
        any_equilevel |= (ci.classes & kClassEquilevel) != 0;
        all_equilevel &= (ci.classes & kClassEquilevel) != 0;
        any_co_equilevel |= (ci.co_classes & kClassEquilevel) != 0;
        all_co_equilevel &= (ci.co_classes & kClassEquilevel) != 0;
        premises.push_back(std::move(ci.derivation));
      }
      // Intersecting with a diagonal-only set stays diagonal-only; a union
      // is diagonal-only when every operand is.
      if (is_and ? any_equilevel : all_equilevel) acc |= kClassEquilevel;
      if (is_and ? all_co_equilevel : any_co_equilevel)
        co_acc |= kClassEquilevel;
      Inference inf;
      inf.classes = close_classes(acc);
      inf.co_classes = close_classes(co_acc);
      inf.derivation =
          Derivation{is_and ? "and-meet" : "or-join", inf.classes,
                     inf.co_classes,
                     is_and ? "conjunction intersects the operand classes "
                              "under the ∧-closed mask (De Morgan for the "
                              "co-classes)"
                            : "disjunction intersects the operand classes "
                              "under the ∨-closed mask (De Morgan for the "
                              "co-classes)",
                     n->span, std::move(premises)};
      return inf;
    }
    case Node::Kind::kTemporal: {
      std::vector<Derivation> premises;
      for (const auto& ch : n->children)
        premises.push_back(infer_node(c, ch).derivation);
      Inference inf;
      inf.derivation = Derivation{"temporal-opaque", 0, 0,
                                  "class inference stops at temporal "
                                  "operators",
                                  n->span, std::move(premises)};
      return inf;
    }
  }
  return {};
}

void render(const Derivation& d, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += d.rule;
  out += " [";
  out += d.classes ? classes_to_string(d.classes) : "none";
  out += " | ~: ";
  out += d.co_classes ? classes_to_string(d.co_classes) : "none";
  out += "]";
  if (!d.detail.empty()) {
    out += ": ";
    out += d.detail;
  }
  out += '\n';
  for (const Derivation& p : d.premises) render(p, depth + 1, out);
}

void leaves(const Derivation& d, std::vector<const Derivation*>& out) {
  if (d.premises.empty()) {
    out.push_back(&d);
    return;
  }
  for (const Derivation& p : d.premises) leaves(p, out);
}

}  // namespace

Inference infer_classes(const Computation& c, const NodePtr& n) {
  return infer_node(c, n);
}

std::string to_string(const Derivation& d) {
  std::string out;
  render(d, 0, out);
  return out;
}

std::vector<const Derivation*> derivation_leaves(const Derivation& d) {
  std::vector<const Derivation*> out;
  leaves(d, out);
  return out;
}

}  // namespace hbct::ctl
