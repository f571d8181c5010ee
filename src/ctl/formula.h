// Abstract syntax for the textual CTL fragment of Section 3.
//
// Grammar (see ctl/parser.h for the concrete syntax):
//
//   query    := 'EF' '(' state ')' | 'AF' '(' state ')'
//             | 'EG' '(' state ')' | 'AG' '(' state ')'
//             | 'E' '[' state 'U' state ']'
//             | 'A' '[' state 'U' state ']'
//             | state                      (evaluated at the initial cut)
//   state    := or-expression over atoms with '!', '&&', '||', parentheses
//   atom     := sum cmp sum | 'channels_empty' | 'terminated'
//             | 'true' | 'false'
//   sum      := term (('+'|'-') term)*
//   term     := <var> '@' 'P'<int> | 'pos' '(' <int> ')'
//             | 'intransit' '(' <int> ',' <int> ')' | <int>
//
// The fragment is deliberately non-nested (no temporal operator below
// another), matching the paper's Section 4 restriction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"  // SourceSpan
#include "detect/detector.h"
#include "predicate/local.h"

namespace hbct::ctl {

struct Term {
  enum class Kind { kConst, kVar, kPos, kInTransit };
  Kind kind = Kind::kConst;
  std::int64_t value = 0;  // kConst
  ProcId proc = 0;         // kVar, kPos
  std::string var;         // kVar
  ProcId from = 0, to = 0; // kInTransit
};

/// Sum of ±terms.
struct Sum {
  std::vector<std::pair<int, Term>> terms;  // coefficient is +1 or -1
};

struct Node;
using NodePtr = std::shared_ptr<const Node>;

struct Atom {
  Sum lhs;
  Cmp op = Cmp::kEq;
  Sum rhs;
};

struct Node {
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,
    kChannelsEmpty,
    kTerminated,
    kNot,
    kAnd,
    kOr,
    kTemporal,
  };
  Kind kind = Kind::kTrue;
  Atom atom;                      // kAtom
  std::vector<NodePtr> children;  // kNot (1), kAnd/kOr (>= 2),
                                  // kTemporal (1, or 2 for kEU/kAU)
  Op op = Op::kEF;                // kTemporal
  /// Byte range of this subformula in the query text the parser consumed;
  /// lint diagnostics anchor to it. Invalid for programmatically-built ASTs.
  SourceSpan span;
};

/// True when the formula contains a temporal operator anywhere. Nested
/// temporal formulas are outside the paper's fragment; they are evaluated
/// on the explicit lattice (exponential) rather than by the polynomial
/// algorithms.
bool contains_temporal(const NodePtr& n);

/// A parsed query. When the root is a single temporal operator over
/// temporal-free operands, `temporal`/`op`/`p`/`q` describe it (the paper's
/// fragment, eligible for the polynomial algorithms). `root` always holds
/// the full formula, including arbitrary nesting.
struct Query {
  bool temporal = false;
  Op op = Op::kEF;
  NodePtr p;
  NodePtr q;     // kEU/kAU only
  NodePtr root;  // the whole formula
};

/// An atom normalized to Σ coef_i * term_i <op> k: the non-constant ±terms
/// on the left, every constant folded into k. The lowering (ctl/compile.h)
/// and the class inference (analysis/infer.h) both read atoms this way.
struct NormAtom {
  std::vector<std::pair<int, Term>> terms;
  Cmp op = Cmp::kEq;
  std::int64_t k = 0;
  bool overflow = false;  // the folded constant does not fit in int64
};

NormAtom normalize_atom(const Atom& a);

std::string to_string(const Term& t);
std::string to_string(const Sum& s);
std::string to_string(const Node& n);
std::string to_string(const Query& f);

}  // namespace hbct::ctl
