#include "ctl/formula.h"

#include <limits>
#include <sstream>

#include "util/assert.h"
#include "util/string_util.h"

namespace hbct::ctl {

NormAtom normalize_atom(const Atom& a) {
  NormAtom n;
  n.op = a.op;
  // Folded exactly in 128 bits (each step adds at most 2^63 in magnitude),
  // so only the final constant has to fit.
  __int128 k = 0;
  for (const auto& [coef, t] : a.lhs.terms) {
    if (t.kind == Term::Kind::kConst)
      k -= coef * static_cast<__int128>(t.value);
    else
      n.terms.emplace_back(coef, t);
  }
  for (const auto& [coef, t] : a.rhs.terms) {
    if (t.kind == Term::Kind::kConst)
      k += coef * static_cast<__int128>(t.value);
    else
      n.terms.emplace_back(-coef, t);
  }
  n.overflow = k < std::numeric_limits<std::int64_t>::min() ||
               k > std::numeric_limits<std::int64_t>::max();
  n.k = static_cast<std::int64_t>(k);
  return n;
}

std::string to_string(const Term& t) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return std::to_string(t.value);
    case Term::Kind::kVar:
      return strfmt("%s@P%d", t.var.c_str(), t.proc);
    case Term::Kind::kPos:
      return strfmt("pos(%d)", t.proc);
    case Term::Kind::kInTransit:
      return strfmt("intransit(%d,%d)", t.from, t.to);
  }
  return "?";
}

std::string to_string(const Sum& s) {
  std::ostringstream os;
  for (std::size_t i = 0; i < s.terms.size(); ++i) {
    const auto& [coef, term] = s.terms[i];
    if (i == 0) {
      if (coef < 0) os << "-";
    } else {
      os << (coef < 0 ? " - " : " + ");
    }
    os << to_string(term);
  }
  return os.str();
}

std::string to_string(const Node& n) {
  switch (n.kind) {
    case Node::Kind::kTrue:
      return "true";
    case Node::Kind::kFalse:
      return "false";
    case Node::Kind::kChannelsEmpty:
      return "channels_empty";
    case Node::Kind::kTerminated:
      return "terminated";
    case Node::Kind::kAtom:
      return to_string(n.atom.lhs) + " " + hbct::to_string(n.atom.op) + " " +
             to_string(n.atom.rhs);
    case Node::Kind::kNot:
      HBCT_ASSERT(n.children.size() == 1);
      return "!(" + to_string(*n.children[0]) + ")";
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      std::ostringstream os;
      const char* sep = n.kind == Node::Kind::kAnd ? " && " : " || ";
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (i) os << sep;
        os << "(" << to_string(*n.children[i]) << ")";
      }
      return os.str();
    }
    case Node::Kind::kTemporal:
      switch (n.op) {
        case Op::kEU:
          return "E[" + to_string(*n.children[0]) + " U " +
                 to_string(*n.children[1]) + "]";
        case Op::kAU:
          return "A[" + to_string(*n.children[0]) + " U " +
                 to_string(*n.children[1]) + "]";
        default:
          return std::string(hbct::to_string(n.op)) + "(" +
                 to_string(*n.children[0]) + ")";
      }
  }
  return "?";
}

bool contains_temporal(const NodePtr& n) {
  if (!n) return false;
  if (n->kind == Node::Kind::kTemporal) return true;
  for (const auto& ch : n->children)
    if (contains_temporal(ch)) return true;
  return false;
}

std::string to_string(const Query& f) {
  if (!f.temporal) return to_string(*f.p);
  switch (f.op) {
    case Op::kEF:
    case Op::kAF:
    case Op::kEG:
    case Op::kAG:
      return std::string(hbct::to_string(f.op)) + "(" + to_string(*f.p) + ")";
    case Op::kEU:
      return "E[" + to_string(*f.p) + " U " + to_string(*f.q) + "]";
    case Op::kAU:
      return "A[" + to_string(*f.p) + " U " + to_string(*f.q) + "]";
  }
  return "?";
}

}  // namespace hbct::ctl
