#include "analysis/audit.h"

#include <algorithm>
#include <random>

#include "lattice/lattice.h"
#include "predicate/equilevel.h"
#include "util/string_util.h"

namespace hbct {

const char* to_string(AuditCheck c) {
  switch (c) {
    case AuditCheck::kLinearMeet: return "linear-meet-closure";
    case AuditCheck::kPostLinearJoin: return "post-linear-join-closure";
    case AuditCheck::kStableUpClosed: return "stable-up-closed";
    case AuditCheck::kObserverIndependent: return "observer-independence";
    case AuditCheck::kConjunctiveDecomp: return "conjunctive-decomposition";
    case AuditCheck::kDisjunctiveDecomp: return "disjunctive-decomposition";
    case AuditCheck::kLocalDependence: return "local-dependence";
    case AuditCheck::kEquilevelDiagonal: return "equilevel-diagonal";
    case AuditCheck::kForbiddenOracle: return "forbidden-oracle";
    case AuditCheck::kForbiddenDownOracle: return "forbidden-down-oracle";
    case AuditCheck::kNegationSemantics: return "negation-semantics";
    case AuditCheck::kNegationClasses: return "negation-classes";
  }
  return "?";
}

namespace {

using SatVec = std::vector<char>;

/// Cap on the quadratic pair loops (meet/join closure, oracle checks).
constexpr std::size_t kMaxPairChecks = std::size_t{1} << 16;

void add_violation(std::vector<AuditViolation>& out, AuditCheck check,
                   std::string message, std::vector<Cut> cuts) {
  out.push_back({check, std::move(message), std::move(cuts)});
}

// ---- Exact mode: checks over the explicit lattice ---------------------------

/// Meet (join) of two satisfying cuts must satisfy the predicate. One
/// counterexample is enough; the pair loop is capped by kMaxPairChecks.
void check_semilattice(const Lattice& lat, const SatVec& sat, bool join,
                       std::vector<AuditViolation>& out) {
  std::vector<NodeId> hits;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (sat[v]) hits.push_back(v);
  std::size_t budget = kMaxPairChecks;
  for (std::size_t a = 0; a < hits.size(); ++a) {
    for (std::size_t b = a + 1; b < hits.size(); ++b) {
      if (budget-- == 0) return;
      const NodeId m =
          join ? lat.join(hits[a], hits[b]) : lat.meet(hits[a], hits[b]);
      if (sat[m]) continue;
      add_violation(
          out,
          join ? AuditCheck::kPostLinearJoin : AuditCheck::kLinearMeet,
          strfmt("p holds at %s and %s but not at their %s %s",
                 lat.cut(hits[a]).to_string().c_str(),
                 lat.cut(hits[b]).to_string().c_str(),
                 join ? "join" : "meet", lat.cut(m).to_string().c_str()),
          {lat.cut(hits[a]), lat.cut(hits[b]), lat.cut(m)});
      return;
    }
  }
}

/// Stable: true at a cut implies true at every successor cut.
void check_stable(const Lattice& lat, const SatVec& sat,
                  std::vector<AuditViolation>& out) {
  for (NodeId v = 0; v < lat.size(); ++v) {
    if (!sat[v]) continue;
    for (NodeId s : lat.successors(v)) {
      if (sat[s]) continue;
      add_violation(out, AuditCheck::kStableUpClosed,
                    strfmt("p holds at %s but not at its successor %s",
                           lat.cut(v).to_string().c_str(),
                           lat.cut(s).to_string().c_str()),
                    {lat.cut(v), lat.cut(s)});
      return;
    }
  }
}

/// Observer independence: if any cut satisfies p, every observation (maximal
/// bottom-to-top chain) must pass through a satisfying cut. We search for a
/// chain that avoids the satisfying set entirely via BFS over non-satisfying
/// nodes.
void check_observer_independent(const Lattice& lat, const SatVec& sat,
                                std::vector<AuditViolation>& out) {
  NodeId witness = kNoNode;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (sat[v]) {
      witness = v;
      break;
    }
  if (witness == kNoNode) return;  // EF false everywhere: trivially OI
  if (sat[lat.bottom()]) return;   // every observation starts satisfied
  std::vector<NodeId> parent(lat.size(), kNoNode);
  std::vector<char> seen(lat.size(), 0);
  std::vector<NodeId> queue{lat.bottom()};
  seen[lat.bottom()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    if (v == lat.top()) {
      std::vector<Cut> path;
      for (NodeId u = v; u != kNoNode; u = parent[u])
        path.push_back(lat.cut(u));
      std::reverse(path.begin(), path.end());
      path.push_back(lat.cut(witness));  // the cut the observation misses
      add_violation(
          out, AuditCheck::kObserverIndependent,
          strfmt("p holds at %s but the observation ending %s never sees it",
                 lat.cut(witness).to_string().c_str(),
                 lat.cut(v).to_string().c_str()),
          std::move(path));
      return;
    }
    for (NodeId s : lat.successors(v)) {
      if (seen[s] || sat[s]) continue;
      seen[s] = 1;
      parent[s] = v;
      queue.push_back(s);
    }
  }
}

/// Conjunctive: with the canonical per-process good sets
/// good_i(pos) = "some satisfying cut has coordinate pos on i", p must equal
/// the conjunction of the goods. (The forward direction holds by
/// construction, so a mismatch is always a false p where every good agrees.)
void check_conjunctive(const Lattice& lat, const SatVec& sat,
                       std::vector<AuditViolation>& out) {
  const Computation& c = lat.computation();
  const auto n = static_cast<std::size_t>(c.num_procs());
  std::vector<std::vector<char>> good(n);
  for (std::size_t i = 0; i < n; ++i)
    good[i].assign(
        static_cast<std::size_t>(c.num_events(static_cast<ProcId>(i))) + 1, 0);
  for (NodeId v = 0; v < lat.size(); ++v) {
    if (!sat[v]) continue;
    const Cut& g = lat.cut(v);
    for (std::size_t i = 0; i < n; ++i)
      good[i][static_cast<std::size_t>(g[i])] = 1;
  }
  for (NodeId v = 0; v < lat.size(); ++v) {
    const Cut& g = lat.cut(v);
    bool expected = true;
    for (std::size_t i = 0; i < n && expected; ++i)
      expected = good[i][static_cast<std::size_t>(g[i])] != 0;
    if (expected == (sat[v] != 0)) continue;
    add_violation(out, AuditCheck::kConjunctiveDecomp,
                  strfmt("no per-process conjunction reproduces p: every "
                         "coordinate of %s appears in some satisfying cut, "
                         "yet p is false there",
                         g.to_string().c_str()),
                  {g});
    return;
  }
}

/// Disjunctive dual: cand_i(pos) = "every cut with coordinate pos on i
/// satisfies p"; p must equal the disjunction of the candidates.
void check_disjunctive(const Lattice& lat, const SatVec& sat,
                       std::vector<AuditViolation>& out) {
  const Computation& c = lat.computation();
  const auto n = static_cast<std::size_t>(c.num_procs());
  std::vector<std::vector<char>> cand(n);
  for (std::size_t i = 0; i < n; ++i)
    cand[i].assign(
        static_cast<std::size_t>(c.num_events(static_cast<ProcId>(i))) + 1, 1);
  for (NodeId v = 0; v < lat.size(); ++v) {
    if (sat[v]) continue;
    const Cut& g = lat.cut(v);
    for (std::size_t i = 0; i < n; ++i)
      cand[i][static_cast<std::size_t>(g[i])] = 0;
  }
  for (NodeId v = 0; v < lat.size(); ++v) {
    const Cut& g = lat.cut(v);
    bool expected = false;
    for (std::size_t i = 0; i < n && !expected; ++i)
      expected = cand[i][static_cast<std::size_t>(g[i])] != 0;
    if (expected == (sat[v] != 0)) continue;
    add_violation(out, AuditCheck::kDisjunctiveDecomp,
                  strfmt("no per-process disjunction reproduces p: p holds "
                         "at %s but no coordinate guarantees it",
                         g.to_string().c_str()),
                  {g});
    return;
  }
}

/// Local: truth must be a function of a single process's coordinate.
void check_local(const Lattice& lat, const SatVec& sat,
                 std::vector<AuditViolation>& out) {
  const Computation& c = lat.computation();
  Cut cex_a, cex_b;  // witness pair for the first failing process
  bool have_cex = false;
  for (ProcId i = 0; i < c.num_procs(); ++i) {
    std::vector<std::int8_t> val(
        static_cast<std::size_t>(c.num_events(i)) + 1, -1);
    std::vector<NodeId> rep(val.size(), kNoNode);
    bool depends_only_on_i = true;
    for (NodeId v = 0; v < lat.size() && depends_only_on_i; ++v) {
      const auto pos = static_cast<std::size_t>(lat.cut(v)[
          static_cast<std::size_t>(i)]);
      if (val[pos] < 0) {
        val[pos] = sat[v];
        rep[pos] = v;
      } else if (val[pos] != sat[v]) {
        depends_only_on_i = false;
        if (!have_cex) {
          cex_a = lat.cut(rep[pos]);
          cex_b = lat.cut(v);
          have_cex = true;
        }
      }
    }
    if (depends_only_on_i) return;
  }
  add_violation(out, AuditCheck::kLocalDependence,
                strfmt("p is not local: %s and %s agree on every single "
                       "process's coordinate candidate yet p differs",
                       cex_a.to_string().c_str(), cex_b.to_string().c_str()),
                {cex_a, cex_b});
}

/// Equilevel: every satisfying cut must lie on the diagonal chain
/// (l, ..., l). One off-diagonal satisfying cut refutes the class (and
/// would make the equilevel-scan route unsound).
void check_equilevel_class(const Lattice& lat, const SatVec& sat,
                           std::vector<AuditViolation>& out) {
  for (NodeId v = 0; v < lat.size(); ++v) {
    if (!sat[v]) continue;
    const Cut& g = lat.cut(v);
    if (is_equilevel_cut(g)) continue;
    add_violation(out, AuditCheck::kEquilevelDiagonal,
                  strfmt("p holds at the off-diagonal cut %s",
                         g.to_string().c_str()),
                  {g});
    return;
  }
}

/// forbidden(): for a false cut g and i = forbidden(g), no satisfying cut
/// above g may keep coordinate i (dually below for forbidden_down).
void check_oracle(const Lattice& lat, const Predicate& p, const SatVec& sat,
                  bool down, std::vector<AuditViolation>& out) {
  const Computation& c = lat.computation();
  std::vector<NodeId> hits;
  for (NodeId v = 0; v < lat.size(); ++v)
    if (sat[v]) hits.push_back(v);
  std::size_t budget = kMaxPairChecks;
  for (NodeId v = 0; v < lat.size(); ++v) {
    if (sat[v]) continue;
    const Cut& g = lat.cut(v);
    const ProcId i = down ? p.forbidden_down(c, g) : p.forbidden(c, g);
    const auto check = down ? AuditCheck::kForbiddenDownOracle
                            : AuditCheck::kForbiddenOracle;
    if (i < 0 || i >= c.num_procs()) {
      add_violation(out, check,
                    strfmt("oracle returned invalid process %d at %s",
                           static_cast<int>(i), g.to_string().c_str()),
                    {g});
      return;
    }
    for (NodeId hv : hits) {
      if (budget-- == 0) return;
      const Cut& h = lat.cut(hv);
      const bool comparable = down ? h.subset_of(g) : g.subset_of(h);
      if (!comparable ||
          h[static_cast<std::size_t>(i)] != g[static_cast<std::size_t>(i)])
        continue;
      add_violation(
          out, check,
          strfmt("oracle forbade process %d at %s, but satisfying cut %s "
                 "%s it without advancing that process",
                 static_cast<int>(i), g.to_string().c_str(),
                 h.to_string().c_str(), down ? "precedes" : "extends"),
          {g, h});
      return;
    }
  }
}

/// Dispatches the class-definition checks for every claimed bit; returns
/// the bits that were actually exercised.
ClassSet run_class_checks(const Lattice& lat, const SatVec& sat, ClassSet cls,
                          std::vector<AuditViolation>& out) {
  ClassSet checked = 0;
  if (cls & kClassLinear) {
    check_semilattice(lat, sat, /*join=*/false, out);
    checked |= kClassLinear;
  }
  if (cls & kClassPostLinear) {
    check_semilattice(lat, sat, /*join=*/true, out);
    checked |= kClassPostLinear;
  }
  if ((cls & kClassRegular) && (checked & kClassLinear) &&
      (checked & kClassPostLinear))
    checked |= kClassRegular;  // sublattice = meet- and join-closed
  if (cls & kClassStable) {
    check_stable(lat, sat, out);
    checked |= kClassStable;
  }
  if (cls & kClassObserverIndependent) {
    check_observer_independent(lat, sat, out);
    checked |= kClassObserverIndependent;
  }
  if (cls & kClassConjunctive) {
    check_conjunctive(lat, sat, out);
    checked |= kClassConjunctive;
  }
  if (cls & kClassDisjunctive) {
    check_disjunctive(lat, sat, out);
    checked |= kClassDisjunctive;
  }
  if (cls & kClassLocal) {
    check_local(lat, sat, out);
    checked |= kClassLocal;
  }
  if (cls & kClassEquilevel) {
    check_equilevel_class(lat, sat, out);
    checked |= kClassEquilevel;
  }
  return checked;
}

void exact_audit(const Lattice& lat, const PredicatePtr& p, ClassSet cls,
                 const AuditOptions& opt, AuditResult& r) {
  const Computation& c = lat.computation();
  SatVec sat(lat.size(), 0);
  for (NodeId v = 0; v < lat.size(); ++v)
    sat[v] = p->eval(c, lat.cut(v)) ? 1 : 0;
  r.cuts_examined += lat.size();

  r.checked |= run_class_checks(lat, sat, cls, r.violations);

  if (p->has_forbidden() && (cls & kClassLinear))
    check_oracle(lat, *p, sat, /*down=*/false, r.violations);
  if (p->has_forbidden_down() && (cls & kClassPostLinear))
    check_oracle(lat, *p, sat, /*down=*/true, r.violations);

  if (!opt.check_negation) return;
  const PredicatePtr n = p->negate();
  SatVec nsat(lat.size(), 0);
  for (NodeId v = 0; v < lat.size(); ++v)
    nsat[v] = n->eval(c, lat.cut(v)) ? 1 : 0;
  for (NodeId v = 0; v < lat.size(); ++v) {
    if ((nsat[v] != 0) != (sat[v] == 0)) {
      add_violation(r.violations, AuditCheck::kNegationSemantics,
                    strfmt("negate() is not the complement at %s",
                           lat.cut(v).to_string().c_str()),
                    {lat.cut(v)});
      return;  // class claims of a wrong complement are meaningless
    }
  }
  // The negation may under-claim (a generic Not claims nothing), but any
  // class it does claim must hold for the complement set.
  std::vector<AuditViolation> nviol;
  run_class_checks(lat, nsat, close_classes(n->classes(c)), nviol);
  for (AuditViolation& v : nviol) {
    v.message = strfmt("negate() claims a class it lacks (%s): %s",
                       to_string(v.check), v.message.c_str());
    v.check = AuditCheck::kNegationClasses;
    r.violations.push_back(std::move(v));
  }
}

// ---- Sampled mode: random observations on large computations ----------------

void sampled_audit(const Computation& c, const PredicatePtr& p, ClassSet cls,
                   const AuditOptions& opt, AuditResult& r) {
  std::mt19937_64 rng(opt.seed);
  constexpr std::size_t kPoolCap = 512;  // per-polarity reservoir of cuts
  std::vector<Cut> sat_pool, unsat_pool;
  bool any_walk_hit = false, any_walk_missed = false;
  Cut oi_witness;

  auto pool_insert = [&](std::vector<Cut>& pool, const Cut& g,
                         std::size_t seen) {
    if (pool.size() < kPoolCap) {
      pool.push_back(g);
    } else {
      std::uniform_int_distribution<std::size_t> d(0, seen);
      const std::size_t j = d(rng);
      if (j < kPoolCap) pool[j] = g;
    }
  };

  std::size_t sat_seen = 0, unsat_seen = 0;
  for (std::size_t w = 0; w < opt.samples; ++w) {
    Cut g = c.trim_cut();
    bool hit = false, was_true = false;
    Cut last_true;
    for (;;) {
      const bool sg = p->eval(c, g);
      ++r.cuts_examined;
      if (sg)
        pool_insert(sat_pool, g, sat_seen++);
      else
        pool_insert(unsat_pool, g, unsat_seen++);
      if ((cls & kClassStable) && was_true && !sg && r.violations.empty())
        add_violation(r.violations, AuditCheck::kStableUpClosed,
                      strfmt("p held at %s but failed later at %s on the "
                             "same observation",
                             last_true.to_string().c_str(),
                             g.to_string().c_str()),
                      {last_true, g});
      if (sg) {
        was_true = true;
        last_true = g;
        if (!hit) oi_witness = g;
        hit = true;
      }
      std::vector<ProcId> enabled;
      for (ProcId i = 0; i < c.num_procs(); ++i)
        if (c.enabled(g, i)) enabled.push_back(i);
      if (enabled.empty()) break;
      std::uniform_int_distribution<std::size_t> d(0, enabled.size() - 1);
      g = c.advance(g, enabled[d(rng)]);
    }
    (hit ? any_walk_hit : any_walk_missed) = true;
  }

  if (cls & kClassStable) r.checked |= kClassStable;
  if (cls & kClassEquilevel) {
    r.checked |= kClassEquilevel;
    for (const Cut& g : sat_pool) {
      if (is_equilevel_cut(g)) continue;
      add_violation(r.violations, AuditCheck::kEquilevelDiagonal,
                    strfmt("p holds at the off-diagonal cut %s",
                           g.to_string().c_str()),
                    {g});
      break;
    }
  }
  if (cls & kClassObserverIndependent) {
    r.checked |= kClassObserverIndependent;
    if (any_walk_hit && any_walk_missed)
      add_violation(r.violations, AuditCheck::kObserverIndependent,
                    strfmt("p holds at %s on one observation but a sampled "
                           "observation never sees p",
                           oi_witness.to_string().c_str()),
                    {oi_witness});
  }

  auto pair_scan = [&](bool join, AuditCheck which) {
    std::size_t budget = std::min(kMaxPairChecks,
                                  sat_pool.size() * sat_pool.size());
    for (std::size_t a = 0; a < sat_pool.size(); ++a) {
      for (std::size_t b = a + 1; b < sat_pool.size(); ++b) {
        if (budget-- == 0) return;
        Cut m = join ? Cut::join(sat_pool[a], sat_pool[b])
                     : Cut::meet(sat_pool[a], sat_pool[b]);
        ++r.cuts_examined;
        if (p->eval(c, m)) continue;
        add_violation(
            r.violations, which,
            strfmt("p holds at %s and %s but not at their %s %s",
                   sat_pool[a].to_string().c_str(),
                   sat_pool[b].to_string().c_str(), join ? "join" : "meet",
                   m.to_string().c_str()),
            {sat_pool[a], sat_pool[b], std::move(m)});
        return;
      }
    }
  };
  if (cls & kClassLinear) {
    pair_scan(/*join=*/false, AuditCheck::kLinearMeet);
    r.checked |= kClassLinear;
  }
  if (cls & kClassPostLinear) {
    pair_scan(/*join=*/true, AuditCheck::kPostLinearJoin);
    r.checked |= kClassPostLinear;
  }
  if ((cls & kClassRegular) && (r.checked & kClassLinear) &&
      (r.checked & kClassPostLinear))
    r.checked |= kClassRegular;

  auto oracle_scan = [&](bool down, AuditCheck which) {
    std::size_t budget = kMaxPairChecks;
    for (const Cut& g : unsat_pool) {
      const ProcId i = down ? p->forbidden_down(c, g) : p->forbidden(c, g);
      if (i < 0 || i >= c.num_procs()) {
        add_violation(r.violations, which,
                      strfmt("oracle returned invalid process %d at %s",
                             static_cast<int>(i), g.to_string().c_str()),
                      {g});
        return;
      }
      for (const Cut& h : sat_pool) {
        if (budget-- == 0) return;
        const bool comparable = down ? h.subset_of(g) : g.subset_of(h);
        if (!comparable ||
            h[static_cast<std::size_t>(i)] != g[static_cast<std::size_t>(i)])
          continue;
        add_violation(
            r.violations, which,
            strfmt("oracle forbade process %d at %s, but satisfying cut %s "
                   "%s it without advancing that process",
                   static_cast<int>(i), g.to_string().c_str(),
                   h.to_string().c_str(), down ? "precedes" : "extends"),
            {g, h});
        return;
      }
    }
  };
  if (p->has_forbidden() && (cls & kClassLinear))
    oracle_scan(/*down=*/false, AuditCheck::kForbiddenOracle);
  if (p->has_forbidden_down() && (cls & kClassPostLinear))
    oracle_scan(/*down=*/true, AuditCheck::kForbiddenDownOracle);

  if (opt.check_negation) {
    const PredicatePtr n = p->negate();
    for (const std::vector<Cut>* pool : {&sat_pool, &unsat_pool}) {
      for (const Cut& g : *pool) {
        if (n->eval(c, g) != !p->eval(c, g)) {
          add_violation(r.violations, AuditCheck::kNegationSemantics,
                        strfmt("negate() is not the complement at %s",
                               g.to_string().c_str()),
                        {g});
          return;
        }
      }
    }
  }
}

}  // namespace

AuditResult audit_predicate(const PredicatePtr& p, const Computation& c,
                            const AuditOptions& opt) {
  AuditResult r;
  const ClassSet cls = effective_classes(*p, c);
  if (auto lat = Lattice::try_build(c, opt.max_lattice)) {
    r.exhaustive = true;
    exact_audit(*lat, p, cls, opt, r);
  } else {
    sampled_audit(c, p, cls, opt, r);
  }
  return r;
}

std::vector<Diagnostic> audit_diagnostics(const AuditResult& r) {
  std::vector<Diagnostic> out;
  out.reserve(r.violations.size());
  for (const AuditViolation& v : r.violations) {
    DiagCode code = DiagCode::kClassAuditFailed;
    if (v.check == AuditCheck::kForbiddenOracle ||
        v.check == AuditCheck::kForbiddenDownOracle)
      code = DiagCode::kOracleContractViolated;
    else if (v.check == AuditCheck::kNegationSemantics ||
             v.check == AuditCheck::kNegationClasses)
      code = DiagCode::kNegationContractViolated;
    Diagnostic d;
    d.code = code;
    d.severity = DiagSeverity::kError;
    d.message = strfmt("%s: %s", to_string(v.check), v.message.c_str());
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace hbct
