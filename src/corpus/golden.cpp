#include "corpus/golden.h"

#include <utility>

#include "obs/json.h"

namespace hbct::corpus {

namespace {

void cut_array(JsonWriter& w, const Cut& g) {
  w.begin_array();
  for (std::size_t i = 0; i < g.size(); ++i)
    w.value(static_cast<std::int64_t>(g[i]));
  w.end_array();
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kFails: return "fails";
    default: return "unknown";
  }
}

DetectResult run_cell(const Computation& c, const BatteryCell& cell,
                      const DispatchOptions& opt) {
  return detect(c, cell.op, cell.pred, cell.until_q, opt);
}

}  // namespace

bool witness_certifies(const Computation& c, const BatteryCell& cell,
                       const DetectResult& r) {
  const Predicate& p = *cell.pred;
  if (r.verdict == Verdict::kHolds &&
      (cell.op == Op::kEF || cell.op == Op::kAF || cell.op == Op::kEU)) {
    // A satisfying cut (of q for EU). AF routes that prove kHolds without
    // locating a cut (e.g. af-disjunctive) legitimately omit it.
    if (!r.witness_cut) return cell.op != Op::kEF && cell.op != Op::kEU;
    const Predicate& target = cell.op == Op::kEU ? *cell.until_q : p;
    return c.is_consistent(*r.witness_cut) &&
           target.eval(c, *r.witness_cut);
  }
  if (r.verdict == Verdict::kFails && cell.op == Op::kAG) {
    // A violating cut; optional, but must refute p when present.
    if (!r.witness_cut) return true;
    return c.is_consistent(*r.witness_cut) && !p.eval(c, *r.witness_cut);
  }
  if (r.verdict == Verdict::kHolds && cell.op == Op::kEG) {
    // When reported: a maximal cut sequence of satisfying cuts, from the
    // initial cut to the final cut, adding exactly one event per step.
    const std::vector<Cut>& path = r.witness_path;
    if (path.empty()) return true;
    if (path.front() != c.initial_cut() || path.back() != c.final_cut())
      return false;
    for (std::size_t k = 0; k < path.size(); ++k) {
      const Cut& g = path[k];
      if (!c.is_consistent(g) || !p.eval(c, g)) return false;
      if (k > 0 && !(path[k - 1].subset_of(g) &&
                     g.total() == path[k - 1].total() + 1))
        return false;
    }
    return true;
  }
  return true;
}

std::vector<CellOutcome> run_battery(const Computation& c,
                                     const std::vector<BatteryCell>& battery,
                                     const DispatchOptions& opt,
                                     bool stress_only) {
  std::vector<CellOutcome> out;
  for (const BatteryCell& cell : battery) {
    if (stress_only && !cell.stress_safe) continue;
    const DetectResult r = run_cell(c, cell, opt);
    out.push_back({cell.name, cell.expect, r.verdict, r.algorithm,
                   witness_certifies(c, cell, r)});
  }
  return out;
}

std::string golden_document(const Scenario& s, const DispatchOptions& opt) {
  const Computation& c = s.computation;
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "hbct.corpus-golden/1");
  w.kv("scenario", std::string_view(s.name));
  w.key("options");
  w.begin_object();
  w.kv("procs", static_cast<std::int64_t>(s.options.procs));
  w.kv("scale", static_cast<std::int64_t>(s.options.scale));
  w.kv("seed", static_cast<std::uint64_t>(s.options.seed));
  w.end_object();
  w.key("computation");
  w.begin_object();
  w.kv("procs", static_cast<std::int64_t>(c.num_procs()));
  w.kv("events", c.total_events());
  w.kv("messages", c.num_messages());
  w.kv("vars", static_cast<std::int64_t>(c.num_vars()));
  w.end_object();
  w.key("cells");
  w.begin_array();
  for (const BatteryCell& cell : s.battery) {
    const DetectResult r = run_cell(c, cell, opt);
    w.begin_object();
    w.kv("name", std::string_view(cell.name));
    w.kv("op", to_string(cell.op));
    w.kv("predicate", std::string_view(cell.pred->describe()));
    if (cell.until_q)
      w.kv("until", std::string_view(cell.until_q->describe()));
    w.kv("expect", verdict_name(cell.expect));
    w.kv("verdict", verdict_name(r.verdict));
    w.kv("algorithm", std::string_view(r.algorithm));
    w.kv("stress_safe", cell.stress_safe);
    w.kv("witness_ok", witness_certifies(c, cell, r));
    w.key("witness_cut");
    if (r.witness_cut)
      cut_array(w, *r.witness_cut);
    else
      w.raw("null");
    w.kv("witness_path_len",
         static_cast<std::uint64_t>(r.witness_path.size()));
    w.key("stats");
    w.begin_object();
    w.kv("evals", r.stats.predicate_evals);
    w.kv("steps", r.stats.cut_steps);
    w.kv("nodes", r.stats.lattice_nodes);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string doc = w.take();
  doc.push_back('\n');
  return doc;
}

}  // namespace hbct::corpus
