// Golden-verdict rendering for the scenario corpus.
//
// golden_document() runs every battery cell of a scenario through detect()
// and renders the outcome as one canonical JSON document (schema
// "hbct.corpus-golden/1"): fixed key order, integers only, sorted nothing —
// byte-identical across runs, platforms and ingestion paths, so the files
// under corpus/golden/ can be committed and diffed verbatim.
//
// Beyond the verdict the document pins, per cell:
//   - the algorithm string (dispatch routing is part of the contract),
//   - the witness cut / path length, plus `witness_ok` — the witness is
//     re-checked against the computation (consistent, predicate agrees),
//     so a detector returning the right verdict with a bogus witness
//     still diffs,
//   - the deterministic work counters (evals, steps, lattice nodes).
#pragma once

#include <string>
#include <vector>

#include "corpus/scenario.h"

namespace hbct::corpus {

/// One executed battery cell, for programmatic (non-JSON) consumers such
/// as the stress tier's verdict-diff artifact.
struct CellOutcome {
  std::string name;
  Verdict expect;
  Verdict got;
  std::string algorithm;
  bool witness_ok = true;
};

/// Re-derives whether the result's witness actually certifies the verdict
/// on `c` (consistency plus predicate agreement, and for an EG path a
/// maximal cut sequence from the initial to the final cut; vacuously true
/// for verdict/op combinations that carry no witness).
bool witness_certifies(const Computation& c, const BatteryCell& cell,
                       const DetectResult& r);

/// Runs the battery (all cells, or only the stress-safe ones) against the
/// scenario's computation. `opt` is copied per cell; its budget applies to
/// each cell separately.
std::vector<CellOutcome> run_battery(const Computation& c,
                                     const std::vector<BatteryCell>& battery,
                                     const DispatchOptions& opt = {},
                                     bool stress_only = false);

/// Canonical golden document for the scenario (trailing newline included).
std::string golden_document(const Scenario& s,
                            const DispatchOptions& opt = {});

}  // namespace hbct::corpus
