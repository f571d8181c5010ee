// Program-level checking — the footnote of Section 3: "a distributed
// program P satisfies a CTL formula p if and only if L ⊨ p for each L in P".
//
// A program here is anything that produces computations from seeds (in
// practice: a simulator workload under different schedules). check_program
// evaluates one query over every produced computation and aggregates the
// run verdicts by Kleene conjunction: the program fails the query if any
// run refutes it, holds only if every run satisfies it, and is unknown
// otherwise. Refuting seeds are reported so the failing schedule can be
// replayed and debugged.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ctl/compile.h"

namespace hbct::ctl {

struct ProgramCheckResult {
  /// Kleene AND over the runs: kFails if any run refuted the query, else
  /// kUnknown if any run's detection was cut short by the budget (listed in
  /// unknown_seeds, so the caller can retry with a larger budget) or a
  /// query error stopped the check, else kHolds.
  Verdict verdict = Verdict::kHolds;
  /// Runs executed (== seeds.size() unless a query error aborted early).
  std::size_t runs = 0;
  /// Seeds whose computation refuted the query.
  std::vector<std::uint64_t> failing_seeds;
  /// Seeds whose detection exhausted its budget before reaching a verdict.
  std::vector<std::uint64_t> unknown_seeds;
  /// Parse/validation error, if any (empty otherwise).
  std::string error;
  /// Aggregated detection work across all runs.
  DetectStats stats;
  /// Lint/audit findings for the query, surfaced once (from the first run
  /// that produced any) rather than repeated per seed. Populated only when
  /// opt.audit != AuditMode::kOff.
  std::vector<Diagnostic> diagnostics;
};

/// Evaluates `query` on run(seed) for every seed. The query is parsed once;
/// validation happens against the first computation (all runs of one
/// program share the variable/process layout).
ProgramCheckResult check_program(
    const std::function<Computation(std::uint64_t)>& run,
    std::span<const std::uint64_t> seeds, std::string_view query,
    const DispatchOptions& opt = {});

/// Convenience: seeds 1..n.
ProgramCheckResult check_program(
    const std::function<Computation(std::uint64_t)>& run, std::size_t n,
    std::string_view query, const DispatchOptions& opt = {});

}  // namespace hbct::ctl
