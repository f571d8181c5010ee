#include "ctl/program_check.h"

#include <numeric>

namespace hbct::ctl {

ProgramCheckResult check_program(
    const std::function<Computation(std::uint64_t)>& run,
    std::span<const std::uint64_t> seeds, std::string_view query,
    const DispatchOptions& opt) {
  ProgramCheckResult out;
  ParseResult parsed = parse_query(query);
  if (!parsed.ok) {
    out.verdict = Verdict::kUnknown;
    out.error = parsed.error;
    return out;
  }
  for (const std::uint64_t seed : seeds) {
    Computation c = run(seed);
    EvalResult r = evaluate_query(c, parsed.query, opt);
    if (!r.ok) {
      if (out.verdict != Verdict::kFails) out.verdict = Verdict::kUnknown;
      out.error = r.error;
      return out;
    }
    ++out.runs;
    out.stats += r.result.stats;
    if (out.diagnostics.empty() && !r.result.diagnostics.empty())
      out.diagnostics = std::move(r.result.diagnostics);
    if (r.result.verdict == Verdict::kUnknown) {
      out.unknown_seeds.push_back(seed);
      if (out.verdict == Verdict::kHolds) out.verdict = Verdict::kUnknown;
    } else if (r.result.verdict == Verdict::kFails) {
      out.verdict = Verdict::kFails;
      out.failing_seeds.push_back(seed);
    }
  }
  return out;
}

ProgramCheckResult check_program(
    const std::function<Computation(std::uint64_t)>& run, std::size_t n,
    std::string_view query, const DispatchOptions& opt) {
  std::vector<std::uint64_t> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 1);
  return check_program(run, seeds, query, opt);
}

}  // namespace hbct::ctl
