// A miniature debugging environment (the paper's closing future-work item):
// check CTL queries against a recorded trace from the command line.
//
//   $ example_trace_checker <trace-file|-> "<query>" [more queries...]
//   $ example_trace_checker --demo
//
// With --demo, writes a sample trace to stdout instead (pipe it back in to
// try the tool). Queries use the library's CTL fragment, e.g.
//   'EF(cs@P0 == 1 && cs@P1 == 1)'
//   'AG(produced@P0 - consumed@P1 <= 3)'
//   'E[ x@P0 < 4 U channels_empty ]'
//
// Each query prints TRUE, FALSE, or UNKNOWN (<bound>) when a resource bound
// (e.g. the state cap on an explicit lattice) stopped its detection. The
// exit status summarizes every query, the most severe first: 2 if some
// query does not parse or validate, else 1 if some query is FALSE, else 3
// if some query is UNKNOWN, else 0.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "hbct.h"

using namespace hbct;

namespace {

int demo() {
  sim::Simulator s = sim::make_producer_consumer(6, 2);
  Computation c = std::move(s).run({});
  write_trace(std::cout, c);
  return 0;
}

void describe_computation(const Computation& c) {
  std::printf("# %d processes, %lld events, %lld messages; variables:",
              c.num_procs(), static_cast<long long>(c.total_events()),
              static_cast<long long>(c.num_messages()));
  for (VarId v = 0; v < c.num_vars(); ++v)
    std::printf(" %s", c.var_name(v).c_str());
  std::printf("\n# concurrency: %s\n", analyze(c).to_string().c_str());
  auto lat = Lattice::try_build(c, 1u << 18);
  if (lat)
    std::printf("# global-state lattice: %zu consistent cuts\n", lat->size());
  else
    std::printf("# global-state lattice: > %u consistent cuts (not built)\n",
                1u << 18);
}

int check(const Computation& c, const char* query) {
  auto r = ctl::evaluate_query(c, query);
  if (!r.ok) {
    std::printf("%-50s  PARSE/VALIDATION ERROR: %s\n", query,
                r.error.c_str());
    return 2;
  }
  std::string verdict = r.result.verdict == Verdict::kHolds ? "TRUE" : "FALSE";
  if (!r.result.definite())
    verdict = std::string("UNKNOWN (") + to_string(r.result.bound) + ")";
  std::printf("%-50s  %-5s  [%s, %llu evals]\n", query, verdict.c_str(),
              r.algorithm.c_str(),
              static_cast<unsigned long long>(r.result.stats.predicate_evals));
  if (r.result.witness_cut)
    std::printf("  witness cut: %s\n",
                r.result.witness_cut->to_string().c_str());
  if (!r.result.witness_path.empty()) {
    std::printf("  witness path (%zu cuts):", r.result.witness_path.size());
    const std::size_t show = std::min<std::size_t>(8, r.result.witness_path.size());
    for (std::size_t i = 0; i < show; ++i)
      std::printf(" %s", r.result.witness_path[i].to_string().c_str());
    if (show < r.result.witness_path.size()) std::printf(" ...");
    std::printf("\n");
  }
  switch (r.result.verdict) {
    case Verdict::kHolds: return 0;
    case Verdict::kFails: return 1;
    default: return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) return demo();
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <trace-file|-> \"<ctl query>\" [...]\n"
                 "       %s --demo   (emit a sample trace)\n",
                 argv[0], argv[0]);
    return 64;
  }

  TraceParseResult parsed;
  if (std::strcmp(argv[1], "-") == 0) {
    parsed = read_trace(std::cin);
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 66;
    }
    parsed = read_trace(in);
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "trace error: %s\n", parsed.error.c_str());
    return 65;
  }

  describe_computation(parsed.computation);
  // Severity of each exit code from check(): 0 < 3 (UNKNOWN) < 1 < 2.
  constexpr int kSeverity[] = {0, 2, 3, 1};
  int rc = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--diagram") == 0) {
      std::printf("%s", render_diagram(parsed.computation).c_str());
      continue;
    }
    const int code = check(parsed.computation, argv[i]);
    if (kSeverity[code] > kSeverity[rc]) rc = code;
  }
  return rc;
}
