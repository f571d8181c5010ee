// Corpus stress tier (ctest label: corpus-stress, gated behind
// -DHBCT_STRESS_TESTS=ON; the binary itself always builds).
//
// Production-scale end-to-end flow: build a scenario owning (>= 128 procs,
// the alltoall case >= 1M events), serialize it to hbct-mtrace, drop the
// owning computation, mmap the file back in zero-copy view mode, and run
// the stress-safe battery cells against their construction-proved
// verdicts. Any deviation is recorded in corpus_verdict_diff.txt in the
// working directory (CI uploads it as an artifact) and fails the run.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/golden.h"
#include "corpus/scenario.h"
#include "poset/mtrace.h"

namespace {

using namespace hbct;
using namespace hbct::corpus;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kFails: return "fails";
    default: return "unknown";
  }
}

std::vector<std::string> g_diff;

void record(const std::string& line) {
  g_diff.push_back(line);
  std::fprintf(stderr, "[corpus_stress] MISMATCH %s\n", line.c_str());
}

/// Returns false on any failure (recorded in g_diff).
bool run_case(const char* scenario, const CorpusOptions& copt,
              std::int64_t min_events) {
  std::vector<BatteryCell> battery;
  std::int64_t total = 0;
  const std::string path =
      std::string("corpus_stress_") + scenario + ".mtrace";
  {
    Scenario s = build_scenario(scenario, copt);
    total = s.computation.total_events();
    battery = std::move(s.battery);
    std::string err;
    if (!write_mtrace_file(path, s.computation, &err)) {
      record(std::string(scenario) + ": write_mtrace_file failed: " + err);
      return false;
    }
  }  // the owning computation dies here; only the file remains
  if (total < min_events) {
    record(std::string(scenario) + ": built only " + std::to_string(total) +
           " events, wanted >= " + std::to_string(min_events));
    return false;
  }
  std::printf("[corpus_stress] %s: procs=%d events=%lld file=%s\n", scenario,
              copt.procs, static_cast<long long>(total), path.c_str());

  MtraceLoadResult view = load_mtrace(path, MtraceMode::kMap);
  if (!view.ok) {
    record(std::string(scenario) + ": load_mtrace failed: " + view.error);
    return false;
  }

  const std::vector<CellOutcome> outcomes =
      run_battery(view.computation, battery, {}, /*stress_only=*/true);
  bool ok = true;
  for (const CellOutcome& o : outcomes) {
    if (o.got == o.expect && o.witness_ok) {
      std::printf("[corpus_stress]   %-28s %-6s via %s\n", o.name.c_str(),
                  verdict_name(o.got), o.algorithm.c_str());
      continue;
    }
    ok = false;
    record(std::string(scenario) + "/" + o.name + ": expect " +
           verdict_name(o.expect) + " got " + verdict_name(o.got) +
           (o.witness_ok ? "" : " (witness invalid)") + " via " +
           o.algorithm);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  // The headline config: >= 1M events over 128 procs, zero-copy view.
  ok &= run_case("mpi_alltoall", {128, 3907, 2002}, 1'000'000);
  // Asymmetric event counts (root-heavy).
  ok &= run_case("mpi_barrier", {128, 200, 2002}, 100'000);
  // Relational/channel-heavy battery.
  ok &= run_case("replication", {128, 300, 2002}, 150'000);

  if (!g_diff.empty()) {
    std::ofstream out("corpus_verdict_diff.txt", std::ios::trunc);
    for (const std::string& line : g_diff) out << line << "\n";
    std::fprintf(stderr,
                 "[corpus_stress] wrote corpus_verdict_diff.txt (%zu "
                 "mismatches)\n",
                 g_diff.size());
  }
  std::printf("[corpus_stress] %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
