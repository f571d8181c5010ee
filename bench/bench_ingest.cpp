// Ingestion throughput: loading the same computation from its three wire
// forms — canonical text, btrace, and hbct-mtrace (zero-copy mmap view and
// materializing copy) — at production scale (the headline config is the
// 1M-event / 128-proc corpus alltoall). The BENCH_ingest.json artifact
// (schema hbct.bench/1) extends each row with an "ingest" object — format,
// events, input bytes, events/sec, and speedup over the text parse — which
// tools/check_report.py validates in the bench-diff CI step.
//
// The artifact pass doubles as the acceptance gate for the zero-copy
// loader: at the 1M-event size the mmap load must be >= 10x faster than
// the text parse, or the binary exits nonzero.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "corpus/scenario.h"
#include "obs/json.h"
#include "poset/mtrace.h"
#include "poset/trace_io.h"

namespace hbct {
namespace {

/// One computation serialized every way the loaders accept.
struct IngestFixture {
  std::int64_t events = 0;
  std::string text;
  std::string btrace;
  std::string mtrace;      // in-memory bytes (mtrace_from_bytes)
  std::string mtrace_path; // on-disk copy (load_mtrace, both modes)
};

/// procs * rounds * 2 events: the alltoall ring exchange from the corpus.
IngestFixture build_fixture(std::int32_t procs, std::int32_t rounds,
                            const char* tag) {
  corpus::CorpusOptions o;
  o.procs = procs;
  o.scale = rounds;
  const Computation c = corpus::mpi_alltoall(o).computation;

  IngestFixture f;
  f.events = c.total_events();
  f.text = trace_to_string(c);
  f.btrace = trace_to_binary_string(c);
  f.mtrace = mtrace_to_string(c);
  f.mtrace_path =
      (std::filesystem::temp_directory_path() /
       (std::string("hbct_bench_ingest_") + tag + ".mtrace"))
          .string();
  std::string err;
  if (!write_mtrace_file(f.mtrace_path, c, &err)) {
    std::fprintf(stderr, "write_mtrace_file(%s): %s\n", f.mtrace_path.c_str(),
                 err.c_str());
    std::abort();
  }
  return f;
}

std::int64_t load_text(const IngestFixture& f) {
  const TraceParseResult r = trace_from_string(f.text);
  if (!r.ok) std::abort();
  return r.computation.total_events();
}

std::int64_t load_btrace(const IngestFixture& f) {
  const TraceParseResult r = trace_from_binary_string(f.btrace);
  if (!r.ok) std::abort();
  return r.computation.total_events();
}

std::int64_t load_map(const IngestFixture& f) {
  MtraceLoadResult r = load_mtrace(f.mtrace_path, MtraceMode::kMap);
  if (!r.ok) std::abort();
  return r.computation.total_events();
}

std::int64_t load_copy(const IngestFixture& f) {
  MtraceLoadResult r = load_mtrace(f.mtrace_path, MtraceMode::kCopy);
  if (!r.ok) std::abort();
  return r.computation.total_events();
}

std::int64_t read_vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      std::int64_t kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1024, '\n');
  }
  return 0;
}

/// Approximate residency cost of holding one loaded computation: VmRSS
/// delta around a load, with the heap trimmed back to the OS first so the
/// allocator cannot hide the growth in previously-freed arenas. For the
/// mmap view this counts the (reclaimable, file-backed) mapped pages the
/// validation scan faulted in; for the owning loads it is the private
/// arena. Noisy at small sizes, directionally solid at 1M events.
std::int64_t rss_delta_kb(std::int64_t (*load)(const IngestFixture&),
                          const IngestFixture& f) {
  malloc_trim(0);
  const std::int64_t before = read_vm_rss_kb();
  std::int64_t after = before;
  {
    MtraceLoadResult held_mtrace;  // keep whichever load result alive
    TraceParseResult held_parse;
    if (load == load_map || load == load_copy) {
      held_mtrace = load_mtrace(f.mtrace_path, load == load_map
                                                   ? MtraceMode::kMap
                                                   : MtraceMode::kCopy);
      if (!held_mtrace.ok) std::abort();
    } else {
      held_parse = load == load_text ? trace_from_string(f.text)
                                     : trace_from_binary_string(f.btrace);
      if (!held_parse.ok) std::abort();
    }
    after = read_vm_rss_kb();
  }
  malloc_trim(0);
  return after > before ? after - before : 0;
}

// ---- console benchmarks ----------------------------------------------------

const IngestFixture& console_fixture() {
  static const IngestFixture f = build_fixture(32, 1563, "console");
  return f;
}

void BM_ingest_text(benchmark::State& state) {
  const IngestFixture& f = console_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(load_text(f));
  state.SetItemsProcessed(state.iterations() * f.events);
}
BENCHMARK(BM_ingest_text);

void BM_ingest_btrace(benchmark::State& state) {
  const IngestFixture& f = console_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(load_btrace(f));
  state.SetItemsProcessed(state.iterations() * f.events);
}
BENCHMARK(BM_ingest_btrace);

void BM_ingest_mtrace_map(benchmark::State& state) {
  const IngestFixture& f = console_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(load_map(f));
  state.SetItemsProcessed(state.iterations() * f.events);
}
BENCHMARK(BM_ingest_mtrace_map);

void BM_ingest_mtrace_copy(benchmark::State& state) {
  const IngestFixture& f = console_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(load_copy(f));
  state.SetItemsProcessed(state.iterations() * f.events);
}
BENCHMARK(BM_ingest_mtrace_copy);

// ---- BENCH_ingest.json -----------------------------------------------------

struct IngestRow {
  benchio::BenchRow base;
  const char* format;
  std::int64_t events = 0;
  std::uint64_t input_bytes = 0;
  std::int64_t rss_delta_kb = 0;
  double speedup_vs_text = 1.0;
};

bool emit_ingest_json(const char* path) {
  struct Size {
    const char* tag;
    std::int32_t procs;
    std::int32_t rounds;
    int text_iters;  // the slow loads get fewer self-timed passes
    bool headline;   // enforce the 10x zero-copy gate here
  };
  // 2 * procs * rounds events: 100,032 and the 1,000,192-event headline.
  const Size sizes[] = {
      {"alltoall100k", 32, 1563, 5, false},
      {"alltoall1m", 128, 3907, 3, true},
  };

  std::vector<IngestRow> rows;
  bool gate_ok = true;
  for (const Size& sz : sizes) {
    const IngestFixture f = build_fixture(sz.procs, sz.rounds, sz.tag);
    const auto bytes_of = [&](const char* fmt) -> std::uint64_t {
      if (fmt == std::string("text")) return f.text.size();
      if (fmt == std::string("btrace")) return f.btrace.size();
      return f.mtrace.size();  // both mtrace modes read the same file
    };
    struct Fmt {
      const char* name;
      std::int64_t (*load)(const IngestFixture&);
      int iters;
    };
    const Fmt fmts[] = {
        {"text", load_text, sz.text_iters},
        {"btrace", load_btrace, sz.text_iters + 2},
        {"mtrace-copy", load_copy, sz.text_iters + 2},
        {"mtrace-map", load_map, 15},
    };
    double text_median = 0.0;
    for (const Fmt& fmt : fmts) {
      IngestRow row;
      row.base.name =
          std::string("ingest/") + sz.tag + "/" + fmt.name;
      row.base.label = std::to_string(f.events) + " events, " +
                       std::to_string(sz.procs) + " procs, " + fmt.name;
      row.format = fmt.name;
      row.events = f.events;
      row.input_bytes = bytes_of(fmt.name);
      row.rss_delta_kb = rss_delta_kb(fmt.load, f);
      row.base.ns = benchio::time_ns(fmt.iters, [&] {
        benchmark::DoNotOptimize(fmt.load(f));
      });
      if (fmt.name == std::string("text")) text_median = row.base.ns.median;
      row.speedup_vs_text =
          row.base.ns.median > 0 ? text_median / row.base.ns.median : 0.0;
      if (sz.headline && fmt.name == std::string("mtrace-map") &&
          row.speedup_vs_text < 10.0) {
        std::fprintf(stderr,
                     "FAIL: zero-copy load of %lld events is only %.1fx "
                     "faster than the text parse (need >= 10x)\n",
                     static_cast<long long>(f.events), row.speedup_vs_text);
        gate_ok = false;
      }
      rows.push_back(std::move(row));
    }
    std::error_code ec;
    std::filesystem::remove(f.mtrace_path, ec);
  }

  std::vector<benchio::BenchRow> out;
  out.reserve(rows.size());
  for (const IngestRow& r : rows) {
    JsonWriter w;
    w.begin_object();
    w.kv("format", r.format);
    w.kv("events", r.events);
    w.kv("input_bytes", r.input_bytes);
    w.kv("rss_delta_kb", r.rss_delta_kb);
    w.kv("events_per_sec",
         r.base.ns.median > 0
             ? static_cast<double>(r.events) * 1e9 / r.base.ns.median
             : 0.0);
    w.kv("speedup_vs_text", r.speedup_vs_text);
    w.end_object();
    benchio::BenchRow b = r.base;
    b.ext.emplace_back("ingest", w.take());
    out.push_back(std::move(b));
  }
  return benchio::write_bench_json(path, "ingest", out) && gate_ok;
}

}  // namespace
}  // namespace hbct

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* out = std::getenv("HBCT_BENCH_JSON");
  return hbct::emit_ingest_json(out != nullptr ? out : "BENCH_ingest.json")
             ? 0
             : 1;
}
