// Streaming service throughput: events/sec through the multi-tenant
// StreamingService with watches armed, prefix GC on vs off, and the
// watch-fire latency distribution. The BENCH_streaming.json artifact
// (schema hbct.bench/1) extends each row with a "streaming" object —
// throughput, peak residency, GC reclaim, and fire-latency percentiles —
// which tools/check_report.py validates in the bench-diff CI step.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "serve/service.h"

namespace hbct {
namespace {

using serve::SessionConfig;
using serve::SessionId;
using serve::SessionState;
using serve::StreamingService;

struct StreamPlan {
  int sessions = 8;
  std::int64_t rounds = 12'500;  // 2 events per round per session
  std::int64_t gc_interval = 4096;  // <= 0: GC off
  bool recorder = true;  // flight recorder enabled during the pass
  /// Arm until watches too: one deciding mid-stream, one whose q never
  /// holds, so the feed-time cost of the until evaluator is paid on every
  /// event of the stream.
  bool until_watch = false;
};

struct StreamOutcome {
  std::int64_t events = 0;
  std::int64_t resident_peak = 0;
  std::int64_t gc_reclaimed = 0;
  std::int64_t gc_rounds = 0;
  std::int64_t until_inc_evals = 0;
  std::int64_t until_dec_evals = 0;
  std::uint64_t fire_p50_ns = 0;
  std::uint64_t fire_p99_ns = 0;
};

/// Pre-encodes one session's stream as chunks (the same bytes serve every
/// session: msg ids are per-session). ~1024 events per payload chunk so the
/// pumps run many times and the residency gauge gets real samples.
std::vector<std::string> build_chunks(std::int64_t rounds) {
  std::vector<std::string> chunks;
  {
    wire::Record procs;
    procs.kind = wire::Record::Kind::kProcs;
    procs.nprocs = 2;
    wire::Record var;
    var.kind = wire::Record::Kind::kVar;
    var.name = "x";
    std::string head;
    wire::encode_record(head, procs);
    wire::encode_record(head, var);
    chunks.push_back(std::move(head));
  }
  std::string chunk;
  for (std::int64_t r = 0; r < rounds; ++r) {
    wire::Record send;
    send.kind = wire::Record::Kind::kSend;
    send.proc = 0;
    send.peer = 1;
    send.msg = static_cast<std::uint64_t>(r);
    if (r % 32 == 0) send.writes.push_back({0, r});
    wire::encode_record(chunk, send);
    wire::Record recv;
    recv.kind = wire::Record::Kind::kRecv;
    recv.proc = 1;
    recv.msg = static_cast<std::uint64_t>(r);
    wire::encode_record(chunk, recv);
    if (r % 512 == 511) chunks.push_back(std::exchange(chunk, {}));
  }
  {
    wire::Record end;
    end.kind = wire::Record::Kind::kEnd;
    wire::encode_record(chunk, end);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

/// One full pass: open, stream, drain; outcome read off the pass's registry.
void run_streams(const StreamPlan& plan, const std::vector<std::string>& chunks,
                 StreamOutcome* out) {
  FlightRecorder::global().set_enabled(plan.recorder);
  MetricsRegistry metrics;  // keeps this pass's serve.* out of global()
  serve::ServiceOptions opt;
  opt.metrics = &metrics;
  StreamingService svc(opt);

  SessionConfig cfg;
  cfg.num_procs = 2;
  cfg.gc_interval_events = plan.gc_interval;
  const std::int64_t fire_at = plan.rounds;  // total events = 2*rounds
  const std::int64_t rounds = plan.rounds;
  std::vector<SessionId> sids;
  for (int k = 0; k < plan.sessions; ++k) {
    sids.push_back(svc.open(cfg, [&](OnlineMonitor& m) {
      m.var("x");
      // Fires mid-stream: the fire-latency histogram gets one sample per
      // session, and the undecided scan keeps the evaluators honest.
      m.watch_stable(make_stable(
          [fire_at](const Computation&, const Cut& g) {
            return g.total() >= fire_at;
          },
          "progress"));
      m.watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kLt, 0),
                                         var_cmp(1, "x", Cmp::kLt, 0)}));
      if (plan.until_watch) {
        // One deciding mid-stream, one undecided to end of stream: the
        // second keeps the feed-time table advance on every event.
        m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kGe, 0)}),
                      PredicatePtr(progress_ge(1, rounds / 2)));
        m.watch_until(make_conjunctive({var_cmp(0, "x", Cmp::kGe, 0)}),
                      PredicatePtr(progress_ge(1, rounds * 16)));
      }
    }));
  }
  for (const std::string& chunk : chunks)
    for (SessionId sid : sids) svc.post(sid, chunk);
  svc.drain();
  FlightRecorder::global().set_enabled(true);

  if (out != nullptr) {
    out->events = 0;
    for (SessionId sid : sids) {
      if (svc.state(sid) != SessionState::kFinished) {
        std::fprintf(stderr, "session failed: %s\n", svc.error(sid).c_str());
        std::abort();
      }
      out->events += svc.stats(sid).events;
    }
    const MetricsSnapshot snap = metrics.snapshot();
    out->resident_peak = snap.gauges.at("serve.resident_events.peak");
    out->gc_reclaimed = static_cast<std::int64_t>(
        snap.counters.at("serve.gc.reclaimed_events"));
    out->gc_rounds =
        static_cast<std::int64_t>(snap.counters.at("serve.gc.rounds"));
    out->until_inc_evals =
        static_cast<std::int64_t>(snap.counters.at("serve.until.inc_evals"));
    out->until_dec_evals =
        static_cast<std::int64_t>(snap.counters.at("serve.until.dec_evals"));
    const Histogram::Snapshot fires =
        snap.histograms.at("serve.fire_latency.ns");
    out->fire_p50_ns = fires.percentile(0.5);
    out->fire_p99_ns = fires.percentile(0.99);
  }
}

void BM_streaming_service(benchmark::State& state) {
  StreamPlan plan;
  plan.sessions = static_cast<int>(state.range(0));
  plan.rounds = 5'000;
  plan.gc_interval = state.range(1);
  const auto chunks = build_chunks(plan.rounds);
  for (auto _ : state) run_streams(plan, chunks, nullptr);
  state.SetItemsProcessed(state.iterations() * plan.sessions * plan.rounds * 2);
}
BENCHMARK(BM_streaming_service)
    ->Args({8, 4096})
    ->Args({8, 0})
    ->Args({32, 4096});

// ---- BENCH_streaming.json ------------------------------------------------------

struct StreamingRow {
  benchio::BenchRow base;
  StreamPlan plan;
  StreamOutcome outcome;
};

bool emit_streaming_json(const char* path) {
  struct Config {
    const char* name;
    const char* label;
    StreamPlan plan;
  };
  const Config configs[] = {
      {"streaming/8x25k/nogc", "8 sessions x 25k events, gc off",
       {8, 12'500, 0, true}},
      {"streaming/32x5k/gc", "32 sessions x 5k events, gc every 1024",
       {32, 2'500, 1024, true}},
      {"streaming/8x25k/until", "8 sessions x 25k events, until watches",
       {8, 12'500, 0, true, true}},
  };

  std::vector<StreamingRow> rows;

  // Flight-recorder A/B on the flagship config, passes interleaved so
  // drift and allocator state land on both sides equally (separate timing
  // blocks show spread far above the gating overhead being measured).
  {
    StreamPlan rec{8, 12'500, 4096, true};
    StreamPlan norec = rec;
    norec.recorder = false;
    const auto chunks = build_chunks(rec.rounds);
    StreamingRow rrow, nrow;
    rrow.base.name = "streaming/8x25k/gc";
    rrow.base.label = "8 sessions x 25k events, gc every 4096";
    rrow.plan = rec;
    nrow.base.name = "streaming/8x25k/gc/norec";
    nrow.base.label =
        "8 sessions x 25k events, gc every 4096, flight recorder off";
    nrow.plan = norec;
    run_streams(rec, chunks, nullptr);  // warmup
    run_streams(norec, chunks, nullptr);
    std::vector<double> rec_ns, norec_ns;
    for (int i = 0; i < 9; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      run_streams(rec, chunks, &rrow.outcome);
      auto t1 = std::chrono::steady_clock::now();
      run_streams(norec, chunks, &nrow.outcome);
      auto t2 = std::chrono::steady_clock::now();
      rec_ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      norec_ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
              .count()));
    }
    rrow.base.ns = Summary::of(std::move(rec_ns));
    nrow.base.ns = Summary::of(std::move(norec_ns));
    rows.push_back(std::move(rrow));
    rows.push_back(std::move(nrow));
  }

  for (const Config& c : configs) {
    const auto chunks = build_chunks(c.plan.rounds);
    StreamingRow row;
    row.base.name = c.name;
    row.base.label = c.label;
    row.plan = c.plan;
    row.base.ns = benchio::time_ns(
        7, [&] { run_streams(c.plan, chunks, &row.outcome); });
    rows.push_back(std::move(row));
  }

  std::vector<benchio::BenchRow> out;
  out.reserve(rows.size());
  for (const StreamingRow& r : rows) {
    JsonWriter w;
    w.begin_object();
    w.kv("sessions", static_cast<std::uint64_t>(r.plan.sessions));
    w.kv("gc_interval_events",
         static_cast<std::int64_t>(r.plan.gc_interval));
    w.kv("events", static_cast<std::int64_t>(r.outcome.events));
    // Throughput at the median pass: events over median wall time.
    w.kv("events_per_sec",
         r.base.ns.median > 0
             ? static_cast<double>(r.outcome.events) * 1e9 / r.base.ns.median
             : 0.0);
    w.kv("resident_peak", r.outcome.resident_peak);
    w.kv("gc_reclaimed_events", r.outcome.gc_reclaimed);
    w.kv("gc_rounds", r.outcome.gc_rounds);
    w.kv("fire_p50_ns", r.outcome.fire_p50_ns);
    w.kv("fire_p99_ns", r.outcome.fire_p99_ns);
    w.kv("recorder", r.plan.recorder);
    w.kv("until_watch", r.plan.until_watch);
    w.kv("until_inc_evals", r.outcome.until_inc_evals);
    w.kv("until_dec_evals", r.outcome.until_dec_evals);
    w.end_object();
    benchio::BenchRow b = r.base;
    b.ext.emplace_back("streaming", w.take());
    out.push_back(std::move(b));
  }
  return benchio::write_bench_json(path, "streaming", out);
}

}  // namespace
}  // namespace hbct

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* out = std::getenv("HBCT_BENCH_JSON");
  return hbct::emit_streaming_json(out != nullptr ? out
                                                  : "BENCH_streaming.json")
             ? 0
             : 1;
}
