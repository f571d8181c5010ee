// Watch throughput under mixed watch classes: watches/sec the streaming
// service sustains per class — conjunctive, disjunctive, invariant, stable,
// channel, relational (both riding watch_stable with predicates that are
// stable by construction on the generated stream), and until — at a fixed
// fire-latency objective, plus a recorder-on vs recorder-off A/B pair
// measuring the always-on flight recorder's gating overhead.
//
// Fire latency is measured from raw nanosecond samples (ServiceOptions::
// fire_sample), not the serve histograms: the log2-bucketed histogram
// rounds every percentile up to a power of two, which both hid real
// regressions and manufactured apparent ones (a 33.5 ms "p99" that was one
// cold first-fire landing in the 2^25 bucket). Every measured row runs one
// discarded warm-up pass first, and A/B pairs interleave their passes so
// clock drift and allocator state land on both sides equally.
//
// The BENCH_watch.json artifact (schema hbct.bench/1) extends each row with
// a "watch" object validated by tools/check_report.py and diffed by
// tools/bench_diff.py in CI.
//
// Stream shape (2 processes): round r sends msg r from P0 (writing x = r)
// and, once r >= lag, delivers msg r - lag to P1 (writing y = r - lag). The
// channel 0->1 therefore holds ~lag messages from warmup onwards and never
// drains — channel_bound_ge(0,1,lag) is stable on this stream — and x, y
// are monotone nondecreasing, so sum_ge is stable too. Each class arms one
// watch that fires mid-stream (latency samples) and several that never fire
// (sustained evaluation cost).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "predicate/relational.h"
#include "serve/service.h"
#include "util/assert.h"

namespace hbct {
namespace {

using serve::SessionConfig;
using serve::SessionId;
using serve::SessionState;
using serve::StreamingService;

constexpr std::int64_t kLag = 64;  // in-flight messages after warmup

struct WatchPlan {
  std::string cls;        // row label; "mixed" = one of each
  int sessions = 4;
  std::int64_t rounds = 4'000;
  bool recorder = true;  // flight recorder enabled during the pass
};

struct WatchOutcome {
  std::int64_t events = 0;
  std::int64_t watches = 0;
  std::int64_t fires = 0;
};

/// Raw fire-latency samples, per class and combined, accumulated across
/// every measured pass of a row (warm-up passes excluded). The mutex is
/// required: sessions pump on pool threads and share one sink.
struct RawLatency {
  std::mutex mu;
  std::array<std::vector<std::uint64_t>, serve::Session::kNumWatchKinds>
      by_class;
  std::vector<std::uint64_t> all;
};

/// Exact (nearest-rank) percentile over raw samples; 0 when empty.
std::uint64_t percentile_ns(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// The sample set a row's percentiles read: single-class rows their
/// WatchKind series (channel/relational ride kStable), mixed rows the
/// combined stream.
const std::vector<std::uint64_t>& samples_for(const RawLatency& raw,
                                              const std::string& cls) {
  const auto k = [&](WatchKind w) -> const std::vector<std::uint64_t>& {
    return raw.by_class[static_cast<std::size_t>(w)];
  };
  if (cls == "conjunctive") return k(WatchKind::kConjunctive);
  if (cls == "disjunctive") return k(WatchKind::kDisjunctive);
  if (cls == "invariant") return k(WatchKind::kInvariant);
  if (cls == "until") return k(WatchKind::kUntil);
  if (cls == "stable" || cls == "channel" || cls == "relational")
    return k(WatchKind::kStable);
  return raw.all;
}

std::vector<std::string> build_chunks(std::int64_t rounds) {
  std::vector<std::string> chunks;
  {
    wire::Record procs;
    procs.kind = wire::Record::Kind::kProcs;
    procs.nprocs = 2;
    wire::Record var;
    var.kind = wire::Record::Kind::kVar;
    var.name = "x";
    wire::Record var2;
    var2.kind = wire::Record::Kind::kVar;
    var2.name = "y";
    std::string head;
    wire::encode_record(head, procs);
    wire::encode_record(head, var);
    wire::encode_record(head, var2);
    // Initial values so relational sums read defined state everywhere.
    wire::Record init;
    init.kind = wire::Record::Kind::kInit;
    init.proc = 0;
    init.var = 0;
    init.value = 0;
    wire::encode_record(head, init);
    init.proc = 1;
    init.var = 1;
    wire::encode_record(head, init);
    chunks.push_back(std::move(head));
  }
  std::string chunk;
  for (std::int64_t r = 0; r < rounds; ++r) {
    wire::Record send;
    send.kind = wire::Record::Kind::kSend;
    send.proc = 0;
    send.peer = 1;
    send.msg = static_cast<std::uint64_t>(r);
    send.writes.push_back({0, r});  // x = r
    wire::encode_record(chunk, send);
    if (r >= kLag) {
      wire::Record recv;
      recv.kind = wire::Record::Kind::kRecv;
      recv.proc = 1;
      recv.msg = static_cast<std::uint64_t>(r - kLag);
      recv.writes.push_back({1, r - kLag});  // y = r - lag
      wire::encode_record(chunk, recv);
    }
    if (r % 512 == 511) chunks.push_back(std::exchange(chunk, {}));
  }
  {
    // The last kLag messages stay in flight on purpose: the channel never
    // drains, keeping channel_bound_ge stable through the end of stream.
    wire::Record end;
    end.kind = wire::Record::Kind::kEnd;
    wire::encode_record(chunk, end);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

/// Registers the watches of one class on a fresh monitor; returns how many
/// were armed. `target` is the mid-stream firing threshold.
std::int64_t arm(OnlineMonitor& m, const std::string& cls,
                 std::int64_t rounds) {
  const std::int64_t target = rounds / 2;
  const auto xv = [&](Cmp op, std::int64_t k) {
    return var_cmp(0, "x", op, k);
  };
  const auto yv = [&](Cmp op, std::int64_t k) {
    return var_cmp(1, "y", op, k);
  };
  if (cls == "conjunctive") {
    m.watch_possibly(
        make_conjunctive({xv(Cmp::kEq, target), yv(Cmp::kEq, target)}));
    m.watch_possibly(make_conjunctive({xv(Cmp::kLt, 0), yv(Cmp::kLt, 0)}));
    m.watch_possibly(make_conjunctive({xv(Cmp::kEq, -1), yv(Cmp::kEq, -2)}));
    return 3;
  }
  if (cls == "disjunctive") {
    m.watch_possibly(
        make_disjunctive({xv(Cmp::kEq, target), yv(Cmp::kEq, target)}));
    m.watch_possibly(make_disjunctive({xv(Cmp::kLt, 0), yv(Cmp::kLt, 0)}));
    m.watch_possibly(make_disjunctive({xv(Cmp::kEq, -1), yv(Cmp::kEq, -2)}));
    return 3;
  }
  if (cls == "invariant") {
    // AG(x < target or y < target): violated mid-stream once both advance.
    m.watch_invariant(
        make_disjunctive({xv(Cmp::kLt, target), yv(Cmp::kLt, target)}));
    m.watch_invariant(make_disjunctive({xv(Cmp::kGe, 0), yv(Cmp::kGe, -1)}));
    return 2;
  }
  if (cls == "stable") {
    const std::int64_t fire_at = rounds;  // ~half the stream's 2r - lag events
    m.watch_stable(make_stable(
        [fire_at](const Computation&, const Cut& g) {
          return g.total() >= fire_at;
        },
        "progress"));
    m.watch_stable(make_stable(
        [](const Computation&, const Cut&) { return false; }, "never"));
    return 2;
  }
  if (cls == "channel") {
    // Stable on this stream: occupancy of 0->1 reaches kLag at warmup and
    // never drops below it (the tail messages are never delivered).
    m.watch_stable(channel_bound_ge(0, 1, static_cast<std::int32_t>(kLag)));
    m.watch_stable(channel_bound_ge(0, 1, 1 << 30));
    return 2;
  }
  if (cls == "relational") {
    // x + y is monotone nondecreasing, so sum_ge is stable.
    m.watch_stable(sum_ge({{0, "x"}, {1, "y"}}, target));
    m.watch_stable(sum_ge({{0, "x"}, {1, "y"}}, std::int64_t{1} << 60));
    return 2;
  }
  if (cls == "until") {
    // E[x >= 0 U P1-progress]: streaming A3 decides once I_q is observed.
    // Staggered thresholds make every watch decide at a different I_q, so
    // each pass yields many independent fire-latency samples — enough that
    // the p99 is a real percentile, not the single worst scheduler stall.
    const std::int64_t span = rounds - kLag;
    for (std::int64_t k = 1; k <= 8; ++k)
      m.watch_until(make_conjunctive({xv(Cmp::kGe, 0)}),
                    PredicatePtr(progress_ge(1, span * k / 10)));
    m.watch_until(make_conjunctive({xv(Cmp::kGe, 0)}),
                  PredicatePtr(progress_ge(1, rounds * 16)));
    return 9;
  }
  HBCT_ASSERT(cls == "mixed");
  std::int64_t n = 0;
  for (const char* c : {"conjunctive", "disjunctive", "invariant", "stable",
                        "channel", "relational", "until"})
    n += arm(m, c, rounds);
  return n;
}

void run_watches(const WatchPlan& plan, const std::vector<std::string>& chunks,
                 WatchOutcome* out, RawLatency* raw = nullptr) {
  FlightRecorder::global().set_enabled(plan.recorder);
  MetricsRegistry metrics;  // keeps this pass's serve.* out of global()
  serve::ServiceOptions opt;
  opt.metrics = &metrics;
  if (raw != nullptr) {
    opt.fire_sample = [raw](WatchKind k, std::uint64_t ns) {
      std::lock_guard<std::mutex> lk(raw->mu);
      const std::size_t i = static_cast<std::size_t>(k);
      if (i < raw->by_class.size()) raw->by_class[i].push_back(ns);
      raw->all.push_back(ns);
    };
  }
  StreamingService svc(opt);

  SessionConfig cfg;
  cfg.num_procs = 2;
  std::int64_t watches = 0;
  std::vector<SessionId> sids;
  for (int k = 0; k < plan.sessions; ++k) {
    sids.push_back(svc.open(cfg, [&](OnlineMonitor& m) {
      m.var("x");
      m.var("y");
      watches += arm(m, plan.cls, plan.rounds);
    }));
  }
  for (const std::string& chunk : chunks)
    for (SessionId sid : sids) svc.post(sid, chunk);
  svc.drain();
  FlightRecorder::global().set_enabled(true);

  if (out != nullptr) {
    out->events = 0;
    out->fires = 0;
    out->watches = watches;
    for (SessionId sid : sids) {
      if (svc.state(sid) != SessionState::kFinished) {
        std::fprintf(stderr, "session failed: %s\n", svc.error(sid).c_str());
        std::abort();
      }
      const auto st = svc.stats(sid);
      out->events += st.events;
      out->fires += st.fires;
    }
  }
}

void BM_watch_class(benchmark::State& state, const char* cls) {
  WatchPlan plan;
  plan.cls = cls;
  const auto chunks = build_chunks(plan.rounds);
  for (auto _ : state) run_watches(plan, chunks, nullptr);
  state.SetItemsProcessed(state.iterations() * plan.sessions *
                          (2 * plan.rounds - kLag));
}
BENCHMARK_CAPTURE(BM_watch_class, conjunctive, "conjunctive");
BENCHMARK_CAPTURE(BM_watch_class, stable, "stable");
BENCHMARK_CAPTURE(BM_watch_class, mixed, "mixed");

// ---- BENCH_watch.json --------------------------------------------------------

struct WatchRow {
  benchio::BenchRow base;
  WatchPlan plan;
  WatchOutcome outcome;
  std::uint64_t fire_p50_ns = 0;
  std::uint64_t fire_p99_ns = 0;
  std::uint64_t fire_samples = 0;
};

/// Fire-latency objective every row is measured against: p99 of the class's
/// fire latency must sit under this for the row to report met_p99 = true.
constexpr std::uint64_t kP99TargetNs = 250'000;  // 250 us

/// Fills the row's percentile fields from its accumulated raw samples.
void fill_latency(WatchRow& row, const RawLatency& raw) {
  const std::vector<std::uint64_t>& s = samples_for(raw, row.plan.cls);
  row.fire_samples = static_cast<std::uint64_t>(s.size());
  row.fire_p50_ns = percentile_ns(s, 0.5);
  row.fire_p99_ns = percentile_ns(s, 0.99);
}

/// One measured row: a pinned warm-up pass (cold-path fires and lazy
/// statics excluded from the samples), then `iters` passes accumulating
/// wall times and raw fire latencies.
WatchRow measure_row(const char* name, const char* label,
                     const WatchPlan& plan,
                     const std::vector<std::string>& chunks, int iters) {
  WatchRow row;
  row.base.name = name;
  row.base.label = label;
  row.plan = plan;
  run_watches(plan, chunks, nullptr);  // warm-up, discarded
  RawLatency raw;
  std::vector<double> ns;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run_watches(plan, chunks, &row.outcome, &raw);
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  row.base.ns = Summary::of(std::move(ns));
  fill_latency(row, raw);
  return row;
}

/// An interleaved A/B pair: both sides warm up, then passes alternate
/// A,B,A,B,... so clock drift, allocator state, and thermal throttle land
/// on both sides equally — separate blocks showed run-to-run spread an
/// order of magnitude above the deltas being measured.
std::pair<WatchRow, WatchRow> measure_ab(
    const char* name_a, const char* label_a, const WatchPlan& plan_a,
    const char* name_b, const char* label_b, const WatchPlan& plan_b,
    const std::vector<std::string>& chunks, int iters) {
  WatchRow a, b;
  a.base.name = name_a;
  a.base.label = label_a;
  a.plan = plan_a;
  b.base.name = name_b;
  b.base.label = label_b;
  b.plan = plan_b;
  run_watches(plan_a, chunks, nullptr);  // warm-up, both sides, discarded
  run_watches(plan_b, chunks, nullptr);
  RawLatency raw_a, raw_b;
  std::vector<double> ns_a, ns_b;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run_watches(plan_a, chunks, &a.outcome, &raw_a);
    const auto t1 = std::chrono::steady_clock::now();
    run_watches(plan_b, chunks, &b.outcome, &raw_b);
    const auto t2 = std::chrono::steady_clock::now();
    ns_a.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    ns_b.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  a.base.ns = Summary::of(std::move(ns_a));
  b.base.ns = Summary::of(std::move(ns_b));
  fill_latency(a, raw_a);
  fill_latency(b, raw_b);
  return {std::move(a), std::move(b)};
}

bool emit_watch_json(const char* path) {
  struct Config {
    const char* name;
    const char* label;
    WatchPlan plan;
  };
  const Config configs[] = {
      {"watch/conjunctive", "4 sessions, conjunctive watches",
       {"conjunctive", 4, 4'000, true}},
      {"watch/disjunctive", "4 sessions, disjunctive watches",
       {"disjunctive", 4, 4'000, true}},
      {"watch/invariant", "4 sessions, invariant watches",
       {"invariant", 4, 4'000, true}},
      {"watch/stable", "4 sessions, stable watches",
       {"stable", 4, 4'000, true}},
      {"watch/channel", "4 sessions, channel watches (stable ride)",
       {"channel", 4, 4'000, true}},
      {"watch/relational", "4 sessions, relational watches (stable ride)",
       {"relational", 4, 4'000, true}},
  };

  std::vector<WatchRow> rows;
  for (const Config& c : configs) {
    const auto chunks = build_chunks(c.plan.rounds);
    // Enough timed passes that per-class p99 tolerates a couple of
    // scheduler stalls (4 deciding fires/pass -> ~200 samples) instead of
    // degenerating to the max sample.
    rows.push_back(measure_row(c.name, c.label, c.plan, chunks, 51));
  }

  // Until: one session isolates decision latency at I_q, and a lone pump
  // task cannot be preempted by a sibling session's pump mid-apply (which
  // on a small box shows up as multi-ms scheduler stalls in the
  // fire-latency tail that have nothing to do with the decision walk).
  {
    const WatchPlan until{"until", 1, 4'000, true};
    rows.push_back(measure_row("watch/until", "1 session, until watches",
                               until, build_chunks(until.rounds), 51));
  }

  // Recorder A/B: the always-on flight recorder's gating overhead on the
  // mixed workload.
  {
    WatchPlan rec{"mixed", 4, 4'000, true};
    WatchPlan norec = rec;
    norec.recorder = false;
    const auto chunks = build_chunks(rec.rounds);
    auto [a, b] = measure_ab(
        "watch/mixed/rec", "4 sessions, one of each class, recorder on", rec,
        "watch/mixed/norec", "4 sessions, one of each class, recorder off",
        norec, chunks, 15);
    rows.push_back(std::move(a));
    rows.push_back(std::move(b));
  }

  std::vector<benchio::BenchRow> out;
  out.reserve(rows.size());
  for (const WatchRow& r : rows) {
    JsonWriter w;
    w.begin_object();
    w.kv("class", r.plan.cls);
    w.kv("sessions", static_cast<std::uint64_t>(r.plan.sessions));
    w.kv("watches", static_cast<std::int64_t>(r.outcome.watches));
    w.kv("events", static_cast<std::int64_t>(r.outcome.events));
    // Nominal watch evaluations (every armed watch sees every event of its
    // session) over median wall time: the headline watches/sec figure.
    const double evals = static_cast<double>(r.outcome.watches) /
                         r.plan.sessions *
                         static_cast<double>(r.outcome.events);
    w.kv("watch_evals_per_sec",
         r.base.ns.median > 0 ? evals * 1e9 / r.base.ns.median : 0.0);
    w.kv("fires", static_cast<std::int64_t>(r.outcome.fires));
    w.kv("fire_p50_ns", r.fire_p50_ns);
    w.kv("fire_p99_ns", r.fire_p99_ns);
    w.kv("fire_samples", r.fire_samples);
    w.kv("p99_target_ns", kP99TargetNs);
    w.kv("met_p99", r.fire_p99_ns <= kP99TargetNs);
    w.kv("recorder", r.plan.recorder);
    w.end_object();
    benchio::BenchRow b = r.base;
    b.ext.emplace_back("watch", w.take());
    out.push_back(std::move(b));
  }
  return benchio::write_bench_json(path, "watch", out);
}

}  // namespace
}  // namespace hbct

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  const char* out = std::getenv("HBCT_BENCH_JSON");
  return hbct::emit_watch_json(out != nullptr ? out : "BENCH_watch.json") ? 0
                                                                          : 1;
}
