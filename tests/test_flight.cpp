// Production-telemetry tier: the flight recorder's lock-free ring (wrap,
// concurrent writers, dump-on-anomaly with the trigger marked), the
// Prometheus exposition round trip, SLO breach edge semantics, the metrics
// snapshot-vs-registration race, and the JSON-escape hardening that keeps a
// hostile session id from ever rendering a dump unloadable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "detect/dispatch.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "poset/generate.h"
#include "poset/trace_io.h"
#include "predicate/conjunctive.h"
#include "predicate/local.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hbct {
namespace {

// ---- Flight recorder ring --------------------------------------------------

TEST(FlightRing, WrapAroundKeepsNewestRecords) {
  FlightRecorder::Config cfg;
  cfg.ring_capacity = 16;
  FlightRecorder rec(cfg);
  const std::uint16_t name = rec.intern("wrap.test", "i");
  // Single thread => single shard: 1000 writes through a 16-slot ring.
  for (int i = 0; i < 1000; ++i) rec.instant(name, i);

  const auto records = rec.snapshot();
  ASSERT_LE(records.size(), 16u);
  ASSERT_GE(records.size(), 1u);
  // The survivors are exactly the newest writes, oldest first.
  std::int64_t prev = -1;
  for (const auto& r : records) {
    EXPECT_EQ(rec.name_of(r.name), "wrap.test");
    EXPECT_GT(r.a0, prev);
    prev = r.a0;
  }
  EXPECT_EQ(records.back().a0, 999);
  EXPECT_EQ(rec.stats().recorded, 1000u);
}

TEST(FlightRing, ConcurrentWritersNeverTearNames) {
  FlightRecorder::Config cfg;
  cfg.ring_capacity = 64;
  FlightRecorder rec(cfg);
  const std::uint16_t name = rec.intern("conc.test", "thread", "i");

  constexpr int kThreads = 8;
  constexpr int kWrites = 5'000;
  ThreadPool pool(kThreads);
  std::atomic<int> dumps{0};
  pool.parallel_for(kThreads, [&](std::size_t t) {
    for (int i = 0; i < kWrites; ++i) {
      rec.instant(name, static_cast<std::int64_t>(t), i);
      // Snapshot concurrently with the writers: readers must only ever see
      // whole records (the per-slot seqlock skips torn ones).
      if (i % 1024 == 0) {
        for (const auto& r : rec.snapshot()) {
          ASSERT_EQ(rec.name_of(r.name), "conc.test");
          ASSERT_GE(r.a0, 0);
          ASSERT_LT(r.a0, kThreads);
        }
        dumps.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(rec.stats().recorded,
            static_cast<std::uint64_t>(kThreads) * kWrites);
  EXPECT_GT(dumps.load(), 0);
}

TEST(FlightRing, DisabledRecorderWritesNothing) {
  FlightRecorder rec;
  const std::uint16_t name = rec.intern("off.test");
  rec.set_enabled(false);
  rec.instant(name);
  {
    FlightScope scope(rec, name);
  }
  EXPECT_EQ(rec.stats().recorded, 0u);
  rec.set_enabled(true);
  rec.instant(name);
  EXPECT_EQ(rec.stats().recorded, 1u);
}

// ---- Dump on anomaly -------------------------------------------------------

TEST(FlightDump, AnomalyInvokesSinkWithLoadableChromeTrace) {
  FlightRecorder rec;
  const std::uint16_t span = rec.intern("work.span", "step");
  const std::uint16_t anom = rec.intern("test.anomaly", "code");
  const std::uint64_t t0 = rec.now_ns();
  rec.span(span, t0, t0 + 1'000, 1);
  rec.span(span, t0 + 2'000, t0 + 3'000, 2);

  std::string dumped, dumped_name;
  rec.set_dump_sink([&](const std::string& json, std::string_view name) {
    dumped = json;
    dumped_name = std::string(name);
  });
  rec.anomaly(anom, 42);

  ASSERT_FALSE(dumped.empty());
  EXPECT_EQ(dumped_name, "test.anomaly");
  std::string err;
  EXPECT_TRUE(json_validate(dumped, &err)) << err;
  // The triggering anomaly is marked so it is findable in the trace viewer.
  EXPECT_NE(dumped.find("\"trigger\""), std::string::npos);
  EXPECT_NE(dumped.find("test.anomaly"), std::string::npos);
  EXPECT_NE(dumped.find("work.span"), std::string::npos);
  EXPECT_EQ(rec.stats().dumps, 1u);
}

TEST(FlightDump, MinDumpGapRateLimitsAutomaticDumps) {
  FlightRecorder::Config cfg;
  cfg.min_dump_gap_ns = ~std::uint64_t{0} / 2;  // effectively: once
  FlightRecorder rec(cfg);
  const std::uint16_t anom = rec.intern("storm.anomaly");
  int sinks = 0;
  rec.set_dump_sink([&](const std::string&, std::string_view) { ++sinks; });
  for (int i = 0; i < 10; ++i) rec.anomaly(anom, i);
  EXPECT_EQ(sinks, 1);
  EXPECT_EQ(rec.stats().anomalies, 10u);
  // Explicit dumps are never rate-limited.
  const std::string dump = rec.dump_chrome();
  EXPECT_TRUE(json_validate(dump));
}

TEST(FlightDump, RuntimeGapSetterControlsAutomaticDumps) {
  // The default gap is nonzero: a default-constructed recorder (the global
  // instance is one) must not render a dump per anomaly during a storm.
  EXPECT_GT(FlightRecorder::Config{}.min_dump_gap_ns, 0u);

  FlightRecorder rec;  // default Config
  EXPECT_EQ(rec.min_dump_gap(), FlightRecorder::Config{}.min_dump_gap_ns);
  const std::uint16_t anom = rec.intern("gap.anomaly");
  int sinks = 0;
  rec.set_dump_sink([&](const std::string&, std::string_view) { ++sinks; });
  // A burst under the default gap: only the first anomaly dumps.
  for (int i = 0; i < 5; ++i) rec.anomaly(anom, i);
  EXPECT_EQ(sinks, 1);
  // Operators can retune the armed global recorder at runtime.
  rec.set_min_dump_gap(0);
  EXPECT_EQ(rec.min_dump_gap(), 0u);
  for (int i = 0; i < 3; ++i) rec.anomaly(anom, i);
  EXPECT_EQ(sinks, 4);
  rec.set_min_dump_gap(~std::uint64_t{0} / 2);
  for (int i = 0; i < 3; ++i) rec.anomaly(anom, i);
  EXPECT_EQ(sinks, 4);
  EXPECT_EQ(rec.stats().anomalies, 11u);
}

/// Restores the global recorder's sink (and enabled flag, and dump gap) on
/// scope exit so tests sharing the process-wide recorder cannot leak state.
/// The gap is zeroed while armed: the default 1s storm floor would swallow
/// the dumps of every injection test after the first in a fast test run.
class GlobalSinkGuard {
 public:
  explicit GlobalSinkGuard(FlightRecorder::DumpSink sink) {
    FlightRecorder::global().set_dump_sink(std::move(sink));
    FlightRecorder::global().set_min_dump_gap(0);
  }
  ~GlobalSinkGuard() {
    FlightRecorder::global().set_dump_sink(nullptr);
    FlightRecorder::global().set_enabled(true);
    FlightRecorder::global().set_min_dump_gap(
        FlightRecorder::Config{}.min_dump_gap_ns);
  }
};

/// When CI exports HBCT_FLIGHT_DUMP, the anomaly-injection tests write the
/// dump there so the workflow can upload it as an artifact.
void maybe_write_artifact(const std::string& json) {
  const char* path = std::getenv("HBCT_FLIGHT_DUMP");
  if (path == nullptr || json.empty()) return;
  std::ofstream out(path, std::ios::binary);
  out << json << "\n";
}

TEST(FlightDump, BudgetTripRaisesGlobalAnomaly) {
  std::string dumped, dumped_name;
  GlobalSinkGuard guard([&](const std::string& json, std::string_view name) {
    dumped = json;
    dumped_name = std::string(name);
  });

  GenOptions gopt;
  gopt.num_procs = 3;
  gopt.events_per_proc = 6;
  gopt.num_vars = 1;
  gopt.seed = 7;
  const Computation c = generate_random(gopt);
  DispatchOptions opt;
  opt.budget.max_work = 1;  // trips kStepBudget almost immediately
  const auto r = detect(c, Op::kEF,
                        make_conjunctive({var_cmp(0, "v0", Cmp::kEq, -77),
                                          var_cmp(1, "v0", Cmp::kEq, -77)}),
                        nullptr, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);

  ASSERT_FALSE(dumped.empty()) << "budget trip did not reach the recorder";
  EXPECT_EQ(dumped_name, "budget.trip");
  std::string err;
  EXPECT_TRUE(json_validate(dumped, &err)) << err;
  EXPECT_NE(dumped.find("\"trigger\""), std::string::npos);
  EXPECT_NE(dumped.find("budget.trip"), std::string::npos);
  maybe_write_artifact(dumped);
}

TEST(FlightDump, MalformedWireRecordRaisesSessionAnomaly) {
  std::string dumped, dumped_name;
  GlobalSinkGuard guard([&](const std::string& json, std::string_view name) {
    dumped = json;
    dumped_name = std::string(name);
  });

  serve::ServiceOptions sopt;
  serve::StreamingService svc(sopt);
  serve::SessionConfig cfg;
  cfg.num_procs = 2;
  const auto sid = svc.open(cfg, [](OnlineMonitor&) {});
  // A length-prefixed record whose payload is garbage: the wire decoder
  // rejects it and the session fails — exactly the anomaly class the
  // recorder exists to capture.
  svc.post(sid, std::string("\x06\x63\x63\x63\x63\x63\x63", 7));
  svc.drain();
  EXPECT_EQ(svc.state(sid), serve::SessionState::kFailed);
  EXPECT_FALSE(svc.error(sid).empty());

  ASSERT_FALSE(dumped.empty()) << "session failure did not reach the recorder";
  EXPECT_EQ(dumped_name, "serve.session_fail");
  std::string err;
  EXPECT_TRUE(json_validate(dumped, &err)) << err;
  EXPECT_NE(dumped.find("\"trigger\""), std::string::npos);
}

// ---- Recorder on/off must not change verdicts ------------------------------

TEST(FlightRecorderAB, VerdictsBitIdenticalAcross40Seeds) {
  GlobalSinkGuard guard(nullptr);  // restores enabled=true on exit
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    GenOptions gopt;
    gopt.num_procs = 3;
    gopt.events_per_proc = 5;
    gopt.num_vars = 2;
    gopt.value_lo = 0;
    gopt.value_hi = 4;
    gopt.seed = seed;
    const Computation c = generate_random(gopt);
    Rng rng(seed * 7919 + 1);
    std::vector<LocalPredicatePtr> ls;
    for (int i = 0; i < 2; ++i)
      ls.push_back(var_cmp(static_cast<ProcId>(rng.next_below(3)),
                           rng.next_bool() ? "v0" : "v1",
                           static_cast<Cmp>(rng.next_below(6)),
                           rng.next_in(0, 4)));
    const auto p = make_conjunctive(std::move(ls));

    FlightRecorder::global().set_enabled(true);
    const auto on_ef = detect(c, Op::kEF, p);
    const auto on_ag = detect(c, Op::kAG, p);
    FlightRecorder::global().set_enabled(false);
    const auto off_ef = detect(c, Op::kEF, p);
    const auto off_ag = detect(c, Op::kAG, p);
    FlightRecorder::global().set_enabled(true);

    EXPECT_EQ(on_ef.verdict, off_ef.verdict) << "seed " << seed;
    EXPECT_EQ(on_ag.verdict, off_ag.verdict) << "seed " << seed;
    EXPECT_EQ(on_ef.stats.predicate_evals, off_ef.stats.predicate_evals)
        << "seed " << seed;
    EXPECT_EQ(on_ag.stats.predicate_evals, off_ag.stats.predicate_evals)
        << "seed " << seed;
  }
}

// ---- Metrics registry: snapshot vs registration race -----------------------

TEST(MetricsRace, SnapshotConcurrentWithRegistration) {
  MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};

  // The reader takes a minimum number of snapshots regardless of writer
  // progress, so the loop races with registration whenever the scheduler
  // lets it (and TSan sees the pair on every run).
  std::thread reader([&] {
    for (int i = 0; i < 100 || !stop.load(std::memory_order_acquire); ++i) {
      const MetricsSnapshot snap = reg.snapshot();
      for (const auto& [name, v] : snap.counters) {
        ASSERT_FALSE(name.empty());
        (void)v;
      }
    }
  });

  ThreadPool pool(kWriters);
  pool.parallel_for(kWriters, [&](std::size_t t) {
    for (int i = 0; i < kPerWriter; ++i) {
      // Fresh names force map mutation under the registry mutex while the
      // reader snapshots; the increment after resolution is lock-free.
      Counter& c = reg.counter("race.c" + std::to_string(t) + "." +
                               std::to_string(i));
      c.add(t + 1);
      reg.gauge("race.g" + std::to_string(t)).set(i);
      reg.histogram("race.h" + std::to_string(t)).record(i);
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  const MetricsSnapshot snap = reg.snapshot();
  std::uint64_t total = 0;
  for (const auto& [name, v] : snap.counters)
    if (name.rfind("race.c", 0) == 0) total += v;
  std::uint64_t expect = 0;
  for (int t = 0; t < kWriters; ++t)
    expect += static_cast<std::uint64_t>(t + 1) * kPerWriter;
  EXPECT_EQ(total, expect);
}

// ---- Prometheus exposition -------------------------------------------------

TEST(Expose, RenderParseRoundTripIsExact) {
  MetricsRegistry reg;
  reg.counter("detect.cut_steps").add(12345);
  reg.counter(labeled("serve.fires", "class", "conjunctive")).add(7);
  reg.gauge("serve.resident_events").set(-3);
  Histogram& h = reg.histogram("serve.fire_latency.ns");
  for (std::uint64_t v : {0ull, 1ull, 3ull, 100ull, 5'000'000'000ull})
    h.record(v);
  Histogram& hl =
      reg.histogram(labeled("serve.fire_latency.ns", "class", "stable"));
  hl.record(4096);

  const MetricsSnapshot snap = reg.snapshot();
  ExpositionOptions eo;
  eo.timestamp_ns = 123'456'789;
  const std::string text = render_prometheus(snap, eo);

  MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(parse_prometheus(text, &back, &err)) << err;
  // The parse adds the synthesized timestamp gauge; remove it and the rest
  // must equal the original snapshot exactly — bucket counts included.
  ASSERT_EQ(back.gauges.count("exposition.timestamp_ns"), 1u);
  EXPECT_EQ(back.gauges.at("exposition.timestamp_ns"), 123'456'789);
  back.gauges.erase("exposition.timestamp_ns");
  EXPECT_EQ(back, snap);
}

TEST(Expose, EveryFamilyHasTypeLineAndCountersEndInTotal) {
  MetricsRegistry reg;
  reg.counter("a.b").add(1);
  reg.gauge("c.d").set(2);
  reg.histogram("e.f").record(3);
  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE hbct_a_b_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hbct_c_d gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hbct_e_f histogram"), std::string::npos);
  EXPECT_NE(text.find("hbct_a_b_total 1"), std::string::npos);
  // Histogram series: cumulative buckets, +Inf bucket, _sum and _count.
  EXPECT_NE(text.find("hbct_e_f_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("hbct_e_f_sum 3"), std::string::npos);
  EXPECT_NE(text.find("hbct_e_f_count 1"), std::string::npos);
}

TEST(Expose, LabelKeysEndingInLeAreNotMistakenForBucketBoundaries) {
  // "sample" and "percentile" both *end* in "le": a substring search for
  // `le="` would read/strip the wrong label and reject the bucket line
  // with a spurious "not a log2 boundary" error.
  MetricsRegistry reg;
  reg.counter(labeled("detect.evals", "percentile", "99")).add(3);
  Histogram& h = reg.histogram(labeled("e.f", "sample", "4096"));
  h.record(7);
  h.record(100000);

  const MetricsSnapshot snap = reg.snapshot();
  const std::string text = render_prometheus(snap);
  MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(parse_prometheus(text, &back, &err)) << err;
  EXPECT_EQ(back, snap);
  ASSERT_EQ(back.histograms.count(labeled("e.f", "sample", "4096")), 1u);
  EXPECT_EQ(back.counters.at(labeled("detect.evals", "percentile", "99")), 3u);
}

TEST(Expose, HostileLabelValuesRoundTrip) {
  // '}' is legal inside a quoted label value (a find('}') parse truncates
  // the block mid-value), and a value may even contain `le="` verbatim.
  MetricsRegistry reg;
  reg.counter(labeled("serve.fires", "session", "weird}id{x")).add(11);
  reg.gauge(labeled("serve.depth", "note", "le=\"7\"")).set(-2);
  Histogram& h = reg.histogram(labeled("e.f", "tag", "a}b,le=\"1\""));
  h.record(42);

  const MetricsSnapshot snap = reg.snapshot();
  const std::string text = render_prometheus(snap);
  MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(parse_prometheus(text, &back, &err)) << err;
  EXPECT_EQ(back, snap);
  EXPECT_EQ(back.counters.at(labeled("serve.fires", "session", "weird}id{x")),
            11u);
  EXPECT_EQ(back.gauges.at(labeled("serve.depth", "note", "le=\"7\"")), -2);
}

TEST(Expose, NonMonotoneBucketsRejected) {
  const std::string text =
      "# HELP hbct_x source=x\n"
      "# TYPE hbct_x histogram\n"
      "hbct_x_bucket{le=\"1\"} 5\n"
      "hbct_x_bucket{le=\"2\"} 3\n"
      "hbct_x_bucket{le=\"+Inf\"} 5\n"
      "hbct_x_sum 9\n"
      "hbct_x_count 5\n";
  MetricsSnapshot out;
  std::string err;
  EXPECT_FALSE(parse_prometheus(text, &out, &err));
  EXPECT_NE(err.find("monotone"), std::string::npos) << err;
}

TEST(Expose, ExporterPeriodicallyEvaluatesSlos) {
  MetricsRegistry reg;
  Histogram& h =
      reg.histogram(labeled("serve.fire_latency.ns", "class", "conjunctive"));
  h.record(1 << 20);  // ~1ms fire

  SloTracker slos(&reg);
  slos.add(SloTracker::fire_latency("conjunctive", 0.99, 1'000));  // 1us

  std::atomic<int> exports{0};
  std::string last;
  std::mutex mu;
  Exporter::Options eopt;
  eopt.period = std::chrono::milliseconds(5);
  eopt.slos = &slos;
  {
    Exporter exp(
        reg,
        [&](const std::string& text) {
          std::lock_guard<std::mutex> lock(mu);
          last = text;
          exports.fetch_add(1);
        },
        eopt);
    while (exports.load() < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(slos.breaches(), 1u);  // edge-triggered: one breach, many scrapes
  std::lock_guard<std::mutex> lock(mu);
  MetricsSnapshot snap;
  std::string err;
  ASSERT_TRUE(parse_prometheus(last, &snap, &err)) << err;
  EXPECT_EQ(snap.counters.at(labeled("slo.breaches", "slo",
                                     "fire-p99/conjunctive")),
            1u);
}

TEST(Expose, WriteFileAtomicAndStatTable) {
  MetricsRegistry reg;
  reg.counter("serve.sessions.opened").add(3);
  reg.counter("serve.sessions.closed").add(1);
  reg.counter("serve.records").add(1000);
  reg.gauge("serve.resident_events").set(42);
  reg.counter(labeled("serve.fires", "class", "conjunctive")).add(5);
  reg.histogram(labeled("serve.fire_latency.ns", "class", "conjunctive"))
      .record(2048);

  const std::string table = render_stat_table(reg.snapshot());
  EXPECT_NE(table.find("sessions"), std::string::npos);
  EXPECT_NE(table.find("conjunctive"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/hbct_expose_atomic.prom";
  const std::string text = render_prometheus(reg.snapshot());
  ASSERT_TRUE(write_file_atomic(path, text));
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, text);
}

// ---- SLO edge semantics ----------------------------------------------------

/// Hand-builds a snapshot whose fire-latency histogram has `count` samples
/// all in the bucket containing `value_ns`.
MetricsSnapshot slo_snapshot(std::uint64_t value_ns, std::uint64_t count) {
  MetricsSnapshot snap;
  Histogram::Snapshot h;
  h.counts[Histogram::bucket_of(value_ns)] = count;
  h.count = count;
  h.sum = value_ns * count;
  snap.histograms[labeled("serve.fire_latency.ns", "class", "stable")] = h;
  return snap;
}

TEST(Slo, BreachCountsEdgesNotScrapes) {
  MetricsRegistry reg;
  SloTracker slos(&reg);
  slos.add(SloTracker::fire_latency("stable", 0.99, 10'000));  // 10us

  const MetricsSnapshot ok = slo_snapshot(1'000, 8);
  const MetricsSnapshot bad = slo_snapshot(1'000'000, 8);

  EXPECT_FALSE(slos.evaluate(ok)[0].breached);
  EXPECT_EQ(slos.breaches(), 0u);
  EXPECT_TRUE(slos.evaluate(bad)[0].breached);
  EXPECT_TRUE(slos.evaluate(bad)[0].breached);  // sustained: same edge
  EXPECT_EQ(slos.breaches(), 1u);
  EXPECT_FALSE(slos.evaluate(ok)[0].breached);  // recovery rearms
  EXPECT_TRUE(slos.evaluate(bad)[0].breached);
  EXPECT_EQ(slos.breaches(), 2u);
  EXPECT_EQ(reg.snapshot().counters.at(
                labeled("slo.breaches", "slo", "fire-p99/stable")),
            2u);
}

TEST(Slo, MinCountGatesEvaluation) {
  MetricsRegistry reg;
  SloTracker slos(&reg);
  SloSpec spec = SloTracker::fire_latency("stable", 0.99, 10'000);
  spec.min_count = 5;
  slos.add(spec);

  const auto few = slos.evaluate(slo_snapshot(1'000'000, 4));
  EXPECT_FALSE(few[0].evaluated);
  EXPECT_FALSE(few[0].breached);
  const auto enough = slos.evaluate(slo_snapshot(1'000'000, 5));
  EXPECT_TRUE(enough[0].evaluated);
  EXPECT_TRUE(enough[0].breached);
  EXPECT_EQ(slos.breaches(), 1u);
}

TEST(Slo, BreachRaisesFlightAnomaly) {
  std::string dumped_name;
  GlobalSinkGuard guard([&](const std::string&, std::string_view name) {
    dumped_name = std::string(name);
  });
  MetricsRegistry reg;
  SloTracker slos(&reg);
  slos.add(SloTracker::fire_latency("stable", 0.99, 10'000));
  slos.evaluate(slo_snapshot(1'000'000, 8));
  EXPECT_EQ(dumped_name, "slo.breach");
}

// ---- Per-class serve metrics -----------------------------------------------

TEST(ServeClassMetrics, FiresLandInPerClassSeries) {
  std::string stream;
  {
    wire::Record procs;
    procs.kind = wire::Record::Kind::kProcs;
    procs.nprocs = 1;
    wire::encode_record(stream, procs);
    wire::Record var;
    var.kind = wire::Record::Kind::kVar;
    var.name = "x";
    wire::encode_record(stream, var);
    for (int i = 0; i < 8; ++i) {
      wire::Record ev;
      ev.kind = wire::Record::Kind::kInternal;
      ev.proc = 0;
      ev.writes.push_back({0, i});
      wire::encode_record(stream, ev);
    }
    wire::Record end;
    end.kind = wire::Record::Kind::kEnd;
    wire::encode_record(stream, end);
  }

  MetricsRegistry metrics;
  serve::ServiceOptions opt;
  opt.metrics = &metrics;
  serve::StreamingService svc(opt);
  serve::SessionConfig cfg;
  cfg.num_procs = 1;
  const auto sid = svc.open(cfg, [](OnlineMonitor& m) {
    m.var("x");
    m.watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kEq, 5)}));
  });
  svc.post(sid, stream);
  svc.drain();
  ASSERT_EQ(svc.state(sid), serve::SessionState::kFinished);
  ASSERT_GE(svc.stats(sid).fires, 1);

  const MetricsSnapshot snap = metrics.snapshot();
  const std::string fires = labeled("serve.fires", "class", "conjunctive");
  ASSERT_EQ(snap.counters.count(fires), 1u);
  EXPECT_GE(snap.counters.at(fires), 1u);
  const std::string lat =
      labeled("serve.fire_latency.ns", "class", "conjunctive");
  ASSERT_EQ(snap.histograms.count(lat), 1u);
  EXPECT_GE(snap.histograms.at(lat).count, 1u);
}

// ---- JSON-escape hardening -------------------------------------------------

TEST(JsonEscape, ControlCharsAndDelEscaped) {
  EXPECT_EQ(json_escape("a\001b"), "a\\u0001b");
  EXPECT_EQ(json_escape("a\177b"), "a\\u007fb");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("nl\nhere"), "nl\\nhere");
  EXPECT_EQ(json_escape("q\"b\\s"), "q\\\"b\\\\s");
}

TEST(JsonEscape, WellFormedUtf8PassesThrough) {
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");          // é
  EXPECT_EQ(json_escape("\xe2\x82\xac"), "\xe2\x82\xac");        // €
  EXPECT_EQ(json_escape("\xf0\x9f\x94\xa5"), "\xf0\x9f\x94\xa5");  // emoji
}

TEST(JsonEscape, IllFormedBytesBecomeEscapedReplacement) {
  // Lone continuation, truncated lead, overlong NUL, CESU surrogate, 0xFF.
  EXPECT_EQ(json_escape("\x80"), "\\ufffd");
  EXPECT_EQ(json_escape("\xc3"), "\\ufffd");
  EXPECT_EQ(json_escape("\xc0\x80"), "\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(json_escape("\xff"), "\\ufffd");
  // A valid tail after garbage survives.
  EXPECT_EQ(json_escape("\xffok"), "\\ufffdok");
}

TEST(JsonEscape, HostileSessionNameCannotBreakFlightDump) {
  FlightRecorder rec;
  const std::string hostile =
      std::string("evil\"]}\x01\xff\xed\xa0\x80 id\n", 17);
  const std::uint16_t name = rec.intern(hostile, "arg\x80", "\x7f");
  rec.instant(name, 1, 2);
  rec.anomaly(name, 3, 4);
  const std::string dump = rec.dump_chrome();
  std::string err;
  EXPECT_TRUE(json_validate(dump, &err)) << err;
  // And the hostile bytes never appear raw.
  EXPECT_EQ(dump.find('\x01'), std::string::npos);
  EXPECT_EQ(dump.find('\xff'), std::string::npos);
}

TEST(JsonEscape, HostileDocumentThroughJsonWriterValidates) {
  JsonWriter w;
  w.begin_object();
  w.kv("session", std::string("\000\037\177\302bad", 7));
  w.end_object();
  const std::string doc = w.take();
  std::string err;
  EXPECT_TRUE(json_validate(doc, &err)) << err;
}

}  // namespace
}  // namespace hbct
