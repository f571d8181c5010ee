// Observability layer: span nesting (same-thread and under the first-match
// loop), captures against the flight ring (no lost spans, shared thread
// ids, one `detect` record per call), histogram bucket layout, metrics
// determinism (the inert parallelism field included), the golden Chrome
// trace export
// under an injected clock, the hbct.report/1 document, and the DetectStats
// X-macro plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "detect/dispatch.h"
#include "detect/first_match.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "poset/generate.h"
#include "predicate/channel.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/predicate.h"
#include "predicate/relational.h"
#include "util/stats.h"

namespace hbct {
namespace {

Computation small_comp() {
  GenOptions opt;
  opt.num_procs = 4;
  opt.events_per_proc = 20;
  opt.num_vars = 2;
  opt.p_send = 0.25;
  opt.seed = 11;
  return generate_random(opt);
}

PredicatePtr wide_dnf(std::int32_t procs) {
  std::vector<PredicatePtr> ds;
  for (int d = 0; d < 6; ++d) {
    std::vector<LocalPredicatePtr> ls;
    for (ProcId i = 0; i < procs; ++i)
      ls.push_back(var_cmp(i, "v0", Cmp::kEq, d));
    ds.push_back(PredicatePtr(make_conjunctive(std::move(ls))));
  }
  return make_or(std::move(ds));
}

std::string name_of(const Tracer::Record& r) {
  return FlightRecorder::name_of(r.name);
}

bool is_open(const Tracer::Record& r) {
  return (r.flags & Tracer::Record::kOpen) != 0;
}

// ---- Span nesting --------------------------------------------------------------

TEST(Trace, SameThreadNestingInheritsParent) {
  Tracer t;
  EXPECT_EQ(t.current(), Tracer::npos);
  ScopedSpan outer(&t, "outer");
  EXPECT_EQ(t.current(), outer.id());
  {
    ScopedSpan inner(&t, "inner");
    EXPECT_EQ(t.current(), inner.id());
    const auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, outer.id());
    EXPECT_EQ(spans[0].parent, Tracer::npos);
    EXPECT_TRUE(is_open(spans[1]));
  }
  EXPECT_EQ(t.current(), outer.id());
  EXPECT_FALSE(is_open(t.spans()[1]));
}

TEST(Trace, NullTracerIsNoOp) {
  ScopedSpan s(nullptr, "nothing");
  s.arg("k", 1);
  EXPECT_EQ(s.id(), Tracer::npos);
  EXPECT_FALSE(static_cast<bool>(s));
}

TEST(Trace, TwoTracersOnOneThreadDoNotAdoptEachOther) {
  Tracer a, b;
  ScopedSpan sa(&a, "a-root");
  ScopedSpan sb(&b, "b-root");
  EXPECT_EQ(b.spans()[0].parent, Tracer::npos);  // not parented on a-root
  ScopedSpan sa2(&a, "a-child");
  EXPECT_EQ(a.spans()[1].parent, sa.id());  // skips b's frame
}

TEST(Trace, ParallelEngineParentsBranchesOnTheFanout) {
  Tracer t;
  DetectStats st;
  const std::size_t kBranches = 8;
  const auto eval = [](std::size_t i) {
    DetectResult r;
    r.verdict = i == 5 ? Verdict::kHolds : Verdict::kFails;
    r.stats.predicate_evals = 1;
    return r;
  };
  const FirstMatch none = detect_first_match(
      kBranches, eval, [](const DetectResult&) { return false; }, st, &t,
      "test.fanout");
  EXPECT_FALSE(none.found());
  EXPECT_EQ(st.predicate_evals, kBranches);

  const std::vector<Tracer::Record> spans = t.spans();
  std::size_t fan = Tracer::npos;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (name_of(spans[i]) == "test.fanout") fan = i;
  ASSERT_NE(fan, Tracer::npos);
  std::size_t branches = 0;
  for (const Tracer::Record& s : spans) {
    // parent closed after all children
    EXPECT_FALSE(is_open(s)) << name_of(s);
    if (name_of(s) != "fanout.branch") continue;
    ++branches;
    EXPECT_EQ(s.parent, fan);
    EXPECT_GE(s.ts_ns, spans[fan].ts_ns);
    EXPECT_LE(s.ts_ns + s.dur_ns, spans[fan].ts_ns + spans[fan].dur_ns);
  }
  EXPECT_EQ(branches, kBranches);
  // One fan-out, all branches merged (no branch hit).
  MetricsSnapshot m = t.metrics().snapshot();
  EXPECT_EQ(m.counters.at("parallel.fanouts"), 1u);
  EXPECT_EQ(m.counters.at("parallel.branches.merged"), kBranches);

  // A hit at branch 5 ends the loop there: branches 0..5 are merged.
  DetectStats hit_st;
  const FirstMatch hit = detect_first_match(
      kBranches, eval,
      [](const DetectResult& r) { return r.verdict == Verdict::kHolds; },
      hit_st, &t, "test.fanout");
  EXPECT_EQ(hit.index, 5u);
  EXPECT_EQ(hit_st.predicate_evals, 6u);
  m = t.metrics().snapshot();
  EXPECT_EQ(m.counters.at("parallel.fanouts"), 2u);
  EXPECT_EQ(m.counters.at("parallel.branches.merged"), kBranches + 6);
}

// ---- Captures and the flight ring ----------------------------------------------

TEST(Capture, KeepsEverySpanPastRingWrap) {
  FlightRecorder::Config cfg;
  cfg.ring_capacity = 8;
  FlightRecorder ring(cfg);
  Tracer t;
  const std::uint16_t name = FlightRecorder::intern("capture.wrap", "i");
  constexpr std::int64_t kSpans = 100;
  for (std::int64_t i = 0; i < kSpans; ++i) {
    FlightScope s(ring, name, &t);
    s.args(i, 0);
  }
  // The ring wrapped and kept only its newest records; the capture kept all.
  EXPECT_LE(ring.snapshot().size(), cfg.ring_capacity);
  EXPECT_EQ(ring.stats().recorded, static_cast<std::uint64_t>(kSpans));
  const std::vector<Tracer::Record> spans = t.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kSpans));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].a0, static_cast<std::int64_t>(i));
    EXPECT_FALSE(is_open(spans[i]));
  }
}

/// `detect` records this thread wrote to the global ring in [t0, t1].
std::vector<FlightRecorder::Record> detect_records(std::uint64_t t0,
                                                   std::uint64_t t1) {
  const std::uint16_t detect = FlightRecorder::intern("detect");
  const auto tid = static_cast<std::uint32_t>(obs_detail::shard_index());
  std::vector<FlightRecorder::Record> out;
  for (const auto& r : FlightRecorder::global().snapshot())
    if (r.name == detect && r.tid == tid && r.ts_ns >= t0 && r.ts_ns <= t1)
      out.push_back(r);
  return out;
}

TEST(Capture, SpanTidsMatchFlightRecordTids) {
  const Computation c = small_comp();
  DispatchOptions opt;
  opt.trace = true;
  const std::uint64_t t0 = FlightRecorder::now_ns();
  const DetectResult r = detect(c, Op::kEF, wide_dnf(c.num_procs()), nullptr,
                                opt);
  const std::vector<FlightRecorder::Record> ring =
      detect_records(t0, FlightRecorder::now_ns());
  ASSERT_NE(r.trace, nullptr);
  const std::vector<Tracer::Record> spans = r.trace->spans();
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(ring.size(), 1u);
  // The capture's root is the very record the ring received.
  EXPECT_EQ(name_of(spans[0]), "detect");
  EXPECT_EQ(spans[0].ts_ns, ring[0].ts_ns);
  EXPECT_EQ(spans[0].dur_ns, ring[0].dur_ns);
  // Width 1: every span ran on this thread, under the ring's thread id.
  for (const Tracer::Record& s : spans)
    EXPECT_EQ(s.tid, ring[0].tid) << name_of(s);
}

TEST(Capture, A2SpanCarriesSupportAndRows) {
  const Computation c = small_comp();
  DispatchOptions opt;
  opt.trace = true;
  // Holds at every cut, so the sweep visits every meet-irreducible.
  const DetectResult r =
      detect(c, Op::kAG, channel_bound_le(0, 2, 1000), nullptr, opt);
  ASSERT_EQ(r.algorithm, "A2-ag-linear");
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  // One row per process at its first event, plus one after each send.
  std::int64_t rows = 0;
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      rows += k == 1 || c.event_view(i, k - 1).kind == EventKind::kSend;
  std::size_t found = 0;
  for (const Tracer::Record& s : r.trace->spans()) {
    if (name_of(s) != "ag.a2-scan") continue;
    ++found;
    const FlightRecorder::Name labels = FlightRecorder::names()[s.name];
    EXPECT_EQ(labels.arg0, "support");
    EXPECT_EQ(labels.arg1, "rows");
    EXPECT_EQ(s.a0, 2);
    EXPECT_EQ(s.a1, rows);
  }
  EXPECT_EQ(found, 1u);
}

TEST(Capture, RvColumnFillIsItsOwnSpan) {
  // 20 processes: reverse-clock blocks {0..7}, {8..15} and {16..19}.
  GenOptions g;
  g.num_procs = 20;
  g.events_per_proc = 6;
  g.p_send = 0.3;
  g.seed = 5;
  const Computation c = generate_random(g);
  DispatchOptions opt;
  opt.trace = true;
  const PredicatePtr p = channel_bound_le(0, 1, 1000);
  const std::uint64_t t0 = FlightRecorder::now_ns();
  const DetectResult r = detect(c, Op::kAG, p, nullptr, opt);
  ASSERT_EQ(r.algorithm, "A2-ag-linear");
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  // The support {0, 1} lies in the first block: one fill of one block,
  // nested under the sweep's span.
  const std::vector<Tracer::Record> spans = r.trace->spans();
  std::size_t fills = 0;
  for (const Tracer::Record& s : spans) {
    if (name_of(s) != "poset.rv-columns") continue;
    ++fills;
    const FlightRecorder::Name labels = FlightRecorder::names()[s.name];
    EXPECT_EQ(labels.arg0, "blocks");
    EXPECT_EQ(labels.arg1, "events");
    EXPECT_EQ(s.a0, 1);
    EXPECT_EQ(s.a1, c.total_events());
    ASSERT_NE(s.parent, Tracer::npos);
    EXPECT_EQ(name_of(spans[s.parent]), "ag.a2-scan");
  }
  EXPECT_EQ(fills, 1u);
  // The always-on ring attributes the same fill.
  std::size_t ring = 0;
  for (const FlightRecorder::Record& rec : FlightRecorder::global().snapshot())
    if (rec.ts_ns >= t0 && FlightRecorder::name_of(rec.name) == "poset.rv-columns")
      ring += rec.a0 == 1 && rec.a1 == c.total_events() ? 1 : 0;
  EXPECT_EQ(ring, 1u);

  // The block stays derived: a second detection fills nothing.
  const DetectResult again = detect(c, Op::kAG, p, nullptr, opt);
  for (const Tracer::Record& s : again.trace->spans())
    EXPECT_NE(name_of(s), "poset.rv-columns");
  // A whole-M(e) reader derives the two missing blocks in one fill.
  Tracer t;
  c.reverse_clocks(&t);
  c.reverse_clocks(&t);
  ASSERT_EQ(t.spans().size(), 1u);
  EXPECT_EQ(name_of(t.spans()[0]), "poset.rv-columns");
  EXPECT_EQ(t.spans()[0].a0, 2);
}

TEST(Capture, DetectWritesOneFlightRecordPerCall) {
  const Computation c = small_comp();
  const PredicatePtr p = wide_dnf(c.num_procs());
  for (const bool traced : {false, true}) {
    DispatchOptions opt;
    opt.trace = traced;
    const std::uint64_t t0 = FlightRecorder::now_ns();
    const DetectResult r = detect(c, Op::kEF, p, nullptr, opt);
    const std::vector<FlightRecorder::Record> ring =
        detect_records(t0, FlightRecorder::now_ns());
    ASSERT_EQ(ring.size(), 1u) << "traced " << traced;
    EXPECT_EQ(ring[0].a0, static_cast<std::int64_t>(Op::kEF));
    EXPECT_EQ(ring[0].a1, static_cast<std::int64_t>(r.verdict));
    if (!traced) continue;
    std::size_t roots = 0;
    for (const Tracer::Record& s : r.trace->spans())
      roots += name_of(s) == "detect" ? 1 : 0;
    EXPECT_EQ(roots, 1u);
  }
}

// ---- Histogram layout ----------------------------------------------------------

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket 0 holds zeros; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b) - 1), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b + 1);
    EXPECT_EQ(Histogram::bucket_lo(b + 1), Histogram::bucket_hi(b));
  }
}

TEST(Metrics, HistogramRecordAndPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Nearest-rank into log2 buckets: monotone in q and within the bucket's
  // bound of the exact quantile.
  EXPECT_LE(s.percentile(0.5), 128u);
  EXPECT_GE(s.percentile(0.5), 50u);
  EXPECT_LE(s.percentile(0.5), s.percentile(0.9));
  EXPECT_LE(s.percentile(0.9), s.percentile(0.99));
  EXPECT_EQ(Histogram::Snapshot{}.percentile(0.5), 0u);
}

TEST(Metrics, HistogramPercentileEdgeCases) {
  // Empty histogram: every quantile is 0, never a crash or a division by
  // zero — the streaming bench reads p99 off possibly-idle histograms.
  {
    Histogram h;
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.percentile(0.0), 0u);
    EXPECT_EQ(s.percentile(0.5), 0u);
    EXPECT_EQ(s.percentile(0.99), 0u);
    EXPECT_EQ(s.percentile(1.0), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  }
  // A single sample lands every quantile in that sample's bucket.
  {
    Histogram h;
    h.record(1000);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 1u);
    const std::uint64_t hi =
        Histogram::bucket_hi(Histogram::bucket_of(1000));
    EXPECT_EQ(s.percentile(0.5), hi);
    EXPECT_EQ(s.percentile(0.99), hi);
    EXPECT_EQ(s.percentile(0.5), s.percentile(0.0));
  }
  // A single zero sample: bucket 0's exclusive upper bound is 1.
  {
    Histogram h;
    h.record(0);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.percentile(0.5), Histogram::bucket_hi(0));
    EXPECT_EQ(s.count, 1u);
  }
}

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("c"), &c);  // stable find-or-create
  Gauge& g = reg.gauge("g");
  g.set(5);
  g.max_of(3);
  EXPECT_EQ(g.value(), 5);
  g.max_of(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(Metrics, AbsorbFollowsTheStatsXMacro) {
  MetricsRegistry reg;
  DetectStats st;
  st.predicate_evals = 7;
  st.cut_steps = 3;
  reg.absorb(st);
  reg.absorb(st);
  const MetricsSnapshot m = reg.snapshot();
  EXPECT_EQ(m.counters.at("detect.predicate_evals"), 14u);
  EXPECT_EQ(m.counters.at("detect.cut_steps"), 6u);
}

TEST(Stats, XMacroPlusEqualsAndToString) {
  DetectStats a, b;
  a.predicate_evals = 1;
  a.lattice_nodes = 2;
  b.predicate_evals = 10;
  b.cut_steps = 5;
  a += b;
  EXPECT_EQ(a.predicate_evals, 11u);
  EXPECT_EQ(a.cut_steps, 5u);
  EXPECT_EQ(a.lattice_nodes, 2u);
  const std::string s = a.to_string();
  EXPECT_NE(s.find("evals=11"), std::string::npos);
  EXPECT_NE(s.find("steps=5"), std::string::npos);
}

// ---- Determinism ---------------------------------------------------------------

TEST(Metrics, DeterministicAcrossParallelismWidths) {
  // Detection is sequential, so a traced run's counters are a function of
  // the query alone: repeating it, or setting the inert
  // DispatchOptions::parallelism field, leaves every counter unchanged.
  const Computation c = small_comp();
  const PredicatePtr p = wide_dnf(c.num_procs());
  std::map<std::string, std::uint64_t> baseline;
  for (const std::size_t width : {1u, 1u, 2u, 4u}) {
    DispatchOptions opt;
    opt.parallelism = width;
    opt.trace = true;
    const DetectResult r = detect(c, Op::kEF, p, nullptr, opt);
    ASSERT_NE(r.trace, nullptr);
    std::map<std::string, std::uint64_t> counters =
        r.trace->metrics().snapshot().counters;
    EXPECT_EQ(counters.at("parallel.fanouts"), 1u);
    if (baseline.empty())
      baseline = std::move(counters);
    else
      EXPECT_EQ(counters, baseline) << "width " << width;
  }
}

// ---- Golden Chrome export ------------------------------------------------------

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now += 100; }

TEST(Trace, GoldenChromeJsonUnderInjectedClock) {
  g_fake_now = 0;
  Tracer t(&fake_clock);  // epoch: 100
  const std::size_t a = t.begin("detect");         // 200 -> ts 100
  const std::size_t b = t.begin("walk.least-cut");  // 300 -> ts 200
  t.set_arg(b, "steps", 7);
  t.end(b);                                   // 400 -> dur 100
  t.instant("budget.trip.step-budget");       // 500 -> ts 400
  t.end(a);                                   // 600 -> dur 400
  // The thread tag is process-global (other tests may have run first);
  // splice the observed value into the golden text.
  const std::string tid = std::to_string(t.spans()[0].tid);
  const std::string expect =
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"hbct\"}},"
      "{\"name\":\"detect\",\"cat\":\"hbct\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":" + tid + ",\"ts\":0.1,\"dur\":0.4,"
      "\"args\":{\"id\":0,\"parent\":-1}},"
      "{\"name\":\"walk.least-cut\",\"cat\":\"hbct\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":" + tid + ",\"ts\":0.2,\"dur\":0.1,"
      "\"args\":{\"id\":1,\"parent\":0,\"steps\":7}},"
      "{\"name\":\"budget.trip.step-budget\",\"cat\":\"hbct\",\"ph\":\"i\","
      "\"s\":\"t\",\"pid\":1,\"tid\":" + tid + ",\"ts\":0.4,\"args\":{}}"
      "],\"displayTimeUnit\":\"ns\"}";
  EXPECT_EQ(t.chrome_trace_json(), expect);
  std::string err;
  EXPECT_TRUE(json_validate(t.chrome_trace_json(), &err)) << err;
}

// ---- Reports -------------------------------------------------------------------

TEST(Report, DisabledByDefaultAndValidWhenEnabled) {
  const Computation c = small_comp();
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < c.num_procs(); ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kLe, 8));
  const PredicatePtr p = make_conjunctive(std::move(ls));

  const DetectResult off = detect(c, Op::kEF, p);
  EXPECT_EQ(off.trace, nullptr);
  std::string err;
  const std::string off_doc = report_json(off);
  ASSERT_TRUE(json_validate(off_doc, &err)) << err;
  EXPECT_NE(off_doc.find("\"schema\":\"hbct.report/1\""), std::string::npos);
  EXPECT_NE(off_doc.find("\"spans\":null"), std::string::npos);

  DispatchOptions opt;
  opt.trace = true;
  const DetectResult on = detect(c, Op::kEF, p, nullptr, opt);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_GT(on.trace->span_count(), 0u);
  const std::string on_doc = report_json(on);
  ASSERT_TRUE(json_validate(on_doc, &err)) << err;
  EXPECT_NE(on_doc.find("\"name\":\"detect\""), std::string::npos);
  EXPECT_NE(on_doc.find("\"verdict\":\"holds\""), std::string::npos);
  // Chrome export of the same run also validates.
  EXPECT_TRUE(json_validate(on.trace->chrome_trace_json(), &err)) << err;
  // Every closed span fed its per-phase latency histogram.
  const MetricsSnapshot ms = on.trace->metrics().snapshot();
  std::uint64_t span_samples = 0;
  for (const auto& [name, snap] : ms.histograms)
    if (name.rfind("span.", 0) == 0) span_samples += snap.count;
  EXPECT_EQ(span_samples, on.trace->span_count());
}

TEST(Report, BudgetTripRecordsInstantAndCounter) {
  const Computation c = small_comp();
  std::vector<LocalPredicatePtr> ls;
  for (ProcId i = 0; i < c.num_procs(); ++i)
    ls.push_back(var_cmp(i, "v0", Cmp::kGe, 1000));  // never holds: full walk
  const PredicatePtr p = make_conjunctive(std::move(ls));
  DispatchOptions opt;
  opt.trace = true;
  opt.budget.max_work = 3;
  const DetectResult r = detect(c, Op::kEF, p, nullptr, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  ASSERT_NE(r.trace, nullptr);
  const auto instants = r.trace->instants();
  ASSERT_FALSE(instants.empty());
  EXPECT_EQ(name_of(instants[0]), "budget.trip");
  EXPECT_EQ(instants[0].a0,
            static_cast<std::int64_t>(BoundReason::kStepBudget));
  EXPECT_EQ(r.trace->metrics().snapshot().counters.at(
                "budget.trips.step-budget"),
            1u);
}

// ---- JSON helpers --------------------------------------------------------------

TEST(Json, WriterEscapingAndValidation) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\n\t");
  w.key("arr").begin_array().value(std::int64_t{-3}).value(true).end_array();
  w.key("null_raw").raw("null");
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc, "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"arr\":[-3,true],"
                 "\"null_raw\":null}");
  std::string err;
  EXPECT_TRUE(json_validate(doc, &err)) << err;
  EXPECT_FALSE(json_validate("{\"a\":}", &err));
  EXPECT_FALSE(json_validate("[1,2", nullptr));
  EXPECT_FALSE(json_validate("{} extra", nullptr));
}

TEST(Stats, SummaryPercentiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = Summary::of(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

}  // namespace
}  // namespace hbct
