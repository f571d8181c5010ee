// Streaming service tests: the wire record codec, single-session ingestion
// with prefix GC, and the multi-tenant service — concurrent sessions, chunk
// splitting at arbitrary byte boundaries, failure isolation, and metrics.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ctl/compile.h"
#include "ctl/parser.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "online/appender.h"
#include "poset/trace_io.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "serve/service.h"
#include "serve/session.h"

namespace hbct {
namespace {

using serve::Session;
using serve::SessionConfig;
using serve::SessionId;
using serve::SessionState;
using serve::StreamingService;
using wire::Record;

Record procs_rec(std::int32_t n) {
  Record r;
  r.kind = Record::Kind::kProcs;
  r.nprocs = n;
  return r;
}
Record var_rec(std::string name) {
  Record r;
  r.kind = Record::Kind::kVar;
  r.name = std::move(name);
  return r;
}
Record init_rec(ProcId p, std::uint32_t var, std::int64_t value) {
  Record r;
  r.kind = Record::Kind::kInit;
  r.proc = p;
  r.var = var;
  r.value = value;
  return r;
}
Record internal_rec(ProcId p) {
  Record r;
  r.kind = Record::Kind::kInternal;
  r.proc = p;
  return r;
}
Record send_rec(ProcId p, ProcId to, std::uint64_t msg) {
  Record r;
  r.kind = Record::Kind::kSend;
  r.proc = p;
  r.peer = to;
  r.msg = msg;
  return r;
}
Record recv_rec(ProcId p, std::uint64_t msg) {
  Record r;
  r.kind = Record::Kind::kRecv;
  r.proc = p;
  r.msg = msg;
  return r;
}
Record end_rec() {
  Record r;
  r.kind = Record::Kind::kEnd;
  return r;
}

std::string enc(const std::vector<Record>& rs) {
  std::string out;
  for (const Record& r : rs) wire::encode_record(out, r);
  return out;
}

// ---- Wire codec ---------------------------------------------------------------

TEST(WireCodec, RoundTripsThroughByteAtATimeFeeding) {
  Record ev = internal_rec(1);
  ev.writes.push_back({0, -42});
  ev.writes.push_back({1, 1});
  ev.label = "checkpoint";
  const std::string bytes = enc({procs_rec(3), var_rec("x"), ev, end_rec()});

  wire::Decoder dec;
  std::vector<Record> got;
  for (char b : bytes) {
    dec.feed(std::string_view(&b, 1));
    Record r;
    while (dec.next(&r) == wire::Decoder::Status::kRecord) got.push_back(r);
  }
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].kind, Record::Kind::kProcs);
  EXPECT_EQ(got[0].nprocs, 3);
  EXPECT_EQ(got[1].name, "x");
  EXPECT_EQ(got[2].proc, 1);
  ASSERT_EQ(got[2].writes.size(), 2u);
  EXPECT_EQ(got[2].writes[0].var, 0u);
  EXPECT_EQ(got[2].writes[0].value, -42);
  EXPECT_EQ(got[2].label, "checkpoint");
  EXPECT_EQ(got[3].kind, Record::Kind::kEnd);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, OversizedLengthPrefixIsAStickyError) {
  wire::Decoder dec;
  dec.feed(std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10));
  Record r;
  EXPECT_EQ(dec.next(&r), wire::Decoder::Status::kError);
  EXPECT_FALSE(dec.error().empty());
  dec.feed("more");
  EXPECT_EQ(dec.next(&r), wire::Decoder::Status::kError);  // sticky
}

TEST(WireCodec, UnknownRecordKindIsAnError) {
  std::string bytes;
  wire::put_varint(bytes, 1);
  bytes.push_back('\x09');  // kind 9 does not exist
  wire::Decoder dec;
  dec.feed(bytes);
  Record r;
  EXPECT_EQ(dec.next(&r), wire::Decoder::Status::kError);
}

// ---- Session ------------------------------------------------------------------

SessionConfig two_proc_cfg(std::int64_t gc_interval = 0) {
  SessionConfig cfg;
  cfg.num_procs = 2;
  cfg.gc_interval_events = gc_interval;
  return cfg;
}

TEST(ServeSession, StreamsEventsAndFiresWatches) {
  Session s(1, two_proc_cfg());
  const VarId x = s.monitor().var("x");
  WatchId w = s.monitor().watch_possibly(
      make_conjunctive({var_cmp(0, "x", Cmp::kEq, 7)}));
  (void)x;

  Record ev = internal_rec(0);
  ev.writes.push_back({0, 7});
  s.ingest(enc({procs_rec(2), var_rec("x"), init_rec(0, 0, 1), ev,
                internal_rec(1), end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  auto fires = s.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].watch, w);
  EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
  auto st = s.stats();
  EXPECT_EQ(st.records, 6);
  EXPECT_EQ(st.events, 2);
  EXPECT_EQ(st.fires, 1);
}

TEST(ServeSession, WatchQueryRoutesOptimizedQueriesToWatchKinds) {
  Session s(1, two_proc_cfg());
  s.monitor().var("x");
  auto parse = [](const char* text) {
    auto r = ctl::parse_query(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    return r.query;
  };
  const WatchId ef = s.watch_query(parse("EF(x@P0 == 7)"));
  ASSERT_GE(ef, 0);
  const WatchId eu = s.watch_query(parse("E[x@P0 >= 0 U x@P0 == 7]"));
  ASSERT_GE(eu, 0);
  EXPECT_EQ(s.watch_query(parse("x@P0 >= 0")), -1)
      << "non-temporal queries have no watch kind";

  Record ev = internal_rec(0);
  ev.writes.push_back({0, 7});
  s.ingest(enc({procs_rec(2), var_rec("x"), init_rec(0, 0, 1), ev,
                internal_rec(1), end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  const auto fires = s.poll();
  ASSERT_EQ(fires.size(), 2u);
  for (const auto& f : fires) EXPECT_EQ(f.verdict, Verdict::kHolds);
}

TEST(ServeSession, WatchQueryRegistersVariablesAndRejectsUnknownProcesses) {
  SessionConfig cfg;
  cfg.num_procs = 4;
  Session s(1, cfg);
  auto parse = [](const char* text) {
    auto r = ctl::parse_query(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    return r.query;
  };
  // No variable is registered yet: the stream declares x only later.
  const WatchId ef = s.watch_query(parse("EF(x@P3 == 1)"));
  ASSERT_EQ(ef, 0);
  EXPECT_EQ(s.watch_query(parse("EF(x@P9 == 1 && y@P0 == 1)")), -1);
  EXPECT_EQ(s.watch_query(parse("EF(pos(9) >= 1 || pos(0) >= 1)")), -1);

  Record ev = internal_rec(3);
  ev.writes.push_back({0, 1});
  s.ingest(enc({procs_rec(4), var_rec("x"), ev, internal_rec(3), end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  const auto fires = s.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].watch, ef);
  EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
  EXPECT_EQ(fires[0].cut, Cut({0, 0, 0, 1}));
}

TEST(ServeSession, WatchBeforeInitialValuesJudgesTheStreamedState) {
  // The watch is registered before the stream's kInit record, so the
  // initial state is not known yet: x@P0 is 9 there, not 0, and the first
  // cut where x@P0 <= 7 holds is after P0's second write.
  Session s(1, two_proc_cfg());
  auto parsed = ctl::parse_query("EF(x@P0 <= 7)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const WatchId w = s.watch_query(parsed.query);
  ASSERT_EQ(w, 0);
  std::vector<Record> records = {procs_rec(2), var_rec("x"), init_rec(0, 0, 9)};
  for (const std::int64_t v : {9, 5, 3}) {
    Record ev = internal_rec(0);
    ev.writes.push_back({0, v});
    records.push_back(ev);
  }
  records.push_back(end_rec());
  s.ingest(enc(records));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  const auto fires = s.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].watch, w);
  EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
  EXPECT_EQ(fires[0].cut, Cut({2, 0}));
  const ctl::EvalResult offline =
      ctl::evaluate_query(s.monitor().computation(), parsed.query);
  ASSERT_TRUE(offline.ok) << offline.error;
  ASSERT_TRUE(offline.result.witness_cut.has_value());
  EXPECT_EQ(*offline.result.witness_cut, fires[0].cut);
}

TEST(ServeSession, NegativeChannelBoundWatchKeepsTheSessionRunning) {
  // A channel bound below zero is legal and never met; registering it must
  // neither abort the host nor fail the session. EF over a channel bound
  // has no streaming watch kind; as the target of an until it does.
  Session s(1, two_proc_cfg());
  s.monitor().var("x");
  auto parse = [](const char* text) {
    auto r = ctl::parse_query(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    return r.query;
  };
  EXPECT_EQ(s.watch_query(parse("EF(intransit(0,1) < -3)")), -1);
  ASSERT_GE(s.watch_query(parse("E[x@P0 >= 0 U intransit(0,1) < -3]")), 0);

  s.ingest(enc({procs_rec(2), send_rec(0, 1, 1), send_rec(0, 1, 2)}));
  EXPECT_EQ(s.state(), SessionState::kOpen) << s.error();
  EXPECT_TRUE(s.poll().empty());
  s.ingest(enc({recv_rec(1, 1), recv_rec(1, 2), end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  EXPECT_TRUE(s.poll().empty()) << "a never-met target never fires";
}

TEST(ServeSession, UntilWithNonLinearTargetIsRefusedNotAborted) {
  // The streaming until walk finds I_q by Chase–Garg advancement, which
  // needs q linear (a forbidden() oracle). A disjunctive q has none, so
  // registration refuses the watch and the session keeps running.
  Session s(1, two_proc_cfg());
  auto parse = [](const char* text) {
    auto r = ctl::parse_query(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    return r.query;
  };
  EXPECT_EQ(s.watch_query(parse("E[x@P0 >= 0 U x@P0 == 3 || y@P1 == 9]")), -1);
  const WatchId eu = s.watch_query(parse("E[x@P0 >= 0 U x@P0 == 3]"));
  ASSERT_GE(eu, 0);

  Record ev = internal_rec(0);
  ev.writes.push_back({0, 3});
  s.ingest(enc({procs_rec(2), var_rec("x"), var_rec("y"), ev, internal_rec(1),
                end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  const auto fires = s.poll();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].watch, eu);
  EXPECT_EQ(fires[0].verdict, Verdict::kHolds);
}

TEST(ServeSession, GcKeepsResidencyBounded) {
  Session s(1, two_proc_cfg(/*gc_interval=*/32));
  std::string head = enc({procs_rec(2)});
  s.ingest(head);
  std::int64_t max_resident = 0;
  for (std::uint64_t round = 0; round < 400; ++round) {
    s.ingest(enc({send_rec(0, 1, round), recv_rec(1, round)}));
    max_resident = std::max(max_resident, s.stats().resident_events);
  }
  s.ingest(enc({end_rec()}));
  ASSERT_EQ(s.state(), SessionState::kFinished) << s.error();
  const auto st = s.stats();
  EXPECT_EQ(st.events, 800);
  EXPECT_GT(st.gc_rounds, 0);
  EXPECT_GT(st.reclaimed_events, 700);
  EXPECT_LT(max_resident, 128);
}

TEST(ServeSession, StatsCarryTheTopGcPin) {
  Session s(1, two_proc_cfg(/*gc_interval=*/16));
  s.monitor().var("x");
  const WatchId u = s.monitor().watch_until(
      make_conjunctive({var_cmp(0, "x", Cmp::kLe, 100)}),
      PredicatePtr(progress_ge(1, 1000)));
  s.ingest(enc({procs_rec(2)}));
  for (int k = 0; k < 62; ++k) s.ingest(enc({internal_rec(0)}));
  s.ingest(enc({internal_rec(1), internal_rec(1)}));
  const auto st = s.stats();
  ASSERT_EQ(st.gc_rounds, 4);
  EXPECT_EQ(st.top_pin.watch, u);
  EXPECT_EQ(st.top_pin.kind, WatchKind::kUntil);
  EXPECT_EQ(st.top_pin.proc, 0);
  EXPECT_EQ(st.top_pin.held_events, 61);
}

TEST(ServeSession, MalformedStreamFailsWithTypedErrorNotCrash) {
  struct Case {
    std::vector<Record> records;
    const char* needle;  // must appear in the session error
  };
  const Case cases[] = {
      {{procs_rec(3)}, "process count"},
      {{procs_rec(2), recv_rec(0, 9)}, "unsent"},
      {{procs_rec(2), send_rec(0, 1, 5), send_rec(0, 1, 5)}, "duplicate"},
      {{procs_rec(2), send_rec(0, 0, 1)}, "self-message"},
      {{procs_rec(2), internal_rec(7)}, "out of range"},
      {{procs_rec(2), init_rec(0, 3, 1)}, "unregistered"},
      {{procs_rec(2), var_rec("x"), internal_rec(0), init_rec(0, 0, 1)},
       "precede"},
      {{procs_rec(2), end_rec(), internal_rec(0)}, "after end"},
  };
  for (const Case& c : cases) {
    Session s(1, two_proc_cfg());
    s.ingest(enc(c.records));
    EXPECT_EQ(s.state(), SessionState::kFailed);
    EXPECT_NE(s.error().find(c.needle), std::string::npos) << s.error();
    // Failed sessions ignore further input instead of asserting.
    EXPECT_EQ(s.ingest(enc({internal_rec(0)})), 0u);
  }
}

TEST(ServeSession, LateInitFailsLikeTheTraceReaders) {
  // One record stream, fed to a session and to the btrace reader: both
  // reject the init that follows an event with the appender's typed error
  // instead of rewriting the initial state of an observed history.
  Record ev = internal_rec(0);
  ev.writes.push_back({0, 5});
  const std::vector<Record> records = {procs_rec(2), var_rec("x"), ev,
                                       init_rec(0, 0, 7), end_rec()};
  const std::string expected = to_string(AppendError::kInitialAfterEvent);

  Session s(1, two_proc_cfg());
  s.ingest(enc(records));
  ASSERT_EQ(s.state(), SessionState::kFailed);
  EXPECT_NE(s.error().find(expected), std::string::npos) << s.error();

  const TraceParseResult r =
      trace_from_binary_string(std::string(wire::kBinaryMagic) + enc(records));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(expected), std::string::npos) << r.error;
}

TEST(ServeSession, MsgIdReuseAfterDeliveryIsAFreshMessage) {
  Session s(1, two_proc_cfg());
  s.ingest(enc({procs_rec(2), send_rec(0, 1, 5), recv_rec(1, 5),
                send_rec(1, 0, 5), recv_rec(0, 5), end_rec()}));
  EXPECT_EQ(s.state(), SessionState::kFinished) << s.error();
  EXPECT_EQ(s.stats().events, 4);
}

TEST(ServeSession, TruncatedStreamStaysOpenAcrossChunks) {
  Session s(1, two_proc_cfg());
  const std::string bytes = enc({procs_rec(2), internal_rec(0), end_rec()});
  // Feed all but the final byte: the last record is incomplete, no error.
  s.ingest(std::string_view(bytes).substr(0, bytes.size() - 1));
  EXPECT_EQ(s.state(), SessionState::kOpen);
  s.ingest(std::string_view(bytes).substr(bytes.size() - 1));
  EXPECT_EQ(s.state(), SessionState::kFinished);
}

// ---- StreamingService ---------------------------------------------------------

TEST(StreamingService, ManySessionsDrainConcurrentlyAndIndependently) {
  StreamingService svc;
  const int kSessions = 16;
  std::vector<SessionId> sids;
  std::vector<WatchId> watches(kSessions, -1);
  for (int k = 0; k < kSessions; ++k) {
    sids.push_back(svc.open(two_proc_cfg(/*gc_interval=*/64),
                            [&, k](OnlineMonitor& m) {
                              m.var("x");
                              watches[static_cast<std::size_t>(k)] =
                                  m.watch_stable(make_stable(
                                      [](const Computation&, const Cut& g) {
                                        return g.total() >= 100;
                                      },
                                      "progress"));
                            }));
  }

  // Build each session's whole stream, then post it in 7-byte chunks so
  // records are split at arbitrary boundaries.
  for (int k = 0; k < kSessions; ++k) {
    std::vector<Record> rs{procs_rec(2), var_rec("x")};
    for (std::uint64_t round = 0; round < 60; ++round) {
      rs.push_back(send_rec(0, 1, round));
      rs.push_back(recv_rec(1, round));
    }
    rs.push_back(end_rec());
    const std::string bytes = enc(rs);
    for (std::size_t off = 0; off < bytes.size(); off += 7)
      ASSERT_TRUE(svc.post(sids[static_cast<std::size_t>(k)],
                           bytes.substr(off, 7)));
  }
  svc.drain();

  EXPECT_EQ(svc.num_sessions(), static_cast<std::size_t>(kSessions));
  for (int k = 0; k < kSessions; ++k) {
    const SessionId sid = sids[static_cast<std::size_t>(k)];
    ASSERT_EQ(svc.state(sid), SessionState::kFinished) << svc.error(sid);
    const auto st = svc.stats(sid);
    EXPECT_EQ(st.events, 120);
    EXPECT_GT(st.reclaimed_events, 0);
    auto fires = svc.poll(sid);
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_EQ(fires[0].watch, watches[static_cast<std::size_t>(k)]);
  }
  for (SessionId sid : sids) EXPECT_TRUE(svc.close(sid));
  EXPECT_EQ(svc.num_sessions(), 0u);
}

TEST(StreamingService, ConcurrentClientsSeeTheSingleThreadedFires) {
  // Several client threads open, post, poll and close sessions on one
  // service at once. The session table is shared by all of them; each
  // session's fires must still match a standalone single-threaded Session
  // fed the same bytes.
  struct Fire {
    WatchId watch;
    Verdict verdict;
    Cut cut;
    bool operator==(const Fire&) const = default;
  };
  const auto setup = [](int k) {
    return [k](OnlineMonitor& m) {
      m.var("x");
      m.watch_possibly(make_conjunctive({var_cmp(0, "x", Cmp::kEq, 3 + k % 5),
                                         var_cmp(1, "x", Cmp::kGe, 1)}));
      m.watch_invariant(make_disjunctive(
          {var_cmp(0, "x", Cmp::kLe, 6 + k % 3), var_cmp(1, "x", Cmp::kLe, 2)}));
      m.watch_stable(make_stable(
          [k](const Computation&, const Cut& g) { return g.total() >= 30 + k; },
          "progress"));
    };
  };
  const auto stream = [](int k) {
    std::vector<Record> rs{procs_rec(2), var_rec("x")};
    for (std::uint64_t round = 0; round < 24; ++round) {
      Record w0 = internal_rec(0);
      w0.writes.push_back({0, static_cast<std::int64_t>((round + k) % 11)});
      rs.push_back(w0);
      rs.push_back(send_rec(0, 1, round));
      Record r1 = recv_rec(1, round);
      r1.writes.push_back({0, static_cast<std::int64_t>(round % 4)});
      rs.push_back(r1);
    }
    rs.push_back(end_rec());
    return enc(rs);
  };
  const auto fires_of = [](const std::vector<WatchFire>& fs) {
    std::vector<Fire> out;
    for (const WatchFire& f : fs) out.push_back({f.watch, f.verdict, f.cut});
    return out;
  };

  const int kThreads = 4, kPerThread = 6;
  std::vector<std::vector<Fire>> want(kThreads * kPerThread);
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    Session ref(1, two_proc_cfg(/*gc_interval=*/16));
    setup(k)(ref.monitor());
    ref.ingest(stream(k));
    ASSERT_EQ(ref.state(), SessionState::kFinished) << ref.error();
    want[static_cast<std::size_t>(k)] = fires_of(ref.poll());
    ASSERT_FALSE(want[static_cast<std::size_t>(k)].empty());
  }

  StreamingService svc;
  std::vector<std::vector<Fire>> got(want.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < kPerThread; ++j) {
        const int k = t * kPerThread + j;
        std::vector<Fire>& mine = got[static_cast<std::size_t>(k)];
        const SessionId sid =
            svc.open(two_proc_cfg(/*gc_interval=*/16), setup(k));
        const std::string bytes = stream(k);
        for (std::size_t off = 0; off < bytes.size(); off += 11) {
          svc.post(sid, bytes.substr(off, 11));
          for (const Fire& f : fires_of(svc.poll(sid))) mine.push_back(f);
        }
        while (svc.state(sid) == SessionState::kOpen) std::this_thread::yield();
        for (const Fire& f : fires_of(svc.poll(sid))) mine.push_back(f);
        EXPECT_EQ(svc.state(sid), SessionState::kFinished) << svc.error(sid);
        EXPECT_TRUE(svc.close(sid));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  svc.drain();
  EXPECT_EQ(svc.num_sessions(), 0u);
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(got[k], want[k]) << "session " << k;
}

TEST(StreamingService, OneMalformedStreamFailsOnlyItsSession) {
  StreamingService svc;
  const SessionId good1 = svc.open(two_proc_cfg());
  const SessionId bad = svc.open(two_proc_cfg());
  const SessionId good2 = svc.open(two_proc_cfg());

  for (SessionId sid : {good1, good2})
    svc.post(sid, enc({procs_rec(2), internal_rec(0), internal_rec(1),
                       end_rec()}));
  svc.post(bad, enc({procs_rec(2), recv_rec(0, 3)}));
  svc.drain();

  EXPECT_EQ(svc.state(good1), SessionState::kFinished);
  EXPECT_EQ(svc.state(good2), SessionState::kFinished);
  EXPECT_EQ(svc.state(bad), SessionState::kFailed);
  EXPECT_FALSE(svc.error(bad).empty());
  // Posting to the failed session is harmless.
  EXPECT_TRUE(svc.post(bad, enc({internal_rec(0)})));
  svc.drain();
  EXPECT_EQ(svc.state(bad), SessionState::kFailed);
}

TEST(StreamingService, UndecodableBytesFailTheSessionCleanly) {
  StreamingService svc;
  const SessionId sid = svc.open(two_proc_cfg());
  svc.post(sid, std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10));
  svc.drain();
  EXPECT_EQ(svc.state(sid), SessionState::kFailed);
  EXPECT_NE(svc.error(sid).find("decode"), std::string::npos)
      << svc.error(sid);
}

TEST(StreamingService, RecordPostAndFinishConvenience) {
  StreamingService svc;
  const SessionId sid = svc.open(two_proc_cfg());
  EXPECT_TRUE(svc.post(sid, procs_rec(2)));
  EXPECT_TRUE(svc.post(sid, internal_rec(0)));
  EXPECT_TRUE(svc.finish(sid));
  svc.drain();
  EXPECT_EQ(svc.state(sid), SessionState::kFinished) << svc.error(sid);
  EXPECT_EQ(svc.stats(sid).events, 1);
  // Unknown sessions are reported, not asserted on.
  EXPECT_FALSE(svc.post(SessionId{999}, internal_rec(0)));
  EXPECT_FALSE(svc.close(SessionId{999}));
}

TEST(StreamingService, MetricsLandInTheOptionsRegistry) {
  MetricsRegistry metrics;
  serve::ServiceOptions opt;
  opt.metrics = &metrics;
  StreamingService svc(opt);
  const SessionId sid = svc.open(two_proc_cfg(/*gc_interval=*/8));
  std::vector<Record> rs{procs_rec(2)};
  for (std::uint64_t round = 0; round < 40; ++round) {
    rs.push_back(send_rec(0, 1, round));
    rs.push_back(recv_rec(1, round));
  }
  rs.push_back(end_rec());
  svc.post(sid, enc(rs));
  svc.drain();
  ASSERT_EQ(svc.state(sid), SessionState::kFinished) << svc.error(sid);

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.records"), 82u);
  EXPECT_EQ(snap.counters.at("serve.events"), 80u);
  EXPECT_EQ(snap.counters.at("serve.sessions_opened"), 1u);
  EXPECT_GT(snap.counters.at("serve.gc.rounds"), 0u);
  EXPECT_GT(snap.counters.at("serve.gc.reclaimed_events"), 0u);
  EXPECT_EQ(snap.gauges.at("serve.open_sessions"), 1);
  EXPECT_GT(snap.histograms.at("serve.ingest.ns").count, 0u);
  // Ingest work lands in the flight ring, one record per drained chunk.
  const std::uint16_t ingest = FlightRecorder::intern("serve.ingest");
  bool saw_ingest = false;
  for (const auto& r : FlightRecorder::global().snapshot())
    saw_ingest |= r.name == ingest && r.a0 == sid && r.a1 == 82;
  EXPECT_TRUE(saw_ingest);

  svc.close(sid);
  EXPECT_EQ(metrics.snapshot().gauges.at("serve.open_sessions"), 0);
}

TEST(StreamingService, ResidentEventsAggregatesLiveSessions) {
  StreamingService svc;
  const SessionId a = svc.open(two_proc_cfg());
  const SessionId b = svc.open(two_proc_cfg());
  svc.post(a, enc({procs_rec(2), internal_rec(0), internal_rec(0)}));
  svc.post(b, enc({procs_rec(2), internal_rec(1)}));
  svc.drain();
  EXPECT_EQ(svc.resident_events(), 3);
  svc.close(a);
  EXPECT_EQ(svc.resident_events(), 1);
}

}  // namespace
}  // namespace hbct
