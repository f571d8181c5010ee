// Long-running streaming stress: pushes >= 1M events through the
// StreamingService across concurrent sessions with prefix GC on, and checks
// that resident memory stays bounded by the open frontier — not by stream
// length — while every session still reaches its correct verdict. Each
// session runs a stable watch that fires and a conjunctive watch that
// never decides.
//
// Always compiled (so it cannot rot), registered with ctest only under
// -DHBCT_STRESS_TESTS=ON (label: streaming-stress). Runs standalone:
//
//   ./stress_streaming [total_events]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "predicate/conjunctive.h"
#include "predicate/local.h"
#include "predicate/predicate.h"
#include "serve/service.h"

namespace {

int g_failures = 0;

#define STRESS_CHECK(cond, ...)                         \
  do {                                                  \
    if (!(cond)) {                                      \
      ++g_failures;                                     \
      std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                \
      std::fprintf(stderr, "\n");                       \
    }                                                   \
  } while (0)

}  // namespace

int main(int argc, char** argv) {
  using namespace hbct;
  using namespace hbct::serve;

  std::int64_t total_events = 1'000'000;
  if (argc > 1) total_events = std::atoll(argv[1]);

  const int kSessions = 8;
  const std::int64_t per_session = total_events / kSessions;
  const std::int64_t rounds_per_phase = 1250;  // 2 events per round
  const std::int64_t phases =
      (per_session + 2 * rounds_per_phase - 1) / (2 * rounds_per_phase);

  StreamingService svc;
  SessionConfig cfg;
  cfg.num_procs = 2;
  cfg.gc_interval_events = 4096;

  std::vector<SessionId> sids;
  for (int k = 0; k < kSessions; ++k) {
    sids.push_back(svc.open(cfg, [](OnlineMonitor& m) {
      m.var("rounds");
      m.watch_stable(make_stable(
          [](const Computation&, const Cut& g) { return g.total() >= 1000; },
          "progress"));
      // Never fires (rounds only grows): the residency bound must hold with
      // an undecided Garg–Waldecker search running too, including on P1,
      // which has no conjunct.
      m.watch_possibly(make_conjunctive({var_cmp(0, "rounds", Cmp::kLt, 0)}));
    }));
  }

  {
    wire::Record procs;
    procs.kind = wire::Record::Kind::kProcs;
    procs.nprocs = 2;
    std::string head;
    wire::encode_record(head, procs);
    wire::Record var;
    var.kind = wire::Record::Kind::kVar;
    var.name = "rounds";
    wire::encode_record(head, var);
    for (SessionId sid : sids) svc.post(sid, head);
  }

  std::int64_t max_resident = 0;
  std::uint64_t msg = 0;
  for (std::int64_t phase = 0; phase < phases; ++phase) {
    // One chunk of ping-pong rounds; identical bytes work for every session
    // because msg ids are scoped per session.
    std::string chunk;
    for (std::int64_t r = 0; r < rounds_per_phase; ++r, ++msg) {
      wire::Record send;
      send.kind = wire::Record::Kind::kSend;
      send.proc = 0;
      send.peer = 1;
      send.msg = msg;
      if (r % 64 == 0)
        send.writes.push_back({0, static_cast<std::int64_t>(msg)});
      wire::encode_record(chunk, send);
      wire::Record recv;
      recv.kind = wire::Record::Kind::kRecv;
      recv.proc = 1;
      recv.msg = msg;
      wire::encode_record(chunk, recv);
    }
    for (SessionId sid : sids) svc.post(sid, chunk);
    // Let the pumps catch up periodically and sample residency; without the
    // drain the inbox itself would buffer the whole stream.
    if (phase % 4 == 3 || phase + 1 == phases) {
      svc.drain();
      const std::int64_t resident = svc.resident_events();
      if (resident > max_resident) max_resident = resident;
    }
  }
  for (SessionId sid : sids) svc.finish(sid);
  svc.drain();

  std::int64_t events = 0;
  std::int64_t reclaimed = 0;
  for (SessionId sid : sids) {
    const SessionStats st = svc.stats(sid);
    STRESS_CHECK(svc.state(sid) == SessionState::kFinished, "session %lld: %s",
                 static_cast<long long>(sid), svc.error(sid).c_str());
    events += st.events;
    reclaimed += st.reclaimed_events;
    STRESS_CHECK(svc.poll(sid).size() == 1, "expected exactly one fire");
  }
  STRESS_CHECK(events >= total_events, "streamed %lld < %lld events",
               static_cast<long long>(events),
               static_cast<long long>(total_events));
  // Bounded residency is the whole point: the peak must be a small multiple
  // of sessions * gc_interval, independent of the total stream length.
  const std::int64_t bound = kSessions * cfg.gc_interval_events * 4;
  STRESS_CHECK(max_resident < bound, "peak resident %lld >= bound %lld",
               static_cast<long long>(max_resident),
               static_cast<long long>(bound));
  STRESS_CHECK(reclaimed > events * 9 / 10,
               "GC reclaimed only %lld of %lld events",
               static_cast<long long>(reclaimed),
               static_cast<long long>(events));

  std::printf(
      "stress_streaming: %lld events, %d sessions, peak resident %lld, "
      "reclaimed %lld -> %s\n",
      static_cast<long long>(events), kSessions,
      static_cast<long long>(max_resident), static_cast<long long>(reclaimed),
      g_failures == 0 ? "OK" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
