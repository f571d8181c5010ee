// One streaming-detection session: a single execution's event stream,
// decoded from the binary wire format (poset/trace_io, namespace wire) into
// an OnlineMonitor, with periodic prefix garbage collection keeping the
// session's resident memory proportional to its open frontier.
//
// A session is deliberately single-threaded: the StreamingService serializes
// all access per session and runs many sessions concurrently. Malformed
// input — undecodable bytes or appends the monitor rejects (AppendError) —
// fails only this session: state() flips to kFailed, the error string says
// why, and every later ingest is ignored. The host process never crashes on
// a bad stream.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/optimize.h"
#include "detect/budget.h"
#include "obs/metrics.h"
#include "online/monitor.h"
#include "poset/wire_apply.h"

namespace hbct {
namespace serve {

using SessionId = std::int64_t;

enum class SessionState : std::uint8_t {
  kOpen,      // accepting events
  kFinished,  // end-of-stream applied; final verdicts fired
  kFailed,    // malformed stream; error() says why
};

const char* to_string(SessionState s);

struct SessionConfig {
  std::int32_t num_procs = 1;
  /// Per-round evaluation budget handed to the session's monitor.
  Budget budget{};
  /// Run a prefix-GC round after this many applied events; <= 0 disables
  /// automatic collection (collect() still works).
  std::int64_t gc_interval_events = 4096;
};

struct SessionStats {
  std::int64_t records = 0;          // wire records applied
  std::int64_t events = 0;           // events appended
  std::int64_t fires = 0;            // watch fires produced
  std::int64_t gc_rounds = 0;        // prefix collections run
  std::int64_t reclaimed_events = 0; // events reclaimed by GC
  std::int64_t resident_events = 0;  // events currently in memory
  /// Heap footprint of live watch state (scan vectors, candidate cuts,
  /// incremental until tables) — serve.watch_state.bytes sizes it fleet-wide.
  std::int64_t watch_state_bytes = 0;
  /// Physical work of the incremental until evaluator: feed-time table
  /// advances and decision-time lazy extensions (cumulative).
  std::int64_t until_inc_evals = 0;
  std::int64_t until_dec_evals = 0;
  SessionState state = SessionState::kOpen;
};

class Session {
 public:
  Session(SessionId id, const SessionConfig& cfg);

  SessionId id() const { return id_; }
  /// For watch registration at open time (before any event arrives).
  OnlineMonitor& monitor() { return mon_; }

  /// Registers a watch for a parsed CTL query, routing by operator and
  /// operand class: EF(conjunctive|disjunctive) -> watch_possibly,
  /// AG(disjunctive) -> watch_invariant, E[p U q] with conjunctive p ->
  /// watch_until. Under kApply (the default) the query first runs through
  /// the optimizer — optimize_query_cached, so opening many sessions over
  /// the same formula pays for inference/rewrite/costing once
  /// (analysis.cache_hits counts the skips) — and the *chosen* form is
  /// registered when it is still a routable temporal query; otherwise the
  /// as-written form is kept (costable-collapse is vacuous on the empty
  /// registration-time computation and says nothing about future events).
  /// kAnalyzeOnly warms the cache but registers the query as written;
  /// kOff skips analysis entirely. Every variable the query names is
  /// registered with the monitor first (the stream's kVar records arrive
  /// later). Returns -1 when the query references a process outside the
  /// session or does not fit a streaming watch class.
  WatchId watch_query(const ctl::Query& q,
                      OptimizeMode mode = OptimizeMode::kApply);

  SessionState state() const { return state_; }
  const std::string& error() const { return error_; }

  /// Decodes and applies a chunk of wire bytes; returns records applied.
  /// Event labels in the stream are ignored (they never affect verdicts).
  std::size_t ingest(std::string_view bytes);
  /// Applies one already-decoded record; false once the session failed.
  bool apply(const wire::Record& r);
  /// Ends the stream explicitly (equivalent to a kEnd record).
  void finish();

  /// Drains the watch fires accumulated since the last poll.
  std::vector<WatchFire> poll();
  /// Runs a prefix-GC round now; returns events reclaimed.
  std::int64_t collect();

  SessionStats stats() const;

  /// Number of WatchKind values (index instruments by
  /// static_cast<std::size_t>(kind)).
  static constexpr std::size_t kNumWatchKinds = 5;

  /// Metric hooks the service wires in at open(): the combined fire-latency
  /// histogram, plus optional per-watch-class latency histograms and fire
  /// counters (label convention `serve.*{class="<kind>"}`, see obs/expose.h).
  /// Null members skip their recording; an all-null struct also skips the
  /// clock reads.
  struct FireInstruments {
    Histogram* latency = nullptr;  // serve.fire_latency.ns, all classes
    std::array<Histogram*, kNumWatchKinds> class_latency{};
    std::array<Counter*, kNumWatchKinds> class_fires{};
    /// Optional raw sink: the exact nanosecond latency sample, once per
    /// fire, before the histograms quantize it into log2 buckets (which
    /// round every percentile to a power of two). Benches install this to
    /// report true percentiles; the histogram path stays authoritative for
    /// the service. Runs on the pump thread — must be thread-safe when
    /// sessions share one sink.
    std::function<void(WatchKind, std::uint64_t)> raw_sample;
  };
  void set_fire_instruments(const FireInstruments& fi) {
    inst_ = fi;
    time_fires_ = fi.latency != nullptr || fi.raw_sample != nullptr;
    for (const Histogram* h : fi.class_latency)
      time_fires_ = time_fires_ || h != nullptr;
  }

 private:
  bool fail(std::string msg);
  void after_event();
  /// Moves the monitor's new fires into fires_, recording their counters
  /// and, given the record's arrival time t0, their latency.
  void take_fires(const std::chrono::steady_clock::time_point* t0);

  SessionId id_;
  SessionConfig cfg_;
  OnlineMonitor mon_;
  wire::Decoder dec_;
  SessionState state_ = SessionState::kOpen;
  std::string error_;
  /// Variable and in-flight msg id tables, shared with the trace readers.
  /// Event labels are dropped: the monitor takes none.
  wire::Applier app_;
  std::vector<WatchFire> fires_;
  SessionStats stats_;
  std::int64_t since_gc_ = 0;
  FireInstruments inst_;
  bool time_fires_ = false;
};

}  // namespace serve
}  // namespace hbct
