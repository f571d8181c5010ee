// Span records for the whole stack (DESIGN.md §10): one record format,
// one name table, one clock, one thread id and one Chrome trace_event
// writer, shared by two consumers — this always-on ring and the
// per-detection capture of obs/trace.h. An always-recorded site (detect,
// monitor.finish, monitor.gc, serve.ingest, budget trips) makes one
// FlightScope or anomaly() call, which writes the ring and, when one is
// attached, the capture.
//
// The ring costs a handful of nanoseconds per record and is therefore left
// enabled in production. When an anomaly strikes — a budget trip, an audit
// failure, a wire decode error, a session isolation failure, an SLO breach
// — it snapshots the recent window into a Chrome trace with the triggering
// record marked, so the incident can be explained after the fact.
//
// Write-path design — the same sharded cache-line-padded slot layout as
// MetricsRegistry's counters: records land in one of kShards rings indexed
// by the dense per-thread id, each ring a power-of-two array of slots with
// a relaxed fetch_add ticket counter. A writer never takes a lock and never
// waits: it claims a ticket, stamps the slot's sequence odd, writes the
// record, and publishes the sequence even (a per-slot seqlock). The record
// payload itself is stored as relaxed-atomic 64-bit words, so a snapshot
// racing a writer is defined behavior (TSan-clean); the sequence check
// still discards any copy the writer overlapped. Readers (snapshot/dump,
// rare) skip slots whose sequence is odd or changed across the copy. The
// one un-detectable tear needs two writers racing on one slot a full ring
// apart — i.e. the ring wrapped entirely during a single ~20ns write — and
// even then the damage is one garbled diagnostic record, never corrupted
// JSON (record payloads are integers; names are table-bounded).
//
// Call sites intern a name once into a function-local static and pass
// integers ever after; variable data rides in two int64 args whose labels
// are part of the interned name entry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hbct {

class JsonWriter;
class Tracer;

class FlightRecorder {
 public:
  static constexpr std::size_t kShards = 16;

  enum class Kind : std::uint8_t { kSpan, kInstant, kAnomaly };

  /// The one record format: 56 bytes, all integers. `name` indexes the
  /// intern table; a0/a1 carry the two args the name entry labels; `flags`
  /// says which args are set (ring records set both) and whether a
  /// captured span is still open.
  struct Record {
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
    static constexpr std::uint8_t kArg0 = 1, kArg1 = 2, kOpen = 4;

    std::uint64_t ts_ns = 0;   // start (spans) or occurrence time
    std::uint64_t dur_ns = 0;  // 0 for instants/anomalies
    std::int64_t a0 = 0;
    std::int64_t a1 = 0;
    std::uint64_t ticket = 0;  // ring: order within a shard
    std::uint32_t parent = kNoParent;  // capture: enclosing span's index
    std::uint32_t tid = 0;
    std::uint16_t name = 0;
    Kind kind = Kind::kInstant;
    std::uint8_t flags = 0;
  };

  /// An interned name with its two arg labels.
  struct Name {
    std::string name, arg0, arg1;
  };

  struct Config {
    /// Slots per shard, rounded up to a power of two. 4096 slots x 16
    /// shards x 64 bytes = 4 MiB resident, ~65k records retained.
    std::size_t ring_capacity = 4096;
    /// Floor between two automatic anomaly dumps (0 = dump on every
    /// anomaly). Protects against dump storms when a whole fleet of
    /// sessions trips at once — rendering a multi-MB dump per anomaly on
    /// the tripping thread is exactly what this guards against, so the
    /// default is nonzero. Tunable at runtime via set_min_dump_gap();
    /// explicit dump_chrome() calls are never limited.
    std::uint64_t min_dump_gap_ns = 1'000'000'000;  // 1s
  };

  FlightRecorder();  // default Config
  explicit FlightRecorder(Config cfg);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every built-in instrumentation site writes
  /// to. Enabled from the first use; never destroyed.
  static FlightRecorder& global();

  // ---- Shared machinery (rings and captures alike) ------------------------
  /// Interns a record name with its two arg labels into the process-wide
  /// table; returns a stable id (labels of the first registration win).
  static std::uint16_t intern(std::string_view name,
                              std::string_view arg0 = {},
                              std::string_view arg1 = {});
  /// Name for an id; "?" when out of range (torn record).
  static std::string name_of(std::uint16_t id);
  /// Which arg (0 or 1) of `name` the label `key` names, claiming a free
  /// label on first use. Asserts when both labels are already taken.
  static int arg_slot(std::uint16_t name, std::string_view key);
  /// The one clock: steady nanoseconds. (The one thread id is the dense
  /// per-thread index the metric shards use, obs_detail::shard_index.)
  static std::uint64_t now_ns();

  /// The one Chrome trace_event writer ("X" spans, "i" instants, µs
  /// timestamps since `epoch_ns` with ns precision), loadable in
  /// chrome://tracing or Perfetto. With `span_ids` (captures) each span
  /// carries "id" (its position; spans must come first) and "parent" args;
  /// the record whose ticket is `trigger_ticket` is marked "trigger": 1.
  static std::string chrome_json(const std::vector<Record>& records,
                                 std::string_view process,
                                 std::uint64_t epoch_ns, bool span_ids,
                                 std::uint64_t trigger_ticket);
  /// Writes the "args" object of one record: each set arg under its label
  /// ("a0"/"a1" when unlabeled).
  static void write_args(JsonWriter& w, const Record& r, const Name& name);
  /// Copy of the name table, indexed by id.
  static std::vector<Name> names();

  /// Cheap on/off switch probed first on every write path (one relaxed
  /// load). The A/B rows of bench_streaming/bench_watch toggle this.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // ---- Write path (lock-free, wait-free) ----------------------------------
  void span(std::uint16_t name, std::uint64_t start_ns, std::uint64_t end_ns,
            std::int64_t a0 = 0, std::int64_t a1 = 0);
  void instant(std::uint16_t name, std::int64_t a0 = 0, std::int64_t a1 = 0);
  /// Records an anomaly — into `capture` too when given, whether or not
  /// the ring is enabled — and, when a dump sink is installed (and the
  /// dump gap allows), synchronously snapshots the window and hands the
  /// Chrome JSON to the sink. Returns the anomaly's ticket for explicit
  /// dumps.
  std::uint64_t anomaly(std::uint16_t name, std::int64_t a0 = 0,
                        std::int64_t a1 = 0, Tracer* capture = nullptr);

  // ---- Snapshot / dump (rare; locks only the name table) ------------------
  /// All valid records within the last 30 s, oldest first.
  std::vector<Record> snapshot() const;
  /// Chrome trace_event JSON of the current window. When `trigger_ticket`
  /// matches a record's ticket, that record is marked with a "trigger": 1
  /// arg (and anomalies always carry "anomaly": 1), so the triggering event
  /// is findable in chrome://tracing / Perfetto.
  std::string dump_chrome(std::uint64_t trigger_ticket = kNoTrigger) const;

  static constexpr std::uint64_t kNoTrigger = ~std::uint64_t{0};

  /// Sink invoked on every anomaly (rate-limited by min_dump_gap_ns) with
  /// the dump and the anomaly's interned name. Replaces any previous sink;
  /// pass nullptr to disarm. The sink runs on the tripping thread — keep it
  /// quick (write a file, enqueue).
  using DumpSink =
      std::function<void(const std::string& chrome_json, std::string_view
                         anomaly_name)>;
  void set_dump_sink(DumpSink sink);

  /// Runtime control of the automatic-dump rate limit. The global()
  /// recorder is constructed with default Config before any code runs, so
  /// operators arming a sink on it tune the storm floor here (0 = dump on
  /// every anomaly).
  void set_min_dump_gap(std::uint64_t ns) {
    min_dump_gap_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t min_dump_gap() const {
    return min_dump_gap_ns_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::uint64_t recorded = 0;   // records written (all kinds)
    std::uint64_t anomalies = 0;  // anomaly records among them
    std::uint64_t dumps = 0;      // sink invocations
  };
  Stats stats() const;

 private:
  static_assert(sizeof(Record) % sizeof(std::uint64_t) == 0,
                "Record must pack into whole 64-bit words");
  static constexpr std::size_t kRecordWords =
      sizeof(Record) / sizeof(std::uint64_t);

  struct Slot {
    /// 0 = never written; odd = write in progress; even = 2*(ticket+1).
    std::atomic<std::uint64_t> seq{0};
    /// The Record payload as relaxed-atomic words: a reader racing a
    /// writer observes defined (possibly torn) values that the seq check
    /// then discards, instead of a plain-load/plain-store data race.
    std::array<std::atomic<std::uint64_t>, kRecordWords> words{};
  };
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> tickets{0};
    std::unique_ptr<Slot[]> slots;
  };

  /// Stamps the ticket into `rec` and publishes it in the calling thread's
  /// shard.
  void write(Record& rec);

  Config cfg_;
  std::size_t mask_;  // ring_capacity - 1 (power of two)
  std::array<Shard, kShards> shards_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<std::uint64_t> last_dump_ns_{0};
  std::atomic<std::uint64_t> min_dump_gap_ns_{0};  // seeded from cfg_

  mutable std::mutex sink_mu_;
  DumpSink sink_;
};

/// RAII span of an always-recorded site: one clock read at construction,
/// one record at scope exit, written to `rec` (when enabled) and to
/// `capture` (when non-null, opened at construction so nested spans parent
/// on it). Both args are recorded under the name's interned labels.
class FlightScope {
 public:
  FlightScope(FlightRecorder& rec, std::uint16_t name,
              Tracer* capture = nullptr);
  ~FlightScope() { close(); }

  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

  void args(std::int64_t a0, std::int64_t a1) {
    a0_ = a0;
    a1_ = a1;
  }
  /// Ends the span now (the destructor is then a no-op); returns its
  /// duration so a site can also feed a histogram from the same clock pair.
  std::uint64_t close();

 private:
  FlightRecorder& rec_;
  Tracer* capture_;
  std::uint64_t t0_;
  std::uint32_t id_ = 0;  // the capture's span id
  std::uint16_t name_;
  bool open_ = true;
  std::int64_t a0_ = 0, a1_ = 0;
};

}  // namespace hbct
