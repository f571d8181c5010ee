// Captures: the span tree of one traced detection.
//
// A Tracer is a scoped capture of flight records (obs/flight.h, DESIGN.md
// §10): the ring's record format, name table, clock, thread ids and Chrome
// writer, held in the capture's own unbounded buffer — a traced run never
// loses a span to ring wrap — plus parent links. It holds one span per
// detector phase and the anomalies raised while it is attached (budget
// trips), and feeds the run report (obs/report.h).
//
// Cost model: tracing is OFF by default. Capture-only sites hold a
// `Tracer*` that is nullptr when disabled, and ScopedSpan's constructor is
// a single pointer test in that case — no clock read, no allocation, no
// lock. When enabled, span begin/end take a mutex; spans are phase-grained
// (never per cut step), so contention is negligible next to the work.
//
// Threading: begin/end are safe from any thread. Parent linkage is tracked
// per thread (a thread-local stack of open spans): a span nests under the
// innermost span its own thread has open, or is a root.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.h"

namespace hbct {

class Histogram;
class MetricsRegistry;

class Tracer {
 public:
  using Record = FlightRecorder::Record;
  /// "No span": a root's parent, current() outside any span.
  static constexpr std::uint32_t npos = Record::kNoParent;

  /// Tests inject `clock` (monotone ns) to make golden-file comparisons of
  /// the exported JSON exact.
  explicit Tracer(std::uint64_t (*clock)() = &FlightRecorder::now_ns);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span now, nested under the calling thread's innermost open
  /// span; returns its id (its index in spans()). Span names are a fixed
  /// low-cardinality taxonomy (DESIGN.md §10): variable data goes into
  /// args, never into the name.
  std::uint32_t begin(std::string_view name);
  /// Opens a span at an explicit time (FlightScope's clock read).
  std::uint32_t begin_at(std::uint16_t name, std::uint64_t ts_ns);
  /// Closes the span (must be called on the thread that opened it — RAII
  /// via ScopedSpan/FlightScope guarantees this). Records the duration
  /// into the per-phase histogram `span.<name>.ns` of metrics().
  void end(std::uint32_t id) { end_at(id, clock_()); }
  void end_at(std::uint32_t id, std::uint64_t ts_ns);
  /// Sets the arg labeled `key` of a span (the label is claimed in the
  /// span name's entry on first use; a name carries at most two).
  void set_arg(std::uint32_t id, std::string_view key, std::int64_t value);
  /// Sets both args positionally, under the name's interned labels.
  void set_args(std::uint32_t id, std::int64_t a0, std::int64_t a1);

  /// Records an argument-less instant event now.
  void instant(std::string_view name);
  /// Appends an instant or anomaly record (FlightRecorder::anomaly's
  /// capture path).
  void add(const Record& r);

  /// Innermost span currently open on the calling thread, or npos.
  std::uint32_t current() const;

  /// Snapshots (copies, taken under the lock; safe while tracing). Record
  /// timestamps are absolute clock readings; epoch_ns() is the clock at
  /// construction, the zero of every export.
  std::vector<Record> spans() const;
  std::vector<Record> instants() const;
  std::size_t span_count() const;
  std::uint64_t epoch_ns() const { return epoch_; }

  /// Chrome trace_event JSON: spans (with "id"/"parent" args) then
  /// instants, timestamps relative to the epoch.
  std::string chrome_trace_json() const;

  /// Per-trace metrics: span-duration histograms plus whatever the
  /// instrumented code records against this run (queue gauges, absorbed
  /// DetectStats). Snapshot lands in the run report.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }

 private:
  std::uint64_t (*clock_)();
  std::uint64_t epoch_;
  std::unique_ptr<MetricsRegistry> metrics_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
  std::vector<Record> instants_;
  std::vector<Histogram*> span_ns_;  // indexed by name id
};

/// RAII span of a capture-only site. A null tracer makes every member a
/// no-op — the disabled-path cost at each instrumentation site is one
/// pointer test.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) id_ = t_->begin(name);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, std::int64_t value) {
    if (t_ != nullptr) t_->set_arg(id_, key, value);
  }
  std::uint32_t id() const { return t_ != nullptr ? id_ : Tracer::npos; }
  explicit operator bool() const { return t_ != nullptr; }

 private:
  Tracer* t_ = nullptr;
  std::uint32_t id_ = Tracer::npos;
};

}  // namespace hbct
