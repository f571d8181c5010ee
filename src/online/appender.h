// Construction of a Computation, one event at a time.
//
// OnlineAppender is the only writer of an owning Computation. Every table a
// detector reads (forward vector clocks, variable timelines, channel prefix
// counters, the linearization) is kept valid after each event, in O(n)
// amortized per event, so a finished trace is just a stream that has ended:
// ComputationBuilder (poset/builder.h) is this class, build() hands over the
// result, and the trace readers, Computation::materialize()/prefix(), the
// simulator, the corpus and the generators all append through it. Reverse
// vector clocks depend on the future: build() derives them for the finished
// computation, and while a stream still grows Computation recomputes them
// lazily when an offline-style query needs them. The paper closes with
// "develop efficient on-line versions of our algorithms" as future work;
// the online monitor (online/monitor.h) watches this growing model.
//
// Two feed surfaces share one implementation:
//   - the unchecked methods (internal/send/receive/...) assert on misuse,
//     for trusted in-process callers;
//   - the try_* methods return a typed AppendError instead, so a stream fed
//     from an untrusted source (the trace readers, the serve layer's wire
//     decoder) can reject a malformed append without corrupting the
//     computation or crashing the host.
//
// Prefix garbage collection: collect_prefix(cut) discards the storage of
// every event at or below a consistent cut — payloads, vector-clock rows,
// variable-timeline entries and channel prefix counters — keeping resident
// memory proportional to the open frontier rather than the stream length.
// Indices stay absolute; the underlying Computation records the trim offset
// per process (Computation::trimmed).
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "poset/computation.h"

namespace hbct {

/// Typed result of a guarded append. kNone means the event was applied.
enum class AppendError : std::uint8_t {
  kNone = 0,
  kBadProc,             // ProcId outside [0, num_procs)
  kSelfMessage,         // send(i, i): self-messages are not part of the model
  kUnknownMsg,          // receive() of a MsgId never returned by send()
  kMsgAlreadyReceived,  // receive() of an already-delivered MsgId
  kWrongReceiver,       // receive() on a process other than the send's target
  kBadVar,              // VarId never registered
  kInitialAfterEvent,   // set_initial() after the first event
  kNoEventToWrite,      // write() on a process that has no events yet
  kFinished,            // feed after finish() (monitor / serve layer)
  kEmptyVarName,        // var(""): the text form cannot name the variable
};

const char* to_string(AppendError e);

class OnlineAppender {
 public:
  explicit OnlineAppender(std::int32_t num_procs);

  /// Registers a variable (any time; a mid-run registration backfills an
  /// all-zero history). A registered name returns its existing id. The
  /// name must be non-empty.
  VarId var(std::string_view name);

  /// Initial values may only be set before the first event.
  void set_initial(ProcId i, VarId v, std::int64_t value);

  EventId internal(ProcId i);
  MsgId send(ProcId from, ProcId to);
  EventId receive(ProcId to, MsgId m);

  /// Applies `var = value` to the most recently appended event of proc i.
  void write(ProcId i, VarId v, std::int64_t value);
  void write(ProcId i, std::string_view name, std::int64_t value);

  /// Attaches a label to the most recently appended event of proc i.
  OnlineAppender& label(ProcId i, std::string_view text);

  // ---- Guarded appends ----------------------------------------------------
  // Same semantics as the methods above, but every misuse the unchecked API
  // asserts on is returned as an AppendError and leaves the computation
  // untouched. `out` (when non-null) receives the result on success.

  AppendError try_var(std::string_view name, VarId* out);
  AppendError try_set_initial(ProcId i, VarId v, std::int64_t value);
  AppendError try_internal(ProcId i, EventId* out = nullptr);
  AppendError try_send(ProcId from, ProcId to, MsgId* out = nullptr);
  AppendError try_receive(ProcId to, MsgId m, EventId* out = nullptr);
  AppendError try_write(ProcId i, VarId v, std::int64_t value);

  // ---- Prefix garbage collection ------------------------------------------

  /// Discards the storage of every event at or below `keep_from` (a
  /// consistent cut, componentwise >= any previous collection's cut).
  /// In-flight send clocks whose arena rows fall below the cut are
  /// materialized first, so later receives still merge correctly. Returns
  /// the number of events reclaimed by this call.
  std::int64_t collect_prefix(const Cut& keep_from);

  /// Events still resident (= total appended - reclaimed).
  std::int64_t resident_events() const { return c_.resident_events(); }
  EventIndex trimmed(ProcId i) const { return c_.trimmed(i); }

  /// The growing happened-before model. Valid after every append.
  const Computation& computation() const { return c_; }

  /// The cut of everything observed so far (the current frontier).
  Cut current_cut() const { return c_.final_cut(); }

  /// Hands over the finished computation. The appender is consumed. A
  /// finished computation no longer grows, so build() releases the growth
  /// slack of its per-event tables and derives its reverse clocks once,
  /// instead of on the first M(e) query (a collected prefix has none).
  Computation build() &&;

 private:
  /// Appends `ev` to process i, writing its clock row in place: the
  /// previous row of i, merged with `send_row` (the matching send's clock)
  /// on a receive.
  EventId append(ProcId i, Event ev, const std::int32_t* send_row);

  /// Bookkeeping for a sent-but-not-yet-received message. The map holds
  /// only in-flight messages (receives erase their entry), so message
  /// bookkeeping is O(open channels), not O(stream length).
  struct PendingMsg {
    ProcId src = -1;
    ProcId dst = -1;
    EventIndex send_index = 0;
    /// Owned copy of the send's clock, filled by collect_prefix when the
    /// arena row it would be read from is about to be reclaimed.
    VClock clock;
    bool clock_valid = false;
  };

  Computation c_;
  std::unordered_map<MsgId, PendingMsg> in_flight_;
  MsgId next_msg_ = 0;
};

}  // namespace hbct
