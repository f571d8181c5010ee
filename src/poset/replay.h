// Replaying a finished computation, event by event, into an append sink.
//
// A sink is anything with the appender's feed surface (var, set_initial,
// internal, send, receive, write by VarId): OnlineAppender, OnlineMonitor.
// Computation::materialize() and prefix() are this replay into an
// OnlineAppender; tests and benches use it to stream a reference
// computation into a monitor. The two phases are separate so a monitor can
// arm its watches after the initial state is known and before any event.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "poset/computation.h"
#include "util/assert.h"

namespace hbct {

/// Registers every variable of `src` with `sink`, in `src`'s order, and
/// sets its non-zero initial values.
template <class Sink>
void replay_initial(const Computation& src, Sink& sink) {
  for (VarId v = 0; v < src.num_vars(); ++v) {
    const VarId sv = sink.var(src.var_name(v));
    for (ProcId i = 0; i < src.num_procs(); ++i)
      if (const std::int64_t init = src.value_at(i, v, 0); init != 0)
        sink.set_initial(i, sv, init);
  }
}

/// Appends the events of `order` to `sink`, each with its writes and, when
/// the sink takes labels, its label. `order` must be a causally ordered,
/// prefix-closed list of `src`'s events: its linearization, the
/// linearization restricted to a consistent cut, or any other observation.
/// Source message ids map to the ids the sink's send() returns.
/// `on_event(eid)` runs after each event.
template <class Sink, class OnEvent>
void replay_events(const Computation& src, std::span<const EventId> order,
                   Sink& sink, OnEvent&& on_event) {
  std::vector<VarId> vars;  // src VarId -> sink VarId
  vars.reserve(static_cast<std::size_t>(src.num_vars()));
  for (VarId v = 0; v < src.num_vars(); ++v)
    vars.push_back(sink.var(src.var_name(v)));

  std::unordered_map<MsgId, MsgId> in_flight;  // src msg id -> sink msg id
  for (const EventId& eid : order) {
    const EventView ev = src.event_view(eid);
    switch (ev.kind) {
      case EventKind::kInternal:
        sink.internal(eid.proc);
        break;
      case EventKind::kSend:
        in_flight.emplace(ev.msg, sink.send(eid.proc, ev.peer));
        break;
      case EventKind::kReceive: {
        auto it = in_flight.find(ev.msg);
        HBCT_ASSERT_MSG(it != in_flight.end(),
                        "replay order delivers a message before its send");
        sink.receive(eid.proc, it->second);
        in_flight.erase(it);
        break;
      }
    }
    for (std::size_t k = 0; k < ev.num_writes(); ++k) {
      const Assignment a = ev.write_at(k);
      sink.write(eid.proc, vars[static_cast<std::size_t>(a.var)], a.value);
    }
    if constexpr (requires { sink.label(eid.proc, ev.label); })
      if (!ev.label.empty()) sink.label(eid.proc, ev.label);
    on_event(eid);
  }
}

/// Replays all of `src`: its initial state, then its linearization.
template <class Sink>
void replay(const Computation& src, Sink& sink) {
  replay_initial(src, sink);
  replay_events(src, src.linearization(), sink, [](EventId) {});
}

}  // namespace hbct
