// The one step from a decoded trace record to an append sink. The text
// reader, the btrace reader and the serve session all apply records here,
// so the model's validity conditions (every receive has one earlier send,
// to the right process; variables are registered; initial values precede
// the first event) are checked once, with one message per fault.
//
// An Applier owns the wire variable index -> VarId table and the in-flight
// wire msg id -> MsgId map; a receive erases its id, so a delivered id may
// be reused for a fresh message. Sinks (OnlineAppender, OnlineMonitor) are
// fed through try_*; labels reach only sinks that take them.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "online/appender.h"
#include "poset/trace_io.h"

namespace hbct {
namespace wire {

class Applier {
 public:
  /// Applies one body record (kVar, kInit, kInternal, kSend, kRecv) to
  /// `sink`; `on_event()` runs after an event's append, before its writes.
  /// Returns false on a fault, with error() saying which; the record's
  /// event may already be appended then, so a faulted stream is dead.
  template <class Sink, class OnEvent>
  bool apply(Sink& sink, const Record& r, OnEvent&& on_event) {
    using Kind = Record::Kind;
    switch (r.kind) {
      case Kind::kVar: {
        VarId v = 0;
        if (!applied("var", sink.try_var(r.name, &v))) return false;
        vars_.push_back(v);
        return true;
      }
      case Kind::kInit:
        if (r.var >= vars_.size()) return fail("init of unregistered variable");
        return applied("init",
                       sink.try_set_initial(r.proc, vars_[r.var], r.value));
      case Kind::kInternal:
        if (!applied("internal", sink.try_internal(r.proc))) return false;
        break;
      case Kind::kSend: {
        if (in_flight_.count(r.msg) != 0)
          return fail("duplicate in-flight msg id");
        MsgId m = kNoMsg;
        if (!applied("send", sink.try_send(r.proc, r.peer, &m))) return false;
        in_flight_.emplace(r.msg, m);
        break;
      }
      case Kind::kRecv: {
        const auto it = in_flight_.find(r.msg);
        if (it == in_flight_.end())
          return fail(
              "recv before matching send: msg id unsent, or already "
              "delivered (a message is never received twice)");
        if (!applied("recv", sink.try_receive(r.proc, it->second)))
          return false;
        in_flight_.erase(it);
        break;
      }
      case Kind::kProcs:
      case Kind::kEnd:
        return fail("misplaced framing record");
    }
    on_event();
    for (const WireWrite& w : r.writes) {
      if (w.var >= vars_.size()) return fail("write to unregistered variable");
      if (!applied("write", sink.try_write(r.proc, vars_[w.var], w.value)))
        return false;
    }
    if constexpr (requires { sink.label(r.proc, r.label); })
      if (!r.label.empty()) sink.label(r.proc, r.label);
    return true;
  }

  const std::string& error() const { return err_; }

 private:
  bool fail(std::string msg) {
    err_ = std::move(msg);
    return false;
  }
  /// A rejected append reads "<record kind>: <AppendError text>".
  bool applied(const char* what, AppendError e) {
    return e == AppendError::kNone ||
           fail(std::string(what) + ": " + to_string(e));
  }

  std::vector<VarId> vars_;  // wire registration index -> sink VarId
  std::unordered_map<std::uint64_t, MsgId> in_flight_;  // wire id -> sink id
  std::string err_;
};

}  // namespace wire
}  // namespace hbct
