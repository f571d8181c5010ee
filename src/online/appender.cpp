#include "online/appender.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

const char* to_string(AppendError e) {
  switch (e) {
    case AppendError::kNone: return "ok";
    case AppendError::kBadProc: return "process id out of range";
    case AppendError::kSelfMessage: return "self-messages are not part of the model";
    case AppendError::kUnknownMsg: return "unknown message";
    case AppendError::kMsgAlreadyReceived: return "message received twice";
    case AppendError::kWrongReceiver: return "message delivered to wrong process";
    case AppendError::kBadVar: return "variable id out of range";
    case AppendError::kInitialAfterEvent: return "initial values must precede the first event";
    case AppendError::kNoEventToWrite: return "no event to annotate";
    case AppendError::kFinished: return "stream already finished";
    case AppendError::kEmptyVarName: return "empty variable name";
  }
  return "?";
}

OnlineAppender::OnlineAppender(std::int32_t num_procs) {
  HBCT_ASSERT(num_procs > 0);
  const std::size_t n = sz(num_procs);
  c_.procs_.resize(n);
  c_.vclocks_.resize(n);
  c_.initial_.resize(n);
  c_.values_.resize(n);
  c_.sends_to_.assign(n, std::vector<std::vector<std::int32_t>>(n));
  c_.recvs_from_.assign(n, std::vector<std::vector<std::int32_t>>(n));
  c_.rvcache_.dirty.store(true, std::memory_order_release);
}

VarId OnlineAppender::var(std::string_view name) {
  VarId id = 0;
  const AppendError e = try_var(name, &id);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
  return id;
}

AppendError OnlineAppender::try_var(std::string_view name, VarId* out) {
  if (name.empty()) return AppendError::kEmptyVarName;
  auto it = c_.var_ids_.find(name);
  if (it != c_.var_ids_.end()) {
    *out = it->second;
    return AppendError::kNone;
  }
  const VarId id = static_cast<VarId>(c_.var_names_.size());
  c_.var_names_.emplace_back(name);
  c_.var_ids_.emplace(std::string(name), id);
  for (ProcId i = 0; i < c_.num_procs(); ++i) {
    c_.initial_[sz(i)].resize(c_.var_names_.size(), 0);
    // Backfill a constant-zero history up to the current position (only
    // resident positions are stored when a prefix was collected; the
    // discarded prefix was all-zero for a just-registered variable anyway).
    c_.values_[sz(i)].emplace_back(c_.procs_[sz(i)].size() + 1, 0);
  }
  *out = id;
  return AppendError::kNone;
}

AppendError OnlineAppender::try_set_initial(ProcId i, VarId v,
                                            std::int64_t value) {
  if (i < 0 || i >= c_.num_procs()) return AppendError::kBadProc;
  if (v < 0 || sz(v) >= c_.var_names_.size()) return AppendError::kBadVar;
  if (c_.total_events_ != 0) return AppendError::kInitialAfterEvent;
  c_.initial_[sz(i)][sz(v)] = value;
  c_.values_[sz(i)][sz(v)][0] = value;
  return AppendError::kNone;
}

void OnlineAppender::set_initial(ProcId i, VarId v, std::int64_t value) {
  const AppendError e = try_set_initial(i, v, value);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
}

EventId OnlineAppender::append(ProcId i, Event ev,
                               const std::int32_t* send_row) {
  HBCT_ASSERT(i >= 0 && i < c_.num_procs());
  const std::size_t n = c_.procs_.size();
  auto& list = c_.procs_[sz(i)];
  const EventIndex idx =
      c_.trimmed(i) + static_cast<EventIndex>(list.size()) + 1;

  // Forward vector clock, written in place as a new arena row seeded from
  // the previous row of process i (the boundary row of a collected prefix
  // counts: it is the clock of the newest reclaimed event). A receive's
  // send row lives in another process's arena, so growing this one leaves
  // it valid.
  auto& arena = c_.vclocks_[sz(i)];
  const std::size_t at = arena.size();
  arena.resize(at + n);
  std::int32_t* row = arena.data() + at;
  if (at != 0) std::copy_n(row - n, n, row);
  if (send_row)
    for (std::size_t j = 0; j < n; ++j) row[j] = std::max(row[j], send_row[j]);
  row[sz(i)] = idx;

  // Channel prefix counters: every existing table of process i grows by
  // one; the affected channel's tail is bumped below.
  for (std::size_t j = 0; j < n; ++j) {
    auto& st = c_.sends_to_[sz(i)][j];
    if (!st.empty()) st.push_back(st.back());
    auto& rt = c_.recvs_from_[sz(i)][j];
    if (!rt.empty()) rt.push_back(rt.back());
  }
  if (ev.kind == EventKind::kSend) {
    auto& st = c_.sends_to_[sz(i)][sz(ev.peer)];
    if (st.empty()) st.assign(list.size() + 2, 0);
    ++st.back();
    ++c_.num_messages_;
  } else if (ev.kind == EventKind::kReceive) {
    auto& rt = c_.recvs_from_[sz(i)][sz(ev.peer)];
    if (rt.empty()) rt.assign(list.size() + 2, 0);
    ++rt.back();
  }

  // Variable timelines carry the previous value forward.
  for (auto& timeline : c_.values_[sz(i)]) timeline.push_back(timeline.back());

  list.push_back(std::move(ev));
  const EventId id{i, idx};
  c_.linearization_.push_back(id);
  ++c_.total_events_;
  c_.rvcache_.dirty.store(true, std::memory_order_release);
  return id;
}

AppendError OnlineAppender::try_internal(ProcId i, EventId* out) {
  if (i < 0 || i >= c_.num_procs()) return AppendError::kBadProc;
  const EventId id = append(i, Event{}, nullptr);
  if (out) *out = id;
  return AppendError::kNone;
}

EventId OnlineAppender::internal(ProcId i) {
  EventId id;
  const AppendError e = try_internal(i, &id);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
  return id;
}

AppendError OnlineAppender::try_send(ProcId from, ProcId to, MsgId* out) {
  if (from < 0 || from >= c_.num_procs() || to < 0 || to >= c_.num_procs())
    return AppendError::kBadProc;
  if (from == to) return AppendError::kSelfMessage;
  const MsgId m = next_msg_++;
  Event ev;
  ev.kind = EventKind::kSend;
  ev.peer = to;
  ev.msg = m;
  const EventId id = append(from, std::move(ev), nullptr);
  in_flight_.emplace(m, PendingMsg{from, to, id.index, VClock(), false});
  if (out) *out = m;
  return AppendError::kNone;
}

MsgId OnlineAppender::send(ProcId from, ProcId to) {
  MsgId m = kNoMsg;
  const AppendError e = try_send(from, to, &m);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
  return m;
}

AppendError OnlineAppender::try_receive(ProcId to, MsgId m, EventId* out) {
  if (to < 0 || to >= c_.num_procs()) return AppendError::kBadProc;
  if (m < 0 || m >= next_msg_) return AppendError::kUnknownMsg;
  auto it = in_flight_.find(m);
  // A valid id no longer in flight was delivered already.
  if (it == in_flight_.end()) return AppendError::kMsgAlreadyReceived;
  if (it->second.dst != to) return AppendError::kWrongReceiver;
  Event ev;
  ev.kind = EventKind::kReceive;
  ev.peer = it->second.src;
  ev.msg = m;
  // The send's clock row, or the owned copy collect_prefix made when it
  // reclaimed that row.
  const PendingMsg& pm = it->second;
  const EventId id = append(
      to, std::move(ev),
      pm.clock_valid ? pm.clock.raw().data()
                     : c_.vclock(pm.src, pm.send_index).data());
  in_flight_.erase(it);
  if (out) *out = id;
  return AppendError::kNone;
}

EventId OnlineAppender::receive(ProcId to, MsgId m) {
  EventId id;
  const AppendError e = try_receive(to, m, &id);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
  return id;
}

AppendError OnlineAppender::try_write(ProcId i, VarId v, std::int64_t value) {
  if (i < 0 || i >= c_.num_procs()) return AppendError::kBadProc;
  if (v < 0 || sz(v) >= c_.var_names_.size()) return AppendError::kBadVar;
  auto& list = c_.procs_[sz(i)];
  if (list.empty()) return AppendError::kNoEventToWrite;
  list.back().writes.push_back(Assignment{v, value});
  c_.values_[sz(i)][sz(v)].back() = value;
  return AppendError::kNone;
}

void OnlineAppender::write(ProcId i, VarId v, std::int64_t value) {
  const AppendError e = try_write(i, v, value);
  HBCT_ASSERT_MSG(e == AppendError::kNone, to_string(e));
}

void OnlineAppender::write(ProcId i, std::string_view name,
                           std::int64_t value) {
  write(i, var(name), value);
}

OnlineAppender& OnlineAppender::label(ProcId i, std::string_view text) {
  HBCT_ASSERT(i >= 0 && i < c_.num_procs());
  auto& list = c_.procs_[sz(i)];
  HBCT_ASSERT_MSG(!list.empty(), to_string(AppendError::kNoEventToWrite));
  list.back().label = std::string(text);
  return *this;
}

Computation OnlineAppender::build() && {
  for (auto& rows : c_.vclocks_) rows.shrink_to_fit();
  for (auto& per_var : c_.values_)
    for (auto& timeline : per_var) timeline.shrink_to_fit();
  for (auto* tables : {&c_.sends_to_, &c_.recvs_from_})
    for (auto& per_peer : *tables)
      for (auto& counts : per_peer) counts.shrink_to_fit();
  if (c_.trimmed_events() == 0) c_.compute_rvclocks();
  return std::move(c_);
}

std::int64_t OnlineAppender::collect_prefix(const Cut& keep_from) {
  const std::size_t n = c_.procs_.size();
  HBCT_ASSERT(keep_from.size() == n);
  if (c_.trim_.empty()) c_.trim_.assign(n, 0);
  std::int64_t reclaimed = 0;
  for (ProcId i = 0; i < c_.num_procs(); ++i) {
    HBCT_ASSERT_MSG(keep_from[sz(i)] >= c_.trim_[sz(i)] &&
                        keep_from[sz(i)] <= c_.num_events(i),
                    "collect_prefix cut out of range");
    reclaimed += keep_from[sz(i)] - c_.trim_[sz(i)];
  }
  if (reclaimed == 0) return 0;
  HBCT_ASSERT_MSG(c_.is_consistent(keep_from),
                  "collect_prefix requires a consistent cut");

  // In-flight sends whose arena row falls below the cut keep an owned copy
  // of their clock for the eventual receive's merge.
  for (auto& [m, pm] : in_flight_) {
    (void)m;
    if (pm.clock_valid) continue;
    if (pm.send_index < keep_from[sz(pm.src)]) {
      pm.clock = VClock(c_.vclock(pm.src, pm.send_index));
      pm.clock_valid = true;
    }
  }

  for (ProcId pi = 0; pi < c_.num_procs(); ++pi) {
    const std::size_t i = sz(pi);
    const EventIndex old_t = c_.trim_[i];
    const EventIndex new_t = keep_from[i];
    const EventIndex d = new_t - old_t;
    if (d == 0) continue;
    auto& list = c_.procs_[i];
    list.erase(list.begin(), list.begin() + d);
    // Clock rows: keep one boundary row (the clock of event new_t) so
    // consistency tests at the trim cut and next-append seeding still work.
    const EventIndex old_base = old_t == 0 ? 1 : old_t;
    auto& arena = c_.vclocks_[i];
    arena.erase(arena.begin(),
                arena.begin() + static_cast<std::ptrdiff_t>(
                                    sz(new_t - old_base) * n));
    for (auto& tl : c_.values_[i]) tl.erase(tl.begin(), tl.begin() + d);
    for (std::size_t j = 0; j < n; ++j) {
      auto& st = c_.sends_to_[i][j];
      if (!st.empty()) st.erase(st.begin(), st.begin() + d);
      auto& rt = c_.recvs_from_[i][j];
      if (!rt.empty()) rt.erase(rt.begin(), rt.begin() + d);
    }
    c_.trim_[i] = new_t;
  }

  auto& lin = c_.linearization_;
  lin.erase(std::remove_if(lin.begin(), lin.end(),
                           [&](const EventId& e) {
                             return e.index <= c_.trim_[sz(e.proc)];
                           }),
            lin.end());
  c_.trimmed_events_ += reclaimed;
  c_.rvcache_.dirty.store(true, std::memory_order_release);
  return reclaimed;
}

}  // namespace hbct
