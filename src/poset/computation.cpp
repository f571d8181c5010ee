#include "poset/computation.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "online/appender.h"
#include "poset/replay.h"
#include "util/assert.h"

namespace hbct {

namespace {
std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
}  // namespace

EventView Computation::event_view(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(i >= 0 && i < num_procs());
  HBCT_DASSERT(idx >= trimmed(i) + 1 && idx <= num_events(i));
  if (arena_)
    return EventView(arena_->events[sz(i)][sz(idx - 1)], arena_->writes_pool,
                     arena_->labels_pool);
  return EventView(procs_[sz(i)][sz(idx - 1 - trimmed(i))]);
}

VClockView Computation::vclock(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(idx >= vclock_base(i) && idx <= num_events(i));
  const std::size_t n = procs_.size();
  if (arena_) return VClockView(arena_->vclocks[sz(i)] + sz(idx - 1) * n, n);
  return VClockView(vclocks_[sz(i)].data() + sz(idx - vclock_base(i)) * n, n);
}

VClockView Computation::reverse_vclock(ProcId i, EventIndex idx) const {
  HBCT_DASSERT(idx >= 1 && idx <= num_events(i));
  HBCT_DASSERT(trimmed_events_ == 0);
  if (rvcache_.dirty.load(std::memory_order_acquire)) {
    // Double-checked: concurrent const readers (detections running on
    // several threads over one Computation) may race to refresh after load
    // or an online append. The mutex is global — refresh is rare and the
    // fast path above stays lock-free.
    static std::mutex mu;
    std::lock_guard<std::mutex> lk(mu);
    if (rvcache_.dirty.load(std::memory_order_relaxed)) compute_rvclocks();
  }
  const std::size_t n = procs_.size();
  return VClockView(rvcache_.clocks[sz(i)].data() + sz(idx - 1) * n, n);
}

bool Computation::happened_before(EventId e, EventId f) const {
  if (e.proc == f.proc) return e.index < f.index;
  // e -> f iff f's clock has seen at least e.index events of e.proc.
  return vclock(f)[sz(e.proc)] >= e.index;
}

bool Computation::concurrent(EventId e, EventId f) const {
  if (e.proc == f.proc) return false;
  return !happened_before(e, f) && !happened_before(f, e);
}

std::optional<VarId> Computation::var_id(std::string_view name) const {
  auto it = var_ids_.find(std::string(name));
  if (it == var_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Computation::var_name(VarId v) const {
  HBCT_ASSERT(v >= 0 && v < num_vars());
  return var_names_[sz(v)];
}

std::int64_t Computation::value_at(ProcId i, VarId v, EventIndex pos) const {
  HBCT_DASSERT(i >= 0 && i < num_procs());
  HBCT_DASSERT(v >= 0 && v < num_vars());
  HBCT_DASSERT(pos >= trimmed(i) && pos <= num_events(i));
  if (arena_) return arena_timeline(i, v)[sz(pos)];
  return values_[sz(i)][sz(v)][sz(pos - trimmed(i))];
}

std::int32_t Computation::in_transit(ProcId from, ProcId to, const Cut& g) const {
  HBCT_DASSERT(from >= 0 && from < num_procs());
  HBCT_DASSERT(to >= 0 && to < num_procs());
  if (!channel_active(from, to)) return 0;
  const std::int32_t sent = sends_up_to(from, to, g[sz(from)]);
  const std::int32_t rcvd = recvs_up_to(to, from, g[sz(to)]);
  HBCT_DASSERT(sent >= rcvd);
  return sent - rcvd;
}

std::int64_t Computation::in_transit_total(const Cut& g) const {
  std::int64_t t = 0;
  for (ProcId i = 0; i < num_procs(); ++i)
    for (ProcId j = 0; j < num_procs(); ++j)
      if (channel_active(i, j)) t += in_transit(i, j, g);
  return t;
}

Cut Computation::final_cut() const {
  Cut f(sz(num_procs()));
  for (ProcId i = 0; i < num_procs(); ++i) f[sz(i)] = num_events(i);
  return f;
}

bool Computation::is_consistent(const Cut& g) const {
  HBCT_ASSERT(g.size() == sz(num_procs()));
  for (ProcId i = 0; i < num_procs(); ++i) {
    const std::int32_t gi = g[sz(i)];
    if (gi < 0 || gi > num_events(i)) return false;
    if (gi == 0) continue;
    // The last included event of process i must have its causal past in G.
    const VClockView vc = vclock(i, gi);
    for (ProcId j = 0; j < num_procs(); ++j)
      if (vc[sz(j)] > g[sz(j)]) return false;
  }
  return true;
}

bool Computation::enabled(const Cut& g, ProcId i) const {
  const std::int32_t gi = g[sz(i)];
  if (gi >= num_events(i)) return false;
  const VClockView vc = vclock(i, gi + 1);
  for (ProcId j = 0; j < num_procs(); ++j) {
    if (j == i) continue;
    if (vc[sz(j)] > g[sz(j)]) return false;
  }
  return true;
}

bool Computation::removable(const Cut& g, ProcId i) const {
  const std::int32_t gi = g[sz(i)];
  if (gi <= 0) return false;
  // The event e = (i, gi) is maximal in G iff no other process's last
  // included event has seen it.
  for (ProcId j = 0; j < num_procs(); ++j) {
    if (j == i) continue;
    const std::int32_t gj = g[sz(j)];
    if (gj == 0) continue;
    if (vclock(j, gj)[sz(i)] >= gi) return false;
  }
  return true;
}

std::vector<ProcId> Computation::enabled_procs(const Cut& g) const {
  std::vector<ProcId> out;
  out.reserve(sz(num_procs()));
  enabled_procs(g, &out);
  return out;
}

std::vector<ProcId> Computation::frontier_procs(const Cut& g) const {
  std::vector<ProcId> out;
  out.reserve(sz(num_procs()));
  frontier_procs(g, &out);
  return out;
}

void Computation::enabled_procs(const Cut& g, std::vector<ProcId>* out) const {
  out->clear();
  for (ProcId i = 0; i < num_procs(); ++i)
    if (enabled(g, i)) out->push_back(i);
}

void Computation::frontier_procs(const Cut& g, std::vector<ProcId>* out) const {
  out->clear();
  for (ProcId i = 0; i < num_procs(); ++i)
    if (removable(g, i)) out->push_back(i);
}

Cut Computation::advance(const Cut& g, ProcId i) const {
  HBCT_DASSERT(enabled(g, i));
  Cut h = g;
  ++h[sz(i)];
  return h;
}

Cut Computation::retreat(const Cut& g, ProcId i) const {
  HBCT_DASSERT(removable(g, i));
  Cut h = g;
  --h[sz(i)];
  return h;
}

Cut Computation::join_irreducible_of(ProcId i, EventIndex idx) const {
  return Cut(vclock(i, idx).raw());
}

Cut Computation::meet_irreducible_of(ProcId i, EventIndex idx) const {
  Cut m(sz(num_procs()));
  meet_irreducible_of(i, idx, &m);
  return m;
}

void Computation::join_irreducible_of(ProcId i, EventIndex idx,
                                      Cut* out) const {
  if (out->size() != sz(num_procs())) *out = Cut(sz(num_procs()));
  const VClockView vc = vclock(i, idx);
  for (ProcId j = 0; j < num_procs(); ++j) (*out)[sz(j)] = vc[sz(j)];
}

void Computation::meet_irreducible_of(ProcId i, EventIndex idx,
                                      Cut* out) const {
  if (out->size() != sz(num_procs())) *out = Cut(sz(num_procs()));
  const VClockView rvc = reverse_vclock(i, idx);
  for (ProcId j = 0; j < num_procs(); ++j)
    (*out)[sz(j)] = num_events(j) - rvc[sz(j)];
}

std::optional<EventId> Computation::find_label(std::string_view label) const {
  // Only resident events are searchable; reclaimed prefixes lost their
  // payloads (and with them their labels).
  for (ProcId i = 0; i < num_procs(); ++i)
    for (EventIndex k = trimmed(i) + 1; k <= num_events(i); ++k)
      if (event_view(i, k).label == label) return EventId{i, k};
  return std::nullopt;
}

Computation Computation::from_arena(MappedArenaPtr arena,
                                    std::vector<std::string> var_names) {
  Computation c;
  c.arena_ = std::move(arena);
  const MappedArena& a = *c.arena_;
  HBCT_ASSERT(static_cast<std::int32_t>(var_names.size()) == a.nvars);
  c.procs_.resize(sz(a.nprocs));  // empty inners: shape only
  c.total_events_ = a.total_events;
  c.num_messages_ = a.num_messages;
  c.var_names_ = std::move(var_names);
  for (VarId v = 0; v < static_cast<VarId>(c.var_names_.size()); ++v)
    c.var_ids_.emplace(c.var_names_[sz(v)], v);
  // The linearization section has EventId's exact layout; one bulk copy
  // keeps linearization() returning a plain vector in both modes.
  static_assert(sizeof(EventId) == 8 && std::is_trivially_copyable_v<EventId>);
  c.linearization_.resize(static_cast<std::size_t>(a.total_events));
  if (a.total_events > 0)
    std::memcpy(c.linearization_.data(), a.linearization,
                sizeof(EventId) * static_cast<std::size_t>(a.total_events));
  return c;
}

Computation Computation::materialize() const {
  if (!is_view()) return *this;
  return prefix(final_cut());
}

Computation Computation::prefix(const Cut& k) const {
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "prefix of a GC'd computation is not supported");
  HBCT_ASSERT_MSG(is_consistent(k), "prefix requires a consistent cut");
  // The linearization restricted to K is still a valid observation of the
  // prefix.
  std::vector<EventId> order;
  for (const EventId& e : linearization_)
    if (e.index <= k[sz(e.proc)]) order.push_back(e);
  OnlineAppender app(num_procs());
  replay_initial(*this, app);
  replay_events(*this, order, app, [](EventId) {});
  return std::move(app).build();
}

void Computation::compute_rvclocks() const {
  // Reverse vector clocks: process the linearization backwards; a send
  // merges the reverse clock of its matching receive. The arenas are
  // pre-sized so recv_rclock can hold views into them (the same-process
  // successor row is always written before its predecessor reads it).
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "reverse clocks need the whole computation; prefix GC "
                  "discarded part of it");
  const std::size_t n = procs_.size();
  rvcache_.clocks.assign(n, {});
  for (std::size_t i = 0; i < n; ++i)
    rvcache_.clocks[i].assign(
        sz(num_events(static_cast<ProcId>(i))) * n, 0);
  auto row = [&](ProcId i, EventIndex idx) {
    return rvcache_.clocks[sz(i)].data() + sz(idx - 1) * n;
  };
  std::unordered_map<MsgId, VClockView> recv_rclock;
  VClock rvc(n);
  for (auto it = linearization_.rbegin(); it != linearization_.rend(); ++it) {
    const EventId& eid = *it;
    const EventView ev = event_view(eid);
    // rvc(e)[j] counts events f on j with e <= f; start from the successor
    // on the same process (if any).
    if (eid.index < num_events(eid.proc)) {
      const std::int32_t* succ = row(eid.proc, eid.index + 1);
      for (std::size_t j = 0; j < n; ++j) rvc[j] = succ[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) rvc[j] = 0;
    }
    if (ev.kind == EventKind::kSend) {
      auto rit = recv_rclock.find(ev.msg);
      if (rit != recv_rclock.end()) rvc.merge(rit->second);
      // An unmatched send (receive outside this computation) merges nothing.
    }
    rvc[sz(eid.proc)] = num_events(eid.proc) - eid.index + 1;
    std::copy(rvc.raw().begin(), rvc.raw().end(), row(eid.proc, eid.index));
    if (ev.kind == EventKind::kReceive)
      recv_rclock.emplace(ev.msg, VClockView(row(eid.proc, eid.index), n));
  }
  rvcache_.dirty.store(false, std::memory_order_release);
}

void Computation::validate() const {
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "validate needs the whole computation");
  const std::size_t n = procs_.size();
  // Linearization covers every event exactly once and respects both process
  // order and send-before-receive.
  std::vector<EventIndex> seen(n, 0);
  std::unordered_map<MsgId, bool> sent;
  for (const EventId& eid : linearization_) {
    HBCT_ASSERT(eid.proc >= 0 && sz(eid.proc) < n);
    HBCT_ASSERT(eid.index == seen[sz(eid.proc)] + 1);
    seen[sz(eid.proc)] = eid.index;
    const EventView ev = event_view(eid);
    if (ev.kind == EventKind::kSend) {
      HBCT_ASSERT(ev.msg != kNoMsg);
      HBCT_ASSERT(!sent.count(ev.msg));
      sent[ev.msg] = true;
      HBCT_ASSERT(ev.peer >= 0 && sz(ev.peer) < n);
    } else if (ev.kind == EventKind::kReceive) {
      HBCT_ASSERT(sent.count(ev.msg));
      HBCT_ASSERT(ev.peer >= 0 && sz(ev.peer) < n);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    HBCT_ASSERT(seen[i] == num_events(static_cast<ProcId>(i)));

  // Clock sanity: vc(e)[proc(e)] == index(e); clocks strictly increase along
  // a process; rvc(e)[proc(e)] counts the suffix.
  for (ProcId i = 0; i < num_procs(); ++i) {
    for (EventIndex k = 1; k <= num_events(i); ++k) {
      HBCT_ASSERT(vclock(i, k)[sz(i)] == k);
      HBCT_ASSERT(reverse_vclock(i, k)[sz(i)] == num_events(i) - k + 1);
      if (k > 1) HBCT_ASSERT(vclock(i, k - 1).before(vclock(i, k)));
      // J(e) and M(e) must be consistent cuts.
      HBCT_ASSERT(is_consistent(join_irreducible_of(i, k)));
      HBCT_ASSERT(is_consistent(meet_irreducible_of(i, k)));
    }
  }
  HBCT_ASSERT(is_consistent(initial_cut()));
  HBCT_ASSERT(is_consistent(final_cut()));
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kInternal: return "internal";
    case EventKind::kSend: return "send";
    case EventKind::kReceive: return "recv";
  }
  return "?";
}

}  // namespace hbct
