#include "poset/computation.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "obs/flight.h"
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
  auto it = var_ids_.find(name);
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
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "M(e) needs the whole computation; prefix GC discarded "
                  "part of it");
  if (out->size() != sz(num_procs())) *out = Cut(sz(num_procs()));
  // M(e)[j] counts the events f on j with not e -> f, that is with
  // vc(f)[i] < idx. Along j that entry never decreases, so they are a
  // prefix of j, found by binary search: O(n log |E|) and no reverse clock.
  for (ProcId j = 0; j < num_procs(); ++j) {
    if (j == i) {
      (*out)[sz(j)] = idx - 1;
      continue;
    }
    EventIndex lo = 0, hi = num_events(j);
    while (lo < hi) {
      const EventIndex mid = lo + (hi - lo + 1) / 2;
      if (vclock(j, mid)[sz(i)] < idx)
        lo = mid;
      else
        hi = mid - 1;
    }
    (*out)[sz(j)] = lo;
  }
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
  c.rv_.reshape(sz(a.nprocs));
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

void Computation::RvColumns::reshape(std::size_t n) {
  shape(std::min<std::size_t>(n, kRvBlock), (n + kRvBlock - 1) / kRvBlock);
}

void Computation::RvColumns::shape(std::size_t width, std::size_t nblocks) {
  stride = width;
  offset.clear();
  merge.clear();
  indexed = false;
  blocks = decltype(blocks)(nblocks);
  ready = std::vector<std::atomic<bool>>(nblocks);
  dirty.store(true, std::memory_order_release);
}

Computation::ReverseClocks Computation::reverse_clocks(
    const std::vector<ProcId>& columns, Tracer* trace) const {
  require_rv_blocks(&columns, trace);
  return ReverseClocks(&rv_);
}

Computation::ReverseClocks Computation::reverse_clocks(Tracer* trace) const {
  require_rv_blocks(nullptr, trace);
  return ReverseClocks(&rv_);
}

void Computation::require_rv_blocks(const std::vector<ProcId>* columns,
                                    Tracer* trace) const {
  HBCT_ASSERT_MSG(trimmed_events_ == 0,
                  "reverse clocks need the whole computation; prefix GC "
                  "discarded part of it");
  const auto for_each_block = [&](auto&& f) {
    if (columns == nullptr) {
      for (std::size_t b = 0; b < rv_.blocks.size(); ++b) f(b);
    } else {
      for (const ProcId j : *columns) {
        HBCT_DASSERT(j >= 0 && j < num_procs());
        f(sz(j) / kRvBlock);
      }
    }
  };
  bool missing = rv_.dirty.load(std::memory_order_acquire);
  if (!missing)
    for_each_block([&](std::size_t b) {
      missing = missing || !rv_.ready[b].load(std::memory_order_acquire);
    });
  if (!missing) return;

  // Double-checked: concurrent const readers may race to derive the same
  // blocks after a load or an online append.
  std::lock_guard<std::mutex> lk(rv_.mu);
  const std::size_t n = procs_.size();
  if (rv_.dirty.load(std::memory_order_relaxed)) {
    for (auto& r : rv_.ready) r.store(false, std::memory_order_relaxed);
    rv_.indexed = false;
    rv_.dirty.store(false, std::memory_order_release);
  }
  std::vector<std::size_t> todo;
  for_each_block([&](std::size_t b) {
    if (!rv_.ready[b].load(std::memory_order_relaxed) &&
        std::find(todo.begin(), todo.end(), b) == todo.end())
      todo.push_back(b);
  });
  if (todo.empty()) return;
  static const std::uint16_t kRvColumns =
      FlightRecorder::intern("poset.rv-columns", "blocks", "events");
  FlightScope span(FlightRecorder::global(), kRvColumns, trace);
  span.args(static_cast<std::int64_t>(todo.size()), total_events_);

  if (!rv_.indexed) {
    // The index: flat slot offsets, and for each send the slot of the
    // receive that follows it in the linearization. Message ids are dense
    // below num_messages() for every appended computation; a mapped file
    // may carry others, which the overflow map matches.
    rv_.offset.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
      rv_.offset[i + 1] =
          rv_.offset[i] + sz(num_events(static_cast<ProcId>(i)));
    rv_.merge.assign(rv_.offset[n], -1);
    std::vector<std::int64_t> recv_slot(static_cast<std::size_t>(num_messages_),
                                        -1);
    std::unordered_map<MsgId, std::int64_t> overflow;
    for (auto it = linearization_.rbegin(); it != linearization_.rend(); ++it) {
      const EventView ev = event_view(*it);
      const auto s = static_cast<std::int64_t>(rv_.slot(it->proc, it->index));
      const bool dense = ev.msg >= 0 && ev.msg < num_messages_;
      if (ev.kind == EventKind::kSend) {
        // An unmatched send (receive outside this computation) merges
        // nothing.
        if (dense) {
          rv_.merge[sz(s)] = recv_slot[sz(ev.msg)];
        } else {
          const auto r = overflow.find(ev.msg);
          if (r != overflow.end()) rv_.merge[sz(s)] = r->second;
        }
      } else if (ev.kind == EventKind::kReceive) {
        // Of two receives of one id the later one wins, as in a map that
        // keeps its first entry of the backward pass.
        if (!dense)
          overflow.emplace(ev.msg, s);
        else if (recv_slot[sz(ev.msg)] < 0)
          recv_slot[sz(ev.msg)] = s;
      }
    }
    rv_.indexed = true;
  }

  const std::size_t w = rv_.stride;
  for (const std::size_t b : todo) {
    // Process the linearization backwards: a row starts as a copy of the
    // same-process successor's row (zeros at a process's last event), and
    // a send merges the row of its receive. Both were written before the
    // row that reads them: the successor follows on its process, and the
    // receive follows the send in every linearization.
    auto& block = rv_.blocks[b];
    block.resize(rv_.offset[n] * w);
    std::int32_t* const base = block.data();
    const std::size_t first = b * kRvBlock;
    for (auto it = linearization_.rbegin(); it != linearization_.rend(); ++it) {
      const std::size_t s = rv_.slot(it->proc, it->index);
      const EventIndex count = num_events(it->proc);
      std::int32_t* out = base + s * w;
      if (it->index < count)
        std::copy_n(out + w, w, out);
      else
        std::fill_n(out, w, 0);
      if (const std::int64_t m = rv_.merge[s]; m >= 0) {
        const std::int32_t* in = base + static_cast<std::size_t>(m) * w;
        for (std::size_t c = 0; c < w; ++c) out[c] = std::max(out[c], in[c]);
      }
      // rvc(e)[proc(e)] counts e and its successors on its own process.
      const std::size_t p = sz(it->proc);
      if (p >= first && p < first + w) out[p - first] = count - it->index + 1;
    }
    rv_.ready[b].store(true, std::memory_order_release);
  }
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
  // a process; every reverse-clock entry agrees with M(e), which is searched
  // from the forward clocks (so rvc(e)[proc(e)] counts the suffix).
  const ReverseClocks rv = reverse_clocks();
  for (ProcId i = 0; i < num_procs(); ++i) {
    for (EventIndex k = 1; k <= num_events(i); ++k) {
      HBCT_ASSERT(vclock(i, k)[sz(i)] == k);
      if (k > 1) HBCT_ASSERT(vclock(i, k - 1).before(vclock(i, k)));
      const Cut m = meet_irreducible_of(i, k);
      for (ProcId j = 0; j < num_procs(); ++j)
        HBCT_ASSERT(rv.at(i, k, j) == num_events(j) - m[sz(j)]);
      // J(e) and M(e) must be consistent cuts.
      HBCT_ASSERT(is_consistent(join_irreducible_of(i, k)));
      HBCT_ASSERT(is_consistent(m));
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
