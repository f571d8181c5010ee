// Computation: an immutable happened-before model (E, ->) of one execution
// of a distributed program, plus the cut geometry every detection algorithm
// in this library is built on.
//
// One writer builds it: OnlineAppender (online/appender.h, also spelled
// ComputationBuilder) appends one event at a time and keeps vector clocks,
// per-variable state timelines and channel prefix counters valid after each
// event; reverse vector clocks are derived by build() (lazily, on first
// use, while the computation still grows). Readers see a read-only
// structure whose tables make the predicate detectors' inner loops O(n) or
// O(1) per step, matching the cost model used in the paper's complexity
// claims.
//
// Two storage modes share one interface:
//   owning  built by appending: per-event payloads plus flat clock and
//           timeline arenas.
//   view    zero-copy over a MappedArena (poset/arena.h): every accessor
//           reads straight from the mapped hbct-mtrace sections. Loading is
//           O(procs + vars) allocations; event payloads are packed records,
//           read through event_view() in both modes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "poset/arena.h"
#include "poset/cut.h"
#include "poset/event.h"
#include "poset/vclock.h"
#include "util/assert.h"

namespace hbct {

class Computation {
 public:
  Computation() = default;

  // ---- Shape -------------------------------------------------------------

  std::int32_t num_procs() const { return static_cast<std::int32_t>(procs_.size()); }
  EventIndex num_events(ProcId i) const {
    if (arena_) return arena_->counts[static_cast<std::size_t>(i)];
    return trimmed(i) +
           static_cast<EventIndex>(procs_[static_cast<std::size_t>(i)].size());
  }

  /// True when this computation borrows from a MappedArena (mtrace load)
  /// instead of owning its event storage. View computations are frozen:
  /// nothing appends to them.
  bool is_view() const { return arena_ != nullptr; }

  /// Wraps a fully-validated arena (the mtrace loader's product) without
  /// copying event data. `var_names` carries the VarNames section in
  /// registration order; its size must equal arena->nvars.
  static Computation from_arena(MappedArenaPtr arena,
                                std::vector<std::string> var_names);

  /// Deep-copies a view computation into owning storage by replaying it
  /// through an OnlineAppender (prefix(final_cut())). Owning computations
  /// return a plain copy.
  Computation materialize() const;
  /// |E| — total number of events across all processes (including events
  /// whose storage was reclaimed by prefix GC; indices stay absolute).
  std::int64_t total_events() const { return total_events_; }
  std::int64_t num_messages() const { return num_messages_; }

  // ---- Prefix garbage collection (OnlineAppender::collect_prefix) ----------

  /// Events of process i whose storage was reclaimed: positions 1..trimmed(i)
  /// are no longer resident (payloads, clock rows, timeline entries and
  /// channel counters below the trim cut are gone). All public indices stay
  /// absolute — accessors subtract the offset internally — but reading a
  /// reclaimed position is an error. 0 unless collect_prefix ran.
  EventIndex trimmed(ProcId i) const {
    return trim_.empty() ? 0 : trim_[static_cast<std::size_t>(i)];
  }
  /// Total events reclaimed across all processes.
  std::int64_t trimmed_events() const { return trimmed_events_; }
  /// Events currently resident in memory.
  std::int64_t resident_events() const { return total_events_ - trimmed_events_; }

  /// Event payload view (`idx` is 1-based), in both storage modes; valid
  /// while the computation (and its arena) is alive.
  EventView event_view(ProcId i, EventIndex idx) const;
  EventView event_view(EventId e) const { return event_view(e.proc, e.index); }

  /// Fidge-Mattern clock of the event (1-based idx). The view points into
  /// the computation's flat clock arena: valid while the computation is
  /// alive and not grown by an OnlineAppender.
  VClockView vclock(ProcId i, EventIndex idx) const;
  VClockView vclock(EventId e) const { return vclock(e.proc, e.index); }

  /// Reverse clock: rvc(e)[j] = |{f on process j : e -> f or e == f}|.
  /// This is the vector clock of `e` in the computation with all edges
  /// reversed; it yields the meet-irreducible cuts M(e) = E \ up-set(e).
  /// Reverse clocks depend on the whole suffix of the computation, so
  /// online appends (OnlineAppender) invalidate them; they are recomputed
  /// lazily on first use (not thread-safe against concurrent appends).
  VClockView reverse_vclock(ProcId i, EventIndex idx) const;

  // ---- Order between events ----------------------------------------------

  /// Lamport's happened-before: e -> f.
  bool happened_before(EventId e, EventId f) const;
  /// Neither e -> f nor f -> e (and e != f).
  bool concurrent(EventId e, EventId f) const;

  // ---- Variables -----------------------------------------------------------

  /// Id of a registered variable name, or nullopt.
  std::optional<VarId> var_id(std::string_view name) const;
  std::int32_t num_vars() const { return static_cast<std::int32_t>(var_names_.size()); }
  const std::string& var_name(VarId v) const;

  /// Value of variable v on process i after the first `pos` events of i
  /// (pos = 0 gives the initial value).
  std::int64_t value_at(ProcId i, VarId v, EventIndex pos) const;

  /// The precomputed timeline of variable v on process i:
  /// timeline[pos] = value after pos events, for every resident position
  /// (trimmed(i) <= pos <= num_events(i)). Lets hot loops hoist the
  /// per-call bounds checks and indirections out of their inner loop.
  /// Positions are absolute on both sides of a prefix GC: the view carries
  /// the trim offset. The view is invalidated by OnlineAppender growth and
  /// by collect_prefix, exactly as the underlying storage is, so bind it
  /// for one pass and re-fetch it afterwards.
  TimelineView value_timeline(ProcId i, VarId v) const {
    if (arena_)
      return TimelineView(arena_timeline(i, v),
                          static_cast<std::size_t>(num_events(i)) + 1);
    const auto& tl =
        values_[static_cast<std::size_t>(i)][static_cast<std::size_t>(v)];
    return TimelineView(tl.data(), tl.size(),
                        static_cast<std::size_t>(trimmed(i)));
  }

  /// Convenience: value of variable v on process i in global state G.
  std::int64_t value_in(ProcId i, VarId v, const Cut& g) const {
    return value_at(i, v, g[static_cast<std::size_t>(i)]);
  }

  // ---- Channels ------------------------------------------------------------

  /// Number of messages sent from `from` to `to` that are in transit in G
  /// (sent within G, not yet received within G). G must be consistent.
  std::int32_t in_transit(ProcId from, ProcId to, const Cut& g) const;
  /// Total number of in-transit messages in G over all channels.
  std::int64_t in_transit_total(const Cut& g) const;
  bool all_channels_empty(const Cut& g) const { return in_transit_total(g) == 0; }

  /// True when any message was ever sent from `from` to `to`.
  bool channel_active(ProcId from, ProcId to) const {
    if (arena_) return arena_channel(arena_->sends, from, to) != nullptr;
    return !sends_to_[static_cast<std::size_t>(from)]
                     [static_cast<std::size_t>(to)]
                         .empty();
  }
  /// Messages sent from `from` to `to` among the first `pos` events of
  /// `from`. Unlike in_transit() this is a plain prefix-counter read with no
  /// consistency requirement, so incremental evaluators may call it on cuts
  /// that are transiently inconsistent mid-seek.
  std::int32_t sends_up_to(ProcId from, ProcId to, EventIndex pos) const {
    if (arena_) {
      const std::int32_t* t = arena_channel(arena_->sends, from, to);
      return t == nullptr ? 0 : t[static_cast<std::size_t>(pos)];
    }
    const auto& t = sends_to_[static_cast<std::size_t>(from)]
                             [static_cast<std::size_t>(to)];
    if (t.empty()) return 0;
    HBCT_DASSERT(pos >= trimmed(from));
    return t[static_cast<std::size_t>(pos - trimmed(from))];
  }
  /// Messages received at `to` from `from` among the first `pos` events of
  /// `to`.
  std::int32_t recvs_up_to(ProcId to, ProcId from, EventIndex pos) const {
    if (arena_) {
      const std::int32_t* t = arena_channel(arena_->recvs, to, from);
      return t == nullptr ? 0 : t[static_cast<std::size_t>(pos)];
    }
    const auto& t = recvs_from_[static_cast<std::size_t>(to)]
                               [static_cast<std::size_t>(from)];
    if (t.empty()) return 0;
    HBCT_DASSERT(pos >= trimmed(to));
    return t[static_cast<std::size_t>(pos - trimmed(to))];
  }

  // ---- Cut geometry --------------------------------------------------------

  Cut initial_cut() const { return Cut(static_cast<std::size_t>(num_procs())); }
  /// The lowest resident cut, trimmed(i) per process: the initial cut
  /// unless prefix GC reclaimed a prefix.
  Cut trim_cut() const {
    Cut g = initial_cut();
    for (ProcId i = 0; i < num_procs(); ++i)
      g[static_cast<std::size_t>(i)] = trimmed(i);
    return g;
  }
  Cut final_cut() const;

  /// Downward-closure (consistency) test, O(n^2).
  bool is_consistent(const Cut& g) const;

  /// True when the next event of process i can be appended to G keeping it
  /// consistent (its whole causal past is inside G). O(n).
  bool enabled(const Cut& g, ProcId i) const;
  /// The one dependency event (i, idx) can have that its predecessor on i
  /// lacks: for a receive, {sender, vc(e)[sender]} (the events of the sender
  /// it has seen); {-1, 0} for a send or internal event. A consistent cut
  /// holding (i, idx - 1) admits (i, idx) iff it holds that many events of
  /// the sender (CutPacker::enabled). O(1), and inline because the
  /// exhaustive walks call it once per successor probe.
  std::pair<ProcId, EventIndex> receive_dependency(ProcId i,
                                                   EventIndex idx) const {
    HBCT_DASSERT(idx >= trimmed(i) + 1 && idx <= num_events(i));
    const auto si = static_cast<std::size_t>(i);
    const auto n = procs_.size();
    ProcId sender = -1;
    const std::int32_t* row = nullptr;  // vclock(i, idx), read in place
    if (arena_) {
      const auto k = static_cast<std::size_t>(idx - 1);
      const PackedEvent& e = arena_->events[si][k];
      if (e.kind == static_cast<std::uint8_t>(EventKind::kReceive)) {
        sender = e.peer;
        row = arena_->vclocks[si] + k * n;
      }
    } else {
      const auto k = static_cast<std::size_t>(idx - 1 - trimmed(i));
      const Event& e = procs_[si][k];
      if (e.kind == EventKind::kReceive) {
        sender = e.peer;
        row = vclocks_[si].data() +
              static_cast<std::size_t>(idx - vclock_base(i)) * n;
      }
    }
    if (sender < 0) return {-1, 0};
    return {sender, row[static_cast<std::size_t>(sender)]};
  }
  /// True when the last included event of process i is maximal in G, i.e.
  /// removing it keeps G consistent. O(n).
  bool removable(const Cut& g, ProcId i) const;

  /// Processes whose next event is enabled in G (successors of G in the
  /// lattice are exactly the cuts advance(G, i) for these i).
  std::vector<ProcId> enabled_procs(const Cut& g) const;
  /// frontier(G): processes owning a maximal event of G (predecessors of G
  /// in the lattice are exactly retreat(G, i) for these i).
  std::vector<ProcId> frontier_procs(const Cut& g) const;

  /// Scratch-buffer overloads for the walk inner loops: refill `*out`
  /// (cleared first) instead of returning a fresh vector.
  void enabled_procs(const Cut& g, std::vector<ProcId>* out) const;
  void frontier_procs(const Cut& g, std::vector<ProcId>* out) const;

  Cut advance(const Cut& g, ProcId i) const;
  Cut retreat(const Cut& g, ProcId i) const;

  /// J(e): the least consistent cut containing event e (its vector clock
  /// read as a cut). The J(e) are exactly the join-irreducible lattice
  /// elements.
  Cut join_irreducible_of(ProcId i, EventIndex idx) const;
  /// M(e) = E \ up-set(e). The M(e) are exactly the meet-irreducible
  /// lattice elements.
  Cut meet_irreducible_of(ProcId i, EventIndex idx) const;

  /// Scratch overloads: write the irreducible cut into `*out` (resized to
  /// num_procs) without allocating when out already has the right size.
  void join_irreducible_of(ProcId i, EventIndex idx, Cut* out) const;
  void meet_irreducible_of(ProcId i, EventIndex idx, Cut* out) const;

  // ---- Whole-computation helpers -------------------------------------------

  /// One valid observation (topological order) of all events: the order in
  /// which they were appended.
  const std::vector<EventId>& linearization() const { return linearization_; }

  /// The sub-computation induced by the (consistent) prefix K: process i
  /// keeps its first K[i] events. Message sends whose receive falls outside
  /// K remain unmatched (the message stays in transit forever). Built by
  /// replaying the linearization restricted to K through an OnlineAppender,
  /// so message ids are renumbered in send order.
  Computation prefix(const Cut& k) const;

  /// Find an event by its label; nullopt if absent or ambiguous labels exist
  /// (first match wins).
  std::optional<EventId> find_label(std::string_view label) const;

  /// Exhaustive internal-invariant check (clock correctness, message
  /// matching, linearization validity). Aborts on violation; test helper.
  void validate() const;

 private:
  friend class OnlineAppender;

  void compute_rvclocks() const;  // (re)derives the reverse clocks

  /// Timeline row of variable v on process i inside the arena.
  const std::int64_t* arena_timeline(ProcId i, VarId v) const {
    return arena_->values[static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(arena_->nvars) +
                          static_cast<std::size_t>(v)];
  }
  /// Channel prefix-counter table of the arena's dense n*n pointer matrix;
  /// nullptr marks an inactive channel.
  const std::int32_t* arena_channel(const std::vector<const std::int32_t*>& m,
                                    ProcId owner, ProcId peer) const {
    return m[static_cast<std::size_t>(owner) *
                 static_cast<std::size_t>(num_procs()) +
             static_cast<std::size_t>(peer)];
  }

  /// Absolute index of the first retained vclock arena row of process i.
  /// After a trim one boundary row (the clock of event trimmed(i)) is kept
  /// so consistency tests and online clock seeding keep working at the trim
  /// cut itself.
  EventIndex vclock_base(ProcId i) const {
    const EventIndex t = trimmed(i);
    return t == 0 ? 1 : t;
  }

  /// Reverse-clock cache: recomputed lazily after OnlineAppender
  /// invalidates it, with double-checked locking so concurrent const readers
  /// (detections on several threads) can share one Computation race-free.
  /// A loaded mmap view starts dirty. The wrapper restores the
  /// copy/move semantics std::atomic deletes, keeping Computation a value
  /// type.
  struct RvClockCache {
    /// Per-process flat arena, stride num_procs: clocks[i] holds the
    /// reverse clocks of process i's events back to back.
    std::vector<std::vector<std::int32_t>> clocks;
    std::atomic<bool> dirty{true};

    RvClockCache() = default;
    RvClockCache(const RvClockCache& o)
        : clocks(o.clocks), dirty(o.dirty.load(std::memory_order_acquire)) {}
    RvClockCache(RvClockCache&& o) noexcept
        : clocks(std::move(o.clocks)),
          dirty(o.dirty.load(std::memory_order_acquire)) {}
    RvClockCache& operator=(const RvClockCache& o) {
      clocks = o.clocks;
      dirty.store(o.dirty.load(std::memory_order_acquire),
                  std::memory_order_release);
      return *this;
    }
    RvClockCache& operator=(RvClockCache&& o) noexcept {
      clocks = std::move(o.clocks);
      dirty.store(o.dirty.load(std::memory_order_acquire),
                  std::memory_order_release);
      return *this;
    }
  };

  /// View-mode backing; non-null puts the accessors on their arena
  /// branches. procs_ is still resized to nprocs (with empty inner vectors)
  /// so num_procs() and the geometry code shares one shape; vclocks_,
  /// values_, initial_ and the channel tables stay empty.
  MappedArenaPtr arena_;

  std::vector<std::vector<Event>> procs_;
  /// Per-process flat clock arena, stride num_procs: vclocks_[i] stores the
  /// Fidge-Mattern clocks of process i's events contiguously, so vclock()
  /// is a pointer offset and leq/merge run over contiguous int32 rows.
  std::vector<std::vector<std::int32_t>> vclocks_;
  mutable RvClockCache rvcache_;
  std::vector<EventId> linearization_;

  /// Transparent hashing lets var_id(string_view) look names up without
  /// building a std::string per call (predicate terms do it per eval).
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, VarId, NameHash, std::equal_to<>> var_ids_;
  /// values_[i][v][pos] = value of var v on proc i after pos events.
  std::vector<std::vector<std::vector<std::int64_t>>> values_;
  /// initial_[i][v]
  std::vector<std::vector<std::int64_t>> initial_;

  /// sends_to_[i][j][k] = #sends from i to j among the first k events of i.
  /// Empty inner vector = no traffic on that channel.
  std::vector<std::vector<std::vector<std::int32_t>>> sends_to_;
  /// recvs_from_[j][i][k] = #receives at j from i among the first k events.
  std::vector<std::vector<std::vector<std::int32_t>>> recvs_from_;

  std::int64_t total_events_ = 0;
  std::int64_t num_messages_ = 0;

  /// Per-process count of events reclaimed by prefix GC; empty (before the
  /// first collection) means nothing was ever trimmed.
  std::vector<EventIndex> trim_;
  std::int64_t trimmed_events_ = 0;
};

}  // namespace hbct
