// Computation: an immutable happened-before model (E, ->) of one execution
// of a distributed program, plus the cut geometry every detection algorithm
// in this library is built on.
//
// One writer builds it: OnlineAppender (online/appender.h, also spelled
// ComputationBuilder) appends one event at a time and keeps vector clocks,
// per-variable state timelines and channel prefix counters valid after each
// event. Reverse vector clocks are derived on demand, in column blocks of
// kRvBlock processes: a reader asks for the columns it reads
// (reverse_clocks), and each missing block costs one backward pass over the
// linearization; a single M(e) needs none (meet_irreducible_of). Readers
// see a read-only structure whose tables make the predicate detectors'
// inner loops O(n) or O(1) per step, matching the cost model used in the
// paper's complexity claims.
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
#include <memory>
#include <mutex>
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

class Tracer;

class Computation {
  struct RvColumns;  // the reverse-clock column store (private, below)

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

  // ---- Reverse clocks ------------------------------------------------------

  /// Processes per reverse-clock column block.
  static constexpr std::int32_t kRvBlock = 8;

  /// Read access to reverse clocks: rvc(e)[j] = |{f on process j : e -> f
  /// or e == f}|, the vector clock of e in the computation with all edges
  /// reversed. They yield the meet-irreducible cuts M(e) = E \ up-set(e):
  /// M(e)[j] = num_events(j) - rvc(e)[j]. A reader reads only the columns
  /// it was obtained for (reverse_clocks). It is valid while the
  /// computation is alive and neither grown nor copied over.
  class ReverseClocks {
   public:
    /// rvc((i, idx))[j]; j must lie in a requested column block.
    std::int32_t at(ProcId i, EventIndex idx, ProcId j) const {
      const auto sj = static_cast<std::size_t>(j);
      HBCT_DASSERT(cols_->ready[sj / kRvBlock].load(std::memory_order_relaxed));
      return cols_->blocks[sj / kRvBlock]
                          [cols_->slot(i, idx) * cols_->stride + sj % kRvBlock];
    }

   private:
    friend class Computation;
    explicit ReverseClocks(const RvColumns* cols) : cols_(cols) {}
    const RvColumns* cols_;
  };

  /// Makes the column blocks holding `columns` resident and returns their
  /// reader. Each missing block is derived by one backward pass over the
  /// linearization (a `poset.rv-columns` span, into `trace` too when
  /// given); the first request also builds the once-per-computation index
  /// of event offsets and message receives. Reverse clocks depend on the
  /// whole suffix, so an online append invalidates every block, and a
  /// computation whose prefix was collected has none (asserts). Safe
  /// between concurrent readers, not against a concurrent append.
  ReverseClocks reverse_clocks(const std::vector<ProcId>& columns,
                               Tracer* trace = nullptr) const;
  /// Every column.
  ReverseClocks reverse_clocks(Tracer* trace = nullptr) const;

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
  /// lattice elements. One M(e) is searched from forward clocks, O(n log
  /// |E|), without deriving reverse clocks; a sweep over every M(e)
  /// projected on a few processes reads reverse_clocks instead. Needs the
  /// whole computation (asserts after prefix GC).
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

  /// Derives the missing column blocks of `columns` (every block when
  /// null); see reverse_clocks.
  void require_rv_blocks(const std::vector<ProcId>* columns,
                         Tracer* trace) const;

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

  /// std::allocator whose value-initialization is default-initialization,
  /// so resize() of an int32 table skips the zero-fill.
  template <class T>
  struct NoInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
      using other = NoInitAllocator<U>;
    };
    NoInitAllocator() = default;
    template <class U>
    NoInitAllocator(const NoInitAllocator<U>&) noexcept {}
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };

  /// Reverse-clock column store. Column j of every event's reverse clock
  /// lives in block j / kRvBlock, at blocks[b][slot * stride + j %
  /// kRvBlock], where an event's flat slot numbers the events of process 0,
  /// then process 1, ... (offset[i] + idx - 1). stride is min(n, kRvBlock),
  /// so the last block of a wider computation carries padding columns.
  /// A block is derived by one backward pass over the linearization:
  /// rvc(e)[j] = max(rvc(succ e)[j], rvc(receive of e)[j]), and e's own
  /// process sets its entry. The pass reads `merge`, built with the first
  /// request: the slot of each send's receive.
  ///
  /// Each block has its own ready flag, set with release after the block
  /// is written; `dirty` (one store per online append) retires them all.
  /// Readers take `mu` only when a block they need is missing
  /// (double-checked), so concurrent const readers share one Computation
  /// race-free. A copy starts empty and derives its own blocks; the ready
  /// flags (one per block) and the stride are fixed at reshape().
  struct RvColumns {
    std::size_t stride = 0;
    std::vector<std::size_t> offset;  // n + 1 flat event offsets
    std::vector<std::int64_t> merge;  // per slot: a send's receive, or -1
    bool indexed = false;             // offset and merge are current
    /// Growing a block leaves its new entries unwritten: the pass writes
    /// every one.
    std::vector<std::vector<std::int32_t, NoInitAllocator<std::int32_t>>>
        blocks;
    std::vector<std::atomic<bool>> ready;
    std::atomic<bool> dirty{true};
    std::mutex mu;

    std::size_t slot(ProcId i, EventIndex idx) const {
      return offset[static_cast<std::size_t>(i)] +
             static_cast<std::size_t>(idx - 1);
    }
    /// Sizes the block and flag tables for n processes, all blocks missing.
    void reshape(std::size_t n);

    RvColumns() = default;
    // Copies read only what shape() fixed, so copying a computation that
    // other threads are deriving blocks of is race-free.
    RvColumns(const RvColumns& o) { shape(o.stride, o.blocks.size()); }
    RvColumns(RvColumns&& o) noexcept
        : stride(o.stride),
          offset(std::move(o.offset)),
          merge(std::move(o.merge)),
          indexed(o.indexed),
          blocks(std::move(o.blocks)),
          ready(std::move(o.ready)),
          dirty(o.dirty.load(std::memory_order_acquire)) {}
    RvColumns& operator=(const RvColumns& o) {
      if (this != &o) shape(o.stride, o.blocks.size());
      return *this;
    }
    RvColumns& operator=(RvColumns&& o) noexcept {
      stride = o.stride;
      offset = std::move(o.offset);
      merge = std::move(o.merge);
      indexed = o.indexed;
      blocks = std::move(o.blocks);
      ready = std::move(o.ready);
      dirty.store(o.dirty.load(std::memory_order_acquire),
                  std::memory_order_release);
      return *this;
    }

   private:
    void shape(std::size_t width, std::size_t nblocks);
  };

  /// View-mode backing; non-null puts the accessors on their arena
  /// branches. procs_ is still resized to nprocs (with empty inner vectors)
  /// so num_procs() and the geometry code shares one shape; vclocks_,
  /// values_ and the channel tables stay empty.
  MappedArenaPtr arena_;

  std::vector<std::vector<Event>> procs_;
  /// Per-process flat clock arena, stride num_procs: vclocks_[i] stores the
  /// Fidge-Mattern clocks of process i's events contiguously, so vclock()
  /// is a pointer offset and leq/merge run over contiguous int32 rows.
  std::vector<std::vector<std::int32_t>> vclocks_;
  mutable RvColumns rv_;
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
  /// values_[i][v][pos] = value of var v on proc i after pos events; pos 0
  /// holds the initial value.
  std::vector<std::vector<std::vector<std::int64_t>>> values_;

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
