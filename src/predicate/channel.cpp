#include "predicate/channel.h"

#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

namespace {

/// Incremental in-transit count for one channel: caches the sender's send
/// count and the receiver's receive count via the prefix-counter reads
/// (sends_up_to / recvs_up_to), which are safe on transiently inconsistent
/// cuts where in_transit() itself is not.
class ChannelBoundCursor final : public EvalCursor {
 public:
  ChannelBoundCursor(const Computation& c, const Cut& g, ProcId from,
                     ProcId to, std::int32_t k, bool le)
      : EvalCursor(c, g),
        from_(from),
        to_(to),
        k_(k),
        le_(le),
        sent_(c.sends_up_to(from, to, g[static_cast<std::size_t>(from)])),
        rcvd_(c.recvs_up_to(to, from, g[static_cast<std::size_t>(to)])) {}

  void on_update(ProcId i, EventIndex) override {
    const EventIndex pos = cut()[static_cast<std::size_t>(i)];
    if (i == from_) sent_ = comp().sends_up_to(from_, to_, pos);
    if (i == to_) rcvd_ = comp().recvs_up_to(to_, from_, pos);
  }

  bool value() override {
    const std::int32_t t = sent_ - rcvd_;
    return le_ ? t <= k_ : t >= k_;
  }

 private:
  ProcId from_, to_;
  std::int32_t k_;
  bool le_;
  std::int32_t sent_, rcvd_;
};

/// Incremental total in-transit count across all active channels. A step on
/// process i adjusts i's send contribution on every channel i sends on and
/// i's receive contribution on every channel i receives on: O(n) per step
/// instead of the O(n^2) full rescan of in_transit_total().
class AllChannelsEmptyCursor final : public EvalCursor {
 public:
  AllChannelsEmptyCursor(const Computation& c, const Cut& g)
      : EvalCursor(c, g) {
    const ProcId n = c.num_procs();
    for (ProcId i = 0; i < n; ++i) {
      const EventIndex pos = g[static_cast<std::size_t>(i)];
      for (ProcId j = 0; j < n; ++j) {
        if (i == j) continue;
        if (c.channel_active(i, j)) total_ += c.sends_up_to(i, j, pos);
        if (c.channel_active(j, i)) total_ -= c.recvs_up_to(i, j, pos);
      }
    }
  }

  void on_update(ProcId i, EventIndex old_pos) override {
    const Computation& c = comp();
    const EventIndex pos = cut()[static_cast<std::size_t>(i)];
    const ProcId n = c.num_procs();
    for (ProcId j = 0; j < n; ++j) {
      if (i == j) continue;
      if (c.channel_active(i, j))
        total_ += c.sends_up_to(i, j, pos) - c.sends_up_to(i, j, old_pos);
      if (c.channel_active(j, i))
        total_ -= c.recvs_up_to(i, j, pos) - c.recvs_up_to(i, j, old_pos);
    }
  }

  bool value() override { return total_ == 0; }

 private:
  std::int64_t total_ = 0;
};

class ChannelBoundLe final : public Predicate {
 public:
  ChannelBoundLe(ProcId from, ProcId to, std::int32_t k)
      : from_(from), to_(to), k_(k) {}

  bool eval(const Computation& c, const Cut& g) const override {
    return c.in_transit(from_, to_, g) <= k_;
  }
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassRegular);
  }
  std::string describe() const override {
    return strfmt("intransit(%d->%d) <= %d", from_, to_, k_);
  }
  std::vector<ProcId> support(const Computation&) const override {
    return make_support({from_, to_});
  }
  // Too many messages in flight: with the receiver frozen the count can only
  // grow, so the receiver is the forbidden process.
  ProcId forbidden(const Computation&, const Cut&) const override {
    return to_;
  }
  // Dually, with the sender frozen while retreating, receives can only be
  // undone, so the count can only grow: the sender must retreat.
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return from_;
  }
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }
  PredicatePtr negate() const override {
    return channel_bound_ge(from_, to_, k_ + 1);
  }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<ChannelBoundCursor>(c, g, from_, to_, k_,
                                                /*le=*/true);
  }

 private:
  ProcId from_, to_;
  std::int32_t k_;
};

class ChannelBoundGe final : public Predicate {
 public:
  ChannelBoundGe(ProcId from, ProcId to, std::int32_t k)
      : from_(from), to_(to), k_(k) {}

  bool eval(const Computation& c, const Cut& g) const override {
    return c.in_transit(from_, to_, g) >= k_;
  }
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassRegular);
  }
  std::string describe() const override {
    return strfmt("intransit(%d->%d) >= %d", from_, to_, k_);
  }
  std::vector<ProcId> support(const Computation&) const override {
    return make_support({from_, to_});
  }
  ProcId forbidden(const Computation&, const Cut&) const override {
    return from_;
  }
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return to_;
  }
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }
  PredicatePtr negate() const override {
    return channel_bound_le(from_, to_, k_ - 1);
  }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<ChannelBoundCursor>(c, g, from_, to_, k_,
                                                /*le=*/false);
  }

 private:
  ProcId from_, to_;
  std::int32_t k_;
};

class AllChannelsEmpty final : public Predicate {
 public:
  bool eval(const Computation& c, const Cut& g) const override {
    return c.in_transit_total(g) == 0;
  }
  ClassSet classes(const Computation&) const override {
    // Intersection of the regular per-channel predicates; a sublattice.
    return close_classes(kClassRegular);
  }
  std::string describe() const override { return "channels_empty"; }

  ProcId forbidden(const Computation& c, const Cut& g) const override {
    // Some channel (i -> j) has traffic; j must receive it.
    for (ProcId i = 0; i < c.num_procs(); ++i)
      for (ProcId j = 0; j < c.num_procs(); ++j)
        if (i != j && c.in_transit(i, j, g) > 0) return j;
    HBCT_ASSERT_MSG(false, "forbidden() called on satisfied predicate");
  }

  ProcId forbidden_down(const Computation& c, const Cut& g) const override {
    for (ProcId i = 0; i < c.num_procs(); ++i)
      for (ProcId j = 0; j < c.num_procs(); ++j)
        if (i != j && c.in_transit(i, j, g) > 0) return i;
    HBCT_ASSERT_MSG(false, "forbidden_down() called on satisfied predicate");
  }

  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }

  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<AllChannelsEmptyCursor>(c, g);
  }

 private:
};

}  // namespace

PredicatePtr channel_bound_le(ProcId from, ProcId to, std::int32_t k) {
  HBCT_ASSERT(k >= -1);  // k == -1 is the constant-false bound
  return std::make_shared<ChannelBoundLe>(from, to, k);
}

PredicatePtr channel_bound_ge(ProcId from, ProcId to, std::int32_t k) {
  return std::make_shared<ChannelBoundGe>(from, to, k);
}

PredicatePtr channel_empty(ProcId from, ProcId to) {
  return channel_bound_le(from, to, 0);
}

PredicatePtr all_channels_empty() {
  return std::make_shared<AllChannelsEmpty>();
}

}  // namespace hbct
