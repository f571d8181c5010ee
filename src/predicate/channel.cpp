#include "predicate/channel.h"

#include <limits>
#include <utility>

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
                     ProcId to, std::int64_t k, bool le)
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
  std::int64_t k_;
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

/// in_transit(from, to) <= k (le) or >= k. The count is a difference of
/// two local counters, so either bound is regular: with one process frozen
/// the count moves one way only, which names the forbidden process in both
/// directions.
class ChannelBound final : public Predicate {
 public:
  ChannelBound(ProcId from, ProcId to, std::int64_t k, bool le)
      : from_(from), to_(to), k_(k), le_(le) {}

  bool eval(const Computation& c, const Cut& g) const override {
    const std::int64_t t = c.in_transit(from_, to_, g);
    return le_ ? t <= k_ : t >= k_;
  }
  ClassSet classes(const Computation&) const override {
    return close_classes(kClassRegular);
  }
  std::string describe() const override {
    return strfmt("intransit(%d->%d) %s %lld", from_, to_, le_ ? "<=" : ">=",
                  static_cast<long long>(k_));
  }
  std::vector<ProcId> support(const Computation&) const override {
    return make_support({from_, to_});
  }
  // Too many messages in flight (<=): with the receiver frozen the count can
  // only grow, so the receiver must advance; retreating with the sender
  // frozen only undoes receives, so the sender must retreat. Too few (>=)
  // swaps the two roles.
  ProcId forbidden(const Computation&, const Cut&) const override {
    return le_ ? to_ : from_;
  }
  ProcId forbidden_down(const Computation&, const Cut&) const override {
    return le_ ? from_ : to_;
  }
  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }
  // ¬(t <= k) is t >= k + 1 and ¬(t >= k) is t <= k - 1. The count fits in
  // 32 bits, so a bound saturated at the int64 limits keeps its meaning.
  PredicatePtr negate() const override {
    using Lim = std::numeric_limits<std::int64_t>;
    return le_ ? channel_bound_ge(from_, to_, k_ == Lim::max() ? k_ : k_ + 1)
               : channel_bound_le(from_, to_, k_ == Lim::min() ? k_ : k_ - 1);
  }
  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<ChannelBoundCursor>(c, g, from_, to_, k_, le_);
  }

 private:
  ProcId from_, to_;
  std::int64_t k_;
  bool le_;
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

  // Some channel (i -> j) has traffic: j must receive it, or i un-send it.
  ProcId forbidden(const Computation& c, const Cut& g) const override {
    return busy_channel(c, g).second;
  }
  ProcId forbidden_down(const Computation& c, const Cut& g) const override {
    return busy_channel(c, g).first;
  }

  bool has_forbidden() const override { return true; }
  bool has_forbidden_down() const override { return true; }

  EvalCursorPtr make_cursor(const Computation& c, const Cut& g) const override {
    return std::make_unique<AllChannelsEmptyCursor>(c, g);
  }

 private:
  static std::pair<ProcId, ProcId> busy_channel(const Computation& c,
                                                const Cut& g) {
    for (ProcId i = 0; i < c.num_procs(); ++i)
      for (ProcId j = 0; j < c.num_procs(); ++j)
        if (i != j && c.in_transit(i, j, g) > 0) return {i, j};
    HBCT_ASSERT_MSG(false, "forbidden oracle called on satisfied predicate");
  }
};

}  // namespace

PredicatePtr channel_bound_le(ProcId from, ProcId to, std::int64_t k) {
  return std::make_shared<ChannelBound>(from, to, k, /*le=*/true);
}

PredicatePtr channel_bound_ge(ProcId from, ProcId to, std::int64_t k) {
  return std::make_shared<ChannelBound>(from, to, k, /*le=*/false);
}

PredicatePtr channel_empty(ProcId from, ProcId to) {
  return channel_bound_le(from, to, 0);
}

PredicatePtr all_channels_empty() {
  return std::make_shared<AllChannelsEmpty>();
}

}  // namespace hbct
