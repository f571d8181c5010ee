// Monotonic channel predicates.
//
// The number of messages in transit on a channel (i -> j) at cut G is
// sends_i(G) - recvs_j(G), a difference of two counters that are
// non-decreasing over local time. Bounds on such differences form regular
// predicates (closed under both meet and join of cuts), giving them both
// Chase–Garg advancement oracles. Both bounds are one class
// (channel.cpp) with an upper/lower flag, so the oracles of a bound and
// of its dual are written once. "Channels are empty" is the q-part of the
// paper's Fig. 4 example.
#pragma once

#include "predicate/predicate.h"

namespace hbct {

/// in_transit(from, to) <= k. Regular. Advancing: the receiver must make
/// progress; retreating: the sender must un-send. Any k is legal: a
/// negative bound is never met.
PredicatePtr channel_bound_le(ProcId from, ProcId to, std::int64_t k);

/// in_transit(from, to) >= k. Regular. Advancing: the sender must make
/// progress; retreating: the receiver must un-receive. Any k is legal: a
/// bound at or below zero is always met.
PredicatePtr channel_bound_ge(ProcId from, ProcId to, std::int64_t k);

/// in_transit(from, to) == 0.
PredicatePtr channel_empty(ProcId from, ProcId to);

/// Every channel of the computation is empty. Regular.
PredicatePtr all_channels_empty();

}  // namespace hbct
