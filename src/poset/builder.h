// Construction of Computations by hand.
//
// A Computation is built by appending its events: ComputationBuilder is the
// online appender under the name in-process construction reads best with.
// It enforces the two structural rules of the happened-before model at
// append time (events of one process arrive in program order; a receive
// follows its matching send) and records the append order as the
// computation's canonical linearization (one valid observation).
// std::move(b).build() hands over the finished computation.
#pragma once

#include "online/appender.h"

namespace hbct {

using ComputationBuilder = OnlineAppender;

}  // namespace hbct
