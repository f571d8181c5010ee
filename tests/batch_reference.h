// Batch reference for a computation's derived tables, for tests.
//
// OnlineAppender, the library's only writer of a Computation, keeps forward
// vector clocks, variable timelines and channel prefix counters valid one
// event at a time. This helper recomputes the same tables in batch from the
// event payloads, the initial values and the linearization alone — clocks
// in one pass over the linearization, timelines and counters per process —
// so the appender is checked against an independent algorithm rather than
// against itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "poset/computation.h"
#include "util/assert.h"

namespace hbct {

class BatchReference {
 public:
  explicit BatchReference(const Computation& c)
      : n_(static_cast<std::size_t>(c.num_procs())) {
    const std::size_t nv = static_cast<std::size_t>(c.num_vars());
    std::vector<std::vector<EventView>> events(n_);
    for (ProcId i = 0; i < c.num_procs(); ++i)
      for (EventIndex k = 1; k <= c.num_events(i); ++k)
        events[sz(i)].push_back(c.event_view(i, k));

    // Vector clocks, following the linearization: each receive merges the
    // clock of its matching send.
    vclocks_.assign(n_, {});
    for (std::size_t i = 0; i < n_; ++i)
      vclocks_[i].assign(events[i].size() * n_, 0);
    std::unordered_map<MsgId, EventId> send_of;
    for (const EventId& eid : c.linearization()) {
      const EventView& ev = events[sz(eid.proc)][sz(eid.index - 1)];
      std::int32_t* row = mutable_row(eid);
      if (eid.index > 1) std::copy_n(row - n_, n_, row);
      if (ev.kind == EventKind::kReceive) {
        auto it = send_of.find(ev.msg);
        HBCT_ASSERT_MSG(it != send_of.end(),
                        "receive precedes its send in the linearization");
        HBCT_ASSERT(it->second.proc == ev.peer);
        const std::int32_t* sent = mutable_row(it->second);
        for (std::size_t j = 0; j < n_; ++j)
          row[j] = std::max(row[j], sent[j]);
      }
      row[sz(eid.proc)] = eid.index;
      if (ev.kind == EventKind::kSend) {
        HBCT_ASSERT_MSG(send_of.emplace(ev.msg, eid).second,
                        "duplicate send msg id");
      }
    }

    // Variable timelines: values_[i][v][pos] = value after pos events.
    values_.assign(n_, {});
    for (std::size_t i = 0; i < n_; ++i) {
      values_[i].assign(nv, {});
      for (std::size_t v = 0; v < nv; ++v) {
        auto& tl = values_[i][v];
        tl.resize(events[i].size() + 1);
        tl[0] = c.value_at(static_cast<ProcId>(i), static_cast<VarId>(v), 0);
      }
      for (std::size_t k = 0; k < events[i].size(); ++k) {
        for (std::size_t v = 0; v < nv; ++v)
          values_[i][v][k + 1] = values_[i][v][k];
        for (std::size_t w = 0; w < events[i][k].num_writes(); ++w) {
          const Assignment a = events[i][k].write_at(w);
          values_[i][sz(a.var)][k + 1] = a.value;
        }
      }
    }

    // Channel prefix counters: sends_to_[i][j][k] = sends from i to j among
    // the first k events of i; recvs_from_ likewise for receives.
    sends_to_.assign(n_, std::vector<std::vector<std::int32_t>>(n_));
    recvs_from_.assign(n_, std::vector<std::vector<std::int32_t>>(n_));
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t j = 0; j < n_; ++j) {
        auto& st = sends_to_[i][j];
        auto& rt = recvs_from_[i][j];
        st.assign(events[i].size() + 1, 0);
        rt.assign(events[i].size() + 1, 0);
        for (std::size_t k = 0; k < events[i].size(); ++k) {
          const EventView& ev = events[i][k];
          const bool with_j = ev.peer == static_cast<ProcId>(j);
          st[k + 1] = st[k] + (ev.kind == EventKind::kSend && with_j ? 1 : 0);
          rt[k + 1] =
              rt[k] + (ev.kind == EventKind::kReceive && with_j ? 1 : 0);
        }
      }
  }

  VClockView vclock(EventId e) const {
    return VClockView(
        vclocks_[sz(e.proc)].data() + sz(e.index - 1) * n_, n_);
  }
  std::int64_t value_at(ProcId i, VarId v, EventIndex pos) const {
    return values_[sz(i)][sz(v)][sz(pos)];
  }
  std::int32_t sends_up_to(ProcId from, ProcId to, EventIndex pos) const {
    return sends_to_[sz(from)][sz(to)][sz(pos)];
  }
  std::int32_t recvs_up_to(ProcId to, ProcId from, EventIndex pos) const {
    return recvs_from_[sz(to)][sz(from)][sz(pos)];
  }

 private:
  static std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }
  std::int32_t* mutable_row(EventId e) {
    return vclocks_[sz(e.proc)].data() + sz(e.index - 1) * n_;
  }

  std::size_t n_;
  std::vector<std::vector<std::int32_t>> vclocks_;
  std::vector<std::vector<std::vector<std::int64_t>>> values_;
  std::vector<std::vector<std::vector<std::int32_t>>> sends_to_;
  std::vector<std::vector<std::vector<std::int32_t>>> recvs_from_;
};

}  // namespace hbct
