// Packed consistent cuts: the one representation the exhaustive walks
// (explicit lattice, DFS explorers, slice enumeration) store and hash.
//
// A cut of a fixed computation is one counter 0..N_i per process. CutPacker
// lays those counters out as bit fields of bit_width(N_i) bits over W
// 64-bit words, packed greedily so that no field straddles a word; a cut
// wider than 64 bits simply takes more words and runs the same code.
// Stepping to a successor adds one unit to a field, and enabled() decides
// whether that step keeps the cut consistent in O(1):
//
//   On a consistent cut G, the next event e of process i has its whole
//   causal past in G except possibly through its own receive: e's
//   predecessor on i is in G (and so is that predecessor's past), and a
//   send's past is in G once the send is. So e is enabled iff it is not a
//   receive, or G already holds vc(e)[sender] events of the sender.
//
// The check reads one event record and one clock entry of the computation
// on demand, so a walk that stops early (a capped build) costs nothing that
// scales with |E| up front.
//
// CutTable is an open-addressing hash table over those flat keys. Ids are
// handed out in insertion order and index the table's contiguous key
// array, so a table doubles as the node store of a BFS or DFS.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "poset/computation.h"
#include "poset/cut.h"
#include "util/assert.h"

namespace hbct {

/// Bijective packing of one computation's cuts into W-word keys, plus the
/// O(1) successor step on consistent keys.
class CutPacker {
 public:
  explicit CutPacker(const Computation& c) : c_(&c) {
    std::uint32_t word = 0, used = 0;
    fields_.reserve(static_cast<std::size_t>(c.num_procs()));
    for (ProcId i = 0; i < c.num_procs(); ++i) {
      const EventIndex limit = c.num_events(i);
      const auto width = static_cast<std::uint32_t>(
          std::bit_width(static_cast<std::uint32_t>(limit)));
      if (used + width > 64) {
        ++word;
        used = 0;
      }
      // A zero-width field (eventless process) reads as 0 through mask 0.
      const std::uint64_t mask =
          width == 0 ? 0 : (~std::uint64_t{0} >> (64 - width));
      fields_.push_back(Field{word, used, mask, limit});
      used += width;
    }
    words_ = word + 1;
  }

  const Computation& computation() const { return *c_; }
  /// Key length W in 64-bit words (at least 1).
  std::size_t words() const { return words_; }

  void pack(const Cut& g, std::uint64_t* key) const {
    HBCT_DASSERT(g.size() == fields_.size());
    std::fill_n(key, words_, std::uint64_t{0});
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      key[f.word] |=
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(g[i]))
          << f.shift;
    }
  }

  /// Writes the cut of `key` into `*g` (resized to num_procs if needed).
  void unpack(const std::uint64_t* key, Cut* g) const {
    if (g->size() != fields_.size()) *g = Cut(fields_.size());
    for (std::size_t i = 0; i < fields_.size(); ++i)
      (*g)[i] = get(key, static_cast<ProcId>(i));
  }
  Cut unpack(const std::uint64_t* key) const {
    Cut g(fields_.size());
    unpack(key, &g);
    return g;
  }

  /// Counter of process i in `key`.
  EventIndex get(const std::uint64_t* key, ProcId i) const {
    const Field& f = fields_[static_cast<std::size_t>(i)];
    return static_cast<EventIndex>((key[f.word] >> f.shift) & f.mask);
  }

  /// Advances process i by one event (the caller checked enabled()).
  void step(std::uint64_t* key, ProcId i) const {
    const Field& f = fields_[static_cast<std::size_t>(i)];
    key[f.word] += std::uint64_t{1} << f.shift;
  }

  /// True when the next event of process i can join the consistent cut
  /// `key` (see the file comment for why one field decides it).
  bool enabled(const std::uint64_t* key, ProcId i) const {
    const EventIndex gi = get(key, i);
    bool ok = gi < fields_[static_cast<std::size_t>(i)].limit;
    if (ok) {
      const auto [sender, needed] = c_->receive_dependency(i, gi + 1);
      ok = sender < 0 || get(key, sender) >= needed;
    }
    HBCT_DASSERT(ok == c_->enabled(unpack(key), i));
    return ok;
  }

 private:
  struct Field {
    std::uint32_t word = 0;
    std::uint32_t shift = 0;
    std::uint64_t mask = 0;
    EventIndex limit = 0;  // N_i: the counter's largest value
  };

  const Computation* c_;
  std::vector<Field> fields_;
  std::size_t words_ = 1;
};

/// Set of / index over packed cuts. Ids are insertion order (0, 1, ...),
/// and key(id) reads the stored key back.
class CutTable {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  explicit CutTable(const Computation& c)
      : packer_(c), w_(packer_.words()), slots_(16), mask_(15) {}

  const CutPacker& packer() const { return packer_; }
  std::size_t size() const { return size_; }

  const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + static_cast<std::size_t>(id) * w_;
  }

  /// Inserts `key` unless present; returns {its id, inserted}. Every new
  /// key must be a consistent cut.
  std::pair<std::uint32_t, bool> insert(const std::uint64_t* key) {
    const std::uint32_t tag = hash(key);
    std::size_t s = tag & mask_;
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kAbsent) break;
      if (slot.tag == tag && slot.head == key[0] && equal(slot.id, key))
        return {slot.id, false};
    }
    HBCT_DASSERT(packer_.computation().is_consistent(packer_.unpack(key)));
    const auto id = static_cast<std::uint32_t>(size_);
    keys_.insert(keys_.end(), key, key + w_);
    slots_[s] = Slot{key[0], id, tag};
    ++size_;
    if (2 * size_ > slots_.size()) grow();
    return {id, true};
  }
  std::pair<std::uint32_t, bool> insert(const Cut& g) {
    return insert(pack(g).data());
  }

  /// Id of `key`, or kAbsent.
  std::uint32_t find(const std::uint64_t* key) const {
    const std::uint32_t tag = hash(key);
    for (std::size_t s = tag & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id == kAbsent) return kAbsent;
      if (slot.tag == tag && slot.head == key[0] && equal(slot.id, key))
        return slot.id;
    }
  }
  std::uint32_t find(const Cut& g) const { return find(pack(g).data()); }
  bool contains(const std::uint64_t* key) const { return find(key) != kAbsent; }

 private:
  /// The tag is the key's 32-bit hash: its low bits pick the home slot,
  /// so growing rehomes slots without reading or rehashing keys, and the
  /// rest filters key comparisons.
  struct Slot {
    std::uint64_t head = 0;  // the key's first word
    std::uint32_t id = kAbsent;
    std::uint32_t tag = 0;
  };

  std::vector<std::uint64_t> pack(const Cut& g) const {
    std::vector<std::uint64_t> key(w_);
    packer_.pack(g, key.data());
    return key;
  }

  std::uint32_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < w_; ++i) {
      // splitmix64 finalizer per word: the fields are small counters, so
      // every key bit must reach the 32 bits kept.
      h += key[i] + 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      h ^= h >> 31;
    }
    return static_cast<std::uint32_t>(h);
  }

  /// Words after the first (which the slot holds) match.
  bool equal(std::uint32_t id, const std::uint64_t* key) const {
    return w_ == 1 || std::equal(key + 1, key + w_, this->key(id) + 1);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& o : old) {
      if (o.id == kAbsent) continue;
      std::size_t s = o.tag & mask_;
      while (slots_[s].id != kAbsent) s = (s + 1) & mask_;
      slots_[s] = o;
    }
  }

  CutPacker packer_;
  std::size_t w_;
  std::vector<std::uint64_t> keys_;  // key(id) at [id * w_, (id + 1) * w_)
  std::vector<Slot> slots_;          // linear probing, load <= 1/2
  std::size_t mask_;
  std::size_t size_ = 0;
};

}  // namespace hbct
