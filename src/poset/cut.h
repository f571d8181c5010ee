// Consistent cuts (global states) in vector representation.
//
// A cut is stored as one counter per process: cut[i] = number of events of
// process i included. A cut G is *consistent* when it is downward closed
// under happened-before; Computation provides the geometry (consistency,
// enabled/removable events, frontier). The set of consistent cuts ordered by
// inclusion forms a finite distributive lattice whose meet and join are the
// componentwise min and max of the cut vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hbct {

class Cut {
 public:
  Cut() = default;
  explicit Cut(std::size_t n) : c_(n, 0) {}
  explicit Cut(std::vector<std::int32_t> c) : c_(std::move(c)) {}

  std::size_t size() const { return c_.size(); }
  std::int32_t operator[](std::size_t i) const { return c_[i]; }
  std::int32_t& operator[](std::size_t i) { return c_[i]; }

  /// Total number of events contained in the cut.
  std::int64_t total() const;

  /// Set-inclusion order: this ⊆ o.
  bool subset_of(const Cut& o) const;

  /// Lattice meet: componentwise min (set intersection of the cuts).
  static Cut meet(const Cut& a, const Cut& b);
  /// Lattice join: componentwise max (set union of the cuts).
  static Cut join(const Cut& a, const Cut& b);

  const std::vector<std::int32_t>& raw() const { return c_; }

  std::string to_string() const;

  friend bool operator==(const Cut&, const Cut&) = default;

 private:
  std::vector<std::int32_t> c_;
};

}  // namespace hbct
