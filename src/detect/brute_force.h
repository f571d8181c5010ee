// Explicit-lattice CTL model checking — the baseline the paper argues
// against, and the ground-truth oracle for the property-test suite.
//
// The checker materializes every consistent cut (exponential in n) and
// labels the Hasse DAG bottom-up / top-down with the standard finite-path
// CTL semantics of Section 3: paths are maximal cut sequences ending at the
// final cut E.
#pragma once

#include <functional>
#include <vector>

#include "detect/detector.h"
#include "lattice/lattice.h"

namespace hbct {

class LatticeChecker {
 public:
  explicit LatticeChecker(const Computation& c,
                          std::size_t max_nodes = 1u << 22);
  /// Adopts a pre-built lattice (shared across many queries).
  explicit LatticeChecker(Lattice lattice);

  const Lattice& lattice() const { return lat_; }

  /// Per-node truth labels of a state predicate.
  std::vector<char> label(const Predicate& p, DetectStats* st = nullptr) const;

  // Per-node operator labelings (input: per-node labels of the operands).
  std::vector<char> ef(const std::vector<char>& p) const;
  std::vector<char> af(const std::vector<char>& p) const;
  std::vector<char> eg(const std::vector<char>& p) const;
  std::vector<char> ag(const std::vector<char>& p) const;
  std::vector<char> eu(const std::vector<char>& p,
                       const std::vector<char>& q) const;
  std::vector<char> au(const std::vector<char>& p,
                       const std::vector<char>& q) const;

  /// Verdict at the initial cut; the DetectResult records the lattice size
  /// in stats.lattice_nodes/edges. `q` is required for kEU/kAU.
  /// The budget is probed at sweep boundaries (before work starts, after
  /// each labeling pass). A lattice larger than budget.max_states yields
  /// kUnknown/kStateCap up front.
  DetectResult detect(Op op, const Predicate& p, const Predicate* q = nullptr,
                      const Budget& budget = {}) const;

 private:
  Lattice lat_;
};

/// Ground-truth membership of a predicate's satisfying set in the
/// lattice-theoretic classes, by exhaustive check on the explicit lattice.
/// O(S^2) for the semilattice checks (S = number of satisfying cuts).
struct BruteClassCheck {
  bool linear = false;        // meet-closed
  bool post_linear = false;   // join-closed
  bool regular = false;       // both
  bool stable = false;        // up-closed
  bool observer_independent = false;  // EF(p) == AF(p) on this computation
};

BruteClassCheck brute_check_classes(const LatticeChecker& chk,
                                    const Predicate& p);

}  // namespace hbct
