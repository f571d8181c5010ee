// Computation slicing on a producer/consumer run: the slice of a regular
// predicate is an exponentially smaller representation of all cuts that
// satisfy it.
//
//   $ example_slicing_demo [items] [window] [seed]
#include <cstdio>
#include <cstdlib>

#include "hbct.h"

using namespace hbct;

int main(int argc, char** argv) {
  const std::int32_t items =
      argc > 1 ? static_cast<std::int32_t>(std::atoi(argv[1])) : 10;
  const std::int32_t window =
      argc > 2 ? static_cast<std::int32_t>(std::atoi(argv[2])) : 3;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 11;

  sim::SimOptions opt;
  opt.seed = seed;
  sim::Simulator s = sim::make_producer_consumer(items, window);
  Computation c = std::move(s).run(opt);
  std::printf("producer/consumer: %lld events, window %d\n",
              static_cast<long long>(c.total_events()), window);

  // "The buffer is exactly full" — a regular predicate (difference of
  // monotone counters equals the window).
  auto full = make_and(
      diff_le({0, "produced"}, {1, "consumed"}, window),
      make_not(diff_le({0, "produced"}, {1, "consumed"}, window - 1)));
  // Note: the conjunction of a regular predicate and a negation loses the
  // structural class, so slice the two regular halves instead:
  auto at_most = diff_le({0, "produced"}, {1, "consumed"}, window);
  auto at_least_cnt = window;  // produced - consumed >= window is also regular
  (void)at_least_cnt;

  Slice slice = Slice::compute(c, at_most);
  std::printf("slice of AG-invariant '%s':\n", at_most->describe().c_str());
  std::printf("  empty: %s\n", slice.empty() ? "yes" : "no");
  if (!slice.empty()) {
    std::printf("  least satisfying cut:    %s\n",
                slice.least()->to_string().c_str());
    std::printf("  greatest satisfying cut: %s\n",
                slice.greatest()->to_string().c_str());
    std::printf("  join-irreducible slice elements: %zu (|E| = %lld)\n",
                slice.elements().size(),
                static_cast<long long>(c.total_events()));
  }

  // Compare the slice's membership against the lattice, when small enough.
  auto lat = Lattice::try_build(c, 1u << 20);
  if (lat) {
    std::size_t sat = 0, mismatches = 0;
    for (NodeId v = 0; v < lat->size(); ++v) {
      const bool direct = at_most->eval(c, lat->cut(v));
      sat += direct;
      mismatches += direct != slice.satisfies(lat->cut(v));
    }
    std::printf("  lattice: %zu cuts, %zu satisfy; slice membership "
                "mismatches: %zu\n",
                lat->size(), sat, mismatches);
  } else {
    std::printf("  lattice too large to enumerate — which is the point\n");
  }

  // The invariant itself, through the dispatcher (A2 on meet-irreducibles).
  DetectResult ag = detect(c, Op::kAG, at_most);
  std::printf("AG('%s'): %s via %s, %llu evaluations\n",
              at_most->describe().c_str(), to_string(ag.verdict),
              ag.algorithm.c_str(),
              static_cast<unsigned long long>(ag.stats.predicate_evals));
  (void)full;
  return 0;
}
