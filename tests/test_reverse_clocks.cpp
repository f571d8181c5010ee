// Reverse clocks come in column blocks (Computation::reverse_clocks): each
// block of kRvBlock processes is derived on demand by one backward pass
// over the linearization. Every entry, and every M(e) built from them, must
// equal the reference row table (tests/oracle.h), whichever blocks were
// asked for first, on owning computations and mtrace views, after online
// appends, and with several threads deriving blocks of one fresh view.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "online/appender.h"
#include "poset/mtrace.h"
#include "util/rng.h"

#include "oracle.h"

namespace hbct {
namespace {

std::size_t sz(std::int32_t v) { return static_cast<std::size_t>(v); }

using Rows = std::vector<std::vector<std::vector<std::int32_t>>>;

/// Appends `steps` random events to `app`: sends to any process (one that
/// never receives leaves it unmatched), receives of any pending message
/// (non-FIFO), and internal events; processes at or above `active` stay
/// eventless.
void append_random(OnlineAppender& app, Rng& rng, std::vector<MsgId>& pending,
                   std::vector<ProcId>& dest, ProcId active, int steps) {
  const ProcId n = app.computation().num_procs();
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.next_double();
    if (roll < 0.35 && !pending.empty()) {
      const std::size_t k = rng.next_below(pending.size());
      if (dest[k] < active) {
        app.receive(dest[k], pending[k]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        dest.erase(dest.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
    }
    const auto i = static_cast<ProcId>(rng.next_below(sz(active)));
    if (roll < 0.7 && n > 1) {
      auto to = static_cast<ProcId>(rng.next_below(sz(n - 1)));
      if (to >= i) ++to;
      pending.push_back(app.send(i, to));
      dest.push_back(to);
    } else {
      app.internal(i);
    }
  }
}

/// A random computation over n processes; about a third of the seeds
/// leave the last processes eventless.
Computation random_comp(std::uint64_t seed, ProcId n) {
  Rng rng(seed);
  OnlineAppender app(n);
  std::vector<MsgId> pending;
  std::vector<ProcId> dest;
  const ProcId active =
      n > 2 && seed % 3 == 0 ? n - 1 - static_cast<ProcId>(seed % 2) : n;
  append_random(app, rng, pending, dest, active,
                static_cast<int>(rng.next_in(0, 6 * sz(n) + 4)));
  return std::move(app).build();
}

constexpr ProcId kWidths[] = {1, 2, 3, 7, 8, 9, 13, 16, 17, 20};

/// The columns a request covers, in a random order with repeats.
std::vector<ProcId> random_columns(Rng& rng, ProcId n) {
  std::vector<ProcId> cols;
  const auto count = rng.next_in(1, 3);
  for (std::int64_t t = 0; t < count; ++t)
    cols.push_back(static_cast<ProcId>(rng.next_below(sz(n))));
  return cols;
}

/// Checks the entries of `cols` against `rows` through one request.
void expect_columns(const Computation& c, const Rows& rows,
                    const std::vector<ProcId>& cols, const std::string& what) {
  const Computation::ReverseClocks rv = c.reverse_clocks(cols);
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k)
      for (const ProcId j : cols)
        ASSERT_EQ(rv.at(i, k, j), rows[sz(i)][sz(k - 1)][sz(j)])
            << what << " rvc(" << i << "," << k << ")[" << j << "]";
}

/// Checks every entry and every M(e) against `rows`.
void expect_all(const Computation& c, const Rows& rows,
                const std::string& what) {
  const Computation::ReverseClocks rv = c.reverse_clocks();
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (EventIndex k = 1; k <= c.num_events(i); ++k) {
      const Cut m = c.meet_irreducible_of(i, k);
      for (ProcId j = 0; j < c.num_procs(); ++j) {
        const std::int32_t want = rows[sz(i)][sz(k - 1)][sz(j)];
        ASSERT_EQ(rv.at(i, k, j), want)
            << what << " rvc(" << i << "," << k << ")[" << j << "]";
        ASSERT_EQ(m[sz(j)], c.num_events(j) - want)
            << what << " M(" << i << "," << k << ")[" << j << "]";
      }
    }
}

TEST(ReverseClocks, OracleCountsTheUpSet) {
  // The reference table against the definition: rvc(e)[j] is the number of
  // events f on j with e -> f or e == f.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Computation c = random_comp(seed, kWidths[seed % 6]);
    const Rows rows = reverse_clock_rows(c);
    for (ProcId i = 0; i < c.num_procs(); ++i)
      for (EventIndex k = 1; k <= c.num_events(i); ++k)
        for (ProcId j = 0; j < c.num_procs(); ++j) {
          std::int32_t up = 0;
          for (EventIndex l = 1; l <= c.num_events(j); ++l)
            up += (EventId{i, k} == EventId{j, l} ||
                   c.happened_before(EventId{i, k}, EventId{j, l}))
                      ? 1
                      : 0;
          ASSERT_EQ(rows[sz(i)][sz(k - 1)][sz(j)], up)
              << "seed " << seed << " (" << i << "," << k << ")[" << j << "]";
        }
  }
}

TEST(ReverseClocks, MatchRowTableOnRandomComputations) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const ProcId n = kWidths[seed % std::size(kWidths)];
    const Computation c = random_comp(seed, n);
    const Rows rows = reverse_clock_rows(c);
    const std::string what = "seed " + std::to_string(seed);
    // Partial requests first, so blocks are derived in a random order and
    // read before their neighbours exist.
    Rng rng(seed * 7919);
    for (int r = 0; r < 3; ++r)
      expect_columns(c, rows, random_columns(rng, n), what);
    expect_all(c, rows, what);
    // A copy starts without blocks and derives its own.
    const Computation copy = c;
    expect_columns(copy, rows, random_columns(rng, n), what + " copy");
    expect_all(copy, rows, what + " copy");
  }
}

TEST(ReverseClocks, MtraceViewsMatchRowTable) {
  const std::string path = ::testing::TempDir() + "/hbct_rv_columns.mtrace";
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ProcId n = kWidths[(seed * 3) % std::size(kWidths)];
    const Computation own = random_comp(seed, n);
    const Rows rows = reverse_clock_rows(own);
    std::string err;
    ASSERT_TRUE(write_mtrace_file(path, own, &err)) << err;
    for (const MtraceMode mode : {MtraceMode::kMap, MtraceMode::kCopy}) {
      MtraceLoadResult r = load_mtrace(path, mode);
      ASSERT_TRUE(r.ok) << r.error;
      const Computation& view = r.computation;
      const std::string what = "seed " + std::to_string(seed);
      Rng rng(seed);
      expect_columns(view, rows, random_columns(rng, n), what);
      expect_all(view, rows, what);
    }
  }
  std::remove(path.c_str());
}

TEST(ReverseClocks, RederivedAfterOnlineAppend) {
  // Each append retires every derived block; the next request derives the
  // columns of the grown computation, including the index.
  for (const ProcId n : {1, 9, 17}) {
    Rng rng(static_cast<std::uint64_t>(n));
    OnlineAppender app(n);
    const Computation& c = app.computation();
    std::vector<MsgId> pending;
    std::vector<ProcId> dest;
    for (int round = 0; round < 8; ++round) {
      append_random(app, rng, pending, dest, n, 1 + round * 3);
      const Rows rows = reverse_clock_rows(c);
      const std::string what =
          "n " + std::to_string(n) + " round " + std::to_string(round);
      expect_columns(c, rows, random_columns(rng, n), what);
      if (round % 2 == 1) expect_all(c, rows, what);
    }
  }
}

TEST(ReverseClocksDeathTest, RefusedOnACollectedComputation) {
  OnlineAppender app(2);
  app.internal(0);
  const MsgId m = app.send(0, 1);
  app.receive(1, m);
  app.internal(1);
  ASSERT_EQ(app.collect_prefix(Cut({1, 0})), 1);
  const Computation& c = app.computation();
  EXPECT_DEATH(c.reverse_clocks(), "whole computation");
  EXPECT_DEATH(c.reverse_clocks({1}), "whole computation");
}

TEST(ReverseClocks, ConcurrentReadersOnOneFreshView) {
  // Threads released together onto one fresh view request overlapping and
  // disjoint blocks; every thread must read the reference entries.
  const ProcId n = 20;  // blocks {0..7}, {8..15}, {16..19}
  Rng rng(41);
  OnlineAppender app(n);
  std::vector<MsgId> pending;
  std::vector<ProcId> dest;
  append_random(app, rng, pending, dest, n, 1500);
  const Computation own = std::move(app).build();
  const Rows rows = reverse_clock_rows(own);
  const std::string path = ::testing::TempDir() + "/hbct_rv_readers.mtrace";
  std::string err;
  ASSERT_TRUE(write_mtrace_file(path, own, &err)) << err;
  const std::vector<std::vector<ProcId>> requests = {
      {0, 1}, {9}, {1, 17}, {19, 8, 3}, {}, {12, 13}};
  for (int round = 0; round < 8; ++round) {
    MtraceLoadResult r = load_mtrace(path, MtraceMode::kMap);
    ASSERT_TRUE(r.ok) << r.error;
    const Computation& view = r.computation;
    std::vector<int> mismatches(requests.size(), 0);
    std::atomic<int> waiting{static_cast<int>(requests.size())};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < requests.size(); ++t)
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        // An empty request stands for every column.
        std::vector<ProcId> cols = requests[t];
        const Computation::ReverseClocks rv =
            cols.empty() ? view.reverse_clocks() : view.reverse_clocks(cols);
        if (cols.empty())
          for (ProcId j = 0; j < n; ++j) cols.push_back(j);
        for (ProcId i = 0; i < n; ++i)
          for (EventIndex k = 1; k <= view.num_events(i); ++k)
            for (const ProcId j : cols)
              mismatches[t] +=
                  rv.at(i, k, j) != rows[sz(i)][sz(k - 1)][sz(j)] ? 1 : 0;
      });
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < requests.size(); ++t)
      EXPECT_EQ(mismatches[t], 0) << "round " << round << " thread " << t;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hbct
