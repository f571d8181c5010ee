// Metrics registry: counters, gauges, and log-bucketed histograms.
//
// The registry extends DetectStats beyond a single detection: the process-
// wide instance (MetricsRegistry::global()) aggregates every detection's
// operation counts and verdict tally, and each capture (obs/trace.h)
// carries a private registry whose snapshot lands in its run's report.
//
// Write-path design: counters are sharded across cache-line-padded atomic
// slots indexed by a per-thread id, so concurrent increments from pool
// workers never contend on one line; reads (snapshot) sum the shards. No
// lock is taken on any write path — the registry mutex guards only the
// name→metric map, and callers hold direct Counter&/Histogram& references
// across the hot region.
//
// Histograms use a fixed base-2 log-bucket layout: bucket 0 counts zeros,
// bucket b >= 1 counts values v with bit_width(v) == b, i.e. v in
// [2^(b-1), 2^b). 64 buckets cover the full uint64 range, the layout never
// resizes, and two histograms merge by adding counts — exactly the shape a
// scrape-based exporter wants.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace hbct {

namespace obs_detail {
/// Small dense per-thread index used to pick a shard slot.
std::size_t shard_index() noexcept;
}  // namespace obs_detail

class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t d = 1) noexcept {
    shards_[obs_detail::shard_index() % kShards].v.fetch_add(
        d, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Slot& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kShards> shards_{};
};

/// A last-writer-wins instantaneous value (queue depth, fan-out width).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water marks).
  void max_of(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
      ;
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kShards = 8;

  Histogram();

  void record(std::uint64_t v) noexcept;

  /// Bucket index of a value under the fixed log2 layout.
  static std::size_t bucket_of(std::uint64_t v) noexcept;
  /// Inclusive lower / exclusive upper bound of bucket b (upper bound of
  /// the last bucket saturates at uint64 max).
  static std::uint64_t bucket_lo(std::size_t b) noexcept;
  static std::uint64_t bucket_hi(std::size_t b) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Nearest-rank percentile estimate: the exclusive upper bound of the
    /// bucket containing the q-quantile rank (q in [0,1]). Deterministic
    /// and monotone in q; 0 when empty.
    std::uint64_t percentile(double q) const;
    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    bool operator==(const Snapshot& o) const {
      return counts == o.counts && count == o.count && sum == o.sum;
    }
  };
  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Point-in-time copy of a whole registry, for reports and assertions.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  bool operator==(const MetricsSnapshot& o) const {
    return counters == o.counters && gauges == o.gauges &&
           histograms == o.histograms;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The returned reference is stable for the
  /// registry's lifetime; resolve once, increment lock-free after.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Folds one detection's operation counts into the detect.* counters.
  /// Generated from the DetectStats X-macro (util/stats.h), so a counter
  /// added there is aggregated here by construction.
  void absorb(const DetectStats& st);

  MetricsSnapshot snapshot() const;

  /// Process-wide registry: every detect() absorbs its stats and verdict
  /// here whether or not tracing is on.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// Pre-resolved detect.* counters in X-macro field order (absorb()'s
  /// lock-free fast path).
  std::vector<Counter*> stats_cells_;
};

}  // namespace hbct
