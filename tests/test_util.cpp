// Unit tests for util/: rng, stats, string helpers, biguint, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include "util/biguint.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hbct {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t bound = 1 + (i % 17);
    EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng r(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextInBoundsInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityExtremes) {
  Rng r(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BoolProbabilityRoughlyCalibrated) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  r.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  // Forked stream differs from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Summary, BasicStatistics) {
  Summary s = Summary::of({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summary, EmptyIsZero) {
  Summary s = Summary::of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(LogLogSlope, RecoversPowerLawExponent) {
  std::vector<double> x, y;
  for (double v : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    x.push_back(v);
    y.push_back(3.5 * v * v);  // slope 2
  }
  EXPECT_NEAR(loglog_slope(x, y), 2.0, 1e-9);
}

TEST(LogLogSlope, LinearIsSlopeOne) {
  std::vector<double> x{1, 2, 4, 8}, y{5, 10, 20, 40};
  EXPECT_NEAR(loglog_slope(x, y), 1.0, 1e-9);
}

TEST(DetectStats, AccumulateAndPrint) {
  DetectStats a, b;
  a.predicate_evals = 3;
  a.cut_steps = 2;
  b.predicate_evals = 4;
  b.lattice_nodes = 7;
  a += b;
  EXPECT_EQ(a.predicate_evals, 7u);
  EXPECT_EQ(a.cut_steps, 2u);
  EXPECT_EQ(a.lattice_nodes, 7u);
  EXPECT_NE(a.to_string().find("evals=7"), std::string::npos);
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(parse_int("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(parse_int("  7 ", v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("", v));
}

TEST(StringUtil, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 3, "ab"), "3-ab");
  EXPECT_EQ(strfmt("%s", std::string(500, 'x').c_str()).size(), 500u);
}

TEST(BigUint, SmallArithmeticMatchesU64) {
  BigUint a(123456789);
  a += BigUint(987654321);
  bool fits = false;
  EXPECT_EQ(a.to_u64(&fits), 1111111110ull);
  EXPECT_TRUE(fits);
  EXPECT_EQ(a.to_string(), "1111111110");
}

TEST(BigUint, ZeroBehaviour) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.to_string(), "0");
  z += BigUint(0);
  EXPECT_TRUE(z.is_zero());
  z.mul_small(12345);
  EXPECT_TRUE(z.is_zero());
}

TEST(BigUint, FactorialMatchesKnownValue) {
  BigUint f(1);
  for (std::uint64_t i = 2; i <= 30; ++i) f.mul_small(i);
  EXPECT_EQ(f.to_string(), "265252859812191058636308480000000");
}

TEST(BigUint, CarriesAcrossLimbs) {
  BigUint a(~0ull);  // 2^64 - 1
  a += BigUint(1);
  EXPECT_EQ(a.to_string(), "18446744073709551616");
  bool fits = true;
  a.to_u64(&fits);
  EXPECT_FALSE(fits);
}

TEST(BigUint, MulSmallLargeScalar) {
  BigUint a(1);
  a.mul_small(~0ull);
  a.mul_small(~0ull);
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(a.to_string(), "340282366920938463426481119284349108225");
}

TEST(BigUint, Ordering) {
  EXPECT_LT(BigUint(5), BigUint(7));
  BigUint big(1);
  big.mul_small(~0ull);
  big.mul_small(16);
  EXPECT_LT(BigUint(~0ull), big);
  EXPECT_EQ(BigUint(42), BigUint(42));
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitExceptionSurfacesInWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed; the pool keeps working.
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, SharedPoolHasWorkers) {
  EXPECT_GE(ThreadPool::shared().size(), 4u);
  std::atomic<int> hits{0};
  for (int i = 0; i < 64; ++i) ThreadPool::shared().submit([&] { ++hits; });
  ThreadPool::shared().wait_idle();
  EXPECT_EQ(hits.load(), 64);
}

}  // namespace
}  // namespace hbct
