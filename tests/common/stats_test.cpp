#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rgb::common {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleSample) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.min(), 5.0);
  EXPECT_EQ(acc.max(), 5.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, NegativeValues) {
  Accumulator acc;
  acc.add(-3.0);
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), -3.0);
  EXPECT_EQ(acc.max(), 3.0);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Accumulator all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmptySides) {
  Accumulator a, b;
  a.add(1.0);
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, SingleValueQuantiles) {
  Histogram h;
  h.add(100.0);
  // Geometric buckets give ~growth-factor relative resolution.
  EXPECT_NEAR(h.p50(), 100.0, 12.0);
  EXPECT_NEAR(h.p99(), 100.0, 12.0);
}

TEST(Histogram, MedianOfUniformRamp) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.p50(), 500.0, 60.0);
  EXPECT_NEAR(h.quantile(0.9), 900.0, 100.0);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(Histogram, SubUnitValuesLandInFirstBucket) {
  Histogram h;
  h.add(0.0);
  h.add(0.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.p50(), 1.0);
}

TEST(Histogram, OverflowClampsToLastBucket) {
  Histogram h{/*max_value=*/1000.0};
  h.add(1e18);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.p50(), 900.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(10.0);
  b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_LE(a.quantile(0.25), 12.0);
  EXPECT_GT(a.quantile(0.99), 800.0);
}

TEST(Histogram, QuantileRelativeErrorIsBoundedVsExact) {
  // Deterministic pseudo-random positive samples (no RNG dependency).
  std::vector<double> values;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1.0 + static_cast<double>(x % 1'000'000));
  }
  Histogram h;
  for (const double v : values) h.add(v);
  std::sort(values.begin(), values.end());

  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = values[rank - 1];
    const double approx = h.quantile(q);
    // Geometric buckets (growth 1.1) return the bucket upper bound, so the
    // estimate sits in [exact, exact * growth]: never below, at most ~10%
    // relative error above.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * 1.1 + 1e-9) << "q=" << q;
  }
}

TEST(Histogram, TailQuantileAccessorsHoldTheSameBound) {
  // The bench latency digests report p50/p90/p99/p999/max; the tail
  // accessors must obey the same [exact, exact * growth] bound as
  // quantile() so the digests are trustworthy at the 1-in-1000 tail.
  std::vector<double> values;
  std::uint64_t x = 0xD1B54A32D192ED03ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1.0 + static_cast<double>(x % 10'000'000));
  }
  Histogram h;
  for (const double v : values) h.add(v);
  std::sort(values.begin(), values.end());

  const auto exact_at = [&](double q) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[rank - 1];
  };
  const struct {
    double q;
    double approx;
  } probes[] = {{0.50, h.p50()}, {0.90, h.p90()},
                {0.99, h.p99()}, {0.999, h.p999()}};
  for (const auto& probe : probes) {
    const double exact = exact_at(probe.q);
    EXPECT_GE(probe.approx, exact) << "q=" << probe.q;
    EXPECT_LE(probe.approx, exact * 1.1 + 1e-9) << "q=" << probe.q;
    EXPECT_LE(probe.approx, h.max()) << "q=" << probe.q;
  }
  EXPECT_DOUBLE_EQ(h.max(), values.back());  // max stays exact, not bucketed

  // The p99 bucket's upper edge (1.1^54 ~ 172.2) lies above the largest
  // sample: the tail quantiles clamp to the exact max, which still bounds
  // the exact quantile from above.
  Histogram top;
  for (int i = 0; i < 98; ++i) top.add(10.0);
  top.add(163.9);
  top.add(163.9);
  EXPECT_DOUBLE_EQ(top.p99(), 163.9);
  EXPECT_DOUBLE_EQ(top.p999(), 163.9);
  EXPECT_DOUBLE_EQ(top.quantile(1.0), top.max());
  for (const double q : {0.0, 0.5, 0.9, 0.98, 0.99, 0.999, 1.0}) {
    EXPECT_LE(top.quantile(q), top.max()) << "q=" << q;
  }
  EXPECT_GE(top.p50(), 10.0);
}

TEST(Histogram, MergeEqualsCombinedAddStream) {
  Histogram combined, left, right;
  for (int i = 1; i <= 400; ++i) {
    const double v = static_cast<double>((i * 7919) % 10000 + 1);
    combined.add(v);
    (i % 3 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_DOUBLE_EQ(left.mean(), combined.mean());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
  // Identical bucket contents -> identical quantiles at every probe point.
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), combined.quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, MaxIsExactAndSurvivesOverflowClamp) {
  Histogram h{/*max_value=*/1000.0};
  h.add(3.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  h.add(123456.0);  // clamped into the overflow bucket...
  EXPECT_DOUBLE_EQ(h.max(), 123456.0);  // ...but max stays exact
  EXPECT_LE(h.quantile(1.0), 1200.0);   // quantile read is clamped

  Histogram other{/*max_value=*/1000.0};
  other.add(999999.0);
  h.merge(other);
  EXPECT_DOUBLE_EQ(h.max(), 999999.0);  // merge carries the exact max too
}

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(9);
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace rgb::common
