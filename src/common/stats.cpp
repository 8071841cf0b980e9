#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rgb::common {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

Histogram::Histogram(double max_value, double growth)
    : growth_(growth), log_growth_(std::log(growth)) {
  assert(growth > 1.0);
  assert(max_value > 1.0);
  const auto nbuckets =
      static_cast<std::size_t>(std::ceil(std::log(max_value) / log_growth_));
  buckets_.assign(nbuckets + 2, 0);  // +1 for [0,1), +1 for overflow
}

std::size_t Histogram::bucket_for(double value) const {
  if (value < 1.0) return 0;
  const auto idx =
      static_cast<std::size_t>(std::floor(std::log(value) / log_growth_)) + 1;
  return std::min(idx, buckets_.size() - 1);
}

double Histogram::bucket_upper(std::size_t idx) const {
  if (idx == 0) return 1.0;
  return std::pow(growth_, static_cast<double>(idx));
}

void Histogram::add(double value) {
  assert(value >= 0.0);
  ++buckets_[bucket_for(value)];
  ++total_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  // A bucket's upper edge bounds the exact quantile from above but may
  // overshoot the largest sample; the exact max is the tighter bound then.
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::min(bucket_upper(i), max_);
    }
  }
  return std::min(bucket_upper(buckets_.size() - 1), max_);
}

double Histogram::mean() const {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

}  // namespace rgb::common
