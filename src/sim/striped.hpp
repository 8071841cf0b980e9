// Per-shard striping: the one place that decides which copy of a piece of
// mutable state the executing event writes, and in what order the copies
// are read back.
//
// A sharded Simulator runs shard windows concurrently, so any state that
// events write (network metering and RNG, the obs instruments, the flight
// and span rings) keeps one copy — a stripe — per logical shard. An event
// writes the stripe of the shard whose window executes it (`local()`);
// code running outside any window (setup, global events, readers) writes
// stripe 0. Readers walk the stripes in shard order, so every merged view
// is a function of the logical shard count alone, never of the worker
// count. Stripe counts come from `Simulator::shard_count()`: configure the
// simulator before building anything striped over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace rgb::sim {

template <typename T>
class Striped {
 public:
  /// `count` value-initialised stripes (0 is treated as 1).
  explicit Striped(std::uint32_t count) : stripes_(count == 0 ? 1 : count) {}

  /// Stripe i is `init(i)`, built in shard order.
  template <typename Init>
  Striped(std::uint32_t count, Init init) {
    const std::uint32_t n = count == 0 ? 1 : count;
    stripes_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) stripes_.push_back(init(i));
  }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(stripes_.size());
  }
  /// One stripe: the serial case, where readers may hand out the stripe
  /// itself instead of a merge.
  [[nodiscard]] bool single() const { return stripes_.size() == 1; }

  /// The stripe of the shard window the calling thread executes; stripe 0
  /// outside any window (and for a shard beyond the stripe count).
  [[nodiscard]] T& local() { return stripes_[local_index()]; }
  [[nodiscard]] std::uint32_t local_index() const {
    if (stripes_.size() == 1) return 0;
    const std::uint32_t s = current_executing_shard();
    return s < stripes_.size() ? s : 0;
  }

  /// Index of `stripe`, which must be an element of this set.
  [[nodiscard]] std::uint32_t index_of(const T& stripe) const {
    return static_cast<std::uint32_t>(&stripe - stripes_.data());
  }

  [[nodiscard]] T& operator[](std::size_t i) { return stripes_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return stripes_[i]; }

  // Iteration in shard order.
  [[nodiscard]] auto begin() { return stripes_.begin(); }
  [[nodiscard]] auto end() { return stripes_.end(); }
  [[nodiscard]] auto begin() const { return stripes_.begin(); }
  [[nodiscard]] auto end() const { return stripes_.end(); }

 private:
  std::vector<T> stripes_;
};

}  // namespace rgb::sim
