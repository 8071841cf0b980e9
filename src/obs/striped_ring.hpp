// Bounded striped ring: the storage behind the flight recorder and the
// span layer. One fixed-capacity ring per shard stripe (sim::Striped), so
// recording from concurrent shard windows shares no state; once a ring is
// full the oldest entry is overwritten and counted as dropped.
//
// Reads merge the rings by (time, stripe, intra-stripe order). Each ring
// is time-monotone — a shard's clock never runs backwards — so a stable
// sort keyed by (`at`, stripe) yields that order, and the merged view is a
// function of the logical shard count alone, byte-identical for any
// worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/striped.hpp"

namespace rgb::obs {

/// `T` must carry a `sim::Time at` member (the merge key).
template <typename T>
class StripedRing {
 public:
  /// When the slots of a ring are allocated: all `capacity` of them at
  /// construction, or a small block on the first push, growing on demand
  /// (so a ring that is never written never allocates).
  enum class Reserve { kUpFront, kLazy };

  StripedRing(std::uint32_t stripes, std::size_t capacity, Reserve reserve)
      : capacity_(capacity == 0 ? 1 : capacity),
        reserve_(reserve),
        rings_(stripes) {
    if (reserve_ == Reserve::kUpFront) {
      for (Ring& r : rings_) r.items.reserve(capacity_);
    }
  }

  /// Appends to the executing stripe's ring, overwriting its oldest entry
  /// when full.
  void push(const T& item) {
    Ring& r = rings_.local();
    if (r.items.size() < capacity_) {
      if (reserve_ == Reserve::kLazy && r.items.empty()) {
        r.items.reserve(std::min(capacity_, kLazyBlock));
      }
      r.items.push_back(item);
    } else {
      r.items[r.next] = item;
      r.next = (r.next + 1) % capacity_;
    }
    ++r.recorded;
  }

  /// Per-stripe capacity.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Entries retained, all stripes.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Ring& r : rings_) total += r.items.size();
    return total;
  }
  /// Lifetime pushes (overwritten ones included), all stripes.
  [[nodiscard]] std::uint64_t recorded() const {
    std::uint64_t total = 0;
    for (const Ring& r : rings_) total += r.recorded;
    return total;
  }
  [[nodiscard]] std::uint64_t dropped() const { return recorded() - size(); }

  /// Retained entries merged oldest-to-newest by (at, stripe, recording
  /// order).
  [[nodiscard]] std::vector<T> merged() const {
    std::vector<std::pair<std::uint32_t, T>> tagged;
    tagged.reserve(size());
    for (const Ring& r : rings_) {
      const std::uint32_t s = rings_.index_of(r);
      // Once the ring wrapped, `next` points at the oldest retained entry.
      for (std::size_t i = 0; i < r.items.size(); ++i) {
        tagged.emplace_back(s, r.items[(r.next + i) % r.items.size()]);
      }
    }
    std::stable_sort(tagged.begin(), tagged.end(),
                     [](const auto& lhs, const auto& rhs) {
                       if (lhs.second.at != rhs.second.at) {
                         return lhs.second.at < rhs.second.at;
                       }
                       return lhs.first < rhs.first;
                     });
    std::vector<T> out;
    out.reserve(tagged.size());
    for (auto& [stripe, item] : tagged) out.push_back(item);
    return out;
  }

  /// Empties every ring (allocated slots are kept).
  void clear() {
    for (Ring& r : rings_) {
      r.items.clear();
      r.next = 0;
      r.recorded = 0;
    }
  }

 private:
  static constexpr std::size_t kLazyBlock = 256;

  struct Ring {
    std::vector<T> items;
    std::size_t next = 0;        ///< overwrite cursor once full
    std::uint64_t recorded = 0;  ///< lifetime total, incl. overwritten
  };

  std::size_t capacity_;
  Reserve reserve_;
  sim::Striped<Ring> rings_;
};

}  // namespace rgb::obs
