// Deterministic handler profiler: per-message-kind delivery counts riding
// the same network hooks as the span layer, kept in a sim::Striped (one
// stripe per simulator shard, sim/striped.hpp) and merged in shard order —
// a pure function of the logical shard count, enumerable through the
// metrics registry under `obs.prof.*`. The stripe count is the simulator's
// shard count, passed in by ProtocolObs: configure the simulator before
// building the Network and the RgbSystem over it.
//
// Wall-CPU attribution (per-kind nanoseconds inside the delivery handler)
// is the one deliberately non-deterministic instrument in the repo: it is
// opt-in (`set_wall_enabled`), never feeds the registry, and the bench
// exports it only into a clearly separated `profile_wall` block that the
// byte-identity gates exclude.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include "net/message.hpp"
#include "sim/striped.hpp"

namespace rgb::obs {

class HandlerProfiler {
 public:
  /// Fixed per-kind slot count (message kinds top out at 41 today); kinds
  /// at or beyond the cap share the last slot so counting never allocates.
  static constexpr std::size_t kMaxKinds = 64;

  using PerKind = std::array<std::uint64_t, kMaxKinds>;

  /// One stripe per shard, written only from that shard's windows.
  explicit HandlerProfiler(std::uint32_t stripes = 1) : stripes_(stripes) {}

  /// A delivery handler for `kind` ran to completion.
  void on_handled(net::MessageKind kind) {
    ++stripes_.local().handled[slot_of(kind)];
  }

  /// Opt-in wall-CPU attribution (see the file header).
  void set_wall_enabled(bool on) { wall_enabled_ = on; }
  [[nodiscard]] bool wall_enabled() const { return wall_enabled_; }
  void add_wall_ns(net::MessageKind kind, std::uint64_t ns);

  /// Deterministic reads: stripes merged in shard order.
  [[nodiscard]] PerKind handled_per_kind() const;
  [[nodiscard]] std::uint64_t handled_total() const;
  /// Non-deterministic read (all zero unless wall attribution ran).
  [[nodiscard]] PerKind wall_ns_per_kind() const;

  void clear();

  [[nodiscard]] static std::size_t slot_of(net::MessageKind kind) {
    return kind < kMaxKinds ? kind : kMaxKinds - 1;
  }

 private:
  struct Stripe {
    PerKind handled{};
    PerKind wall_ns{};
  };

  bool wall_enabled_ = false;
  sim::Striped<Stripe> stripes_;
};

}  // namespace rgb::obs
