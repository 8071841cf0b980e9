#include "obs/profile.hpp"

namespace rgb::obs {

void HandlerProfiler::add_wall_ns(net::MessageKind kind, std::uint64_t ns) {
  stripes_.local().wall_ns[slot_of(kind)] += ns;
}

HandlerProfiler::PerKind HandlerProfiler::handled_per_kind() const {
  PerKind out{};
  for (const Stripe& s : stripes_) {
    for (std::size_t k = 0; k < kMaxKinds; ++k) out[k] += s.handled[k];
  }
  return out;
}

std::uint64_t HandlerProfiler::handled_total() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    for (const std::uint64_t n : s.handled) total += n;
  }
  return total;
}

HandlerProfiler::PerKind HandlerProfiler::wall_ns_per_kind() const {
  PerKind out{};
  for (const Stripe& s : stripes_) {
    for (std::size_t k = 0; k < kMaxKinds; ++k) out[k] += s.wall_ns[k];
  }
  return out;
}

void HandlerProfiler::clear() {
  for (Stripe& s : stripes_) s = Stripe{};
}

}  // namespace rgb::obs
