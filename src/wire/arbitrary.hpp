// Randomized message generation for codec testing: one arbitrary payload
// per registered kind, with every field drawn from a seeded RngStream.
//
// Two profiles:
//   * realistic (default) — identifier magnitudes as the simulator produces
//     them (node/guid values below 2^32, time-major seqs, bounded vector
//     sizes), so the round-trip property covers the short varints real
//     traffic encodes.
//   * unrestricted — full-range 64-bit values including the invalid-id
//     sentinel and empty/large vectors; round-trip must still hold
//     byte-identically, which is what the rgb_wire tool and the registry
//     property test exercise.
#pragma once

#include "common/rng.hpp"
#include "net/message.hpp"

namespace rgb::wire {

struct ArbitraryOptions {
  bool realistic = true;
  std::size_t max_elements = 8;  ///< cap for op/entry/roster vectors
};

/// A random payload of the type registered under `kind`. `kind` must be
/// registered in WireRegistry::global().
[[nodiscard]] net::Payload arbitrary_payload(net::MessageKind kind,
                                             common::RngStream& rng,
                                             const ArbitraryOptions& options =
                                                 ArbitraryOptions{});

}  // namespace rgb::wire
