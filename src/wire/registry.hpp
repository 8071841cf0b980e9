// WireRegistry: the message-kind -> codec table of the wire subsystem.
//
// Every control message of RGB and of the tree/flatring/gossip baselines is
// registered here by its net::MessageKind. A registered codec gives three
// operations over the type-erased net::Payload:
//
//   * encoded_size — exact framed byte count, computed by the counting
//     sink (zero allocations; this is what the network's encoded-byte
//     metering hook calls once per send);
//   * encode      — the framed bytes: [version u8][kind varint][body];
//   * decode      — parse framed bytes back into a Payload, returning an
//     expected-style Result with a clean DecodeError on truncation,
//     corruption or version/kind mismatch.
//
// Kinds that share a payload type (kNotifyParent/kNotifyChild carry
// NotifyMsg; kProbe is an empty-op TokenMsg) register the same codec under
// each kind, so the frame's kind field — not C++ type identity — is the
// wire-level discriminator.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "wire/codec.hpp"

namespace rgb::wire {

/// A decoded frame: the kind from the frame header plus the payload.
struct Decoded {
  net::MessageKind kind = 0;
  net::Payload payload;
};

class WireRegistry {
 public:
  struct Codec {
    const char* name;
    /// Exact body byte count of `payload` (which must hold the registered
    /// type).
    std::uint32_t (*body_size)(const net::Payload& payload);
    void (*encode_body)(const net::Payload& payload,
                        std::vector<std::uint8_t>& out);
    /// Fills `out` from `reader`; returns the reader's status.
    DecodeStatus (*decode_body)(Reader& reader, net::Payload& out);
  };

  void add(net::MessageKind kind, Codec codec);
  [[nodiscard]] const Codec* find(net::MessageKind kind) const;
  /// Every registered kind, ascending (stable iteration for tests/tools).
  [[nodiscard]] std::vector<net::MessageKind> kinds() const;

  /// Exact framed size of `payload` sent under `kind`; 0 when the kind is
  /// unregistered or the payload does not hold the registered type.
  [[nodiscard]] std::uint32_t encoded_size(net::MessageKind kind,
                                           const net::Payload& payload) const;

  /// Appends the framed encoding to `out`; false on unknown kind / payload
  /// type mismatch.
  [[nodiscard]] bool encode(net::MessageKind kind, const net::Payload& payload,
                            std::vector<std::uint8_t>& out) const;

  [[nodiscard]] Result<Decoded> decode(const std::uint8_t* data,
                                       std::size_t size) const;
  [[nodiscard]] Result<Decoded> decode(
      const std::vector<std::uint8_t>& bytes) const {
    return decode(bytes.data(), bytes.size());
  }

  /// The registry covering every kind of this repository (RGB control,
  /// edge and query planes plus the three baseline protocols).
  [[nodiscard]] static const WireRegistry& global();

 private:
  /// Kinds are small integers (max 122 today); a flat vector indexed by
  /// kind keeps the per-send lookup of the metering hook branch-predictable
  /// and allocation-free.
  std::vector<Codec> by_kind_;
  std::vector<bool> present_;
};

}  // namespace rgb::wire
