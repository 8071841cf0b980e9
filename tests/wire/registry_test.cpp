// WireRegistry: per-kind round-trip properties over randomized messages,
// frame validation, and truncation/bit-flip robustness for every
// registered message kind (the in-process counterpart of `rgb_wire`).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "rgb/messages.hpp"
#include "wire/arbitrary.hpp"
#include "wire/codec.hpp"
#include "wire/registry.hpp"

namespace rgb::wire {
namespace {

TEST(WireRegistry, CoversEveryProtocolKind) {
  const auto& registry = WireRegistry::global();
  // Every kind the RGB dispatcher handles plus the three baselines.
  for (const net::MessageKind kind :
       {core::kind::kToken, core::kind::kNotifyParent, core::kind::kNotifyChild,
        core::kind::kTokenPassAck, core::kind::kTokenRequest,
        core::kind::kTokenGrant, core::kind::kTokenRelease,
        core::kind::kHolderAck, core::kind::kRepair, core::kind::kChildRebind,
        core::kind::kProbe, core::kind::kProbeAck, core::kind::kMergeOffer,
        core::kind::kMergeAccept, core::kind::kRingReform,
        core::kind::kNeJoinRequest, core::kind::kNeLeaveRequest,
        core::kind::kViewSync, core::kind::kSnapshotRequest,
        core::kind::kSnapshot, core::kind::kMhRequest, core::kind::kMhAck,
        core::kind::kMhHeartbeat, core::kind::kQueryRequest,
        core::kind::kQueryReply, net::MessageKind{101}, net::MessageKind{102},
        net::MessageKind{103}, net::MessageKind{111}, net::MessageKind{112},
        net::MessageKind{121}, net::MessageKind{122}}) {
    const auto* codec = registry.find(kind);
    ASSERT_NE(codec, nullptr) << "kind " << kind << " unregistered";
    EXPECT_NE(codec->name, nullptr);
  }
}

/// Property: for every registered kind, randomized messages (both realistic
/// and unrestricted field ranges) encode -> decode -> re-encode
/// byte-identically, and encoded_size always equals the actual encoding.
TEST(WireRegistry, EveryKindRoundTripsByteIdentically) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0x5EED1E5};
  for (const auto kind : registry.kinds()) {
    for (int iter = 0; iter < 64; ++iter) {
      ArbitraryOptions options;
      options.realistic = iter % 2 == 0;
      const auto payload = arbitrary_payload(kind, rng, options);
      std::vector<std::uint8_t> encoded;
      ASSERT_TRUE(registry.encode(kind, payload, encoded)) << "kind " << kind;
      ASSERT_EQ(encoded.size(), registry.encoded_size(kind, payload))
          << "kind " << kind;

      const auto decoded = registry.decode(encoded);
      ASSERT_TRUE(decoded.ok())
          << "kind " << kind << ": " << to_string(decoded.error().status)
          << " at " << decoded.error().offset;
      EXPECT_EQ(decoded.value().kind, kind);

      std::vector<std::uint8_t> reencoded;
      ASSERT_TRUE(registry.encode(decoded.value().kind,
                                  decoded.value().payload, reencoded));
      EXPECT_EQ(reencoded, encoded) << "kind " << kind << " iter " << iter;
    }
  }
}

/// Property: truncating a valid encoding at any point yields a clean
/// decode error (never UB, never an accept with trailing garbage).
TEST(WireRegistry, TruncationAlwaysRejectsCleanly) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0x7A11};
  for (const auto kind : registry.kinds()) {
    const auto payload = arbitrary_payload(kind, rng);
    std::vector<std::uint8_t> encoded;
    ASSERT_TRUE(registry.encode(kind, payload, encoded));
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      const auto decoded = registry.decode(encoded.data(), len);
      EXPECT_FALSE(decoded.ok())
          << "kind " << kind << ": prefix of " << len << "/" << encoded.size()
          << " bytes decoded";
    }
  }
}

/// Property: bit-flipped encodings either decode cleanly (the flip hit a
/// don't-care bit pattern that still spells a canonical message) or return
/// a clean error — and everything accepted re-encodes byte-identically.
TEST(WireRegistry, BitFlipsAreAcceptedCanonicallyOrRejectedCleanly) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{0xF11B5ULL};
  const auto kinds = registry.kinds();
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const auto kind = kinds[rng.next_below(kinds.size())];
    const auto payload = arbitrary_payload(kind, rng);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(registry.encode(kind, payload, bytes));
    ASSERT_FALSE(bytes.empty());
    bytes[rng.next_below(bytes.size())] ^=
        static_cast<std::uint8_t>(1U << rng.next_below(8));
    const auto decoded = registry.decode(bytes);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::vector<std::uint8_t> reencoded;
    ASSERT_TRUE(registry.encode(decoded.value().kind, decoded.value().payload,
                                reencoded));
    EXPECT_EQ(reencoded, bytes) << "accepted mutant must be canonical";
  }
  EXPECT_GT(rejected, 0) << "corpus never produced a rejecting flip";
}

TEST(WireRegistry, FrameValidation) {
  const auto& registry = WireRegistry::global();
  common::RngStream rng{42};
  const auto payload = arbitrary_payload(core::kind::kTokenGrant, rng);
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kTokenGrant, payload, encoded));

  // Unknown version byte.
  auto bad_version = encoded;
  bad_version[0] = kWireVersion + 1;
  EXPECT_EQ(registry.decode(bad_version).error().status,
            DecodeStatus::kBadVersion);

  // Unregistered kind.
  std::vector<std::uint8_t> unknown_kind;
  Writer<VectorSink> w{VectorSink{unknown_kind}};
  w.u8(kWireVersion);
  w.varint(9999);
  EXPECT_EQ(registry.decode(unknown_kind).error().status,
            DecodeStatus::kUnknownKind);

  // Trailing garbage after a complete message.
  auto trailing = encoded;
  trailing.push_back(0x00);
  EXPECT_EQ(registry.decode(trailing).error().status,
            DecodeStatus::kTrailingBytes);

  // Unregistered kinds / mismatched payloads size to 0 (the metering
  // sizer turns that into a loud failure).
  EXPECT_EQ(registry.encoded_size(9999, payload), 0u);
  EXPECT_EQ(
      registry.encoded_size(core::kind::kToken, payload),  // wrong type
      0u);
}

/// A bad enum byte inside the body (message-level corruption, not frame).
TEST(WireRegistry, BadEnumRejected) {
  const auto& registry = WireRegistry::global();
  core::MhRequestMsg msg{core::MhRequestKind::kJoin, common::Guid{5},
                         common::NodeId{}, common::GroupId{}};
  std::vector<std::uint8_t> encoded;
  ASSERT_TRUE(registry.encode(core::kind::kMhRequest, msg, encoded));
  // Body layout: [frame][kind-enum u8]... — the enum byte follows the
  // 1-byte version and 1-byte kind varint.
  encoded[2] = 250;
  EXPECT_EQ(registry.decode(encoded).error().status, DecodeStatus::kBadEnum);
}

}  // namespace
}  // namespace rgb::wire
