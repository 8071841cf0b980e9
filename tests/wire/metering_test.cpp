// Encoded-byte metering: the codec is the only size model. The network
// sizer prices every send at its exact framed size — on the RGB hierarchy
// under every fault axis and on each baseline protocol — a send the
// registry cannot size fails loudly, and the PR3 >=10x digest-traffic pin
// holds on real bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/rng.hpp"
#include "exp/bench.hpp"
#include "flatring/flat_ring.hpp"
#include "gossip/gossip_membership.hpp"
#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_membership.hpp"
#include "wire/metering.hpp"
#include "wire/registry.hpp"

namespace rgb::wire {
namespace {

/// Taps every send attempt and checks it against the registry: each
/// envelope must be sizeable (encoded_size != 0) and carry exactly that
/// size. Keeps per-kind message counts and the byte total for coverage
/// and conservation checks.
struct EncodedSizeTap {
  std::map<net::MessageKind, std::uint64_t> per_kind;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mismatches = 0;

  void install(net::Network& network) {
    network.set_tap([this](const net::Envelope& env, bool) {
      const std::uint32_t encoded =
          WireRegistry::global().encoded_size(env.kind, env.payload);
      if (encoded == 0 || encoded != env.size_bytes) {
        ++mismatches;
        ADD_FAILURE() << "kind " << env.kind << ": size_bytes "
                      << env.size_bytes << " vs encoded " << encoded;
      }
      ++per_kind[env.kind];
      ++msgs;
      bytes += env.size_bytes;
    });
  }

  [[nodiscard]] bool saw(net::MessageKind kind) const {
    return per_kind.count(kind) != 0;
  }
};

/// The network meters encoded bytes once the sizer is attached: every
/// tapped envelope carries exactly the registry's framed size, and over a
/// fully drained run (no in-flight messages left) the byte counters equal
/// the tap's sums.
TEST(EncodedMetering, NetworkCountsExactEncodedBytes) {
  common::RngStream rng{0x31E7};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  EncodedSizeTap tap;
  tap.install(network);

  core::RgbConfig config;  // probing off: the run drains completely
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  ASSERT_TRUE(network.has_sizer());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run();  // drained: every sent message has reached its verdict

  const auto& metrics = network.metrics();
  EXPECT_GT(metrics.bytes_of(core::kind::kToken), 0u);
  EXPECT_GT(metrics.bytes_of(core::kind::kNotifyParent), 0u);
  EXPECT_EQ(metrics.sent, tap.msgs);
  EXPECT_EQ(metrics.bytes_sent, tap.bytes);
  EXPECT_EQ(tap.mismatches, 0u);
}

/// The same exactness on an RGB hierarchy under every fault axis at once:
/// several groups, sustained churn, the stability layer, partitions,
/// crashes, loss bursts, snapshot bulk-join, mobile hosts on the edge
/// plane and a query client — so no send site, retransmission or repair
/// path is priced by anything but the codec.
TEST(EncodedMetering, EveryRgbSendIsPricedByTheCodecUnderAllFaults) {
  common::RngStream rng{0x31E9};
  sim::Simulator simulator;
  net::LinkConfig link;
  link.latency = net::LatencyModel::uniform(sim::msec(1), sim::msec(3));
  net::Network network{simulator, rng.fork("net"), link};
  EncodedSizeTap tap;
  tap.install(network);

  core::RgbConfig config;
  config.groups = 4;
  config.groups_per_member = 2;
  config.stability = true;
  config.snapshot_join = true;
  config.probe_period = sim::msec(250);
  config.mh_failure_timeout = sim::msec(600);
  config.retx_timeout = sim::msec(30);
  config.max_retx = 8;
  config.notify_timeout = sim::msec(300);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.start_probing();

  check::GroundTruth truth;
  constexpr std::uint64_t kMembers = 12;
  for (std::uint64_t i = 1; i <= kMembers; ++i) {
    const common::NodeId ap = sys.aps()[i % sys.aps().size()];
    sys.join(common::Guid{i}, ap);
    truth.join(common::Guid{i}, ap);
  }
  // Edge plane: a heartbeating host that joins, hands off and goes silent.
  core::MobileHost mh{common::NodeId{900001}, common::Guid{500},
                      core::member_groups(common::Guid{500}, config), network,
                      sim::msec(100)};
  mh.join_via(sys.aps()[0]);

  check::ScheduleGenConfig gen;
  gen.events = 14;
  gen.window = sim::sec(4);
  gen.ne_count = core::HierarchyLayout{2, 3}.ne_count();
  gen.ap_count = sys.aps().size();
  gen.max_guid = kMembers;
  gen.partitions = true;
  gen.churn = true;
  check::ScheduleDriver driver{
      simulator, network, sys, truth,
      check::Topology{sys.all_nes(), sys.aps(), kMembers}};
  driver.arm(check::random_schedule(gen, 0x5EED));

  core::QueryClient client{common::NodeId{990001}, network};
  std::optional<core::QueryClient::Result> result;
  simulator.schedule_at(sim::sec(2), [&] {
    mh.handoff_to(sys.aps()[1]);
    client.issue_group(sys.query_plan(proto::QueryScheme::kBottommost),
                       common::GroupId{1}, sim::sec(1),
                       [&](core::QueryClient::Result r) { result = r; });
  });
  simulator.schedule_at(sim::sec(3), [&] { mh.fail(); });
  simulator.run_until(driver.horizon() + sim::sec(8));

  EXPECT_GT(driver.events_applied(), 0u);
  EXPECT_TRUE(result.has_value());
  EXPECT_EQ(tap.mismatches, 0u);
  for (const net::MessageKind kind :
       {core::kind::kToken, core::kind::kNotifyParent, core::kind::kProbe,
        core::kind::kViewSync, core::kind::kSnapshot, core::kind::kAlert,
        core::kind::kMhRequest, core::kind::kMhHeartbeat,
        core::kind::kQueryRequest, core::kind::kQueryReply}) {
    EXPECT_TRUE(tap.saw(kind)) << "kind " << kind << " never sent";
  }
}

/// Each baseline protocol's traffic is priced by the codec too.
TEST(EncodedMetering, EveryBaselineSendIsPricedByTheCodec) {
  for (const check::Protocol protocol :
       {check::Protocol::kTree, check::Protocol::kFlatRing,
        check::Protocol::kGossip}) {
    SCOPED_TRACE(check::to_string(protocol));
    common::RngStream rng{0x31EA};
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    EncodedSizeTap tap;
    tap.install(network);

    std::optional<tree::TreeSystem> tree;
    std::optional<flatring::FlatRingSystem> ring;
    std::optional<gossip::GossipSystem> gossip;
    proto::MembershipService* service = nullptr;
    std::vector<common::NodeId> aps;
    switch (protocol) {
      case check::Protocol::kTree:
        service = &tree.emplace(network, tree::TreeConfig{3, 3, true});
        aps = tree->leaves();
        break;
      case check::Protocol::kFlatRing:
        service = &ring.emplace(network, flatring::FlatRingConfig{9});
        aps = ring->aps();
        break;
      default: {
        gossip::GossipConfig config;
        config.nodes = 9;
        service = &gossip.emplace(network, config,
                                  common::RngStream{0xB0551C}.fork("gossip"));
        gossip->start();
        aps = gossip->aps();
        break;
      }
    }
    ASSERT_TRUE(network.has_sizer());
    for (std::uint64_t i = 1; i <= 6; ++i) {
      service->join(common::Guid{i}, aps[i % aps.size()]);
    }
    simulator.run_until(sim::sec(1));
    service->handoff(common::Guid{1}, aps[0]);
    service->leave(common::Guid{2});
    simulator.run_until(sim::sec(3));

    EXPECT_GT(tap.msgs, 0u);
    EXPECT_EQ(tap.mismatches, 0u);
  }
}

/// A send the registry cannot size is a programming error in every build
/// type: an unregistered kind and a payload of the wrong type both throw
/// instead of being metered at some default size.
TEST(EncodedMetering, UnsizeableSendFailsLoudly) {
  common::RngStream rng{0x31EB};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  attach_encoded_metering(network);
  const common::NodeId a{1};
  const common::NodeId b{2};
  ASSERT_EQ(WireRegistry::global().find(0), nullptr);
  EXPECT_THROW(network.send(net::Envelope{a, b, 0, 0, std::string{"x"}}),
               std::logic_error);
  EXPECT_THROW(network.send(net::Envelope{a, b, core::kind::kToken, 0,
                                          std::string{"not a token"}}),
               std::logic_error);
  EXPECT_EQ(network.metrics().sent, 0u);
  EXPECT_EQ(network.metrics().bytes_sent, 0u);
}

/// kViewSync specifically (the re-pinned traffic claim's kind) is metered
/// at encoded size: the tap asserts per-envelope equality while probing.
TEST(EncodedMetering, ViewSyncEnvelopesCarryEncodedSize) {
  common::RngStream rng{0x31E8};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  std::uint64_t viewsyncs = 0;
  network.set_tap([&](const net::Envelope& env, bool) {
    if (env.kind != core::kind::kViewSync) return;
    ++viewsyncs;
    EXPECT_EQ(env.size_bytes,
              WireRegistry::global().encoded_size(env.kind, env.payload));
  });
  core::RgbConfig config;
  config.probe_period = sim::msec(100);
  core::RgbSystem sys{network, config, core::HierarchyLayout{2, 3}};
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 8; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run_until(sim::sec(2));
  EXPECT_GT(viewsyncs, 0u);
}

/// The PR3 acceptance pin, re-validated on real encoded bytes: at N=1000
/// the steady-state kViewSync traffic of digest mode stays >=10x below
/// full-table mode.
TEST(EncodedMetering, DigestTrafficPinHoldsOnRealBytes) {
  exp::ScaleConfig config;
  config.members = 1000;
  config.digest = true;
  const exp::ScaleStats digest = exp::run_scale_trial(config, false);
  config.digest = false;
  const exp::ScaleStats full = exp::run_scale_trial(config, false);
  ASSERT_TRUE(digest.converged);
  ASSERT_TRUE(full.converged);
  EXPECT_GE(full.viewsync_bytes, 10 * digest.viewsync_bytes)
      << "digest=" << digest.viewsync_bytes
      << " full=" << full.viewsync_bytes;
}

}  // namespace
}  // namespace rgb::wire
