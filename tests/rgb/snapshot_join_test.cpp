// Snapshot bulk-join path (kSnapshot state transfer, PR4):
//  * the N=5000 join-surge divergence regression — post-drain per-ring
//    view disagreement pinned at zero for the snapshot path (and, since
//    the leader-MQ-starvation fix, for the dissemination path too: the
//    pin is the ROADMAP open item's deterministic measuring stick);
//  * dissemination/snapshot equivalence of the converged views;
//  * join-phase cost: the snapshot path must undercut per-op
//    dissemination on both events and encoded bytes;
//  * the NE-join pull path: a dynamic ring joiner receives the ring shape
//    only and pulls the member view as one framed transfer;
//  * corrupt snapshot blobs are rejected cleanly and the system converges
//    anyway.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "exp/bench.hpp"
#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"
#include "wire/snapshot.hpp"

namespace rgb::core {
namespace {

/// The join phase of the scale bench at N=5000, both join modes: surge,
/// drain, measure divergence BEFORE any anti-entropy warm-up.
TEST(SnapshotJoin, JoinSurgeDivergenceRegressionAt5000) {
  exp::ScaleConfig config;
  config.members = 5000;

  config.snapshot_join = true;
  const exp::ScaleStats snapshot = exp::run_scale_trial(config, false);
  config.snapshot_join = false;
  const exp::ScaleStats dissemination = exp::run_scale_trial(config, false);

  // The measuring stick: a drained join surge must leave zero residual
  // per-ring view disagreement on the snapshot path.
  EXPECT_EQ(snapshot.join_divergence, 0u);
  // The dissemination path is held to the same bar since the
  // leader-MQ-starvation fix (leaders now queue themselves for a grant, so
  // inter-ring notifications cannot starve past the retx budget and mark
  // edges down). If this ever regresses, the snapshot pin above still
  // isolates the dissemination machinery as the culprit.
  EXPECT_EQ(dissemination.join_divergence, 0u);

  // Both reach the same converged state.
  ASSERT_TRUE(snapshot.converged);
  ASSERT_TRUE(dissemination.converged);

  // And the bulk path is the cheaper way there: fewer simulator events and
  // fewer encoded bytes for the same outcome.
  EXPECT_LT(snapshot.join_events, dissemination.join_events);
  EXPECT_LT(snapshot.join_bytes, dissemination.join_bytes);
  EXPECT_GT(snapshot.join_snapshot_msgs, 0u);
  EXPECT_EQ(dissemination.join_snapshot_msgs, 0u);
}

/// Same deterministic faulty run under both join modes: identical final
/// views at every NE (the equivalence bar the digest/full anti-entropy
/// modes are also held to).
TEST(SnapshotJoin, ModesConvergeToIdenticalViews) {
  const auto run_mode = [](bool snapshot_join) {
    common::RngStream rng{0x5AB5};
    sim::Simulator simulator;
    net::Network network{simulator, rng.fork("net")};
    RgbConfig config;
    config.probe_period = sim::msec(100);
    config.snapshot_join = snapshot_join;
    RgbSystem sys{network, config, HierarchyLayout{2, 3}};
    sys.start_probing();
    for (std::uint64_t i = 1; i <= 30; ++i) {
      sys.join(Guid{i}, sys.aps()[i % sys.aps().size()]);
    }
    simulator.run_until(sim::sec(1));
    sys.handoff(Guid{3}, sys.aps()[7]);
    sys.leave(Guid{4});
    sys.fail(Guid{5});
    simulator.run_until(sim::sec(8));
    std::vector<std::vector<proto::MemberRecord>> views;
    for (const NodeId ne : sys.all_nes()) {
      views.push_back(sys.entity(ne)->ring_members().snapshot());
    }
    EXPECT_TRUE(sys.membership_converged())
        << "snapshot_join=" << snapshot_join;
    EXPECT_EQ(sys.view_divergence(), 0u);
    return views;
  };

  const auto snapshot = run_mode(true);
  const auto dissemination = run_mode(false);
  ASSERT_EQ(snapshot.size(), dissemination.size());
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i], dissemination[i]) << "NE index " << i;
  }
}

/// Dynamic NE join under snapshot_join: the admitting leader sends the
/// ring shape only; the joiner pulls the member view as one framed
/// kSnapshot transfer and ends up with the full table.
TEST(SnapshotJoin, NeJoinPullsOneFramedStateTransfer) {
  common::RngStream rng{0x11E};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;
  config.snapshot_join = true;
  RgbSystem sys{network, config, HierarchyLayout{1, 3}};
  for (std::uint64_t i = 1; i <= 50; ++i) {
    sys.join(Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run();

  // A fresh NE asks the ring leader for admission.
  RgbMetrics metrics;
  obs::ProtocolObs obs;
  NetworkEntity joiner{NodeId{777}, NeRole::kAccessProxy, 0, network, config,
                       metrics, obs};
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_msgs = 0;
  network.set_tap([&](const net::Envelope& env, bool) {
    if (env.kind == kind::kSnapshot && env.dst == joiner.id()) {
      ++snapshot_msgs;
      snapshot_bytes += env.size_bytes;
    }
  });
  joiner.request_ring_join(sys.aps().front());
  simulator.run();

  EXPECT_EQ(snapshot_msgs, 1u) << "one framed transfer, not a reform dump";
  EXPECT_GT(snapshot_bytes, 0u);
  EXPECT_EQ(joiner.ring_members().size(), 50u)
      << "the pulled snapshot must hand the joiner the full view";
  EXPECT_EQ(joiner.roster().size(), 4u);
}

/// A corrupted snapshot blob is rejected cleanly (metered, no state
/// change) and the next genuine transfer still converges the receiver.
TEST(SnapshotJoin, CorruptBlobRejectedCleanly) {
  common::RngStream rng{0xBAD};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;
  config.snapshot_join = true;
  RgbSystem sys{network, config, HierarchyLayout{1, 3}};
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sys.join(Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run();

  const NodeId receiver = sys.aps()[1];
  const auto before = sys.entity(receiver)->ring_members().digest();

  // Craft a kSnapshot whose blob is bit-flipped mid-stream and whose
  // digest advertises a (fictional) different table so the receiver
  // attempts the decode. The blob is gid-stamped, as the production
  // snapshot path builds it. Some flips are benign (they land on a field
  // the codec cannot check, e.g. an AP id), so flip from the middle on
  // until the decoder rejects the blob.
  SnapshotMsg msg;
  rgb::wire::encode_snapshot(sys.entity(sys.aps()[0])->directory().export_all(),
                             msg.blob);
  msg.digest = before.hash ^ 0x1;  // force a mismatch -> decode attempt
  msg.entry_count = before.count;
  std::size_t at = msg.blob.size() / 2;
  for (; at < msg.blob.size(); ++at) {
    msg.blob[at] ^= 0x40;
    if (!rgb::wire::decode_snapshot(msg.blob).ok()) break;
    msg.blob[at] ^= 0x40;
  }
  ASSERT_LT(at, msg.blob.size()) << "no mid-stream flip is rejected";
  network.send(net::Envelope{sys.aps()[0], receiver, kind::kSnapshot,
                             0, msg});
  simulator.run();
  EXPECT_EQ(sys.metrics().snapshot_decode_errors.value(), 1u);
  EXPECT_EQ(sys.entity(receiver)->ring_members().digest(), before)
      << "a rejected blob must not touch the view";

  // A genuine request/response transfer still reconciles: ask the sender
  // for a snapshot (the same message a pulling joiner emits).
  const ViewDigest mine = sys.entity(receiver)->ring_members().digest();
  network.send(net::Envelope{receiver, sys.aps()[0], kind::kSnapshotRequest,
                             0, SnapshotRequestMsg{mine.hash, mine.count}});
  simulator.run();
  EXPECT_EQ(sys.view_divergence(), 0u);
}

/// Flush-edge reliability (kSnapshotAck): a snapshot push lost to a crash
/// window is retransmitted until acked, so the bulk-join phase itself —
/// not just the eventual anti-entropy probe — heals the transfer.
TEST(SnapshotJoin, FlushPushRetransmitsUntilAcked) {
  common::RngStream rng{0xACE};
  sim::Simulator simulator;
  net::Network network{simulator, rng.fork("net")};
  RgbConfig config;
  config.probe_period = sim::msec(100);
  config.snapshot_join = true;
  config.notify_timeout = sim::msec(200);
  RgbSystem sys{network, config, HierarchyLayout{2, 3}};
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 6; ++i) {
    sys.join(Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  simulator.run_until(sim::sec(1));
  const std::uint64_t retx_before =
      sys.metrics().snapshot_retransmits.value();

  // BR 1 owes its child (the ring-1 leader) a snapshot for any change that
  // did not come from that subtree. Crash the child across the flush
  // window: the push dies in flight, and only the ack-driven retx loop —
  // not a second flush (there is none; the surge is over) — can land it.
  const NodeId child_leader = sys.rings(1)[0].front();
  sys.crash_ne(child_leader);
  sys.join(Guid{77}, sys.aps()[4]);  // ring 2: propagates up, owed down
  simulator.run_until(sim::msec(1600));
  sys.recover_ne(child_leader);
  simulator.run_until(sim::sec(6));

  EXPECT_GT(sys.metrics().snapshot_retransmits.value(), retx_before)
      << "the lost flush push must have been retried";
  EXPECT_TRUE(
      sys.entity(child_leader)->ring_members().contains(Guid{77}))
      << "the retried transfer must deliver the missed member";
  EXPECT_EQ(sys.view_divergence(), 0u);
}

}  // namespace
}  // namespace rgb::core
