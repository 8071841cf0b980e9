// Multi-tier hierarchy behaviour: propagation up/down, hop-count
// conformance with formula (6), maintenance schemes, dynamic NE membership.
#include <gtest/gtest.h>

#include "analysis/scalability.hpp"
#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class HierarchyTest : public RgbSystemTest {};

TEST_F(HierarchyTest, LayoutCounts) {
  core::HierarchyLayout layout{.ring_tiers = 3, .ring_size = 5};
  EXPECT_EQ(layout.ap_count(), 125u);
  EXPECT_EQ(layout.ring_count(), 31u);
  EXPECT_EQ(layout.ne_count(), 155u);
}

TEST_F(HierarchyTest, ParentChildWiring) {
  auto& sys = build(3, 3);
  // Every AP ring's leader reports to an AG; every AG ring's leader to a BR.
  for (int tier = 1; tier < 3; ++tier) {
    for (const auto& ring : sys.rings(tier)) {
      const auto* leader = sys.entity(ring.front());
      ASSERT_TRUE(leader->parent().valid());
      const auto* parent = sys.entity(leader->parent());
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->tier(), tier - 1);
      EXPECT_EQ(parent->child(), leader->id());
      EXPECT_TRUE(parent->child_ok());
      // Non-leaders know the parent too but have no child binding to it.
      for (const auto id : ring) {
        EXPECT_EQ(sys.entity(id)->parent(), leader->parent());
      }
    }
  }
  // Topmost ring has no parents.
  for (const auto id : sys.rings(0).front()) {
    EXPECT_FALSE(sys.entity(id)->parent().valid());
    EXPECT_FALSE(sys.entity(id)->parent_ok());
  }
}

TEST_F(HierarchyTest, RolesPerTier) {
  auto& sys = build(3, 3);
  EXPECT_EQ(sys.entity(sys.rings(0).front().front())->role(),
            NeRole::kBorderRouter);
  EXPECT_EQ(sys.entity(sys.rings(1).front().front())->role(),
            NeRole::kAccessGateway);
  EXPECT_EQ(sys.entity(sys.rings(2).front().front())->role(),
            NeRole::kAccessProxy);
}

TEST_F(HierarchyTest, JoinPropagatesToEveryTier) {
  auto& sys = build(3, 3);
  sys.join(common::Guid{1}, sys.aps().front());
  run_all();
  EXPECT_TRUE(sys.membership_converged());
  // Spot-check one NE per tier.
  for (int tier = 0; tier < 3; ++tier) {
    const auto id = sys.rings(tier).front().front();
    EXPECT_TRUE(sys.entity(id)->ring_members().contains(common::Guid{1}))
        << "tier " << tier;
  }
}

// Table I conformance: measured proposal hops == (r+1)*tn - 1 per change.
struct HopCase {
  int tiers;
  int ring_size;
};

class HopConformance : public RgbSystemTest,
                       public ::testing::WithParamInterface<HopCase> {};

TEST_P(HopConformance, MeasuredHopsMatchFormula6) {
  const auto& p = GetParam();
  auto& sys = build(p.tiers, p.ring_size);
  sys.join(common::Guid{1}, sys.aps().front());
  run_all();
  EXPECT_EQ(proposal_hops(),
            analysis::hcn_ring(p.tiers, p.ring_size))
      << "h=" << p.tiers << " r=" << p.ring_size;
  EXPECT_TRUE(sys.membership_converged());
}

INSTANTIATE_TEST_SUITE_P(Shapes, HopConformance,
                         ::testing::Values(HopCase{2, 2}, HopCase{2, 3},
                                           HopCase{2, 5}, HopCase{3, 2},
                                           HopCase{3, 3}, HopCase{3, 4},
                                           HopCase{3, 5}, HopCase{4, 2},
                                           HopCase{4, 3}));

TEST_F(HierarchyTest, ChangeOriginDoesNotAffectHopCount) {
  // Formula (6) is origin-independent: any AP's change floods all rings.
  for (const std::size_t origin : {std::size_t{0}, std::size_t{13},
                                   std::size_t{24}}) {
    sim::Simulator fresh_sim;
    net::Network fresh_net{fresh_sim, common::RngStream{1}};
    RgbSystem sys{fresh_net, RgbConfig{},
                  HierarchyLayout{.ring_tiers = 2, .ring_size = 5}};
    sys.join(common::Guid{1}, sys.aps()[origin]);
    fresh_sim.run();
    std::uint64_t hops = 0;
    for (const auto& [kind, count] : fresh_net.metrics().sent_per_kind) {
      if (kind::is_proposal_kind(kind)) hops += count;
    }
    EXPECT_EQ(hops, analysis::hcn_ring(2, 5)) << "origin " << origin;
  }
}

TEST_F(HierarchyTest, HandoffAcrossRingsConverges) {
  auto& sys = build(3, 3);
  const auto ap_a = sys.aps().front();   // first AP ring
  const auto ap_b = sys.aps().back();    // last AP ring (different subtree)
  sys.join(common::Guid{1}, ap_a);
  run_all();
  sys.handoff(common::Guid{1}, ap_b);
  run_all();
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.entity(ap_a)->local_members().size(), 0u);
  EXPECT_EQ(sys.entity(ap_b)->local_members().size(), 1u);
  // The top ring sees the member at its new AP.
  const auto top = sys.membership(proto::QueryScheme::kTopmost);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].access_proxy, ap_b);
}

TEST_F(HierarchyTest, ManyJoinsAcrossApsConverge) {
  auto& sys = build(3, 3);
  for (std::uint64_t i = 0; i < 27; ++i) {
    sys.join(common::Guid{i + 1}, sys.aps()[i % sys.aps().size()]);
  }
  run_all();
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.membership().size(), 27u);
  EXPECT_TRUE(sys.rings_consistent());
}

TEST_F(HierarchyTest, FailRemovesMemberEverywhere) {
  auto& sys = build(3, 3);
  sys.join(common::Guid{1}, sys.aps().front());
  sys.join(common::Guid{2}, sys.aps().back());
  run_all();
  sys.fail(common::Guid{1});
  run_all();
  EXPECT_TRUE(sys.membership_converged());
  const auto view = sys.membership();
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0].guid, common::Guid{2});
}

// --- maintenance schemes (Section 4.4) --------------------------------------

TEST_F(HierarchyTest, BmsKeepsChangesOutOfUpperTiers) {
  RgbConfig config;
  config.retain_tier = 2;          // BMS: nothing propagates above AP rings
  config.disseminate_down = false;
  auto& sys = build(3, 3, config);
  sys.join(common::Guid{1}, sys.aps().front());
  run_all();
  // AP ring knows; AG and BR do not.
  EXPECT_TRUE(sys.entity(sys.aps().front())
                  ->ring_members()
                  .contains(common::Guid{1}));
  EXPECT_FALSE(sys.entity(sys.rings(1).front().front())
                   ->ring_members()
                   .contains(common::Guid{1}));
  EXPECT_FALSE(sys.entity(sys.rings(0).front().front())
                   ->ring_members()
                   .contains(common::Guid{1}));
  // BMS query (union over AP ring leaders) still finds the member.
  const auto view = sys.membership(proto::QueryScheme::kBottommost);
  ASSERT_EQ(view.size(), 1u);
  // ... but the topmost view is empty.
  EXPECT_TRUE(sys.membership(proto::QueryScheme::kTopmost).empty());
}

TEST_F(HierarchyTest, ImsStopsAtIntermediateTier) {
  RgbConfig config;
  config.retain_tier = 1;  // IMS: AGs learn, BRs do not
  config.disseminate_down = false;
  auto& sys = build(3, 3, config);
  sys.join(common::Guid{1}, sys.aps().front());
  run_all();
  EXPECT_TRUE(sys.entity(sys.rings(1).front().front())
                  ->ring_members()
                  .contains(common::Guid{1}));
  EXPECT_FALSE(sys.entity(sys.rings(0).front().front())
                   ->ring_members()
                   .contains(common::Guid{1}));
  EXPECT_EQ(sys.membership(proto::QueryScheme::kIntermediate).size(), 1u);
}

TEST_F(HierarchyTest, BmsCostsFewerHopsThanTms) {
  RgbConfig bms;
  bms.retain_tier = 2;
  bms.disseminate_down = false;

  sim::Simulator sim_b;
  net::Network net_b{sim_b, common::RngStream{1}};
  RgbSystem sys_b{net_b, bms, HierarchyLayout{.ring_tiers = 3, .ring_size = 3}};
  sys_b.join(common::Guid{1}, sys_b.aps().front());
  sim_b.run();
  std::uint64_t hops_b = 0;
  for (const auto& [kind, count] : net_b.metrics().sent_per_kind) {
    if (kind::is_proposal_kind(kind)) hops_b += count;
  }

  auto& sys_t = build(3, 3);  // TMS default
  sys_t.join(common::Guid{1}, sys_t.aps().front());
  run_all();
  EXPECT_LT(hops_b, proposal_hops());
  EXPECT_EQ(hops_b, 3u);  // exactly one AP-ring round, nothing else
}

TEST_F(HierarchyTest, QueryPlansPerScheme) {
  auto& sys = build(3, 3);
  EXPECT_EQ(sys.query_plan(proto::QueryScheme::kTopmost).targets.size(), 1u);
  EXPECT_EQ(sys.query_plan(proto::QueryScheme::kIntermediate).targets.size(),
            3u);  // r AG rings
  EXPECT_EQ(sys.query_plan(proto::QueryScheme::kBottommost).targets.size(),
            9u);  // r^2 AP rings
}

// --- dynamic NE membership (Section 4.3) ---------------------------------------

TEST_F(HierarchyTest, NeJoinSplicesIntoRingAfterLeader) {
  auto& sys = build(1, 4);
  RgbConfig joiner_config;  // must outlive the NE
  RgbMetrics metrics;
  obs::ProtocolObs obs;
  NetworkEntity newcomer{NodeId{5000}, NeRole::kAccessProxy, 0, network_,
                         joiner_config, metrics, obs};
  const auto leader = sys.rings(0).front().front();
  newcomer.request_ring_join(leader);
  run_all();
  // All five nodes (old four + newcomer) agree on a 5-node roster.
  EXPECT_EQ(newcomer.roster().size(), 5u);
  for (const auto id : sys.rings(0).front()) {
    EXPECT_EQ(sys.entity(id)->roster().size(), 5u);
  }
  // The newcomer sits right after the leader.
  EXPECT_EQ(sys.entity(leader)->next_node(), newcomer.id());
  EXPECT_EQ(newcomer.leader(), leader);
}

TEST_F(HierarchyTest, JoinedNeReceivesMembershipState) {
  auto& sys = build(1, 3);
  sys.join(common::Guid{42}, sys.aps().front());
  run_all();
  RgbConfig joiner_config;
  RgbMetrics metrics;
  obs::ProtocolObs obs;
  NetworkEntity newcomer{NodeId{5000}, NeRole::kAccessProxy, 0, network_,
                         joiner_config, metrics, obs};
  newcomer.request_ring_join(sys.rings(0).front().front());
  run_all();
  EXPECT_TRUE(newcomer.ring_members().contains(common::Guid{42}));
}

TEST_F(HierarchyTest, GracefulLeaveShrinksRing) {
  auto& sys = build(1, 4);
  const auto& ring = sys.rings(0).front();
  auto* leaver = sys.entity(ring[2]);  // non-leader
  leaver->request_ring_leave();
  run_all();
  for (const auto id : ring) {
    if (id == ring[2]) continue;
    EXPECT_EQ(sys.entity(id)->roster().size(), 3u);
  }
  EXPECT_TRUE(leaver->roster().empty());  // detached after Holder-Ack
  // Remaining ring still works.
  sys.join(common::Guid{1}, ring[1]);
  run_all();
  EXPECT_TRUE(sys.entity(ring[0])->ring_members().contains(common::Guid{1}));
}

TEST_F(HierarchyTest, LostLeaveRequestIsRetransmitted) {
  auto& sys = build(1, 4);
  const auto& ring = sys.rings(0).front();
  auto* leaver = sys.entity(ring[2]);  // non-leader
  const net::LinkConfig healthy{};
  network_.set_link(ring[2], ring[0], net::LinkConfig{healthy.latency, 1.0});
  leaver->request_ring_leave();  // the first request is dropped
  network_.set_link(ring[2], ring[0], healthy);
  run_all();
  for (const auto id : ring) {
    if (id == ring[2]) continue;
    EXPECT_EQ(sys.entity(id)->roster().size(), 3u);
  }
  EXPECT_TRUE(leaver->roster().empty());  // detached after Holder-Ack
}

TEST_F(HierarchyTest, LeaderLeaveHandsOverLeadership) {
  auto& sys = build(1, 4);
  const auto& ring = sys.rings(0).front();
  auto* old_leader = sys.entity(ring[0]);
  old_leader->request_ring_leave();
  run_all();
  // Lowest remaining id becomes leader.
  const auto* successor = sys.entity(ring[1]);
  EXPECT_TRUE(successor->is_leader());
  for (const auto id : {ring[1], ring[2], ring[3]}) {
    EXPECT_EQ(sys.entity(id)->leader(), ring[1]);
    EXPECT_EQ(sys.entity(id)->roster().size(), 3u);
  }
  // Ring remains operational under the new leader.
  sys.join(common::Guid{5}, ring[2]);
  run_all();
  EXPECT_TRUE(sys.entity(ring[3])->ring_members().contains(common::Guid{5}));
}

TEST_F(HierarchyTest, SingletonFormationThenGrowth) {
  RgbConfig config;  // outlives the NEs
  RgbMetrics metrics;
  obs::ProtocolObs obs;
  NetworkEntity first{NodeId{7000}, NeRole::kAccessProxy, 0, network_,
                      config, metrics, obs};
  first.form_singleton_ring();
  EXPECT_TRUE(first.is_leader());
  EXPECT_EQ(first.roster().size(), 1u);

  NetworkEntity second{NodeId{7001}, NeRole::kAccessProxy, 0, network_,
                       config, metrics, obs};
  second.request_ring_join(first.id());
  run_all();
  EXPECT_EQ(first.roster().size(), 2u);
  EXPECT_EQ(second.roster().size(), 2u);
  EXPECT_EQ(first.next_node(), second.id());
  EXPECT_EQ(second.next_node(), first.id());
}

TEST_F(HierarchyTest, ExpectedMembershipTracksFacadeCalls) {
  auto& sys = build(2, 2);
  sys.join(common::Guid{1}, sys.aps()[0]);
  sys.join(common::Guid{2}, sys.aps()[1]);
  sys.leave(common::Guid{1});
  const auto expected = sys.expected_membership();
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].guid, common::Guid{2});
  EXPECT_EQ(sys.ap_of(common::Guid{2}), sys.aps()[1]);
  EXPECT_FALSE(sys.ap_of(common::Guid{1}).valid());
}

}  // namespace
}  // namespace rgb::core
