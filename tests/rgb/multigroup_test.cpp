// Multi-group serving end to end: one hierarchy multiplexing G groups.
// Membership state is per-group (directory tables/queues); the probe, token,
// stability and reconcile machinery stays shared per-link. Covers per-group
// convergence (group_view_divergence, which a merged view cannot fake),
// group-scoped queries, per-group failure handling, and the facade's
// deterministic member_groups() fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace rgb::core {
namespace {

using testing::RgbSystemTest;

class MultigroupTest : public RgbSystemTest {
 protected:
  static RgbConfig grouped(std::uint64_t groups, std::uint64_t per_member) {
    RgbConfig config;
    config.groups = groups;
    config.groups_per_member = per_member;
    return config;
  }

  void populate(RgbSystem& sys, std::uint64_t members) {
    for (std::uint64_t i = 0; i < members; ++i) {
      sys.join(common::Guid{i + 1}, sys.aps()[i % sys.aps().size()]);
    }
    run_all();
  }

  QueryClient::Result group_query(RgbSystem& sys, GroupId gid,
                                  proto::QueryScheme scheme) {
    QueryClient client{NodeId{990001}, network_};
    std::optional<QueryClient::Result> result;
    client.issue_group(sys.query_plan(scheme), gid, sim::sec(5),
                       [&](QueryClient::Result r) { result = std::move(r); });
    run_all();
    EXPECT_TRUE(result.has_value());
    return std::move(*result);
  }
};

TEST_F(MultigroupTest, ConvergesPerGroupAcrossTheSharedHierarchy) {
  auto& sys = build(2, 3, grouped(4, 2));
  populate(sys, 24);
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.view_divergence(), 0u);
  EXPECT_EQ(sys.group_view_divergence(), 0u);

  // 24 members x 2 groups each = 48 (group, member) pairs, spread over the
  // member_groups() stride.
  EXPECT_EQ(sys.grouped_expected_membership().size(), 48u);
}

TEST_F(MultigroupTest, GroupedExpectedFollowsMemberGroupsStride) {
  auto& sys = build(2, 3, grouped(5, 2));
  populate(sys, 10);
  const auto grouped_members = sys.grouped_expected_membership();
  for (const auto& [gid, rec] : grouped_members) {
    const std::vector<GroupId> assigned = member_groups(rec.guid, sys.config());
    EXPECT_TRUE(std::find(assigned.begin(), assigned.end(), gid) !=
                assigned.end())
        << rec.guid << " reported in " << gid << " but assigned elsewhere";
  }
  // And it is (gid, guid)-sorted, the canonical oracle order.
  EXPECT_TRUE(std::is_sorted(
      grouped_members.begin(), grouped_members.end(),
      [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first < b.first
                                  : a.second.guid < b.second.guid;
      }));
}

TEST_F(MultigroupTest, GroupScopedQueryReturnsOnlyThatGroup) {
  auto& sys = build(2, 3, grouped(3, 1));
  populate(sys, 12);

  // Each guid g lives in exactly group 1 + g % 3; with guids 1..12 every
  // group holds 4 members.
  std::vector<std::uint64_t> per_group(3, 0);
  for (std::uint64_t g = 1; g <= 12; ++g) per_group[g % 3] += 1;

  std::uint64_t total = 0;
  for (std::uint64_t gid = 1; gid <= 3; ++gid) {
    const auto result =
        group_query(sys, GroupId{gid}, proto::QueryScheme::kTopmost);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.members.size(), per_group[gid - 1]);
    for (const MemberRecord& rec : result.members) {
      EXPECT_EQ(1 + rec.guid.value() % 3, gid)
          << rec.guid << " leaked into group " << gid;
    }
    total += result.members.size();
  }
  EXPECT_EQ(total, 12u);

  // The group-less query still answers the merged, deduplicated view.
  QueryClient client{NodeId{990002}, network_};
  std::optional<QueryClient::Result> merged;
  client.issue(sys.query_plan(proto::QueryScheme::kTopmost), sim::sec(5),
               [&](QueryClient::Result r) { merged = std::move(r); });
  run_all();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->members.size(), 12u);
}

TEST_F(MultigroupTest, LeaveAndFailRemoveTheMemberFromEveryGroup) {
  auto& sys = build(2, 3, grouped(4, 2));
  populate(sys, 8);
  ASSERT_EQ(sys.group_view_divergence(), 0u);

  sys.leave(common::Guid{3});
  sys.fail(common::Guid{5});
  run_all();

  EXPECT_EQ(sys.group_view_divergence(), 0u);
  // 8 members x 2 groups - 2 departed x 2 groups.
  EXPECT_EQ(sys.grouped_expected_membership().size(), 12u);
  for (const auto& [gid, rec] : sys.grouped_expected_membership()) {
    EXPECT_NE(rec.guid, common::Guid{3});
    EXPECT_NE(rec.guid, common::Guid{5});
  }
}

TEST_F(MultigroupTest, HandoffMovesTheMemberInAllItsGroups) {
  auto& sys = build(2, 3, grouped(3, 2));
  populate(sys, 6);
  const NodeId target = sys.aps().back();
  sys.handoff(common::Guid{1}, target);
  run_all();

  EXPECT_EQ(sys.group_view_divergence(), 0u);
  for (const auto& [gid, rec] : sys.grouped_expected_membership()) {
    if (rec.guid == common::Guid{1}) {
      EXPECT_EQ(rec.access_proxy, target);
    }
  }
}

TEST_F(MultigroupTest, SingleGroupConfigMatchesFlatSemantics) {
  // G=1 is the paper's protocol: grouped and flat oracles must agree
  // exactly (every member in GroupId{1}).
  auto& sys = build(2, 3, grouped(1, 1));
  populate(sys, 9);
  EXPECT_TRUE(sys.membership_converged());
  EXPECT_EQ(sys.view_divergence(), 0u);
  EXPECT_EQ(sys.group_view_divergence(), 0u);
  const auto grouped_members = sys.grouped_expected_membership();
  const auto flat = sys.expected_membership();
  ASSERT_EQ(grouped_members.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(grouped_members[i].first, GroupId{1});
    EXPECT_EQ(grouped_members[i].second.guid, flat[i].guid);
  }
}

}  // namespace
}  // namespace rgb::core
