#include "rgb/group_directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "rgb/types.hpp"

namespace rgb::core {
namespace {

MembershipOp member_op(std::uint64_t gid, OpKind kind, std::uint64_t seq,
                       std::uint64_t guid, std::uint64_t ap) {
  MembershipOp op;
  op.kind = kind;
  op.uid = seq;
  op.seq = seq;
  op.claim_seq = kind == OpKind::kMemberJoin ? seq : 1;
  op.gid = GroupId{gid};
  op.member =
      MemberRecord{Guid{guid}, NodeId{ap}, proto::MemberStatus::kOperational};
  return op;
}

TEST(GroupDirectory, AppliesOpsIntoPerGroupTables) {
  GroupDirectory dir;
  EXPECT_TRUE(dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100)));
  EXPECT_TRUE(dir.apply(member_op(2, OpKind::kMemberJoin, 1, 10, 200)));

  // Same guid, two groups, independent records.
  ASSERT_NE(dir.table_if(GroupId{1}), nullptr);
  ASSERT_NE(dir.table_if(GroupId{2}), nullptr);
  EXPECT_EQ(dir.table_if(GroupId{1})->find(Guid{10})->access_proxy,
            NodeId{100});
  EXPECT_EQ(dir.table_if(GroupId{2})->find(Guid{10})->access_proxy,
            NodeId{200});
  EXPECT_EQ(dir.group_count(), 2u);
  EXPECT_EQ(dir.total_size(), 2u);
}

TEST(GroupDirectory, ReadPathsDoNotInstantiateGroups) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  EXPECT_EQ(dir.table_if(GroupId{7}), nullptr);
  EXPECT_EQ(dir.claim_of(GroupId{7}, Guid{10}), 0u);
  EXPECT_FALSE(dir.lookup(GroupId{7}, Guid{10}).has_value());
  EXPECT_EQ(dir.group_count(), 1u);
  // table() is the write path and may create.
  (void)dir.table(GroupId{7});
  EXPECT_EQ(dir.group_count(), 2u);
}

TEST(GroupDirectory, ExportIsGidMajorGuidAscending) {
  GroupDirectory dir;
  dir.apply(member_op(5, OpKind::kMemberJoin, 1, 30, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 2, 40, 100));
  dir.apply(member_op(5, OpKind::kMemberJoin, 3, 20, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 4, 10, 100));

  const std::vector<TableEntry> all = dir.export_all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].gid, GroupId{2});
  EXPECT_EQ(all[0].record.guid, Guid{10});
  EXPECT_EQ(all[1].gid, GroupId{2});
  EXPECT_EQ(all[1].record.guid, Guid{40});
  EXPECT_EQ(all[2].gid, GroupId{5});
  EXPECT_EQ(all[2].record.guid, Guid{20});
  EXPECT_EQ(all[3].gid, GroupId{5});
  EXPECT_EQ(all[3].record.guid, Guid{30});

  const std::vector<TableEntry> scoped = dir.export_groups({GroupId{5}});
  ASSERT_EQ(scoped.size(), 2u);
  EXPECT_EQ(scoped[0].gid, GroupId{5});
  EXPECT_EQ(scoped[1].gid, GroupId{5});
}

TEST(GroupDirectory, ImportRoundTripsAndMergesByLattice) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(3, OpKind::kMemberJoin, 2, 20, 100));

  GroupDirectory b;
  EXPECT_TRUE(b.import_all(a.export_all()));
  EXPECT_EQ(b.export_all().size(), a.export_all().size());
  EXPECT_EQ(b.combined_digest().hash, a.combined_digest().hash);

  // Re-importing the same entries is a no-op.
  EXPECT_FALSE(b.import_all(a.export_all()));
}

TEST(GroupDirectory, CombinedDigestMixesGroupId) {
  // Identical member records in different groups must hash differently:
  // the combined digest covers (gid, entry), not just the entries.
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  GroupDirectory b;
  b.apply(member_op(2, OpKind::kMemberJoin, 1, 10, 100));

  EXPECT_NE(a.combined_digest().hash, b.combined_digest().hash);
  EXPECT_EQ(a.combined_digest().count, 1u);
}

TEST(GroupDirectory, PackedDigestsAreGidAscendingAndSkipEmptyGroups) {
  GroupDirectory dir;
  dir.apply(member_op(9, OpKind::kMemberJoin, 1, 10, 100));
  dir.apply(member_op(4, OpKind::kMemberJoin, 2, 20, 100));
  (void)dir.table(GroupId{6});  // instantiated but empty: not packed

  const std::vector<GroupDigest> packed = dir.packed_digests();
  ASSERT_EQ(packed.size(), 2u);
  EXPECT_EQ(packed[0].gid, GroupId{4});
  EXPECT_EQ(packed[0].count, 1u);
  EXPECT_EQ(packed[1].gid, GroupId{9});
}

TEST(GroupDirectory, DifferingGroupsFindsMismatchAndSenderOnlyGroups) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));

  GroupDirectory b;
  b.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));  // same as a
  b.apply(member_op(2, OpKind::kMemberJoin, 3, 30, 100));  // differs
  b.apply(member_op(5, OpKind::kMemberJoin, 4, 40, 100));  // only b has it

  const std::vector<GroupId> diff = a.differing_groups(b.packed_digests());
  // Group 1 matches; group 2 mismatches; group 5 is sender-only (a must
  // pull it to bootstrap). gid-ascending.
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0], GroupId{2});
  EXPECT_EQ(diff[1], GroupId{5});

  // Receiver-only groups are reported too: b never heard of group 7.
  a.apply(member_op(7, OpKind::kMemberJoin, 5, 70, 100));
  const std::vector<GroupId> diff2 = a.differing_groups(b.packed_digests());
  EXPECT_TRUE(std::find(diff2.begin(), diff2.end(), GroupId{7}) != diff2.end());
}

TEST(GroupDirectory, NewerThanIsGroupScoped) {
  GroupDirectory a;
  a.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));
  a.apply(member_op(2, OpKind::kMemberJoin, 3, 21, 100));

  GroupDirectory b;
  b.apply(member_op(2, OpKind::kMemberJoin, 2, 20, 100));

  // Scoped to group 2: only the entry b lacks comes back.
  const auto diff = a.newer_than(b.export_all(), {GroupId{2}});
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].gid, GroupId{2});
  EXPECT_EQ(diff[0].record.guid, Guid{21});

  // Empty scope = every group a holds.
  const auto full = a.newer_than(b.export_all(), {});
  EXPECT_EQ(full.size(), 2u);
}

TEST(GroupDirectory, MergedViewsDeduplicateAcrossGroups) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  dir.apply(member_op(2, OpKind::kMemberJoin, 2, 10, 100));  // same member
  dir.apply(member_op(2, OpKind::kMemberJoin, 3, 30, 200));

  EXPECT_TRUE(dir.contains(Guid{10}));
  EXPECT_FALSE(dir.contains(Guid{99}));

  const std::vector<MemberRecord> merged = dir.merged_snapshot();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].guid, Guid{10});
  EXPECT_EQ(merged[1].guid, Guid{30});

  const std::vector<MemberRecord> at100 = dir.merged_members_at(NodeId{100});
  ASSERT_EQ(at100.size(), 1u);
  EXPECT_EQ(at100[0].guid, Guid{10});

  const auto grouped = dir.grouped_members_at(NodeId{100});
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].first, GroupId{1});
  EXPECT_EQ(grouped[1].first, GroupId{2});

  const std::vector<GroupId> hosting = dir.groups_hosting(Guid{10}, NodeId{100});
  ASSERT_EQ(hosting.size(), 2u);
  EXPECT_EQ(hosting[0], GroupId{1});
  EXPECT_EQ(hosting[1], GroupId{2});
}

TEST(GroupDirectory, QueueRoutesByGroupAndDrainsNeOpsFirst) {
  GroupDirectory dir;
  dir.insert(member_op(3, OpKind::kMemberJoin, 1, 10, 100));
  dir.insert(member_op(1, OpKind::kMemberJoin, 2, 20, 100));

  MembershipOp ne_op;
  ne_op.kind = OpKind::kNeFail;
  ne_op.uid = 3;
  ne_op.seq = 3;
  ne_op.ne = NodeId{500};
  dir.insert(ne_op);

  EXPECT_FALSE(dir.queue_empty());
  EXPECT_EQ(dir.queue_size(), 3u);
  EXPECT_EQ(dir.ops_inserted(), 3u);

  const MessageQueue::Batch batch = dir.drain();
  ASSERT_EQ(batch.ops.size(), 3u);
  // NE ops ride first, then member ops in gid order.
  EXPECT_EQ(batch.ops[0].kind, OpKind::kNeFail);
  EXPECT_EQ(batch.ops[1].gid, GroupId{1});
  EXPECT_EQ(batch.ops[2].gid, GroupId{3});
  EXPECT_TRUE(dir.queue_empty());
}

TEST(GroupDirectory, ClearEmptiesEverything) {
  GroupDirectory dir;
  dir.apply(member_op(1, OpKind::kMemberJoin, 1, 10, 100));
  dir.insert(member_op(1, OpKind::kMemberJoin, 2, 20, 100));
  dir.clear();
  EXPECT_TRUE(dir.empty());
  EXPECT_TRUE(dir.queue_empty());
  EXPECT_EQ(dir.group_count(), 0u);
  EXPECT_EQ(dir.combined_digest().count, 0u);
}

TEST(GroupDirectory, QueueSweepsVisitOnlyTouchedGroups) {
  // 1000 groups held, 2 of them busy: each sweep must touch the 2, not walk
  // the 1000 (the per-op and per-tick cost of a token or probe decision).
  GroupDirectory dir;
  for (std::uint64_t gid = 1; gid <= 1000; ++gid) {
    dir.apply(member_op(gid, OpKind::kMemberJoin, gid, 1, 100));
  }
  ASSERT_EQ(dir.group_count(), 1000u);

  std::uint64_t seq = 1000;
  for (const std::uint64_t gid : {17u, 503u}) {
    // A pending op, plus a local join cancelled by a contributed leave: the
    // leave's contributor is owed an orphaned ack.
    dir.insert(member_op(gid, OpKind::kMemberJoin, ++seq, 2, 100));
    const std::uint64_t join_seq = ++seq;
    dir.insert(member_op(gid, OpKind::kMemberJoin, join_seq, 3, 100));
    MembershipOp leave = member_op(gid, OpKind::kMemberLeave, ++seq, 3, 100);
    leave.claim_seq = join_seq;
    dir.insert(leave, Contributor{NodeId{gid}, gid});
  }
  EXPECT_EQ(dir.queue_size(), 2u);
  EXPECT_EQ(dir.ops_collapsed(), 2u);

  const std::uint64_t start = dir.queue_visits();
  const std::vector<Contributor> acks = dir.take_orphaned_acks();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].ne, NodeId{17});
  EXPECT_EQ(acks[1].ne, NodeId{503});
  EXPECT_EQ(dir.queue_visits() - start, 2u);

  const MessageQueue::Batch batch = dir.drain();
  ASSERT_EQ(batch.ops.size(), 2u);
  EXPECT_EQ(batch.ops[0].gid, GroupId{17});
  EXPECT_EQ(batch.ops[1].gid, GroupId{503});
  EXPECT_EQ(dir.queue_visits() - start, 4u);

  // Nothing busy: both sweeps are free.
  EXPECT_TRUE(dir.take_orphaned_acks().empty());
  EXPECT_TRUE(dir.drain().empty());
  EXPECT_EQ(dir.queue_visits() - start, 4u);
}

/// SplitMix64 finalizer, restated from the combined-digest definition.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The combined digest folded over every table.
template <typename Tables, typename TableOf>
ViewDigest fold_digest(const Tables& tables, TableOf table_of) {
  ViewDigest out;
  for (const auto& [gid, st] : tables) {
    const MemberTable& tab = table_of(st);
    if (tab.empty()) continue;
    out.hash ^= splitmix(splitmix(gid.value()) ^ tab.digest().hash);
    out.count += tab.digest().count;
  }
  return out;
}

/// Reference directory: the brute-force O(G) walks over gid-ordered
/// {table, queue} pairs that the maintained sets and counters replace.
struct ReferenceDirectory {
  struct Group {
    MemberTable table;
    MessageQueue mq;
  };
  bool aggregate;
  std::map<GroupId, Group> groups;

  Group& group(GroupId gid) {
    const auto [it, inserted] = groups.try_emplace(gid);
    if (inserted) it->second.mq = MessageQueue{aggregate};
    return it->second;
  }

  MessageQueue::Batch drain(std::size_t max_ops) {
    MessageQueue::Batch batch;
    for (auto& [gid, g] : groups) {
      if (g.mq.empty()) continue;
      if (!aggregate && !batch.ops.empty()) break;
      if (aggregate && max_ops != 0 && batch.ops.size() >= max_ops) break;
      const std::size_t budget =
          !aggregate ? 1 : (max_ops == 0 ? 0 : max_ops - batch.ops.size());
      MessageQueue::Batch part = g.mq.drain(budget);
      for (MembershipOp& op : part.ops) batch.ops.push_back(op);
      for (const Contributor& c : part.contributors) {
        if (std::find(batch.contributors.begin(), batch.contributors.end(),
                      c) == batch.contributors.end()) {
          batch.contributors.push_back(c);
        }
      }
    }
    return batch;
  }

  std::vector<Contributor> take_orphaned_acks() {
    std::vector<Contributor> out;
    for (auto& [gid, g] : groups) {
      for (const Contributor& c : g.mq.take_orphaned_acks()) {
        if (std::find(out.begin(), out.end(), c) == out.end()) {
          out.push_back(c);
        }
      }
    }
    return out;
  }
};

void expect_same_ops(const std::vector<MembershipOp>& got,
                     const std::vector<MembershipOp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].gid, want[i].gid) << i;
    EXPECT_EQ(got[i].uid, want[i].uid) << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << i;
    EXPECT_EQ(got[i].member.access_proxy, want[i].member.access_proxy) << i;
  }
}

/// Every maintained number against its brute-force fold over groups() and
/// against the reference directory.
void expect_matches(const GroupDirectory& dir, const ReferenceDirectory& ref) {
  const ViewDigest folded = fold_digest(
      dir.groups(),
      [](const GroupDirectory::GroupState& st) -> const MemberTable& {
        return st.table;
      });
  EXPECT_EQ(dir.combined_digest(), folded);
  EXPECT_EQ(folded, fold_digest(ref.groups,
                                [](const ReferenceDirectory::Group& g)
                                    -> const MemberTable& { return g.table; }));
  EXPECT_EQ(dir.empty(), folded.count == 0);

  bool queue_empty = true;
  std::size_t queue_size = 0;
  std::uint64_t inserted = 0;
  std::uint64_t collapsed = 0;
  for (const auto& [gid, st] : dir.groups()) {
    queue_empty = queue_empty && st.mq.empty();
    queue_size += st.mq.size();
    inserted += st.mq.ops_inserted();
    collapsed += st.mq.ops_collapsed();
  }
  EXPECT_EQ(dir.queue_empty(), queue_empty);
  EXPECT_EQ(dir.queue_size(), queue_size);
  EXPECT_EQ(dir.ops_inserted(), inserted);
  EXPECT_EQ(dir.ops_collapsed(), collapsed);
  std::size_t ref_size = 0;
  for (const auto& [gid, g] : ref.groups) ref_size += g.mq.size();
  EXPECT_EQ(queue_size, ref_size);
}

TEST(GroupDirectory, MaintainedStateMatchesBruteForceFold) {
  constexpr std::uint64_t kGroups = 60;
  // Coverage: inserts whose cancel emptied a queue, and orphan sweeps that
  // collected from more than one group.
  int emptying_cancels = 0;
  int multi_group_sweeps = 0;
  for (const bool aggregate : {true, false}) {
    SCOPED_TRACE(aggregate ? "aggregating" : "non-aggregating");
    std::mt19937_64 rng{0x5EED};
    const auto pick = [&](std::uint64_t n) { return rng() % n; };
    GroupDirectory dir{aggregate};
    ReferenceDirectory ref{aggregate, {}};
    GroupDirectory donor;  // source of import_all payloads

    // Per (gid, guid): the attachment epoch and AP of the newest join or
    // handoff, so departures name the epoch they end (which is what lets a
    // local join and its leave cancel in the queue).
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        attached;
    std::uint64_t seq = 0;
    const auto random_op = [&] {
      const std::uint64_t gid = 1 + pick(kGroups);
      const std::uint64_t guid = 1 + pick(3);
      auto& [claim, ap] = attached[{gid, guid}];
      const std::uint64_t roll = pick(10);
      MembershipOp op;
      if (roll < 4 || claim == 0) {
        op = member_op(gid, OpKind::kMemberJoin, ++seq, guid, 100 + pick(4));
        claim = op.seq;
        ap = op.member.access_proxy.value();
      } else if (roll < 7) {
        op = member_op(gid, roll < 6 ? OpKind::kMemberLeave
                                     : OpKind::kMemberFail,
                       ++seq, guid, ap);
        op.claim_seq = claim;
      } else {
        op = member_op(gid, OpKind::kMemberHandoff, ++seq, guid, 100 + pick(4));
        op.claim_seq = op.seq;
        op.old_ap = NodeId{ap};
        claim = op.seq;
        ap = op.member.access_proxy.value();
      }
      return op;
    };
    const auto random_contributor = [&] {
      return pick(3) == 0 ? Contributor{}
                          : Contributor{NodeId{1 + pick(5)}, pick(4)};
    };

    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t roll = pick(100);
      if (roll < 35) {
        MembershipOp op = random_op();
        const Contributor c = random_contributor();
        MessageQueue& mq = ref.group(op.gid).mq;
        const bool was_empty = mq.empty();
        mq.insert(op, c);
        if (!was_empty && mq.empty()) ++emptying_cancels;
        dir.insert(std::move(op), c);
      } else if (roll < 45) {
        std::vector<MembershipOp> ops;
        for (std::uint64_t n = 1 + pick(6); n > 0; --n) {
          ops.push_back(random_op());
        }
        for (const MembershipOp& op : ops) ref.group(op.gid).mq.insert(op);
        dir.insert_batch(std::move(ops));
      } else if (roll < 50) {
        const std::size_t max_ops = std::vector<std::size_t>{0, 1, 3, 10}[pick(4)];
        const MessageQueue::Batch got = dir.drain(max_ops);
        const MessageQueue::Batch want = ref.drain(max_ops);
        expect_same_ops(got.ops, want.ops);
        EXPECT_EQ(got.contributors, want.contributors);
      } else if (roll < 52) {
        int owing = 0;
        for (const auto& [gid, st] : dir.groups()) {
          if (st.mq.has_orphaned_acks()) ++owing;
        }
        if (owing > 1) ++multi_group_sweeps;
        EXPECT_EQ(dir.take_orphaned_acks(), ref.take_orphaned_acks());
      } else if (roll < 80) {
        const MembershipOp op = random_op();
        EXPECT_EQ(dir.apply(op), ref.group(op.gid).table.apply(op));
        donor.apply(random_op());
      } else if (roll < 86) {
        // A gid-major run from a few of the donor's groups.
        std::vector<GroupId> gids;
        for (std::uint64_t g = 1; g <= kGroups; g += 1 + pick(15)) {
          gids.push_back(GroupId{g});
        }
        const std::vector<TableEntry> entries = donor.export_groups(gids);
        for (GroupId gid : gids) {
          std::vector<TableEntry> run;
          for (const TableEntry& e : entries) {
            if (e.gid == gid) run.push_back(e);
          }
          if (!run.empty()) ref.group(gid).table.import_entries(run);
        }
        dir.import_all(entries);
      } else if (roll < 90) {
        // Cancel burst: in a few groups a local join is cancelled by a
        // contributed leave, so one sweep owes acks from several groups.
        for (std::uint64_t n = 2 + pick(3); n > 0; --n) {
          const std::uint64_t gid = 1 + pick(kGroups);
          const MembershipOp join =
              member_op(gid, OpKind::kMemberJoin, ++seq, 50, 100);
          MembershipOp leave =
              member_op(gid, OpKind::kMemberLeave, ++seq, 50, 100);
          leave.claim_seq = join.seq;
          const Contributor c = random_contributor();
          for (const auto& [op, by] : {std::pair{join, Contributor{}},
                                       std::pair{leave, c}}) {
            ref.group(op.gid).mq.insert(op, by);
            dir.insert(op, by);
          }
        }
      } else if (roll < 98) {
        // Mutable table(): a direct upsert or removal behind the facade.
        const GroupId gid{1 + pick(kGroups)};
        const Guid guid{1 + pick(6)};
        if (pick(2) == 0) {
          const MemberRecord rec{guid, NodeId{100 + pick(4)},
                                 proto::MemberStatus::kOperational};
          dir.table(gid).upsert(rec);
          ref.group(gid).table.upsert(rec);
        } else {
          dir.table(gid).remove(guid);
          ref.group(gid).table.remove(guid);
        }
      } else if (step % 7 == 0) {
        dir.clear();
        ref.groups.clear();
        attached.clear();
      }
      expect_matches(dir, ref);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at step " << step;
      }
    }
  }
  EXPECT_GT(emptying_cancels, 0);
  EXPECT_GT(multi_group_sweeps, 0);
}

TEST(MemberGroups, StrideIsSortedDeterministicAndClamped) {
  // guid 7 with 10 groups, 3 per member: starts at 1 + 7 % 10 = 8, strides
  // cyclically — {8, then wraps}. Result is sorted gid-ascending.
  const std::vector<GroupId> got = member_groups(Guid{7}, 10, 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_TRUE(std::find(got.begin(), got.end(), GroupId{8}) != got.end());

  // Same inputs, same answer (no hidden state).
  EXPECT_EQ(member_groups(Guid{7}, 10, 3), got);

  // groups_per_member clamps to the group count; zero means one.
  EXPECT_EQ(member_groups(Guid{1}, 2, 99).size(), 2u);
  EXPECT_EQ(member_groups(Guid{1}, 4, 0).size(), 1u);

  // Single-group config: everyone lands in GroupId{1}.
  const std::vector<GroupId> single = member_groups(Guid{42}, 1, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], GroupId{1});
}

}  // namespace
}  // namespace rgb::core
