// Sharded-kernel contract tests: shard routing and clocks, global
// (between-windows) events, cross-shard outbox handoff at the barrier, and
// the core determinism claim — the trajectory is a function of the logical
// shard count alone, byte-identical for every worker-thread count.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rgb::sim {
namespace {

TEST(ShardedSimulator, OneShardReducesToSerialScheduler) {
  Simulator s;
  s.configure_shards(1, msec(1));
  EXPECT_FALSE(s.is_sharded());
  std::vector<int> order;
  s.schedule_at(msec(20), [&] { order.push_back(2); });
  s.schedule_at(msec(10), [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), msec(20));
}

TEST(ShardedSimulator, OneShardKeepsSetupAndEventSchedulesFifo) {
  // At K = 1 an outside-context schedule goes to shard 0's heap, not to
  // the globals map, so it interleaves with event-made schedules for the
  // same tick in schedule order — whichever side scheduled first.
  Simulator s;
  std::vector<std::string> order;
  s.schedule_at(msec(1), [&] {
    s.schedule_at(msec(3), [&] { order.push_back("event@3"); });
  });
  s.run_until(msec(2));
  const EventId setup =
      s.schedule_at(msec(3), [&] { order.push_back("setup@3"); });
  EXPECT_EQ(setup.shard, 0u);
  s.schedule_at(msec(4), [&] {
    s.schedule_at(msec(5), [&] { order.push_back("event@5"); });
  });
  s.schedule_at(msec(5), [&] { order.push_back("setup@5"); });
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"event@3", "setup@3",
                                             "setup@5", "event@5"}));
}

TEST(ShardedSimulator, OneShardFenceIsTheLastEventTime) {
  Simulator s;
  EXPECT_EQ(s.epoch(), 1u);  // one-tick windows: one timestamp each
  s.schedule_at(usec(1500), [] {});
  s.schedule_at(usec(700), [] {});
  s.run();
  EXPECT_EQ(s.now(), usec(1500));
  s.run_until(msec(2));
  EXPECT_EQ(s.now(), msec(2));
}

/// A same-tick-heavy mini-workload on one shard; returns its (time, id)
/// trace.
std::vector<std::pair<Time, int>> one_shard_trace(Simulator& s) {
  std::vector<std::pair<Time, int>> trace;
  std::function<void(int)> tick = [&](int id) {
    trace.emplace_back(s.now(), id);
    if (id >= 60) return;
    s.schedule_after(usec(static_cast<Time>(id % 3) * 400),
                     [&tick, id] { tick(id + 7); });
    if (id % 4 == 0) s.schedule_after(0, [&tick, id] { tick(id + 5); });
  };
  for (int i = 0; i < 4; ++i) {
    s.schedule_at(usec(static_cast<Time>(i % 2) * 300),
                  [&tick, i] { tick(i); });
  }
  s.run();
  return trace;
}

TEST(ShardedSimulator, OneShardIgnoresTheConfiguredEpoch) {
  Simulator plain;
  const auto expected = one_shard_trace(plain);
  EXPECT_GT(expected.size(), 20u);
  Simulator configured;
  configured.configure_shards(1, msec(5));
  EXPECT_EQ(configured.epoch(), 1u);
  EXPECT_EQ(one_shard_trace(configured), expected);
  EXPECT_EQ(configured.now(), plain.now());
}

TEST(ShardedSimulator, ScheduleOnRoutesToItsShard) {
  Simulator s;
  s.configure_shards(3, msec(1));
  std::vector<std::uint32_t> ran_on;
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    s.schedule_on(shard, msec(1), [&] {
      EXPECT_TRUE(in_shard_context());
      ran_on.push_back(current_executing_shard());
    });
  }
  s.run();
  // Workers default to 1: windows execute shards in index order.
  EXPECT_EQ(ran_on, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(in_shard_context());
}

TEST(ShardedSimulator, ScheduleAtInsideWindowStaysOnExecutingShard) {
  Simulator s;
  s.configure_shards(2, msec(1));
  std::uint32_t follow_up_shard = 99;
  s.schedule_on(1, msec(1), [&] {
    s.schedule_after(usec(10), [&] {
      follow_up_shard = current_executing_shard();
    });
  });
  s.run();
  EXPECT_EQ(follow_up_shard, 1u);
}

TEST(ShardedSimulator, GlobalsRunAtFencesInTimeSeqOrder) {
  Simulator s;
  s.configure_shards(2, msec(1));
  std::vector<std::string> order;
  s.schedule_on(0, msec(2), [&] { order.push_back("shard@2"); });
  s.schedule_global(msec(2), [&] {
    EXPECT_FALSE(in_shard_context());
    order.push_back("global@2a");
  });
  s.schedule_global(msec(2), [&] { order.push_back("global@2b"); });
  s.schedule_global(msec(1), [&] { order.push_back("global@1"); });
  s.run();
  // A fence at t precedes the windows from t: globals run first, FIFO
  // within the timestamp.
  EXPECT_EQ(order, (std::vector<std::string>{"global@1", "global@2a",
                                             "global@2b", "shard@2"}));
}

TEST(ShardedSimulator, ScheduleAtOutsideWindowsBecomesGlobal) {
  Simulator s;
  s.configure_shards(2, msec(1));
  bool in_shard = true;
  const EventId id = s.schedule_at(msec(1), [&] {
    in_shard = in_shard_context();
  });
  EXPECT_EQ(id.shard, Simulator::kGlobalShard);
  s.run();
  EXPECT_FALSE(in_shard);
}

TEST(ShardedSimulator, CrossShardHandoffDrainsAtBarrier) {
  Simulator s;
  s.configure_shards(2, msec(1));
  Time delivered_at = 0;
  std::uint32_t delivered_on = 99;
  s.schedule_on(0, msec(1), [&] {
    // Beyond the window end, as the lookahead contract requires (window =
    // [1ms, 2ms); target 3ms).
    s.schedule_on(1, s.now() + msec(2), [&] {
      delivered_at = s.now();
      delivered_on = current_executing_shard();
    });
  });
  s.run();
  EXPECT_EQ(delivered_at, msec(3));
  EXPECT_EQ(delivered_on, 1u);
}

TEST(ShardedSimulator, RunAsProvidesShardContextBetweenWindows) {
  Simulator s;
  s.configure_shards(3, msec(1));
  s.run_until(msec(5));
  s.run_as(2, [&] {
    EXPECT_TRUE(in_shard_context());
    EXPECT_EQ(current_executing_shard(), 2u);
    EXPECT_EQ(s.now(), msec(5));  // idle shard pulled up to the fence
  });
  EXPECT_FALSE(in_shard_context());
}

TEST(ShardedSimulator, CancelWorksAcrossShardsBetweenWindows) {
  Simulator s;
  s.configure_shards(2, msec(1));
  bool fired = false;
  const EventId id = s.schedule_on(1, msec(2), [&] { fired = true; });
  s.schedule_on(0, msec(1), [] {});
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(ShardedSimulator, FenceAfterDrainIsTheLastWindowEnd) {
  // With K > 1 the fence moves window by window: after a drain it sits at
  // the end of the last window, not at the last event's time.
  Simulator s;
  s.configure_shards(2, msec(1));
  s.schedule_on(1, usec(2500), [] {});
  s.schedule_on(0, usec(2200), [] {});
  s.run();
  EXPECT_EQ(s.now(), usec(2200) + msec(1) - 1);  // window [2.2ms, 3.2ms)
}

TEST(ShardedSimulator, PerShardClocksAndCountersAggregate) {
  Simulator s;
  s.configure_shards(2, msec(1));
  s.schedule_on(0, msec(1), [] {});
  s.schedule_on(1, msec(4), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.run();
  EXPECT_EQ(s.executed_events(), 2u);
  EXPECT_EQ(s.pending_events(), 0u);
}

/// One deterministic mini-workload: K shards each run a local event chain
/// and periodically hand work to the next shard; every fire appends to its
/// shard's own trace (single writer per shard, so recording is race-free
/// under any worker count). Returns the per-shard traces.
std::vector<std::vector<std::pair<Time, int>>> run_workload(
    unsigned workers) {
  constexpr std::uint32_t kShards = 4;
  Simulator s;
  s.configure_shards(kShards, msec(1));
  s.set_workers(workers);
  std::vector<std::vector<std::pair<Time, int>>> trace(kShards);

  std::function<void(int)> tick = [&](int step) {
    const std::uint32_t shard = current_executing_shard();
    trace[shard].emplace_back(s.now(), step);
    if (step >= 12) return;
    s.schedule_after(usec(700), [&tick, step] { tick(step + 1); });
    if (step % 3 == 0) {
      // Cross-shard handoff: 2 epochs out satisfies the lookahead bound.
      s.schedule_on((shard + 1) % kShards, s.now() + msec(2),
                    [&tick, step] { tick(step + 100); });
    }
  };
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    s.schedule_on(shard, msec(1) + usec(shard * 111),
                  [&tick] { tick(1); });
  }
  s.run();
  return trace;
}

TEST(ShardedSimulator, TrajectoryIndependentOfWorkerCount) {
  const auto serial = run_workload(1);
  std::size_t fired = 0;
  for (const auto& t : serial) {
    fired += t.size();
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  }
  EXPECT_GT(fired, 50u);  // the workload actually spread across shards
  EXPECT_EQ(run_workload(2), serial);
  EXPECT_EQ(run_workload(8), serial);
}

TEST(ShardedSimulator, RunUntilCapHoldsInShardedModeToo) {
  // The serial run_until cap regression, restated for the sharded loop:
  // a capped run must not advance the fence past still-pending windows.
  Simulator s;
  s.configure_shards(2, msec(1));
  for (Time t = 1; t <= 6; ++t) {
    s.schedule_on(t % 2 == 0 ? 1u : 0u, msec(t), [] {});
  }
  // The cap is window-granular in sharded mode: it stops between windows,
  // never past events that were due before the deadline.
  const auto executed = s.run_until(sec(1), 3);
  EXPECT_LT(executed, 6u);
  EXPECT_GT(s.pending_events(), 0u);
  EXPECT_LT(s.now(), sec(1));
  s.run_until(sec(1));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.now(), sec(1));
}

}  // namespace
}  // namespace rgb::sim
