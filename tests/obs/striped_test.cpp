// Per-shard striping: sim::Striped's stripe-selection rule, the bounded
// obs::StripedRing (overwrite, drop accounting, the (time, stripe, order)
// merge, clear), SpanRecorder's per-stripe ids and context, and the
// single-stripe accessors that hand out the live object.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "obs/striped_ring.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/striped.hpp"

namespace rgb::obs {
namespace {

constexpr std::uint32_t kShards = 3;

/// A 3-shard simulator: run_as(s) executes as shard s.
class StripedTest : public ::testing::Test {
 protected:
  StripedTest() { simulator_.configure_shards(kShards, sim::msec(1)); }

  void as_shard(std::uint32_t shard, const std::function<void()>& fn) {
    simulator_.run_as(shard, fn);
  }

  sim::Simulator simulator_;
};

TEST_F(StripedTest, WritesOutsideAnyWindowLandInStripeZero) {
  sim::Striped<int> striped{simulator_.shard_count()};
  ASSERT_EQ(striped.size(), kShards);
  striped.local() += 1;  // setup code: no shard context
  as_shard(2, [&] { striped.local() += 10; });
  simulator_.schedule_on(1, sim::msec(5), [&] { striped.local() += 100; });
  simulator_.run();
  EXPECT_EQ(striped[0], 1);
  EXPECT_EQ(striped[1], 100);
  EXPECT_EQ(striped[2], 10);
  EXPECT_EQ(striped.local_index(), 0u);

  // A shard beyond the stripe count also writes stripe 0.
  sim::Striped<int> narrow{2};
  as_shard(2, [&] { narrow.local() += 5; });
  EXPECT_EQ(narrow[0], 5);
  EXPECT_EQ(narrow[1], 0);

  // The init form builds stripes in shard order.
  const sim::Striped<std::string> named{
      kShards, [](std::uint32_t i) { return "s" + std::to_string(i); }};
  std::vector<std::string> order;
  for (const std::string& s : named) order.push_back(s);
  EXPECT_EQ(order, (std::vector<std::string>{"s0", "s1", "s2"}));
  EXPECT_EQ(named.index_of(named[2]), 2u);
}

struct Event {
  sim::Time at = 0;
  int tag = 0;
};

std::vector<int> tags(const std::vector<Event>& events) {
  std::vector<int> out;
  for (const Event& e : events) out.push_back(e.tag);
  return out;
}

TEST_F(StripedTest, RingMergesEqualTimesInStripeOrderAndKeepsRecordingOrder) {
  StripedRing<Event> ring{kShards, 8, StripedRing<Event>::Reserve::kLazy};
  as_shard(2, [&] {
    ring.push({5, 20});
    ring.push({5, 21});
  });
  as_shard(1, [&] {
    ring.push({5, 10});
    ring.push({7, 11});
  });
  ring.push({1, 0});  // outside any window: stripe 0
  ring.push({5, 1});
  EXPECT_EQ(tags(ring.merged()),
            (std::vector<int>{0, 1, 10, 20, 21, 11}));
}

TEST_F(StripedTest, WrappedStripeKeepsNewestAndCountsSumOverStripes) {
  StripedRing<Event> ring{kShards, 4, StripedRing<Event>::Reserve::kUpFront};
  as_shard(1, [&] {
    for (int i = 1; i <= 10; ++i) ring.push({static_cast<sim::Time>(i), i});
  });
  ring.push({0, -1});
  ring.push({20, -2});
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 6u);
  EXPECT_EQ(ring.recorded(), 12u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(tags(ring.merged()), (std::vector<int>{-1, 7, 8, 9, 10, -2}));

  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.merged().empty());

  // The flight recorder stores its events in the same ring.
  FlightRecorder flight{2, kShards};
  as_shard(2, [&] {
    for (sim::Time t = 1; t <= 3; ++t) {
      flight.record(t, common::NodeId{9}, FlightKind::kRepair, t);
    }
  });
  flight.record(2, common::NodeId{1}, FlightKind::kMerge);
  EXPECT_EQ(flight.recorded(), 4u);
  EXPECT_EQ(flight.dropped(), 1u);
  const std::vector<FlightEvent> events = flight.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightKind::kMerge);  // t=2, stripe 0 first
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_EQ(events[2].a, 3u);
}

TEST_F(StripedTest, SpanClearResetsIdsAndContext) {
  SpanRecorder spans{16, kShards};
  spans.set_enabled(true);
  const auto record = [&spans] {
    return spans.record(1, common::NodeId{1}, SpanKind::kSend, 7, 0, 0, 0);
  };
  std::uint64_t first = 0;
  as_shard(1, [&] {
    first = record();
    EXPECT_EQ(record(), first + 1);
    spans.exchange({7, first});
  });
  // Stripe index in the high bits, a per-stripe counter below.
  EXPECT_EQ(first, (std::uint64_t{2} << 40) | 1u);
  EXPECT_EQ(record(), (std::uint64_t{1} << 40) | 1u);
  as_shard(1, [&] { EXPECT_EQ(spans.current().trace, 7u); });
  EXPECT_EQ(spans.current().trace, 0u);  // contexts are per stripe

  spans.clear();
  EXPECT_EQ(spans.size(), 0u);
  EXPECT_EQ(spans.recorded(), 0u);
  as_shard(1, [&] {
    EXPECT_EQ(spans.current().trace, 0u);
    EXPECT_EQ(spans.current().span, 0u);
    EXPECT_EQ(record(), first);
  });
}

class Sink : public net::Endpoint {
 public:
  void deliver(const net::Envelope&) override {}
};

/// One stripe: the accessors hand out the live instrument, so a reference
/// taken earlier sees later writes. Several stripes: they hand out a merge
/// that is refreshed only by the next accessor call.
TEST(StripedAccessors, OneStripeReturnsTheLiveObject) {
  FlightRecorder flight;
  SpanRecorder spans;
  OpTracer serial{flight, spans};
  const common::Histogram& live = serial.member_detection();
  serial.on_member_detected(common::Guid{1}, common::NodeId{1}, 10, 10);
  EXPECT_EQ(live.count(), 1u);
  EXPECT_EQ(&serial.member_detection(), &live);

  OpTracer striped{flight, spans, kShards};
  const common::Histogram& merged = striped.member_detection();
  striped.on_member_detected(common::Guid{1}, common::NodeId{1}, 10, 10);
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_EQ(striped.member_detection().count(), 1u);

  sim::Simulator simulator;
  net::Network network{simulator, common::RngStream{1}};
  EXPECT_EQ(network.stripe_count(), 1u);
  Sink sink;
  network.attach(common::NodeId{1}, &sink);
  network.attach(common::NodeId{2}, &sink);
  const net::Network::Metrics& metrics = network.metrics();
  network.send(net::Envelope{common::NodeId{1}, common::NodeId{2}, 0, 64,
                             std::string{"x"}});
  simulator.run();
  EXPECT_EQ(metrics.sent, 1u);
  EXPECT_EQ(metrics.delivered, 1u);
  EXPECT_EQ(&network.metrics(), &metrics);
}

}  // namespace
}  // namespace rgb::obs
