// proto::Retransmitter: the ack-and-retransmit table behind every
// acknowledged send of the RGB engine, driven on a real simulator and
// network.
#include "proto/retransmit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "proto/process.hpp"

namespace rgb::proto {
namespace {

constexpr sim::Duration kTimeout = sim::msec(10);
constexpr int kBudget = 3;
const NodeId kOwner{1};

/// One callback invocation: a resend (attempt >= 1) or an exhaustion
/// (attempt 0), with the state it saw.
struct Call {
  sim::Time at;
  int key;
  int attempt;
  std::string state;
  bool operator==(const Call&) const = default;
};

class RetransmitterTest : public ::testing::Test {
 protected:
  using Table = Retransmitter<int, std::string>;

  RetransmitterTest() : network_(sim_, common::RngStream{7}) {}

  /// A table whose callbacks log every call, then run the test's hooks.
  std::unique_ptr<Table> make(Exhausted verdict = Exhausted::kErase) {
    return std::make_unique<Table>(
        network_, kOwner, kTimeout, kBudget,
        [this](int key, std::string& state, int attempt) {
          resends_.push_back({sim_.now(), key, attempt, state});
          if (on_resend_) on_resend_(key);
        },
        [this, verdict](int key, std::string& state) {
          exhausted_.push_back({sim_.now(), key, 0, state});
          if (on_exhausted_) on_exhausted_(key);
          return verdict;
        });
  }

  static sim::Time at(int timeouts) { return kTimeout * timeouts; }

  sim::Simulator sim_;
  net::Network network_;
  std::vector<Call> resends_;
  std::vector<Call> exhausted_;
  std::function<void(int)> on_resend_;
  std::function<void(int)> on_exhausted_;
};

TEST_F(RetransmitterTest, AckBeforeTheTimeoutSendsNothingMore) {
  auto table = make();
  table->arm(1, "a");
  sim_.run_until(kTimeout - 1);
  const std::optional<std::string> state = table->ack(1);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, "a");
  EXPECT_FALSE(table->ack(1).has_value());  // a duplicate ack is a no-op
  sim_.run();
  EXPECT_TRUE(resends_.empty());
  EXPECT_TRUE(exhausted_.empty());
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, ResendsExactlyBudgetTimesThenExhaustsOnce) {
  auto table = make();
  table->arm(1, "a");
  sim_.run();
  const std::vector<Call> want{{at(1), 1, 1, "a"},
                               {at(2), 1, 2, "a"},
                               {at(3), 1, 3, "a"}};
  EXPECT_EQ(resends_, want);
  ASSERT_EQ(exhausted_.size(), 1u);
  EXPECT_EQ(exhausted_[0], (Call{at(4), 1, 0, "a"}));
  EXPECT_FALSE(table->contains(1));
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, RetryVerdictKeepsTheSameCadenceAndAsksAgain) {
  auto table = make(Exhausted::kRetry);
  table->arm(1, "a");
  sim_.run_until(at(8) + kTimeout / 2);
  ASSERT_EQ(resends_.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(resends_[i], (Call{at(i + 1), 1, i + 1, "a"}));
  }
  // Every timeout past the budget asks again, just before its resend.
  ASSERT_EQ(exhausted_.size(), 8u - kBudget);
  for (std::size_t j = 0; j < exhausted_.size(); ++j) {
    EXPECT_EQ(exhausted_[j].at, at(kBudget + 1 + static_cast<int>(j)));
  }
  ASSERT_TRUE(table->ack(1).has_value());
  sim_.run();
  EXPECT_EQ(resends_.size(), 8u);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, HoldVerdictKeepsTheEntryWithItsTimerStopped) {
  auto table = make(Exhausted::kHold);
  table->arm(1, "a");
  sim_.run();  // terminates: the held entry has no timer
  EXPECT_EQ(resends_.size(), static_cast<std::size_t>(kBudget));
  EXPECT_EQ(exhausted_.size(), 1u);
  ASSERT_NE(table->find(1), nullptr);
  EXPECT_EQ(*table->find(1), "a");
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_TRUE(table->cancel(1));
  EXPECT_TRUE(table->empty());
}

TEST_F(RetransmitterTest, CallbackErasingItsOwnKeyLeavesNoEntry) {
  auto table = make();
  on_resend_ = [&](int key) { table->cancel(key); };
  table->arm(1, "a");
  sim_.run();
  EXPECT_EQ(resends_.size(), 1u);
  EXPECT_TRUE(exhausted_.empty());
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, CallbackReArmingItsOwnKeyRestartsTheCycle) {
  auto table = make();
  on_resend_ = [&](int key) {
    if (resends_.size() == 1) table->arm(key, "b");
  };
  table->arm(1, "a");
  sim_.run();
  // The re-armed entry keeps its own (single) timer and a fresh count; the
  // table does not reschedule the entry the callback replaced.
  const std::vector<Call> want{{at(1), 1, 1, "a"},
                               {at(2), 1, 1, "b"},
                               {at(3), 1, 2, "b"},
                               {at(4), 1, 3, "b"}};
  EXPECT_EQ(resends_, want);
  ASSERT_EQ(exhausted_.size(), 1u);
  EXPECT_EQ(exhausted_[0], (Call{at(5), 1, 0, "b"}));
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, ExhaustedReArmingItsOwnKeyIsNotErased) {
  auto table = make(Exhausted::kErase);
  on_exhausted_ = [&](int key) {
    if (exhausted_.size() == 1) table->arm(key, "b");
  };
  table->arm(1, "a");
  sim_.run_until(at(kBudget + 1));
  EXPECT_TRUE(table->contains(1));  // the erase verdict spared the re-arm
  sim_.run();
  EXPECT_EQ(resends_.size(), 2u * kBudget);
  ASSERT_EQ(exhausted_.size(), 2u);
  EXPECT_EQ(exhausted_[1], (Call{at(2 * kBudget + 2), 1, 0, "b"}));
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, CallbackArmingOtherKeysLeavesNoDanglingEntry) {
  auto table = make();
  // Key 0's first resend arms 200 more keys, rehashing the table under the
  // callback.
  on_resend_ = [&](int key) {
    if (key != 0 || table->contains(1)) return;
    for (int k = 1; k <= 200; ++k) table->arm(k, "k");
  };
  table->arm(0, "a");
  sim_.run();
  std::map<int, int> resends_per_key;
  for (const Call& call : resends_) ++resends_per_key[call.key];
  ASSERT_EQ(resends_per_key.size(), 201u);
  for (const auto& [key, count] : resends_per_key) {
    EXPECT_EQ(count, kBudget) << "key " << key;
  }
  EXPECT_EQ(exhausted_.size(), 201u);
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(RetransmitterTest, ArmingALiveKeyCancelsItsTimer) {
  auto table = make();
  table->arm(1, "a");
  sim_.run_until(kTimeout / 2);
  table->arm(1, "b");
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.run_until(kTimeout + kTimeout / 4);
  EXPECT_TRUE(resends_.empty());  // the first arm's timeout never fired
  sim_.run();
  ASSERT_EQ(resends_.size(), static_cast<std::size_t>(kBudget));
  EXPECT_EQ(resends_[0], (Call{kTimeout / 2 + kTimeout, 1, 1, "b"}));
  EXPECT_EQ(exhausted_.size(), 1u);
}

TEST_F(RetransmitterTest, ClearCancelsEveryTimer) {
  auto table = make();
  for (int k = 0; k < 5; ++k) table->arm(k, "s");
  EXPECT_EQ(sim_.pending_events(), 5u);
  table->clear();
  EXPECT_EQ(sim_.pending_events(), 0u);
  EXPECT_TRUE(table->empty());
  sim_.run();
  EXPECT_TRUE(resends_.empty());
  EXPECT_TRUE(exhausted_.empty());
}

TEST_F(RetransmitterTest, DestructionCancelsEveryTimer) {
  make()->arm(1, "a");  // the table dies at the end of the statement
  EXPECT_EQ(sim_.pending_events(), 0u);
  sim_.run();
  EXPECT_TRUE(resends_.empty());
}

TEST_F(RetransmitterTest, CrashedOwnerTimeoutsAreSuppressed) {
  auto table = make();
  table->arm(1, "a");
  network_.crash(kOwner);
  sim_.run();
  EXPECT_TRUE(resends_.empty());
  EXPECT_TRUE(exhausted_.empty());
  EXPECT_TRUE(table->contains(1));  // stays until an ack, cancel or re-arm
  network_.recover(kOwner);
  sim_.run();
  EXPECT_TRUE(resends_.empty());  // the dropped timeout does not come back
  table->arm(1, "a");
  sim_.run();
  EXPECT_EQ(resends_.size(), static_cast<std::size_t>(kBudget));
}

TEST_F(RetransmitterTest, ExtractIfCancelsAndReturnsEveryMatch) {
  Table table{
      network_, kOwner, kTimeout, kBudget,
      [](int, std::string&, int) { FAIL() << "no resend expected"; },
      [](int, std::string&) { return Exhausted::kErase; }};
  table.arm(3, "c");
  table.arm(1, "a");
  table.arm(2, "b");
  std::vector<std::string> odd =
      table.extract_if([](int key, const std::string&) { return key % 2; });
  std::sort(odd.begin(), odd.end());  // table order is the hash order
  EXPECT_EQ(odd, (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(table.contains(2));
  EXPECT_EQ(sim_.pending_events(), 1u);
  EXPECT_TRUE(
      table.any_of([](int, const std::string& state) { return state == "b"; }));
  table.clear();
}

/// Sends "ping" to a peer that answers "ack"; the table drives the resends.
class Pinger : public Process {
 public:
  Pinger(NodeId id, NodeId peer, net::Network& network)
      : Process(id, network),
        peer_(peer),
        pings_(network, id, kTimeout, kBudget,
               [this](int, std::monostate&, int) { ping(); },
               [](int, std::monostate&) { return Exhausted::kErase; }) {}

  void start() {
    ping();
    pings_.arm(0, {});
  }
  void deliver(const net::Envelope& env) override {
    if (env.payload.get<std::string>() == "ping") {
      send(env.src, 0, std::string{"ack"});
    } else {
      pings_.ack(0);
    }
  }
  [[nodiscard]] bool in_flight() const { return pings_.contains(0); }
  int sent = 0;

 private:
  void ping() {
    ++sent;
    send(peer_, 0, std::string{"ping"});
  }
  NodeId peer_;
  Retransmitter<int, std::monostate> pings_;
};

TEST_F(RetransmitterTest, RetransmitsOverALossyLinkUntilAcked) {
  Pinger a{NodeId{1}, NodeId{2}, network_};
  Pinger b{NodeId{2}, NodeId{1}, network_};
  const net::LinkConfig healthy{};
  network_.set_link(a.id(), b.id(), net::LinkConfig{healthy.latency, 1.0});
  a.start();
  sim_.run_until(kTimeout + kTimeout / 2);  // first ping and first resend lost
  network_.set_link(a.id(), b.id(), healthy);
  sim_.run();
  EXPECT_EQ(a.sent, 3);
  EXPECT_FALSE(a.in_flight());
  EXPECT_EQ(sim_.pending_events(), 0u);
}

}  // namespace
}  // namespace rgb::proto
