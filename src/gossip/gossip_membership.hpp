// SWIM-style gossip membership baseline.
//
// The reproduction bands note RGB was superseded in practice by SWIM/gossip
// libraries; this module positions RGB against that successor design in the
// comparison benches (E9): periodic ping/ack probing with piggybacked,
// infection-style dissemination of membership updates.
//
//   * every node pings one random peer per protocol period and piggybacks
//     up to `piggyback_limit` pending updates; the ack piggybacks back;
//   * a fresh update is retransmitted ~ retransmit_factor * log2(n) times
//     (the classic infection budget), then retired;
//   * an unanswered ping suspects the peer; `suspicion_threshold` strikes
//     declare it failed, generating a peer-failure update that also fails
//     the members attached to it.
//
// Trade-off on display: gossip pays a constant background message load even
// when nothing changes, while RGB's token rounds are event-driven; gossip
// dissemination is probabilistic O(log n) periods, RGB's is one determinstic
// round per ring along the hierarchy.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "proto/membership_service.hpp"
#include "proto/process.hpp"
#include "rgb/member_table.hpp"
#include "rgb/messages.hpp"

namespace rgb::gossip {

using common::Guid;
using common::NodeId;
using core::MemberTable;
using core::MembershipOp;
using proto::MemberRecord;

inline constexpr net::MessageKind kPing = 121;
inline constexpr net::MessageKind kAck = 122;

struct GossipConfig {
  int nodes = 25;
  sim::Duration period = sim::msec(200);
  sim::Duration ack_timeout = sim::msec(80);
  int piggyback_limit = 16;
  double retransmit_factor = 3.0;
  int suspicion_threshold = 3;
};

/// An update travelling by infection: a membership op plus its remaining
/// retransmission budget.
struct Update {
  MembershipOp op;
  int budget = 0;
};

struct PingMsg {
  std::uint64_t ping_id;
  std::vector<Update> updates;
};

struct AckMsg {
  std::uint64_t ping_id;
  std::vector<Update> updates;
};

class GossipNode : public proto::Process {
 public:
  GossipNode(NodeId id, net::Network& network, const GossipConfig& config,
             std::vector<NodeId> peers, common::RngStream rng);

  void start();

  /// Local membership change: applied and injected into the infection
  /// buffer.
  void local_update(MembershipOp op);

  void deliver(const net::Envelope& env) override;

  [[nodiscard]] const MemberTable& members() const { return members_; }
  [[nodiscard]] const std::vector<NodeId>& alive_peers() const {
    return peers_;
  }

 private:
  void on_tick();
  void absorb(const std::vector<Update>& updates);
  [[nodiscard]] std::vector<Update> select_updates();
  void suspect(NodeId peer);
  void declare_peer_failed(NodeId peer);
  [[nodiscard]] int fresh_budget() const;

  const GossipConfig& config_;
  std::vector<NodeId> peers_;  ///< alive peers, self excluded
  common::RngStream rng_;
  MemberTable members_;
  std::vector<Update> buffer_;
  std::unordered_set<std::uint64_t> seen_;
  std::unordered_map<NodeId, int> strikes_;
  std::unordered_map<std::uint64_t, NodeId> pings_in_flight_;
  std::unique_ptr<proto::PeriodicTimer> tick_;
  std::uint64_t ping_counter_ = 0;
};

class GossipSystem : public proto::MembershipService {
 public:
  GossipSystem(net::Network& network, GossipConfig config,
               common::RngStream rng, std::uint64_t first_node_id = 300000);
  ~GossipSystem() override;

  /// Starts the periodic protocol on every node.
  void start();

  void join(Guid mh, NodeId ap) override;
  void leave(Guid mh) override;
  void handoff(Guid mh, NodeId new_ap) override;
  void fail(Guid mh) override;
  using proto::MembershipService::membership;
  [[nodiscard]] std::vector<MemberRecord> membership(
      proto::QueryScheme scheme) const override;

  [[nodiscard]] const std::vector<NodeId>& aps() const { return aps_; }
  [[nodiscard]] GossipNode* node(NodeId id);
  [[nodiscard]] const GossipNode* node(NodeId id) const;
  [[nodiscard]] bool converged() const;

 private:
  void originate(NodeId at, MembershipOp op);

  net::Network& network_;
  GossipConfig config_;
  std::vector<std::unique_ptr<GossipNode>> nodes_;
  std::unordered_map<NodeId, GossipNode*> by_id_;
  std::vector<NodeId> aps_;
  std::unordered_map<Guid, NodeId> attachments_;
  std::uint64_t op_seq_ = 0;
};

}  // namespace rgb::gossip
