// Flat single-ring membership baseline (Totem-like, cf. [1][13] in the
// paper's related work): all n nodes form ONE logical ring and a token
// circulates continuously, picking up membership ops where they originate
// and dropping each op after it has travelled a full circle.
//
// This is the design point the paper's §6 remark argues against for large
// groups ("the delay for propagating membership messages with small-scale
// logical rings is smaller compared with that with large-scale logical
// rings") — bench E4 quantifies it against RGB's small-ring hierarchy.
//
// To keep simulations finite the token parks when it completes an empty
// circle; a node that enqueues an op while the token is parked sends a
// Wake that forwards around the ring until it reaches the parking node.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "proto/membership_service.hpp"
#include "proto/process.hpp"
#include "rgb/member_table.hpp"
#include "rgb/messages.hpp"

namespace rgb::flatring {

using common::Guid;
using common::NodeId;
using core::MemberTable;
using core::MembershipOp;
using proto::MemberRecord;

inline constexpr net::MessageKind kRingToken = 111;
inline constexpr net::MessageKind kRingWake = 112;

/// Token entry: an op plus the number of hops it still has to travel to
/// have visited every node once.
struct TokenEntry {
  MembershipOp op;
  int remaining_hops = 0;
};

struct RingTokenMsg {
  std::vector<TokenEntry> entries;
  /// When an otherwise-empty token is travelling towards a node with
  /// pending ops (woken by that node), this carries the destination so
  /// intermediate nodes keep forwarding instead of re-parking.
  NodeId wake_target;
};

struct WakeMsg {
  std::uint64_t wake_id;
  NodeId origin;
};

struct FlatRingConfig {
  int nodes = 25;
};

class RingNode : public proto::Process {
 public:
  RingNode(NodeId id, net::Network& network, int ring_size);

  void set_next(NodeId next) { next_ = next; }

  /// Local membership change: queued until the token passes.
  void enqueue(MembershipOp op);

  /// Places the (initially empty) token here, parked.
  void hold_parked_token();

  void deliver(const net::Envelope& env) override;

  [[nodiscard]] const MemberTable& members() const { return members_; }
  [[nodiscard]] bool parked() const { return parked_; }

 private:
  void on_token(RingTokenMsg token);
  void forward(RingTokenMsg token);
  void send_wake();
  void arm_wake_retry();

  NodeId next_;
  int ring_size_;
  bool parked_ = false;
  std::deque<MembershipOp> pending_;
  MemberTable members_;
  std::unordered_set<std::uint64_t> seen_wakes_;
  std::uint64_t wake_counter_ = 0;
  sim::EventId wake_retry_{};
};

/// Facade implementing the protocol-agnostic membership interface over one
/// big ring whose nodes play the role of access points.
class FlatRingSystem : public proto::MembershipService {
 public:
  FlatRingSystem(net::Network& network, FlatRingConfig config,
                 std::uint64_t first_node_id = 200000);
  ~FlatRingSystem() override;

  void join(Guid mh, NodeId ap) override;
  void leave(Guid mh) override;
  void handoff(Guid mh, NodeId new_ap) override;
  void fail(Guid mh) override;
  using proto::MembershipService::membership;
  [[nodiscard]] std::vector<MemberRecord> membership(
      proto::QueryScheme scheme) const override;

  [[nodiscard]] const std::vector<NodeId>& aps() const { return aps_; }
  [[nodiscard]] RingNode* node(NodeId id);
  [[nodiscard]] const RingNode* node(NodeId id) const;
  [[nodiscard]] bool converged() const;

 private:
  void originate(NodeId at, MembershipOp op);

  net::Network& network_;
  FlatRingConfig config_;
  std::vector<std::unique_ptr<RingNode>> nodes_;
  std::unordered_map<NodeId, RingNode*> by_id_;
  std::vector<NodeId> aps_;
  std::unordered_map<Guid, NodeId> attachments_;
  std::uint64_t op_seq_ = 0;
};

}  // namespace rgb::flatring
