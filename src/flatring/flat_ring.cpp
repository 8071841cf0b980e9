#include "flatring/flat_ring.hpp"

#include <cassert>

#include "wire/metering.hpp"

namespace rgb::flatring {

RingNode::RingNode(NodeId id, net::Network& network, int ring_size)
    : proto::Process(id, network), ring_size_(ring_size) {}

void RingNode::hold_parked_token() { parked_ = true; }

void RingNode::enqueue(MembershipOp op) {
  members_.apply(op);  // the originating node knows the change immediately
  pending_.push_back(std::move(op));
  if (parked_) {
    parked_ = false;
    on_token(RingTokenMsg{});
    return;
  }
  // Token is somewhere else: chase it with a wake that forwards until it
  // reaches the parking node (or dies at its origin after a full circle if
  // the token was circulating anyway).
  send_wake();
  arm_wake_retry();
}

void RingNode::send_wake() {
  const std::uint64_t wake_id = (id().value() << 20) | ++wake_counter_;
  send(next_, kRingWake, WakeMsg{wake_id, id()});
}

void RingNode::arm_wake_retry() {
  // A wake can die racing a token that parks just behind it; retry until
  // the pending queue drains.
  simulator().cancel(wake_retry_);
  wake_retry_ = set_timer(
      sim::msec(20) * static_cast<sim::Duration>(ring_size_), [this]() {
        if (pending_.empty() || parked_) return;
        send_wake();
        arm_wake_retry();
      });
}

void RingNode::on_token(RingTokenMsg token) {
  // Absorb local pending ops: each must travel the full circle back to us.
  while (!pending_.empty()) {
    token.entries.push_back(
        TokenEntry{std::move(pending_.front()), ring_size_});
    pending_.pop_front();
  }
  // Apply everything on board, age the entries, drop completed ones.
  std::vector<TokenEntry> still_travelling;
  still_travelling.reserve(token.entries.size());
  for (TokenEntry& entry : token.entries) {
    members_.apply(entry.op);
    if (--entry.remaining_hops > 0) {
      still_travelling.push_back(std::move(entry));
    }
  }
  token.entries = std::move(still_travelling);

  if (token.wake_target == id() || !token.entries.empty()) {
    token.wake_target = NodeId{};  // hint served (or superseded by cargo)
  }
  if (token.entries.empty() && pending_.empty() &&
      !token.wake_target.valid()) {
    parked_ = true;  // quiescent: stop burning messages
    return;
  }
  forward(std::move(token));
}

void RingNode::forward(RingTokenMsg token) {
  send(next_, kRingToken, std::move(token));
}

void RingNode::deliver(const net::Envelope& env) {
  switch (env.kind) {
    case kRingToken:
      on_token(env.payload.get<RingTokenMsg>());
      break;
    case kRingWake: {
      const auto& wake = env.payload.get<WakeMsg>();
      if (wake.origin == id()) return;  // full circle, token was moving
      if (!seen_wakes_.insert(wake.wake_id).second) return;
      if (parked_) {
        parked_ = false;
        // Send the (empty) token towards the waker; intermediate nodes
        // keep it moving via the wake_target hint.
        RingTokenMsg token;
        token.wake_target = wake.origin;
        on_token(std::move(token));
      } else {
        send(next_, kRingWake, wake);
      }
      break;
    }
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// FlatRingSystem
// --------------------------------------------------------------------------

FlatRingSystem::FlatRingSystem(net::Network& network, FlatRingConfig config,
                               std::uint64_t first_node_id)
    : network_(network), config_(config) {
  assert(config_.nodes >= 2);
  wire::attach_encoded_metering(network_);
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    const NodeId id{first_node_id + static_cast<std::uint64_t>(i)};
    auto node = std::make_unique<RingNode>(id, network_, config_.nodes);
    by_id_.emplace(id, node.get());
    aps_.push_back(id);
    nodes_.push_back(std::move(node));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_next(aps_[(i + 1) % aps_.size()]);
  }
  nodes_.front()->hold_parked_token();
}

FlatRingSystem::~FlatRingSystem() = default;

void FlatRingSystem::originate(NodeId at, MembershipOp op) {
  RingNode* node = this->node(at);
  assert(node != nullptr);
  node->enqueue(std::move(op));
}

void FlatRingSystem::join(Guid mh, NodeId ap) {
  attachments_[mh] = ap;
  MembershipOp op;
  op.kind = core::OpKind::kMemberJoin;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, ap, proto::MemberStatus::kOperational};
  originate(ap, std::move(op));
}

void FlatRingSystem::leave(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  MembershipOp op;
  op.kind = core::OpKind::kMemberLeave;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, it->second, proto::MemberStatus::kDisconnected};
  const NodeId ap = it->second;
  attachments_.erase(it);
  originate(ap, std::move(op));
}

void FlatRingSystem::handoff(Guid mh, NodeId new_ap) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end() || it->second == new_ap) return;
  MembershipOp op;
  op.kind = core::OpKind::kMemberHandoff;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, new_ap, proto::MemberStatus::kOperational};
  op.old_ap = it->second;
  it->second = new_ap;
  originate(new_ap, std::move(op));
}

void FlatRingSystem::fail(Guid mh) {
  const auto it = attachments_.find(mh);
  if (it == attachments_.end()) return;
  MembershipOp op;
  op.kind = core::OpKind::kMemberFail;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, it->second, proto::MemberStatus::kFailed};
  const NodeId ap = it->second;
  attachments_.erase(it);
  originate(ap, std::move(op));
}

std::vector<MemberRecord> FlatRingSystem::membership(
    proto::QueryScheme /*scheme*/) const {
  // Every node converges to the same view; report the first node's.
  return nodes_.front()->members().snapshot();
}

RingNode* FlatRingSystem::node(NodeId id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const RingNode* FlatRingSystem::node(NodeId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

bool FlatRingSystem::converged() const {
  const auto reference = nodes_.front()->members().snapshot();
  for (const auto& node : nodes_) {
    if (node->members().snapshot() != reference) return false;
  }
  return true;
}

}  // namespace rgb::flatring
