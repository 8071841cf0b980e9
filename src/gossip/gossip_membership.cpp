#include "gossip/gossip_membership.hpp"

#include <algorithm>
#include <cassert>

#include "wire/metering.hpp"

namespace rgb::gossip {

GossipNode::GossipNode(NodeId id, net::Network& network,
                       const GossipConfig& config, std::vector<NodeId> peers,
                       common::RngStream rng)
    : proto::Process(id, network),
      config_(config),
      peers_(std::move(peers)),
      rng_(std::move(rng)) {
  peers_.erase(std::remove(peers_.begin(), peers_.end(), this->id()),
               peers_.end());
}

void GossipNode::start() {
  if (tick_) return;
  tick_ = std::make_unique<proto::PeriodicTimer>(
      network(), id(), config_.period, [this]() { on_tick(); });
  tick_->start();
}

int GossipNode::fresh_budget() const {
  const double n = static_cast<double>(peers_.size() + 1);
  return std::max(
      1, static_cast<int>(std::ceil(config_.retransmit_factor *
                                    std::log2(std::max(2.0, n)))));
}

void GossipNode::local_update(MembershipOp op) {
  members_.apply(op);
  seen_.insert(op.seq);
  buffer_.push_back(Update{std::move(op), fresh_budget()});
}

std::vector<Update> GossipNode::select_updates() {
  // Freshest (highest budget) first; each selection spends one unit.
  std::sort(buffer_.begin(), buffer_.end(),
            [](const Update& a, const Update& b) { return a.budget > b.budget; });
  std::vector<Update> out;
  const std::size_t limit =
      std::min<std::size_t>(buffer_.size(),
                            static_cast<std::size_t>(config_.piggyback_limit));
  for (std::size_t i = 0; i < limit; ++i) {
    out.push_back(buffer_[i]);
    --buffer_[i].budget;
  }
  buffer_.erase(std::remove_if(buffer_.begin(), buffer_.end(),
                               [](const Update& u) { return u.budget <= 0; }),
                buffer_.end());
  return out;
}

void GossipNode::absorb(const std::vector<Update>& updates) {
  for (const Update& update : updates) {
    if (!seen_.insert(update.op.seq).second) continue;
    if (update.op.is_member_op()) {
      members_.apply(update.op);
    } else if (update.op.kind == core::OpKind::kNeFail) {
      declare_peer_failed(update.op.ne);
    }
    buffer_.push_back(Update{update.op, fresh_budget()});
  }
}

void GossipNode::on_tick() {
  // Expire unanswered pings first.
  for (auto it = pings_in_flight_.begin(); it != pings_in_flight_.end();) {
    suspect(it->second);
    it = pings_in_flight_.erase(it);
  }
  if (peers_.empty()) return;
  const NodeId target =
      peers_[static_cast<std::size_t>(rng_.next_below(peers_.size()))];
  const std::uint64_t ping_id = (id().value() << 20) | ++ping_counter_;
  pings_in_flight_.emplace(ping_id, target);
  PingMsg ping{ping_id, select_updates()};
  send(target, kPing, std::move(ping));
}

void GossipNode::suspect(NodeId peer) {
  if (++strikes_[peer] < config_.suspicion_threshold) return;
  declare_peer_failed(peer);
  // Tell the others via an NE-failure update.
  MembershipOp op;
  op.kind = core::OpKind::kNeFail;
  op.seq = (id().value() << 28) | (now() & 0xFFFFFFFULL);
  op.ne = peer;
  if (seen_.insert(op.seq).second) {
    buffer_.push_back(Update{std::move(op), fresh_budget()});
  }
}

void GossipNode::declare_peer_failed(NodeId peer) {
  const auto it = std::find(peers_.begin(), peers_.end(), peer);
  if (it == peers_.end()) return;
  peers_.erase(it);
  strikes_.erase(peer);
  // Members attached to a dead access point are gone with it.
  for (const MemberRecord& rec : members_.members_at(peer)) {
    MembershipOp op;
    op.kind = core::OpKind::kMemberFail;
    op.seq = (id().value() << 28) | ((now() + rec.guid.value()) & 0xFFFFFFFULL);
    op.member = rec;
    op.member.status = proto::MemberStatus::kFailed;
    members_.apply(op);
  }
}

void GossipNode::deliver(const net::Envelope& env) {
  switch (env.kind) {
    case kPing: {
      const auto& ping = env.payload.get<PingMsg>();
      absorb(ping.updates);
      strikes_.erase(env.src);
      AckMsg ack{ping.ping_id, select_updates()};
      send(env.src, kAck, std::move(ack));
      break;
    }
    case kAck: {
      const auto& ack = env.payload.get<AckMsg>();
      absorb(ack.updates);
      strikes_.erase(env.src);
      pings_in_flight_.erase(ack.ping_id);
      break;
    }
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// GossipSystem
// --------------------------------------------------------------------------

GossipSystem::GossipSystem(net::Network& network, GossipConfig config,
                           common::RngStream rng,
                           std::uint64_t first_node_id)
    : network_(network), config_(config) {
  assert(config_.nodes >= 2);
  wire::attach_encoded_metering(network_);
  for (int i = 0; i < config_.nodes; ++i) {
    aps_.push_back(NodeId{first_node_id + static_cast<std::uint64_t>(i)});
  }
  for (int i = 0; i < config_.nodes; ++i) {
    auto node = std::make_unique<GossipNode>(
        aps_[static_cast<std::size_t>(i)], network_, config_, aps_,
        rng.fork("gossip-node-" + std::to_string(i)));
    by_id_.emplace(node->id(), node.get());
    nodes_.push_back(std::move(node));
  }
}

GossipSystem::~GossipSystem() = default;

void GossipSystem::start() {
  for (const auto& node : nodes_) node->start();
}

void GossipSystem::originate(NodeId at, MembershipOp op) {
  GossipNode* node = this->node(at);
  assert(node != nullptr);
  node->local_update(std::move(op));
}

void GossipSystem::join(Guid mh, NodeId ap) {
  attachments_[mh] = ap;
  MembershipOp op;
  op.kind = core::OpKind::kMemberJoin;
  op.seq = ++op_seq_;
  op.member = MemberRecord{mh, ap, proto::MemberStatus::kOperational};
  originate(ap, std::move(op));
}

void GossipSystem::leave(Guid mh) {
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

void GossipSystem::handoff(Guid mh, NodeId new_ap) {
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

void GossipSystem::fail(Guid mh) {
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

std::vector<MemberRecord> GossipSystem::membership(
    proto::QueryScheme /*scheme*/) const {
  return nodes_.front()->members().snapshot();
}

GossipNode* GossipSystem::node(NodeId id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const GossipNode* GossipSystem::node(NodeId id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

bool GossipSystem::converged() const {
  const auto reference = nodes_.front()->members().snapshot();
  for (const auto& node : nodes_) {
    if (network_.is_crashed(node->id())) continue;
    if (node->members().snapshot() != reference) return false;
  }
  return true;
}

}  // namespace rgb::gossip
