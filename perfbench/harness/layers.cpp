#include "layers.hpp"

#include <chrono>

#include "wire/registry.hpp"

namespace perfbench {

namespace kind = rgb::core::kind;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

std::size_t class_of(rgb::net::MessageKind k) {
  switch (k) {
    case kind::kToken:
    case kind::kTokenPassAck:
    case kind::kTokenRequest:
    case kind::kTokenGrant:
    case kind::kTokenRelease:
    case kind::kHolderAck:
      return 0;
    case kind::kNotifyParent:
    case kind::kNotifyChild:
      return 1;
    case kind::kViewSync:
      return 2;
    case kind::kProbe:
    case kind::kProbeAck:
      return 3;
    case kind::kSnapshotRequest:
    case kind::kSnapshot:
    case kind::kSnapshotAck:
      return 5;
    case kind::kQueryRequest:
    case kind::kQueryReply:
      return 6;
    case kind::kMhRequest:
    case kind::kMhAck:
    case kind::kMhHeartbeat:
      return 7;
    default:  // repair, merge, reform, NE join/leave, reconcile, alerts
      return 4;
  }
}

NetTap::NetTap(rgb::net::Network& network, std::uint64_t sample_every)
    : network_(network), sample_every_(sample_every) {
  network_.set_tap([this](const rgb::net::Envelope& env, bool delivered) {
    const std::size_t c = class_of(env.kind);
    ++traffic_.msgs[c];
    traffic_.bytes[c] += env.size_bytes;
    ++traffic_.verdicts;
    if (!delivered) ++traffic_.dropped;
    if (++seen_ % sample_every_ == 0) samples_.push_back(env);
  });
}

NetTap::~NetTap() { network_.set_tap(nullptr); }

std::vector<rgb::net::Envelope> NetTap::take_samples() {
  std::vector<rgb::net::Envelope> out;
  out.swap(samples_);
  return out;
}

ChangeLatencyHooks::ChangeLatencyHooks(
    rgb::net::Network& network, const std::vector<rgb::common::NodeId>& nes)
    : network_(network),
      inner_(network.trace_hooks()),
      words_per_op_((nes.size() + 63) / 64) {
  for (std::size_t i = 0; i < nes.size(); ++i) ne_index_[nes[i]] = i;
  network_.set_trace_hooks(this);
}

ChangeLatencyHooks::~ChangeLatencyHooks() { network_.set_trace_hooks(inner_); }

void ChangeLatencyHooks::on_send(rgb::net::Envelope& env, rgb::sim::Time now) {
  if (inner_ != nullptr) inner_->on_send(env, now);
  // The holder applies its round's ops when it starts the round, right
  // before sending the token out.
  if (env.kind == kind::kToken &&
      env.payload.get<rgb::core::TokenMsg>().token.holder == env.src) {
    record(env, env.src, now);
  }
}

void ChangeLatencyHooks::on_deliver(const rgb::net::Envelope& env,
                                    rgb::sim::Time now,
                                    rgb::net::Endpoint& endpoint) {
  // Every other ring member applies them when the token reaches it; the
  // token's return to its holder completes the round and applies nothing.
  if (env.kind == kind::kToken &&
      env.payload.get<rgb::core::TokenMsg>().token.holder != env.dst) {
    record(env, env.dst, now);
  }
  if (inner_ != nullptr) {
    inner_->on_deliver(env, now, endpoint);
  } else {
    endpoint.deliver(env);
  }
}

void ChangeLatencyHooks::record(const rgb::net::Envelope& env,
                                rgb::common::NodeId at, rgb::sim::Time now) {
  const auto ne = ne_index_.find(at);
  if (ne == ne_index_.end()) return;
  const std::size_t word = ne->second / 64;
  const std::uint64_t bit = std::uint64_t{1} << (ne->second % 64);
  for (const rgb::core::MembershipOp& op :
       env.payload.get<rgb::core::TokenMsg>().token.ops) {
    if (!op.is_member_op()) continue;
    const auto [slot, fresh] = op_slot_.try_emplace(op.uid, reached_.size());
    if (fresh) reached_.resize(reached_.size() + words_per_op_, 0);
    std::uint64_t& reached = reached_[slot->second + word];
    if ((reached & bit) != 0) continue;
    reached |= bit;
    samples_.push_back(now - op.born);
  }
}

void replay_wire(const std::vector<rgb::net::Envelope>& batch, WireStats& out,
                 BenchSpans& spans) {
  const rgb::wire::WireRegistry& registry = rgb::wire::WireRegistry::global();
  BenchSpans::Scope replay(spans, "wire.replay");
  std::vector<std::uint32_t> sizes(batch.size());
  {
    BenchSpans::Scope span(spans, "wire.size");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      sizes[i] = registry.encoded_size(batch[i].kind, batch[i].payload);
    }
    out.size_ns += ns_since(start);
  }
  std::vector<std::vector<std::uint8_t>> frames(batch.size());
  {
    BenchSpans::Scope span(spans, "wire.encode");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!registry.encode(batch[i].kind, batch[i].payload, frames[i])) {
        frames[i].clear();
      }
    }
    out.encode_ns += ns_since(start);
  }
  {
    BenchSpans::Scope span(spans, "wire.decode");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto decoded = registry.decode(frames[i]);
      if (!decoded || decoded.value().kind != batch[i].kind ||
          frames[i].size() != sizes[i]) {
        ++out.mismatches;
      }
    }
    out.decode_ns += ns_since(start);
  }
  out.msgs += batch.size();
  for (const auto& frame : frames) out.bytes += frame.size();
}

void probe_directories(const rgb::core::RgbSystem& sys, std::uint64_t cursor,
                       std::size_t count, std::size_t max_tables,
                       DirectoryStats& out, BenchSpans& spans) {
  const std::vector<rgb::common::NodeId> nes = sys.all_nes();
  for (std::size_t k = 0; k < count && k < nes.size(); ++k) {
    const rgb::common::NodeId id = nes[(cursor * count + k) % nes.size()];
    if (sys.network().is_crashed(id)) continue;
    const rgb::core::GroupDirectory& dir = sys.entity(id)->directory();
    ++out.probes;
    out.groups_seen += dir.group_count();
    {
      BenchSpans::Scope span(spans, "directory.probe");
      auto start = Clock::now();
      out.sink += dir.combined_digest().hash;
      out.combined_digest_ns += ns_since(start);
      start = Clock::now();
      out.sink += dir.packed_digests().size();
      out.packed_digests_ns += ns_since(start);
      start = Clock::now();
      out.sink += (dir.queue_empty() ? 1 : 0) + dir.queue_size() +
                  dir.ops_collapsed();
      out.queue_scan_ns += ns_since(start);
      start = Clock::now();
      out.sink += dir.merged_snapshot().size();
      out.merged_snapshot_ns += ns_since(start);
    }
    BenchSpans::Scope span(spans, "table.probe");
    std::size_t tables = 0;
    for (const auto& [gid, state] : dir.groups()) {
      if (tables++ == max_tables) break;
      const rgb::core::MemberTable& table = state.table;
      const std::vector<rgb::core::TableEntry> mirror = table.export_entries();
      ++out.tables;
      out.table_entries += table.size();
      auto start = Clock::now();
      out.sink += table.snapshot().size();
      out.snapshot_ns += ns_since(start);
      start = Clock::now();
      out.sink += table.newer_than(mirror).size();
      out.newer_than_ns += ns_since(start);
    }
  }
}

}  // namespace perfbench
