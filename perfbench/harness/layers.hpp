// Per-layer instruments the traced run attaches from outside the program:
// a network tap counting traffic per message class and sampling envelopes,
// a wire replay that times the codec on those samples, and directory /
// table probes that time const calls on live NE state. Each only calls
// public functions of the layer it measures.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "rgb/rgb.hpp"
#include "spans.hpp"

namespace perfbench {

/// Message classes the per-layer traffic metrics are split by.
inline constexpr std::size_t kClassCount = 8;
inline constexpr std::array<const char*, kClassCount> kClassNames = {
    "token", "notify", "sync", "probe", "repair", "snapshot", "query", "mh"};

[[nodiscard]] std::size_t class_of(rgb::net::MessageKind kind);

struct TrafficByClass {
  std::array<std::uint64_t, kClassCount> msgs{};
  std::array<std::uint64_t, kClassCount> bytes{};
  std::uint64_t verdicts = 0;  ///< tap calls: deliveries plus drops
  std::uint64_t dropped = 0;
};

/// Network tap: counts every send verdict per class and keeps every
/// `sample_every`-th envelope (payloads are shared, not copied) for replay.
class NetTap {
 public:
  NetTap(rgb::net::Network& network, std::uint64_t sample_every);
  ~NetTap();
  NetTap(const NetTap&) = delete;
  NetTap& operator=(const NetTap&) = delete;

  [[nodiscard]] const TrafficByClass& traffic() const { return traffic_; }
  /// Sampled envelopes since the last take.
  [[nodiscard]] std::vector<rgb::net::Envelope> take_samples();
  [[nodiscard]] std::size_t pending_samples() const { return samples_.size(); }

 private:
  rgb::net::Network& network_;
  std::uint64_t sample_every_;
  std::uint64_t seen_ = 0;
  TrafficByClass traffic_;
  std::vector<rgb::net::Envelope> samples_;
};

/// Exact change latency: simulated time from a member op's birth to the
/// moment each NE applies it. NEs apply the ops of a token when it reaches
/// them, and the round's holder when it sends the token out, so the hooks
/// take one sample per (op, NE) at the first such send or delivery. They
/// wrap the system's own trace hooks, which keep running underneath.
class ChangeLatencyHooks final : public rgb::net::TraceHooks {
 public:
  ChangeLatencyHooks(rgb::net::Network& network,
                     const std::vector<rgb::common::NodeId>& nes);
  ~ChangeLatencyHooks() override;
  ChangeLatencyHooks(const ChangeLatencyHooks&) = delete;
  ChangeLatencyHooks& operator=(const ChangeLatencyHooks&) = delete;

  void on_send(rgb::net::Envelope& env, rgb::sim::Time now) override;
  void on_deliver(const rgb::net::Envelope& env, rgb::sim::Time now,
                  rgb::net::Endpoint& endpoint) override;

  /// One sample (us) per (member op, NE) pair.
  [[nodiscard]] std::vector<std::uint64_t>& samples_us() { return samples_; }

 private:
  void record(const rgb::net::Envelope& env, rgb::common::NodeId at,
              rgb::sim::Time now);

  rgb::net::Network& network_;
  rgb::net::TraceHooks* inner_;
  std::unordered_map<rgb::common::NodeId, std::size_t> ne_index_;
  std::size_t words_per_op_;
  std::unordered_map<std::uint64_t, std::size_t> op_slot_;  ///< uid -> slot
  std::vector<std::uint64_t> reached_;  ///< per slot: bitset over NEs
  std::vector<std::uint64_t> samples_;
};

/// Codec timings over replayed envelopes.
struct WireStats {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t size_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t mismatches = 0;  ///< decode failed or disagreed with sizing
};

/// Runs one replay batch through encoded_size, encode and decode of the
/// global WireRegistry, each phase under its own span.
void replay_wire(const std::vector<rgb::net::Envelope>& batch, WireStats& out,
                 BenchSpans& spans);

/// Wall time of const directory and table calls, sampled on live NEs.
struct DirectoryStats {
  std::uint64_t probes = 0;  ///< NEs probed
  std::uint64_t combined_digest_ns = 0;
  std::uint64_t packed_digests_ns = 0;
  std::uint64_t queue_scan_ns = 0;
  std::uint64_t merged_snapshot_ns = 0;
  std::uint64_t groups_seen = 0;
  std::uint64_t tables = 0;  ///< tables probed
  std::uint64_t table_entries = 0;
  std::uint64_t snapshot_ns = 0;
  std::uint64_t newer_than_ns = 0;
  std::uint64_t sink = 0;  ///< folds results so no call is optimised away
};

/// Probes `count` NEs starting at rotation `cursor` (deterministic choice):
/// times combined_digest, packed_digests, the queue scans and
/// merged_snapshot on each NE's directory, then snapshot and newer_than on
/// up to `max_tables` of its group tables.
void probe_directories(const rgb::core::RgbSystem& sys, std::uint64_t cursor,
                       std::size_t count, std::size_t max_tables,
                       DirectoryStats& out, BenchSpans& spans);

}  // namespace perfbench
