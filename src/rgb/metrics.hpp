// Protocol-level metrics shared by all NEs of one RGB instance. Network-level
// message/hop counts live in net::Network::Metrics; this struct counts
// protocol events the network cannot see (rounds, repairs, failovers).
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "rgb/messages.hpp"

namespace rgb::core {

/// Every protocol counter, declared once as X(field, description). The
/// RgbMetrics fields and their registry entries (obs::register_rgb_metrics,
/// named "rgb.<field>") both expand from this list, in this order, so a new
/// counter is one line here.
#define RGB_METRICS_COUNTERS(X)                                               \
  X(rounds_started, "token rounds started (token granted and launched)")      \
  X(rounds_completed, "token rounds that returned to the holder")             \
  X(empty_probe_rounds, "rounds carrying zero ops (liveness probes)")         \
  X(ops_disseminated, "membership ops applied to a ring member table")        \
  X(ops_aggregated, "ops collapsed by MQ aggregation before circulation")     \
  X(token_retransmits, "token hops re-sent after a missing pass-ack")         \
  X(repairs, "ring splices around a faulty member")                           \
  X(leader_failovers, "leadership transfers after a leader failure")          \
  X(notifications_sent, "inter-ring notification messages sent")              \
  X(notify_retransmits, "notifications re-sent after a missing holder-ack")   \
  X(holder_acks, "holder acknowledgements sent for carried notifies")         \
  X(merges, "ring fragments absorbed after a partition heals")                \
  X(ne_joins, "network entities admitted into a ring")                        \
  X(ne_leaves, "network entities departing a ring voluntarily")               \
  X(snapshots_sent, "full-state snapshots sent to lagging peers")             \
  X(snapshots_applied, "snapshots decoded and imported")                      \
  X(snapshot_decode_errors, "snapshots rejected by wire decoding")            \
  X(snapshot_retransmits, "snapshots re-sent after a missing ack")            \
  X(snapshot_push_give_ups,                                                   \
    "snapshot pushes abandoned after retry exhaustion")                       \
  /* Post-heal reconciliation (kReconcile re-anchoring rounds); the check     \
     layer reads these to assert the round actually ran on heal paths. */     \
  X(reconcile_rounds, "anti-entropy reconcile rounds initiated")              \
  X(reconcile_replies, "reconcile replies processed")                         \
  X(reconcile_retransmits, "reconcile claims re-sent after a missing ack")    \
  X(reconcile_give_ups, "reconcile exchanges abandoned after retries")        \
  X(reconcile_reanchors, "member records re-anchored by reconciliation")      \
  /* Multi-observer cut detection (stability layer); the A/B bench and the    \
     stability tests read these to assert batching/suppression happened. */   \
  X(stability_alerts, "multi-observer failure alerts raised")                 \
  X(stability_cuts, "correlated-failure cuts applied by the aggregator")      \
  X(stability_batched_failures, "failures batched into a single cut")         \
  X(stability_suppressed_flaps, "alerts cancelled by observed liveness")      \
  X(stability_timeout_fallbacks, "cuts forced by aggregation timeout")        \
  /* Multi-group serving: packed anti-entropy and directory growth. */        \
  X(digest_groups_packed,                                                     \
    "per-group digests packed into kDigest sync frames")                      \
  X(group_fulls_sent, "groups shipped in scoped kFull sync replies")          \
  X(group_diffs_sent, "groups shipped in scoped kDiff sync replies")          \
  X(groups_created, "group states instantiated in NE directories")

struct RgbMetrics {
#define RGB_METRICS_FIELD(field, description) common::Counter field;
  RGB_METRICS_COUNTERS(RGB_METRICS_FIELD)
#undef RGB_METRICS_FIELD
};

/// Sum of proposal-plane sends (token circulation + inter-ring
/// notifications) metered by the network — the quantity the paper's
/// HopCount analysis prices. Shared by benches, the experiment harness and
/// examples so the proposal-kind set has a single definition site.
inline std::uint64_t proposal_hops(const net::Network& network) {
  std::uint64_t hops = 0;
  for (const auto& [kind, count] : network.metrics().sent_per_kind) {
    if (kind::is_proposal_kind(kind)) hops += count;
  }
  return hops;
}

}  // namespace rgb::core
