// Flight recorder: a bounded per-trial ring buffer of structured protocol
// events (op births, round lifecycle, repairs, merges, reconcile activity,
// failure detections). It runs default-on — recording is a couple of stores
// into a preallocated ring, no per-event allocation — and when an invariant
// oracle fires, the check layer dumps the tail next to the violated
// schedule so every fuzz repro arrives with its causal trace.
//
// Everything is keyed to sim time only; the formatted dump is a pure
// function of the recorded events and therefore byte-identical across
// replays and runner thread counts.
//
// Storage is an obs::StripedRing (obs/striped_ring.hpp): one ring per
// simulator shard, written only from that shard's windows and merged on
// read by (time, shard, intra-shard order), so the merged view is
// deterministic for any worker count. The stripe count is the simulator's
// shard count, passed in by ProtocolObs: configure the simulator before
// building the Network and the RgbSystem over it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/striped_ring.hpp"
#include "sim/time.hpp"

namespace rgb::obs {

/// What happened. Kept deliberately coarse: one enum value per protocol
/// machinery transition worth seeing in a repro trace, not per message.
enum class FlightKind : std::uint8_t {
  kOpBorn,            ///< a=op uid, b=OpKind
  kRoundStarted,      ///< a=round id, b=ops carried
  kRoundCompleted,    ///< a=round id, b=ops carried
  kTokenRetx,         ///< a=round id, b=retx count so far
  kRepair,            ///< a=faulty NE spliced out, b=stranded members
  kLeaderFailover,    ///< a=new leader (the recording NE), b=old leader
  kRingReform,        ///< a=new leader, b=roster size
  kMerge,             ///< a=absorbed fragment leader, b=roster size after
  kShapeAdopt,        ///< a=sync sender, b=roster size adopted
  kReconcileRound,    ///< a=claims sent, b=target NE
  kReconcileReanchor, ///< a=member guid re-anchored, b=claim seq
  kSnapshotApplied,   ///< a=sender, b=entries imported
  kSnapshotRejected,  ///< a=sender, b=decode error count so far
  kDetectMemberFail,  ///< a=member guid, b=detection latency (us)
  kDetectNeFail,      ///< a=detected NE, b=detection latency (us)
  kNeJoin,            ///< a=joining NE, b=predecessor in ring
  kNeLeave,           ///< a=leaving NE
  kAlertRaised,       ///< a=suspect, b=observer alert id
  kCutApplied,        ///< a=suspects in the cut, b=distinct observers
  kStabilityFallback, ///< a=suspect, b=observer alert id
};

[[nodiscard]] const char* to_string(FlightKind kind);

/// Per-kind operand labels so dumps and the trace exporter read as
/// protocol activity, not as an (a, b) puzzle. `b` is nullptr for kinds
/// without a second operand. Must stay in sync with the FlightKind docs.
struct FlightOperandNames {
  const char* a;
  const char* b;
};
[[nodiscard]] FlightOperandNames flight_operand_names(FlightKind kind);

/// One recorded event. Two generic operands keep the record POD-sized; the
/// per-kind meaning is documented on FlightKind and decoded by format().
struct FlightEvent {
  sim::Time at = 0;
  common::NodeId ne;  ///< the NE that recorded the event
  FlightKind kind = FlightKind::kOpBorn;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Fixed-capacity ring of FlightEvents per shard stripe. Oldest entries
/// are overwritten; `dropped()` says how many, so a dump is honest about
/// truncation. Every ring's `capacity` slots are allocated up front, so
/// recording never allocates.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity,
                          std::uint32_t stripes = 1)
      : ring_(stripes, capacity, StripedRing<FlightEvent>::Reserve::kUpFront) {}

  void record(sim::Time at, common::NodeId ne, FlightKind kind,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    ring_.push(FlightEvent{at, ne, kind, a, b});
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Per-stripe capacity.
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::uint64_t recorded() const { return ring_.recorded(); }
  [[nodiscard]] std::uint64_t dropped() const { return ring_.dropped(); }

  /// Events oldest-to-newest, stripes merged (materialized view).
  [[nodiscard]] std::vector<FlightEvent> events() const {
    return ring_.merged();
  }

  /// Writes the newest `max_events` (0 = all retained) oldest-to-newest,
  /// one line each, with a header noting drops. Deterministic.
  void format_tail(std::ostream& os, std::size_t max_events = 0) const;
  [[nodiscard]] std::string format_tail_string(
      std::size_t max_events = 0) const;

  void clear() { ring_.clear(); }

 private:
  StripedRing<FlightEvent> ring_;
};

}  // namespace rgb::obs
