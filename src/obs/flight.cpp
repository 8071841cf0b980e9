#include "obs/flight.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace rgb::obs {

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kOpBorn:
      return "op_born";
    case FlightKind::kRoundStarted:
      return "round_started";
    case FlightKind::kRoundCompleted:
      return "round_completed";
    case FlightKind::kTokenRetx:
      return "token_retx";
    case FlightKind::kRepair:
      return "repair";
    case FlightKind::kLeaderFailover:
      return "leader_failover";
    case FlightKind::kRingReform:
      return "ring_reform";
    case FlightKind::kMerge:
      return "merge";
    case FlightKind::kShapeAdopt:
      return "shape_adopt";
    case FlightKind::kReconcileRound:
      return "reconcile_round";
    case FlightKind::kReconcileReanchor:
      return "reconcile_reanchor";
    case FlightKind::kSnapshotApplied:
      return "snapshot_applied";
    case FlightKind::kSnapshotRejected:
      return "snapshot_rejected";
    case FlightKind::kDetectMemberFail:
      return "detect_member_fail";
    case FlightKind::kDetectNeFail:
      return "detect_ne_fail";
    case FlightKind::kNeJoin:
      return "ne_join";
    case FlightKind::kNeLeave:
      return "ne_leave";
    case FlightKind::kAlertRaised:
      return "alert_raised";
    case FlightKind::kCutApplied:
      return "cut_applied";
    case FlightKind::kStabilityFallback:
      return "stability_fallback";
  }
  return "?";
}

FlightOperandNames flight_operand_names(FlightKind kind) {
  switch (kind) {
    case FlightKind::kOpBorn:
      return {"uid", "kind"};
    case FlightKind::kRoundStarted:
    case FlightKind::kRoundCompleted:
      return {"round", "ops"};
    case FlightKind::kTokenRetx:
      return {"round", "retx"};
    case FlightKind::kRepair:
      return {"faulty", "stranded"};
    case FlightKind::kLeaderFailover:
      return {"leader", "old"};
    case FlightKind::kRingReform:
      return {"leader", "roster"};
    case FlightKind::kMerge:
      return {"fragment", "roster"};
    case FlightKind::kShapeAdopt:
      return {"from", "roster"};
    case FlightKind::kReconcileRound:
      return {"claims", "target"};
    case FlightKind::kReconcileReanchor:
      return {"guid", "claim"};
    case FlightKind::kSnapshotApplied:
      return {"from", "entries"};
    case FlightKind::kSnapshotRejected:
      return {"from", "errors"};
    case FlightKind::kDetectMemberFail:
      return {"guid", "latency_us"};
    case FlightKind::kDetectNeFail:
      return {"ne", "latency_us"};
    case FlightKind::kNeJoin:
      return {"ne", "after"};
    case FlightKind::kNeLeave:
      return {"ne", nullptr};
    case FlightKind::kAlertRaised:
    case FlightKind::kStabilityFallback:
      return {"suspect", "alert"};
    case FlightKind::kCutApplied:
      return {"suspects", "observers"};
  }
  return {"a", "b"};
}

void FlightRecorder::format_tail(std::ostream& os,
                                 std::size_t max_events) const {
  const std::vector<FlightEvent> all = events();
  const std::size_t n =
      max_events == 0 ? all.size() : std::min(max_events, all.size());
  const std::uint64_t total = recorded();
  const std::uint64_t skipped = total - n;
  os << "flight recorder: last " << n << " of " << total << " event(s)";
  if (skipped > 0) os << " (" << skipped << " earlier not shown)";
  os << '\n';
  for (std::size_t i = all.size() - n; i < all.size(); ++i) {
    const FlightEvent& e = all[i];
    const FlightOperandNames names = flight_operand_names(e.kind);
    os << "  t=" << e.at << "us ne=" << e.ne.value() << ' '
       << to_string(e.kind) << ' ' << names.a << '=' << e.a;
    if (names.b != nullptr) os << ' ' << names.b << '=' << e.b;
    os << '\n';
  }
}

std::string FlightRecorder::format_tail_string(std::size_t max_events) const {
  std::ostringstream os;
  format_tail(os, max_events);
  return os.str();
}

}  // namespace rgb::obs
