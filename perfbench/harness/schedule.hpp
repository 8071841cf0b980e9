// The op schedule the benchmark's generator (perfbench/workloads.py) writes
// and the harness replays. The harness never draws a random number of its
// own: every op, fault and query setting comes from this file, so a seed
// reaches the program only through the schedule.
//
// Text format, one record per line:
//
//   rgbbench 1
//   workload <name>
//   seed <u64>                         network RNG seed
//   layout <tiers> <ring_size>
//   groups <G>
//   probe_us <us>                      0 = probing off
//   warmup_us <us>                     probed settle time inside set-up
//   preload_spacing_us <us>
//   window_us <us>                     last op is due before this
//   settle_us <us>                     probed tail after the last op
//   query <think_us> <timeout_us> <bms_every>   optional closed-loop client
//   P <guid> <ap>                      preload join (set-up)
//   O <t_us> J <guid> <ap>             join at AP index <ap>
//   O <t_us> L <guid>                  leave
//   O <t_us> H <guid> <ap>             handoff to AP index <ap>
//   O <t_us> F <guid>                  member failure
//   O <t_us> C <ap>                    AP crash
//   O <t_us> R <ap>                    AP recovery
//   O <t_us> S <guid>                  member stranded by the preceding crash
//   end
//
// Window times are relative to the end of set-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ScheduledOp {
  std::uint64_t at_us = 0;
  char kind = 'J';  ///< J L H F (membership ops), C R (faults), S (strand)
  std::uint64_t subject = 0;  ///< guid, or AP index for C/R
  std::uint64_t ap = 0;       ///< target AP index for J/H

  [[nodiscard]] bool is_member_op() const {
    return kind == 'J' || kind == 'L' || kind == 'H' || kind == 'F';
  }
};

struct QuerySettings {
  bool enabled = false;
  std::uint64_t think_us = 0;
  std::uint64_t timeout_us = 0;
  std::uint64_t bms_every = 0;  ///< every n-th query is BMS, the rest TMS
};

struct Schedule {
  std::string workload;
  std::uint64_t seed = 0;
  int tiers = 3;
  int ring_size = 5;
  std::uint64_t groups = 1;
  std::uint64_t probe_us = 0;
  std::uint64_t warmup_us = 0;
  std::uint64_t preload_spacing_us = 0;
  std::uint64_t window_us = 0;
  std::uint64_t settle_us = 0;
  QuerySettings query;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> preload;  ///< guid, ap
  std::vector<ScheduledOp> ops;  ///< time-sorted

  [[nodiscard]] std::uint64_t member_ops() const;
};

/// Parses the text form; throws std::runtime_error with the line number on
/// malformed input.
[[nodiscard]] Schedule load_schedule(const std::string& path);

}  // namespace perfbench
