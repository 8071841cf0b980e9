// Host-speed reference: fixed work that does not depend on the program
// under test, timed around every timed repetition. Wall time on a shared
// host drifts by itself, by up to half over a few minutes; the same drift
// slows the reference, so a repetition's wall times divided by the
// reference time measured around it keep every change in the program's own
// cost and lose most of the host's.
//
// The work mixes what the simulator does: hashing into a node-based map
// and chasing pointers through it, an event-style priority queue, many
// small allocations, and a sort. It allocates only from a private arena, so
// the program's heap cannot change its speed.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  HostReference();

  /// Runs the reference work once; returns its wall time in seconds.
  double run();

 private:
  std::vector<std::byte> arena_;
};

}  // namespace perfbench
