// Encoded-byte metering: bridges the wire codec into net::Network so the
// per-kind byte counters price every message by its exact framed encoding.
// The codec is the only size model: there is no second, hand-written
// estimate to fall back on, so a send the registry cannot size is a
// programming error.
#pragma once

#include "net/network.hpp"

namespace rgb::wire {

/// Installs the global-registry encoded sizer on `network`: from then on
/// every send is metered at its exact framed size. A send under an
/// unregistered kind, or with a payload that is not the kind's registered
/// type, throws std::logic_error in every build type. Idempotent in effect
/// — every caller installs the same global-registry hook.
void attach_encoded_metering(net::Network& network);

}  // namespace rgb::wire
