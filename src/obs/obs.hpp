// Umbrella for the observability layer: one ProtocolObs per protocol
// instance (owned by core::RgbSystem, threaded by reference into every
// NetworkEntity). Everything inside is per-trial state keyed to sim time —
// no globals, no wall clock — so concurrent trial workers never share
// observability state and all output is byte-identical across thread
// counts.
#pragma once

#include <cstdint>

#include "obs/flight.hpp"
#include "obs/hooks.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace rgb::obs {

/// The per-instance observability bundle. Default-on and allocation
/// bounded: the flight ring is preallocated, histograms are fixed-size
/// bucket arrays, and the registry holds pointers into sibling members.
/// The span layer is the one opt-in piece (SpanRecorder::set_enabled);
/// `hooks` is what RgbSystem installs on its network to drive spans and
/// the handler profiler. Every striped instrument gets `shards` stripes —
/// RgbSystem passes its simulator's shard count.
struct ProtocolObs {
  explicit ProtocolObs(std::uint32_t shards = 1)
      : flight(FlightRecorder::kDefaultCapacity, shards),
        spans(SpanRecorder::kDefaultCapacity, shards),
        profiler(shards),
        tracer(flight, spans, shards),
        hooks(spans, profiler) {}
  ProtocolObs(const ProtocolObs&) = delete;
  ProtocolObs& operator=(const ProtocolObs&) = delete;

  FlightRecorder flight;
  SpanRecorder spans;
  HandlerProfiler profiler;
  OpTracer tracer;
  ObsTraceHooks hooks;
  MetricsRegistry registry;
};

}  // namespace rgb::obs
