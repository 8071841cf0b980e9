#include "obs/hooks.hpp"

#include <chrono>
#include <optional>

namespace rgb::obs {

void ObsTraceHooks::on_send(net::Envelope& env, sim::Time now) {
  if (!spans_.enabled()) return;
  const SpanRecorder::Context ctx = spans_.current();
  if (ctx.trace == 0) return;  // untraced traffic stays unstamped
  env.trace = ctx.trace;
  env.span = spans_.record(now, env.src, SpanKind::kSend, ctx.trace, ctx.span,
                           env.kind, env.dst.value());
}

void ObsTraceHooks::on_deliver(const net::Envelope& env, sim::Time now,
                               net::Endpoint& endpoint) {
  // Traced runs: the handler span parents under the envelope's send span
  // (0 for untraced traffic) and becomes the causal context for sends and
  // applies inside the handler. Deliveries never nest — every message is
  // re-delivered through a scheduled event — so a single save/restore
  // scope per stripe is sound. Untraced runs pay this one branch.
  std::optional<SpanRecorder::Scope> scope;
  if (spans_.enabled()) {
    const std::uint64_t handler =
        spans_.record(now, env.dst, SpanKind::kHandler, env.trace, env.span,
                      env.kind, env.src.value());
    scope.emplace(spans_, SpanRecorder::Context{env.trace, handler});
  }
  // Default-on profile path: one array bump after the handler. The wall
  // clock is read only when attribution was explicitly enabled — it is the
  // repo's single non-deterministic instrument.
  const bool timed = profiler_.wall_enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  endpoint.deliver(env);
  if (timed) {
    profiler_.add_wall_ns(
        env.kind, static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count()));
  }
  profiler_.on_handled(env.kind);
}

}  // namespace rgb::obs
