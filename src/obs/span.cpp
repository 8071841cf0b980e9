#include "obs/span.hpp"

namespace rgb::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpRoot:
      return "op_root";
    case SpanKind::kSend:
      return "send";
    case SpanKind::kHandler:
      return "handle";
    case SpanKind::kApply:
      return "apply";
  }
  return "?";
}

std::uint64_t SpanRecorder::record(sim::Time at, common::NodeId ne,
                                   SpanKind kind, std::uint64_t trace,
                                   std::uint64_t parent, std::uint64_t a,
                                   std::uint64_t b) {
  if (!enabled_) return 0;
  Local& l = local_.local();
  // Stripe index in the high bits keeps ids unique across stripes without
  // shared state; both halves are deterministic (the stripe executing a
  // given event is the logical shard, never the worker thread).
  const std::uint64_t id =
      ((std::uint64_t{local_.index_of(l)} + 1) << 40) | ++l.next_id;
  ring_.push(Span{at, ne, kind, id, parent, trace, a, b});
  return id;
}

SpanRecorder::Context SpanRecorder::exchange(Context next) {
  Local& l = local_.local();
  const Context prev = l.ctx;
  l.ctx = next;
  return prev;
}

void SpanRecorder::clear() {
  ring_.clear();
  for (Local& l : local_) l = Local{};
}

}  // namespace rgb::obs
