// Causal span layer: the hop-by-hop timeline behind every MembershipOp.
//
// Every op birth opens a *trace* whose id is the op's uid; every message
// carrying protocol work records spans for its send -> deliver -> apply
// hops. Span/trace ids ride on the net::Envelope as sim-only metadata
// (deliberately NOT wire-encoded, mirroring the MembershipOp::born
// convention): the causal links are local instrumentation, not protocol
// state, and the future socket transport implements the same hook contract
// without ever framing them.
//
// Causality is threaded through a per-stripe *context* {trace, span}:
//  * an op birth installs {uid, root span} around the send chain it
//    triggers (token request -> grant -> token hops), so those sends
//    inherit the trace;
//  * a delivery installs {env.trace, handler span} around the handler, so
//    sends and applies inside it parent under the handler span.
// Shard windows execute one event at a time per shard and deliveries never
// nest, so a single save/restore slot per stripe is sufficient.
//
// Determinism: spans land in an obs::StripedRing (obs/striped_ring.hpp),
// one bounded ring per simulator shard written only from that shard's
// windows and merged on read by (time, stripe, intra-stripe order); span
// ids and the causal context live in a sim::Striped beside it (stripe
// index in the high bits of an id, a per-stripe counter below). The whole
// surface, export included, is a function of the logical shard count
// alone, byte-identical for any worker count. The stripe count is the
// simulator's shard count, passed in by ProtocolObs: configure the
// simulator before building the Network and the RgbSystem over it.
//
// Recording is off by default (`set_enabled`) so untraced runs pay only a
// branch; the handler profiler rides the same hooks and stays default-on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "obs/striped_ring.hpp"
#include "sim/striped.hpp"
#include "sim/time.hpp"

namespace rgb::obs {

/// What a span marks. One value per hop stage; the operand meaning per
/// kind is documented on Span.
enum class SpanKind : std::uint8_t {
  kOpRoot,   ///< op birth: the root of trace `trace` (= op uid)
  kSend,     ///< a message send admitted into the network
  kHandler,  ///< a delivery handler executing at the destination
  kApply,    ///< an op applied to a member/roster table
};

[[nodiscard]] const char* to_string(SpanKind kind);

/// One recorded span. POD-sized; `a`/`b` are per-kind operands:
///   kOpRoot  a=OpKind,       b=op uid
///   kSend    a=MessageKind,  b=destination NE
///   kHandler a=MessageKind,  b=source NE
///   kApply   a=OpKind,       b=op uid
struct Span {
  sim::Time at = 0;
  common::NodeId ne;  ///< the NE the span executed at
  SpanKind kind = SpanKind::kOpRoot;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no causal parent recorded)
  std::uint64_t trace = 0;   ///< op uid whose causal tree this span is in
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Bounded per-shard span rings plus the per-stripe causal context.
class SpanRecorder {
 public:
  /// Per-stripe ring capacity. Spans are ~4x denser than flight events
  /// (every traced hop records one), so the default ring is deeper; its
  /// slots are allocated on first use, so an untraced run never pays for
  /// them.
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  /// The causal context of the currently executing scope: the trace the
  /// work belongs to and the span new work should parent under.
  struct Context {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
  };

  explicit SpanRecorder(std::size_t capacity = kDefaultCapacity,
                        std::uint32_t stripes = 1)
      : ring_(stripes, capacity, StripedRing<Span>::Reserve::kLazy),
        local_(stripes) {}

  /// Master switch. Off (the default): record() is a no-op returning id 0
  /// and the context never changes, so untraced runs pay one branch per
  /// hook. Flip before traffic; flipping mid-run is safe but leaves a
  /// truncated causal prefix.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one span and returns its id (0 when disabled). `parent` and
  /// `trace` come from the caller (usually the current context or the
  /// envelope metadata).
  std::uint64_t record(sim::Time at, common::NodeId ne, SpanKind kind,
                       std::uint64_t trace, std::uint64_t parent,
                       std::uint64_t a, std::uint64_t b);

  /// The executing stripe's context ({0, 0} outside any causal scope).
  [[nodiscard]] Context current() { return local_.local().ctx; }
  /// Installs `next` as the stripe context, returning the previous one.
  Context exchange(Context next);

  /// RAII causal scope: installs `ctx` for the enclosed block. Used around
  /// op-birth send chains and delivery handlers.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, Context ctx)
        : recorder_(recorder), prev_(recorder.exchange(ctx)) {}
    ~Scope() { recorder_.exchange(prev_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    Context prev_;
  };

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Per-stripe capacity.
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::uint64_t recorded() const { return ring_.recorded(); }
  [[nodiscard]] std::uint64_t dropped() const { return ring_.dropped(); }

  /// Spans merged oldest-to-newest by (time, stripe, intra-stripe order) —
  /// deterministic for any worker count (each stripe is time-monotone).
  [[nodiscard]] std::vector<Span> spans() const { return ring_.merged(); }

  /// Empties the rings and resets every stripe's id counter and context.
  void clear();

 private:
  /// One stripe's id allocator and context slot. The context is safe
  /// un-synchronised: one thread executes one shard's window at a time.
  struct Local {
    std::uint64_t next_id = 0;
    Context ctx;
  };

  bool enabled_ = false;
  StripedRing<Span> ring_;
  sim::Striped<Local> local_;
};

}  // namespace rgb::obs
