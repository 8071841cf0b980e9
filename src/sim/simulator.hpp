// Deterministic discrete-event simulation kernel.
//
// All protocol activity in this repository — token passing, retransmission
// timers, mobility, fault injection — is expressed as events on one
// `Simulator`. Events at equal timestamps execute in scheduling order
// (FIFO by a monotonically increasing sequence number), which makes every
// run a deterministic function of (seed, scenario).
//
// Storage is allocation-light on the hot path: callbacks live in a
// free-listed slot vector addressed directly by the heap entries, so one
// schedule/fire cycle costs two heap pushes and zero hash-table traffic
// (the previous design paid an unordered_map insert+erase per event plus
// an unordered_set round trip per cancellation).
//
// One kernel at every shard count. The event space splits into K logical
// shards (configure_shards; K = 1 by default), each with its own heap,
// clock and sequence counter, advancing in lock-step epoch windows of at
// most `epoch` virtual time. Within a window shards execute independently
// (optionally on worker threads); an event that schedules onto another
// shard goes into its source shard's outbox and is drained at the window
// barrier in (source shard, enqueue order) — a conservative parallel DES
// with the epoch as lookahead, so the trajectory is a function of the
// *logical* shard count alone and is byte-identical for any worker-thread
// count. The scheduling contract: cross-shard events must land strictly
// after the current window (guaranteed when epoch <= the minimum
// cross-shard link latency). With K > 1, events scheduled from outside any
// shard context (setup code, oracle sampling, fault injection) become
// *global* events that run single-threaded between windows, in (time, seq)
// order — the natural barrier-action hook.
//
// A single shard needs no lookahead, so K = 1 runs with an epoch of one
// tick: every window is one timestamp, and the fence after it is the time
// of the last event that ran. Outside-context events go straight to shard
// 0's heap, so setup code and events that schedule for the same tick stay
// FIFO in schedule order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace rgb::sim {

/// Opaque handle to a scheduled event; usable to cancel it. Carries the
/// event's unique sequence number plus its storage slot; a stale handle
/// (event already fired or cancelled, slot since reused) never matches the
/// slot's current sequence, so cancelling it stays a harmless no-op.
/// `shard` routes the cancel to its heap (kGlobalShard = a global
/// barrier event). Cross-shard handoff events return an invalid id — they
/// are renumbered at the barrier and cannot be cancelled.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  std::uint32_t shard = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
  auto operator<=>(const EventId&) const = default;
};

/// The shard whose window the calling thread is currently executing (also
/// set inside Simulator::run_as), or 0 when the thread is outside any
/// shard context. sim::Striped (sim/striped.hpp) reads it to pick the
/// stripe the executing event writes; nothing else should. Single-shard
/// simulations always report 0.
[[nodiscard]] std::uint32_t current_executing_shard();

/// True when the calling thread is inside a shard context (a shard window
/// or run_as) — i.e. current_executing_shard()'s 0 means "shard 0", not
/// "outside". Facade layers use this to decide whether entity calls still
/// need run_as wrapping.
[[nodiscard]] bool in_shard_context();

/// Discrete-event scheduler: one shard by default, optionally K (see the
/// file header for the window contract).
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// EventId::shard value marking a global (between-windows) event.
  static constexpr std::uint32_t kGlobalShard = 0xFFFFFFFFu;

  Simulator();  // out-of-line: members reference the fwd-declared Pool
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- sharding ------------------------------------------------------------

  /// Splits the event space into `count` logical shards advancing in
  /// epoch windows of at most `epoch` (> 0) virtual time; one shard
  /// ignores `epoch` and keeps windows of one tick. Must be called
  /// before anything is scheduled and before anything striped over this
  /// simulator is built (the Network, RgbSystem): they read shard_count()
  /// once, at construction. The trajectory depends on `count` and `epoch`,
  /// never on the worker count.
  void configure_shards(std::uint32_t count, Duration epoch);

  /// Worker threads that execute shard windows (clamped to the shard
  /// count; 1 = run windows inline). Purely an execution knob: any value
  /// produces byte-identical results.
  void set_workers(unsigned workers);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// More than one shard: outside-context events become globals, and the
  /// network forks one RNG stream per stripe.
  [[nodiscard]] bool is_sharded() const { return shards_.size() > 1; }
  [[nodiscard]] Duration epoch() const { return epoch_; }

  /// Runs `fn` in the context of `shard` (events it schedules land there,
  /// now() reads that shard's clock, pulled up to the fence first). For
  /// facade calls into shard-owned protocol state between windows.
  void run_as(std::uint32_t shard, const std::function<void()>& fn);

  // --- scheduling ----------------------------------------------------------

  /// Current virtual time. Starts at 0. Inside an event or run_as, the
  /// executing shard's clock; otherwise the fence between windows.
  [[nodiscard]] Time now() const;

  /// Schedules `cb` at absolute time `t` (must be >= now()). Routes to the
  /// executing shard's heap; outside any shard context it is exactly
  /// schedule_global.
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after `delay` from now.
  EventId schedule_after(Duration delay, Callback cb);

  /// Schedules onto a specific shard. From a different shard's window the
  /// event is handed off via the outbox (must satisfy t > window end; the
  /// returned id is invalid/non-cancellable). Identical to schedule_at
  /// when `shard` is the executing shard.
  EventId schedule_on(std::uint32_t shard, Time t, Callback cb);

  /// Schedules a single-threaded between-windows event (fault injection,
  /// series/oracle sampling, facade workload). With one shard there is no
  /// between-windows phase to protect: the event goes to shard 0's heap.
  EventId schedule_global(Time t, Callback cb);

  /// Cancels a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op (protocols routinely race timers against messages).
  void cancel(EventId id);

  // --- running -------------------------------------------------------------

  /// Runs until the queue drains or `max_events` have executed. The cap is
  /// checked between windows, so a window in progress always completes
  /// (at K = 1, every event of the timestamp). Returns the number of
  /// events executed.
  std::uint64_t run(std::uint64_t max_events = kDefaultMaxEvents);

  /// Runs events with timestamp <= `deadline`. Afterwards now() ==
  /// max(now, deadline) — *unless* the `max_events` cap stopped the run,
  /// in which case the fence stays at the end of the last window so it can
  /// never run backwards when still-due events later fire (and never
  /// invalidates their schedule order).
  std::uint64_t run_until(Time deadline,
                          std::uint64_t max_events = kDefaultMaxEvents);

  /// Number of scheduled, not-yet-fired, not-cancelled events. Counted
  /// live — never as `heap size - tombstones`, whose two sides can
  /// transiently disagree while a cancelled entry waits in the heap.
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const;

  /// Heap entries currently held, cancelled tombstones included. Exposed so
  /// tests can assert that timer-cancel churn cannot grow memory without
  /// bound (tombstones are compacted away once they outnumber live events).
  [[nodiscard]] std::size_t queued_entries() const;

  /// Safety valve: simulations in tests should never need more.
  static constexpr std::uint64_t kDefaultMaxEvents = 500'000'000ULL;

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    // Ordered min-heap: earliest time first, FIFO within a timestamp.
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Callback storage addressed by heap entries. `seq` doubles as the
  /// liveness check: 0 marks a free or cancelled slot, so a popped heap
  /// entry whose seq no longer matches is a tombstone.
  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;
  };

  /// A cross-shard event awaiting the window barrier.
  struct Handoff {
    std::uint32_t dst_shard;
    Time time;
    Callback cb;
  };

  /// One logical shard: its own heap, slots, clock and FIFO numbering, so
  /// a shard's trajectory is independent of its siblings within a window.
  struct Shard {
    Time now = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t executed = 0;
    std::vector<Entry> heap;  // std::push_heap/pop_heap with operator>
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    std::size_t live = 0;        ///< scheduled, not fired, not cancelled
    std::size_t tombstones = 0;  ///< cancelled entries still in heap
    std::vector<Handoff> outbox;
  };

  struct Pool;  // worker threads (workers > 1)

  static constexpr Time kNever = std::numeric_limits<Time>::max();

  EventId push_event(std::uint32_t shard_idx, Time t, Callback cb);
  /// Earliest live entry of a shard, reaping front tombstones; nullptr
  /// when the shard has nothing pending.
  const Entry* peek_live(Shard& sh);
  void purge_tombstones(Shard& sh);
  void release_slot(Shard& sh, std::uint32_t slot);
  /// Executes one shard's events with time <= window_end; returns how
  /// many ran.
  std::uint64_t run_window(std::uint32_t shard_idx, Time window_end);
  /// Runs all shard windows [.., window_end], inline or on the pool, then
  /// drains the outboxes in (source shard, enqueue order). Returns the
  /// events executed.
  std::uint64_t dispatch_window(Time window_end);
  void stop_pool();

  /// The one run loop behind run() and run_until(): globals at the fence,
  /// then the next window, until nothing is due by `deadline`.
  std::uint64_t run_windows(Time deadline, std::uint64_t max_events,
                            bool advance_to_deadline);

  std::vector<Shard> shards_{1};
  Duration epoch_ = 1;   ///< one tick until configure_shards(K > 1, ...)
  Time global_now_ = 0;  ///< the between-windows fence
  bool in_window_ = false;
  Time window_end_ = 0;

  /// Global (between-windows) events, ordered by (time, seq). A std::map
  /// rather than a heap: globals are rare (fault schedule, samplers) and
  /// the map gives ordered pop plus O(n) cancel-by-seq with no tombstone
  /// machinery.
  std::map<std::pair<Time, std::uint64_t>, Callback> global_events_;
  std::uint64_t next_global_seq_ = 1;
  std::uint64_t globals_executed_ = 0;

  unsigned workers_ = 1;
  std::unique_ptr<Pool> pool_;
};

}  // namespace rgb::sim
