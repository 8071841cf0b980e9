// Protocol process abstraction.
//
// A `Process` is a network endpoint with a virtual clock: it can send
// messages and set cancellable timers. Timers of a crashed node are
// suppressed automatically (a crashed node is silent until recovered),
// which keeps crash semantics consistent between the message plane and the
// timer plane without every protocol re-checking.
#pragma once

#include <functional>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace rgb::proto {

using common::NodeId;

class Process : public net::Endpoint {
 public:
  /// Attaches itself to `network` under `id`.
  Process(NodeId id, net::Network& network);

  /// Detaches from the network.
  ~Process() override;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Whether the network fault injector currently considers this node down.
  [[nodiscard]] bool crashed() const { return network_.is_crashed(id_); }

 protected:
  /// Sends `payload` to `dst`, metered under `kind`; the network's Sizer
  /// prices the envelope. Message structs convert to `net::Payload`
  /// implicitly; fan-out senders build the Payload once and pass it to
  /// every send so the value is shared, not re-copied per destination.
  void send(NodeId dst, net::MessageKind kind, net::Payload payload);

  /// Schedules `fn` after `delay`; the callback is dropped if this node is
  /// crashed when the timer fires. Returns a cancellable id.
  sim::EventId set_timer(sim::Duration delay, std::function<void()> fn);

  /// Cancels `id` (if pending) and resets it to invalid.
  void cancel_timer(sim::EventId& id);

  [[nodiscard]] sim::Simulator& simulator() { return network_.simulator(); }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Time now() { return simulator().now(); }

 private:
  NodeId id_;
  net::Network& network_;
};

/// Repeating timer with crash suppression; used by heartbeat/gossip loops.
/// While the owning node is crashed the ticks are skipped but the timer
/// keeps rescheduling, so the loop resumes after recovery.
class PeriodicTimer {
 public:
  PeriodicTimer(net::Network& network, NodeId owner, sim::Duration period,
                std::function<void()> on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm();

  net::Network& network_;
  NodeId owner_;
  sim::Duration period_;
  std::function<void()> on_tick_;
  sim::EventId pending_{};
  bool running_ = false;
};

}  // namespace rgb::proto
