#include "proto/process.hpp"

#include <utility>

namespace rgb::proto {

Process::Process(NodeId id, net::Network& network)
    : id_(id), network_(network) {
  network_.attach(id_, this);
}

Process::~Process() { network_.detach(id_); }

void Process::send(NodeId dst, net::MessageKind kind, net::Payload payload) {
  network_.send(net::Envelope{id_, dst, kind, 0, std::move(payload)});
}

sim::EventId Process::set_timer(sim::Duration delay,
                                std::function<void()> fn) {
  return simulator().schedule_after(
      delay, [this, fn = std::move(fn)]() {
        if (crashed()) return;
        fn();
      });
}

void Process::cancel_timer(sim::EventId& id) {
  simulator().cancel(id);
  id = sim::EventId{};
}

PeriodicTimer::PeriodicTimer(net::Network& network, NodeId owner,
                             sim::Duration period,
                             std::function<void()> on_tick)
    : network_(network),
      owner_(owner),
      period_(period),
      on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  network_.simulator().cancel(pending_);
  pending_ = sim::EventId{};
}

void PeriodicTimer::arm() {
  pending_ = network_.simulator().schedule_after(period_, [this]() {
    if (!running_) return;
    if (!network_.is_crashed(owner_)) on_tick_();
    arm();
  });
}

}  // namespace rgb::proto
