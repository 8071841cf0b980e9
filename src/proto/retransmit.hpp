// Ack-and-retransmit: a keyed table of in-flight acknowledged sends.
//
// The caller makes the first send, then arms the key. Every `timeout`
// without an ack the table calls `resend`, up to `budget` times; the next
// timeout calls `exhausted`, whose verdict erases the entry, keeps it
// re-sending at the same cadence (asking again on every later timeout), or
// holds it with its timer stopped. Timeout, budget and both callbacks are
// fixed when the table is built, so an entry stores no std::function.
// Timeouts are crash-suppressed like Process::set_timer: one that fires
// while the owner is crashed is dropped, and its entry stays until an ack,
// cancel or re-arm.
//
// Callbacks may arm, ack or cancel any key, their own included. After each
// callback the table looks the key up again and touches the entry only if
// it is still the one whose timer fired (a re-arm gives it a new timer).
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace rgb::proto {

/// What becomes of an entry whose retransmission budget is spent.
enum class Exhausted {
  kErase,  ///< give up: erase the entry
  kRetry,  ///< re-send now and on every later timeout (each asks again)
  kHold,   ///< keep the entry, stop its timer
};

template <class Key, class State>
class Retransmitter {
 public:
  using Resend = std::function<void(const Key&, State&, int attempt)>;
  using OnExhausted = std::function<Exhausted(const Key&, State&)>;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  Retransmitter(net::Network& network, common::NodeId owner,
                sim::Duration timeout, int budget, Resend resend,
                OnExhausted exhausted)
      : network_(network),
        owner_(owner),
        timeout_(timeout),
        budget_(budget),
        resend_(std::move(resend)),
        exhausted_(std::move(exhausted)) {}
  ~Retransmitter() { clear(); }

  Retransmitter(const Retransmitter&) = delete;
  Retransmitter& operator=(const Retransmitter&) = delete;

  /// Starts the timeout cycle of `key` (call after the first send). Arming
  /// a live key replaces its state, cancels its timer and resets its count.
  State& arm(const Key& key, State state) {
    Entry& entry = entries_[key];
    simulator().cancel(entry.timer);
    entry = Entry{std::move(state), 0, schedule(key)};
    return entry.state;
  }

  /// The ack arrived: stops the timer, erases the entry, returns its state.
  std::optional<State> ack(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    simulator().cancel(it->second.timer);
    State state = std::move(it->second.state);
    entries_.erase(it);
    return state;
  }

  /// Drops `key` unacknowledged; true when it was in flight.
  bool cancel(const Key& key) { return ack(key).has_value(); }

  void clear() {
    for (auto& [key, entry] : entries_) simulator().cancel(entry.timer);
    entries_.clear();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return entries_.count(key) != 0;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] State* find(const Key& key) {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.state;
  }
  template <class Pred>
  [[nodiscard]] bool any_of(Pred pred) const {
    return std::any_of(entries_.begin(), entries_.end(), [&](const auto& kv) {
      return pred(kv.first, kv.second.state);
    });
  }

  /// Cancels and erases every entry matching `pred(key, state)`; returns
  /// their states in table order.
  template <class Pred>
  std::vector<State> extract_if(Pred pred) {
    std::vector<State> out;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!pred(it->first, std::as_const(it->second.state))) {
        ++it;
        continue;
      }
      simulator().cancel(it->second.timer);
      out.push_back(std::move(it->second.state));
      it = entries_.erase(it);
    }
    return out;
  }

 private:
  struct Entry {
    State state{};
    int retx = 0;
    sim::EventId timer{};
  };

  sim::Simulator& simulator() { return network_.simulator(); }

  sim::EventId schedule(const Key& key) {
    return simulator().schedule_after(timeout_,
                                      [this, key]() { on_timeout(key); });
  }

  void on_timeout(const Key key) {
    if (network_.is_crashed(owner_)) return;
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    const sim::EventId fired = it->second.timer;
    const auto still_armed = [&]() {
      it = entries_.find(key);
      return it != entries_.end() && it->second.timer == fired;
    };
    const int attempt = ++it->second.retx;
    if (attempt > budget_) {
      const Exhausted verdict = exhausted_(key, it->second.state);
      if (!still_armed()) return;
      if (verdict == Exhausted::kErase) {
        entries_.erase(it);
        return;
      }
      if (verdict == Exhausted::kHold) {
        it->second.timer = sim::EventId{};
        return;
      }
    }
    resend_(key, it->second.state, attempt);
    if (still_armed()) it->second.timer = schedule(key);
  }

  net::Network& network_;
  common::NodeId owner_;
  sim::Duration timeout_;
  int budget_;
  Resend resend_;
  OnExhausted exhausted_;
  std::unordered_map<Key, Entry> entries_;
};

}  // namespace rgb::proto
