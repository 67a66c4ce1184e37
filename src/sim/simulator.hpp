// detlint:ordered-output — event order here IS the trace.
// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's emulated testbed (Pentium
// III nodes behind a Click software router with traffic shaping). All
// latency / bandwidth / CPU costs in the runtime are charged by scheduling
// events on this engine.
//
// Determinism: events at the same timestamp fire in schedule order (a
// monotonically increasing sequence number breaks ties), so a given seed
// always produces the same trace.
//
// Allocation: event callbacks are util::SmallFn — captures up to 48 bytes
// live inline in the queue's own storage, so the steady-state hot path
// performs no per-event heap allocation (std::function allocated for
// anything over 16 bytes). Cancellation state is a watermarked flag window:
// ids below the minimum outstanding id are dropped from the front, so
// memory tracks the number of in-flight events, not the total ever
// scheduled — a week-long simulated run stays flat.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/small_fn.hpp"

namespace psf::sim {

using EventFn = util::SmallFn;
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;

  // Pending closures may hold the last reference to objects whose
  // destructors cancel their own timers here (a component kept alive by an
  // in-flight continuation), so they are destroyed while the queue and the
  // flag window are still intact.
  ~Simulator() {
    while (!queue_.empty()) pop_top();
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedule fn to run at now() + delay. Negative delays are a bug.
  EventId schedule(Duration delay, EventFn fn) {
    PSF_CHECK_MSG(delay.nanos() >= 0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Schedule fn at an absolute time >= now().
  EventId schedule_at(Time when, EventFn fn) {
    PSF_CHECK_MSG(when >= now_, "scheduling into the past");
    const EventId id = next_id_++;
    queue_.push(Event{when, id, std::move(fn)});
    flags_.push_back(0);
    ++pending_;
    return id;
  }

  // Cancel a pending event. Returns false if it already ran / was cancelled,
  // or if the id was never issued by this simulator (a garbage id must not
  // grow the flag window). Cancellation is lazy — O(1), the queue skips
  // dead events — and counts the event out of pending_events() immediately.
  bool cancel(EventId id) {
    if (id < base_ || id >= next_id_) return false;
    std::uint8_t& f = flags_[id - base_];
    if (f != 0) return false;  // already cancelled or already ran
    f = kCancelled;
    --pending_;
    return true;
  }

  // Run until the queue is empty. Returns number of events executed.
  std::size_t run() { return run_until(Time::max()); }

  // Run events with timestamp <= deadline; clock ends at the later of the
  // last event time and (if any events remained) the deadline.
  std::size_t run_until(Time deadline) {
    std::size_t executed = 0;
    while (!queue_.empty()) {
      if (queue_.top().when > deadline) break;
      Event ev = pop_top();
      if (retire(ev.id)) continue;  // cancelled: pending_ already adjusted
      --pending_;
      now_ = ev.when;
      ev.fn();
      ++executed;
    }
    if (!queue_.empty() && deadline != Time::max() && now_ < deadline) {
      now_ = deadline;
    }
    return executed;
  }

  // Execute exactly one event (if any). Returns true if one ran.
  bool step() {
    while (!queue_.empty()) {
      Event ev = pop_top();
      if (retire(ev.id)) continue;  // cancelled: pending_ already adjusted
      --pending_;
      now_ = ev.when;
      ev.fn();
      return true;
    }
    return false;
  }

  // Live (not-yet-run, not-cancelled) events.
  bool empty() const { return pending_ == 0; }
  std::size_t pending_events() const { return pending_; }

  // Width of the cancellation flag window (ids between the retirement
  // watermark and the newest issued id). Tracks outstanding events, not
  // total events scheduled — exposed so tests can pin the memory bound.
  std::size_t tombstone_window() const { return flags_.size(); }

 private:
  struct Event {
    Time when;
    EventId id;
    EventFn fn;
  };

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;  // FIFO among simultaneous events
    }
  };

  static constexpr std::uint8_t kCancelled = 1;
  static constexpr std::uint8_t kRetired = 2;

  // Extract the top event. std::priority_queue only exposes a const top();
  // moving out right before pop() is safe (the element is discarded) and
  // shared here by run_until()/step() instead of being inlined in both.
  Event pop_top() {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    return ev;
  }

  // Marks `id` as done (executed or skipped), advances the watermark past
  // fully-retired ids, and reports whether the event had been cancelled.
  bool retire(EventId id) {
    std::uint8_t& f = flags_[id - base_];
    const bool cancelled = (f & kCancelled) != 0;
    f |= kRetired;
    while (!flags_.empty() && (flags_.front() & kRetired) != 0) {
      flags_.pop_front();
      ++base_;
    }
    return cancelled;
  }

  Time now_ = Time::zero();
  EventId next_id_ = 0;
  EventId base_ = 0;        // ids below this are retired
  std::size_t pending_ = 0;  // live events (scheduled - run - cancelled)
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::deque<std::uint8_t> flags_;  // per-id state, indexed by id - base_
};

// Repeating timer helper built on Simulator; used by time-driven coherence
// and the network monitor. RAII: destruction cancels the pending tick.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, EventFn on_tick)
      : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {
    PSF_CHECK(period_.nanos() > 0);
  }

  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(pending_);
  }

  bool running() const { return running_; }

 private:
  void arm() {
    pending_ = sim_.schedule(period_, [this] {
      if (!running_) return;
      on_tick_();
      if (running_) arm();
    });
  }

  Simulator& sim_;
  Duration period_;
  EventFn on_tick_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace psf::sim
