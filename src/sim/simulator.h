// Simulator: the discrete-event engine driving all packet-level experiments.
//
// Owns the virtual clock and the event queue. Components schedule callbacks
// with At()/After(); RunUntil() advances the clock. One queue, one thread:
// the classic discrete-event loop, so a run is a pure function of its
// configuration and seed.
#pragma once

#include <cstdint>

#include "common/logging.h"
#include "common/time_types.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"

namespace seaweed {

// `final` so that calls through a concrete Simulator* (the engine's own hot
// paths) devirtualize; protocol code holds a Scheduler* and pays the
// virtual dispatch only where the seam is actually needed.
class Simulator final : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const override { return now_; }

  // Schedules `fn` at absolute simulated time `when` (>= Now()).
  EventId At(SimTime when, EventFn fn) override {
    SEAWEED_DCHECK(when >= now_);
    return queue_.Schedule(when, std::move(fn));
  }

  // Schedules `fn` after `delay` from now.
  EventId After(SimDuration delay, EventFn fn) {
    SEAWEED_DCHECK(delay >= 0);
    return At(now_ + delay, std::move(fn));
  }

  // Cancels a pending event.
  bool Cancel(EventId id) override { return queue_.Cancel(id); }

  // Runs events until the queue drains or the clock passes `until`.
  // The clock is left at `until` (or at the last event time when `until`
  // is kSimTimeMax).
  void RunUntil(SimTime until);

  // Runs until the event queue is empty.
  void RunToCompletion() { RunUntil(kSimTimeMax); }

  // Executes at most `n` events (for stepping in tests).
  // Returns the number actually executed.
  uint64_t Step(uint64_t n = 1);

  uint64_t events_executed() const { return queue_.stats().executed; }
  size_t pending_events() const { return queue_.size(); }

  // Approximate bytes held by the event queue (for memory gauges).
  size_t ApproxQueueBytes() const { return queue_.ApproxBytes(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
};

}  // namespace seaweed
