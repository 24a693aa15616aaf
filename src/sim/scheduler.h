// Scheduler: the clock + timer seam between protocol code and whatever
// drives it.
//
// Everything above the transport layer (PastryNode, SeaweedNode) schedules
// work with After()/At()/Cancel() and reads the clock with Now(). In
// simulation those calls land on the discrete-event Simulator; in a live
// deployment they land on net::EventLoop, which implements the same
// interface over a wall clock and an epoll timer queue. Protocol code is
// written once against this interface and runs unmodified in both worlds.
//
// Time is SimTime microseconds in both cases; a wall-clock scheduler anchors
// the same int64 microsecond axis to the Unix epoch.
#pragma once

#include <cstdint>

#include "common/time_types.h"
#include "sim/event_queue.h"

namespace seaweed {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Current time in microseconds. Simulated time in the discrete-event
  // engine; Unix-epoch-anchored wall time in a live event loop.
  virtual SimTime Now() const = 0;

  // Schedules `fn` at absolute time `when` (>= Now()). Returns an id usable
  // with Cancel(), or kInvalidEventId when the event is not cancellable.
  virtual EventId At(SimTime when, EventFn fn) = 0;

  // Schedules `fn` after `delay` from now.
  EventId After(SimDuration delay, EventFn fn) {
    return At(Now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already fired or the id is
  // stale.
  virtual bool Cancel(EventId id) = 0;
};

}  // namespace seaweed
