#include "sim/simulator.h"

namespace seaweed {

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.PeekTime() <= until) {
    auto [when, fn] = queue_.Pop();
    now_ = when;
    fn();
  }
  if (now_ < until && until != kSimTimeMax) now_ = until;
}

uint64_t Simulator::Step(uint64_t n) {
  uint64_t done = 0;
  while (done < n && !queue_.empty()) {
    auto [when, fn] = queue_.Pop();
    now_ = when;
    fn();
    ++done;
  }
  return done;
}

}  // namespace seaweed
