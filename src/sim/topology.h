// Router topology supplying the latency/proximity metric.
//
// Models the paper's "CorpNet topology": a measured world-wide corporate
// router network (298 routers) with per-link minimum RTTs, endsystems
// attached to a random router by a 1 ms LAN link. We synthesize a
// three-tier hierarchy (core ring / regional / branch routers) whose link
// RTTs are scaled by tier, and precompute all-pairs router RTTs with
// Dijkstra so endsystem-to-endsystem delay lookups are O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"

namespace seaweed {

// Dense endsystem index; endsystems are 0..N-1 within one simulation.
using EndsystemIndex = uint32_t;

struct TopologyConfig {
  int num_core_routers = 8;         // WAN core (full mesh among the core)
  int regions_per_core = 4;         // regional routers hanging off each core
  int branches_per_region = 8;      // branch routers per regional router
  // Link RTT ranges in microseconds (min RTT per link, as in CorpNet data).
  SimDuration core_link_rtt_min = 5 * kMillisecond;
  SimDuration core_link_rtt_max = 80 * kMillisecond;
  SimDuration region_link_rtt_min = 1 * kMillisecond;
  SimDuration region_link_rtt_max = 20 * kMillisecond;
  SimDuration branch_link_rtt_min = 300;   // 0.3 ms
  SimDuration branch_link_rtt_max = 5 * kMillisecond;
  // LAN link from endsystem to its router (paper: 1 ms).
  SimDuration lan_link_delay = 1 * kMillisecond;
  uint64_t seed = 42;
};

class Topology {
 public:
  // Builds the router graph and attaches `num_endsystems` endsystems to
  // uniformly random routers.
  Topology(const TopologyConfig& config, int num_endsystems);

  int num_routers() const { return num_routers_; }
  int num_endsystems() const { return static_cast<int>(attach_.size()); }

  // Router an endsystem is attached to.
  int RouterOf(EndsystemIndex e) const { return attach_[e]; }

  // One-way network delay between two endsystems: LAN out + router path
  // (half of path RTT) + LAN in. Delay to self is the loopback time (~0).
  SimDuration Delay(EndsystemIndex from, EndsystemIndex to) const;

  // Round-trip time between two endsystems.
  SimDuration Rtt(EndsystemIndex from, EndsystemIndex to) const {
    return 2 * Delay(from, to);
  }

  // RTT between two routers along the shortest path (used by tests).
  SimDuration RouterRtt(int a, int c) const {
    return router_rtt_[static_cast<size_t>(a) * num_routers_ + c];
  }

 private:
  void BuildRouterGraph(const TopologyConfig& config, Rng& rng);
  void ComputeAllPairs();

  struct Link {
    int to;
    SimDuration rtt;
  };

  int num_routers_ = 0;
  std::vector<std::vector<Link>> adj_;
  std::vector<SimDuration> router_rtt_;  // num_routers^2, row-major
  std::vector<int> attach_;              // endsystem -> router
  SimDuration lan_link_delay_;
};

}  // namespace seaweed
