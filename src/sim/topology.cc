#include "sim/topology.h"

#include <functional>
#include <limits>
#include <queue>

#include "common/logging.h"

namespace seaweed {

Topology::Topology(const TopologyConfig& config, int num_endsystems)
    : lan_link_delay_(config.lan_link_delay) {
  Rng rng(config.seed);
  BuildRouterGraph(config, rng);
  ComputeAllPairs();
  attach_.resize(static_cast<size_t>(num_endsystems));
  for (auto& a : attach_) {
    a = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(num_routers_)));
  }
}

void Topology::BuildRouterGraph(const TopologyConfig& config, Rng& rng) {
  const int cores = config.num_core_routers;
  const int regions = cores * config.regions_per_core;
  const int branches = regions * config.branches_per_region;
  num_routers_ = cores + regions + branches;
  adj_.assign(static_cast<size_t>(num_routers_), {});

  auto add_link = [&](int a, int b, SimDuration rtt) {
    adj_[static_cast<size_t>(a)].push_back({b, rtt});
    adj_[static_cast<size_t>(b)].push_back({a, rtt});
  };

  // Core: ring plus random chords, giving multiple WAN paths.
  for (int i = 0; i < cores; ++i) {
    int j = (i + 1) % cores;
    if (cores > 1 && i < j) {
      add_link(i, j,
               static_cast<SimDuration>(rng.UniformInt(
                   config.core_link_rtt_min, config.core_link_rtt_max)));
    }
  }
  for (int i = 0; i + 2 < cores; i += 2) {
    add_link(i, i + 2,
             static_cast<SimDuration>(rng.UniformInt(
                 config.core_link_rtt_min, config.core_link_rtt_max)));
  }

  // Regions hang off their core router.
  for (int r = 0; r < regions; ++r) {
    int router = cores + r;
    int core = r / config.regions_per_core;
    add_link(router, core,
             static_cast<SimDuration>(rng.UniformInt(
                 config.region_link_rtt_min, config.region_link_rtt_max)));
  }

  // Branches hang off their regional router.
  for (int br = 0; br < branches; ++br) {
    int router = cores + regions + br;
    int region = cores + br / config.branches_per_region;
    add_link(router, region,
             static_cast<SimDuration>(rng.UniformInt(
                 config.branch_link_rtt_min, config.branch_link_rtt_max)));
  }
}

void Topology::ComputeAllPairs() {
  const size_t n = static_cast<size_t>(num_routers_);
  router_rtt_.assign(n * n, std::numeric_limits<SimDuration>::max());
  // Dijkstra from each router. n is a few hundred, so n * (E log V) is cheap.
  using QEntry = std::pair<SimDuration, int>;
  for (size_t src = 0; src < n; ++src) {
    auto* dist = &router_rtt_[src * n];
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, static_cast<int>(src)});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const Link& link : adj_[static_cast<size_t>(u)]) {
        SimDuration nd = d + link.rtt;
        if (nd < dist[link.to]) {
          dist[link.to] = nd;
          pq.push({nd, link.to});
        }
      }
    }
  }
}

SimDuration Topology::Delay(EndsystemIndex from, EndsystemIndex to) const {
  if (from == to) return 10;  // loopback: 10 us
  int ra = attach_[from];
  int rb = attach_[to];
  SimDuration path_rtt =
      router_rtt_[static_cast<size_t>(ra) * num_routers_ + rb];
  // One-way delay: LAN hop out, half the router-path RTT, LAN hop in.
  return lan_link_delay_ + path_rtt / 2 + lan_link_delay_;
}

}  // namespace seaweed
