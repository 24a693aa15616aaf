// ClusterOptions: validated builder for ClusterConfig.
//
// ClusterConfig stayed a plain field bag for POD-style storage, but filling
// it by hand scatters range checks (or skips them) across every caller.
// ClusterOptions centralizes validation: chain With* setters, then Build()
// returns either a checked ClusterConfig or the first violation found.
//
//   auto cluster = SeaweedCluster(ClusterOptions()
//                                     .WithEndsystems(200)
//                                     .WithSeed(7)
//                                     .WithTransport("serializing")
//                                     .WithFaultPlan(plan));
//
// Nested protocol configs (pastry/seaweed/anemone/topology) are exposed by
// mutable reference so callers can tweak one knob without rebuilding the
// whole sub-config.
#pragma once

#include <string>

#include "seaweed/cluster.h"

namespace seaweed {

class ClusterOptions {
 public:
  ClusterOptions() = default;

  // --- Chainable setters ---
  ClusterOptions& WithEndsystems(int n) {
    config_.num_endsystems = n;
    return *this;
  }
  ClusterOptions& WithSeed(uint64_t seed) {
    config_.seed = seed;
    return *this;
  }
  ClusterOptions& WithMessageLossRate(double rate) {
    config_.message_loss_rate = rate;
    return *this;
  }
  ClusterOptions& WithKeepTables(bool keep) {
    config_.keep_tables = keep;
    return *this;
  }
  // 0 = charge actual serialized summary sizes.
  ClusterOptions& WithSummaryWireBytes(uint32_t bytes) {
    config_.summary_wire_bytes = bytes;
    return *this;
  }
  ClusterOptions& WithPastry(const overlay::PastryConfig& pastry) {
    config_.pastry = pastry;
    return *this;
  }
  ClusterOptions& WithSeaweed(const SeaweedConfig& seaweed) {
    config_.seaweed = seaweed;
    return *this;
  }
  ClusterOptions& WithTopology(const TopologyConfig& topology) {
    config_.topology = topology;
    return *this;
  }
  ClusterOptions& WithAnemone(const anemone::AnemoneConfig& anemone) {
    config_.anemone = anemone;
    return *this;
  }
  // Transport decorator spec, outermost first — see ParseTransportSpec.
  // Examples: "", "serializing", "faulty", "serializing,faulty:plan.json".
  ClusterOptions& WithTransport(std::string spec) {
    config_.transport = std::move(spec);
    return *this;
  }
  // Implies a "faulty" transport layer even when WithTransport names none.
  ClusterOptions& WithFaultPlan(FaultPlan plan) {
    config_.fault_plan = std::move(plan);
    return *this;
  }

  // --- Mutable access to nested configs (tweak-in-place) ---
  overlay::PastryConfig& pastry() { return config_.pastry; }
  SeaweedConfig& seaweed() { return config_.seaweed; }
  TopologyConfig& topology() { return config_.topology; }
  anemone::AnemoneConfig& anemone() { return config_.anemone; }
  FaultPlan& fault_plan() { return config_.fault_plan; }

  // Validates the assembled config and returns it, or the first violation.
  // A "faulty:<file>" layer is only syntax-checked here; the plan file is
  // loaded (and fully validated) by SeaweedCluster.
  Result<ClusterConfig> Build() const;
  // Build() for call sites where a bad config is a programming error.
  ClusterConfig BuildOrDie() const;

 private:
  ClusterConfig config_;
};

}  // namespace seaweed
