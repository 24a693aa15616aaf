// OverlayNetwork: manages all PastryNodes of one simulation and bridges
// them to the message-level network.
//
// The only "oracle" uses of global knowledge are bootstrap-contact selection
// on join (real deployments use well-known contact endpoints) and the
// ground-truth helpers used by tests; the protocols themselves exchange real
// (bandwidth-charged) messages.
//
// Scale: the joined-membership set is a dense swap-remove vector, so
// PickBootstrap is O(1) instead of an O(N) scan — the scan made
// million-node runs O(N^2) through the periodic global-stabilize probes.
// Bootstrap draws are counter-hashed per (joiner, attempt). Heartbeats to a
// locally hosted node update its liveness bookkeeping synchronously, with
// no per-message event.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "overlay/pastry_node.h"
#include "sim/transport.h"

namespace seaweed::overlay {

// Pre-resolved obs handles shared by every PastryNode of one overlay
// (instruments are system-wide, resolved once in the OverlayNetwork ctor).
struct OverlayMetrics {
  obs::Counter* heartbeats = nullptr;
  obs::Counter* joins = nullptr;
  obs::Counter* leafset_repairs = nullptr;
  obs::Counter* global_stabilize_probes = nullptr;
  obs::Counter* hop_limit_drops = nullptr;
  obs::Counter* routed_delivered = nullptr;
  obs::Histogram* route_hops = nullptr;
};

class OverlayNetwork {
 public:
  OverlayNetwork(Scheduler* sim, Transport* network,
                 const PastryConfig& config, uint64_t seed);

  // Creates one PastryNode per endsystem with the given ids (index i gets
  // ids[i]). All nodes start down. Must be called exactly once.
  void CreateNodes(const std::vector<NodeId>& ids);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  PastryNode* node(EndsystemIndex e) { return nodes_[e].get(); }
  const PastryNode* node(EndsystemIndex e) const { return nodes_[e].get(); }

  Scheduler* simulator() const { return sim_; }
  Transport* network() const { return network_; }
  const PastryConfig& config() const { return config_; }
  obs::Observability* obs() const { return network_->obs(); }
  const OverlayMetrics& metrics() const { return metrics_; }

  // --- Lifecycle ---
  void BringUp(EndsystemIndex e);
  void BringDown(EndsystemIndex e);

  // --- Used by PastryNode ---
  void SendPacket(EndsystemIndex from, EndsystemIndex to,
                  const std::shared_ptr<Packet>& pkt);
  // Heartbeat fast path: charges bandwidth for one heartbeat message from
  // `from` to `to` and, if `to` is reachable, updates its liveness
  // bookkeeping synchronously (no per-message event).
  void FastHeartbeat(const NodeHandle& from, const NodeHandle& to);
  std::optional<NodeHandle> PickBootstrap(EndsystemIndex joiner);
  // Configures well-known bootstrap contacts for live deployments, where the
  // oracle joined-list is only the local shard. When set, PickBootstrap
  // prefers a local joined member (cheap, no network) and falls back to a
  // static contact other than the joiner itself.
  void SetStaticBootstraps(std::vector<NodeHandle> contacts) {
    static_bootstraps_ = std::move(contacts);
  }
  // A node's membership (up && joined) changed; updates the dense joined
  // list (idempotent).
  void OnJoinedChanged(EndsystemIndex e, bool member);

  // --- Ground truth helpers (tests / statistics only) ---
  // The live, joined node numerically closest to `key`.
  std::optional<NodeHandle> OracleRoot(const NodeId& key) const;
  // All live, joined node handles.
  std::vector<NodeHandle> OracleLiveNodes() const;
  int CountJoined() const;

  uint64_t heartbeats_sent() const {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }

  // Heap bytes held by all nodes' overlay routing state (routing tables,
  // leafsets, liveness bookkeeping).
  size_t ApproxRoutingBytes() const;

 private:
  void OnDelivery(EndsystemIndex to, EndsystemIndex from,
                  WireMessagePtr payload);

  static constexpr uint32_t kNotJoined = 0xffffffffu;

  Scheduler* sim_;
  Transport* network_;
  PastryConfig config_;
  uint64_t boot_seed_;
  OverlayMetrics metrics_;
  std::vector<std::unique_ptr<PastryNode>> nodes_;
  // Dense membership set: joined_list_ holds the addresses of all up &&
  // joined nodes (swap-remove order); joined_pos_[e] is e's index in it or
  // kNotJoined.
  std::vector<EndsystemIndex> joined_list_;
  std::vector<uint32_t> joined_pos_;
  // Per-joiner bootstrap draw counter.
  std::vector<uint32_t> boot_seq_;
  // Live-mode contact points (empty in simulation).
  std::vector<NodeHandle> static_bootstraps_;
  std::atomic<uint64_t> heartbeats_sent_{0};
};

}  // namespace seaweed::overlay
