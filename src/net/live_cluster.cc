#include "net/live_cluster.h"

#include <utility>

#include "common/logging.h"
#include "sim/fault_transport.h"
#include "sim/serializing_transport.h"

namespace seaweed::net {

// A fold's replica batch is split to fit, with its overlay envelope, in one
// socket message.
static_assert(SeaweedMessage::kMaxReplicateBytes + 4096 <=
              SocketTransport::kMaxMessageBytes);

LiveCluster::LiveCluster(EventLoop* loop, const ShardMap& map,
                         const LiveConfig& config)
    : loop_(loop),
      map_(map),
      config_(config),
      topology_(config.topology, map.num_endsystems),
      meter_(map.num_endsystems, &obs_.metrics),
      transport_(loop, map, &topology_, &meter_, &obs_) {
  data_ = std::make_shared<AnemoneDataProvider>(
      config_.anemone, map_.num_endsystems, config_.keep_tables,
      config_.summary_wire_bytes);

  // Identical id derivation to SeaweedCluster::Construct — byte-for-byte
  // agreement across every shard and the --reference oracle. Ids must exist
  // before the transport stack: namespace-range partitions in a fault plan
  // resolve against them.
  Rng id_rng(config_.seed);
  ids_.reserve(static_cast<size_t>(map_.num_endsystems));
  for (int i = 0; i < map_.num_endsystems; ++i) {
    ids_.push_back(NodeId::Random(id_rng));
  }

  rejoins_ = obs_.metrics.GetCounter("net.rejoins");

  stack_ = BuildTransportStack();
  overlay_ = std::make_unique<overlay::OverlayNetwork>(
      loop_, stack_->top(), config_.pastry, config_.seed ^ 0xfeed);
  overlay_->CreateNodes(ids_);
  if (config_.rejoin) {
    // Warm re-join: this shard crashed and came back into a ring that is
    // already running, so its nodes must join through a REMOTE contact —
    // bootstrapping at a local endsystem (or letting a lone joiner
    // self-seed) would split the ring in two. Each remote shard's
    // lowest-indexed endsystem (e % P puts endsystem s on shard s) serves
    // as its contact; PickBootstrap rotates across them if one is dead.
    std::vector<overlay::NodeHandle> contacts;
    for (int s = 0; s < map_.num_shards(); ++s) {
      if (s == map_.self_shard) continue;
      contacts.push_back(
          overlay_->node(static_cast<EndsystemIndex>(s))->handle());
    }
    SEAWEED_CHECK_MSG(!contacts.empty(),
                      "--rejoin requires at least one remote shard");
    overlay_->SetStaticBootstraps(std::move(contacts));
  } else {
    // Cold start: with no oracle of who is already joined, every shard
    // seeds its joins at endsystem 0 (shard 0 starts it first; everyone
    // else retries until it answers).
    overlay_->SetStaticBootstraps(
        {overlay_->node(static_cast<EndsystemIndex>(0))->handle()});
  }

  seaweed_.reserve(ids_.size());
  for (int i = 0; i < map_.num_endsystems; ++i) {
    seaweed_.push_back(std::make_unique<SeaweedNode>(
        overlay_.get(), overlay_->node(static_cast<EndsystemIndex>(i)),
        data_.get(), config_.seaweed));
  }
}

std::unique_ptr<TransportStack> LiveCluster::BuildTransportStack() {
  auto layers = ParseTransportSpec(config_.transport);
  SEAWEED_CHECK_MSG(layers.ok(), "bad transport spec '" + config_.transport +
                                     "': " + layers.status().message());
  std::vector<Transport::DecoratorFactory> factories;
  for (const auto& layer : *layers) {
    if (layer.kind == "serializing") {
      factories.push_back([](Transport* inner) {
        return std::make_unique<SerializingTransport>(inner);
      });
    } else if (layer.kind == "faulty") {
      SEAWEED_CHECK_MSG(!layer.arg.empty(),
                        "live transport layer \"faulty\" needs a plan: "
                        "faulty:<plan.json>");
      auto loaded = FaultPlan::FromJsonFile(layer.arg);
      SEAWEED_CHECK_MSG(loaded.ok(), "fault plan '" + layer.arg +
                                         "': " + loaded.status().message());
      FaultPlan plan = std::move(loaded).value();
      Status valid = plan.Validate(map_.num_endsystems);
      SEAWEED_CHECK_MSG(valid.ok(), "fault plan: " + valid.message());
      SEAWEED_CHECK_MSG(plan.crashes.empty(),
                        "crash epochs need an up/down oracle and are "
                        "simulation-only; SIGKILL the daemon instead");
      plan.Resolve(map_.num_endsystems, ids_);
      // Same salt derivation as the simulation, but counters live under
      // net.fault.* so obs_report can tell injected datagram faults from
      // simulated ones. All shards share the seed, so all shards make
      // identical per-(sender, seq) decisions.
      uint64_t salt = config_.seed ^ 0x5ea3eedULL;
      factories.push_back([plan = std::move(plan), salt](Transport* inner) {
        return std::make_unique<FaultInjectingTransport>(inner, plan, salt,
                                                         "net.fault.");
      });
    } else if (layer.kind == "udp") {
      // The base this cluster always provides; naming it (as the innermost
      // layer — ParseTransportSpec enforces that) is allowed for symmetry
      // with the simulation's spec strings and adds nothing.
    } else if (layer.kind == "batching") {
      // Config-level, not a wire decorator: nodes read config_.seaweed at
      // construction, which happens after this stack is built.
      config_.seaweed.batching = true;
      if (!layer.arg.empty()) {
        config_.seaweed.batch_flush_delay =
            static_cast<SimDuration>(std::stoul(layer.arg)) * kMillisecond;
      }
    } else {
      SEAWEED_CHECK_MSG(false, "unknown transport layer: " + layer.kind);
    }
  }
  return Transport::Stack(std::move(factories), &transport_);
}

void LiveCluster::BringUpLocal() {
  SimDuration at = 0;
  for (EndsystemIndex e : map_.LocalEndsystems()) {
    loop_->After(at, [this, e] {
      overlay_->BringUp(e);
      if (config_.rejoin) rejoins_->Add();
    });
    at += config_.bringup_stagger;
  }
}

int LiveCluster::CountJoinedLocal() const {
  int joined = 0;
  for (EndsystemIndex e : map_.LocalEndsystems()) {
    if (overlay_->node(e)->joined()) ++joined;
  }
  return joined;
}

std::optional<int> LiveCluster::LowestJoinedLocal() const {
  for (EndsystemIndex e : map_.LocalEndsystems()) {
    if (overlay_->node(e)->joined()) return static_cast<int>(e);
  }
  return std::nullopt;
}

Result<NodeId> LiveCluster::InjectQuery(int e, const std::string& sql,
                                        QueryObserver observer,
                                        SimDuration ttl,
                                        const std::string& id_salt) {
  SEAWEED_CHECK(map_.IsLocal(static_cast<EndsystemIndex>(e)));
  return seaweed_[static_cast<size_t>(e)]->InjectQuery(sql, std::move(observer),
                                                       ttl, id_salt);
}

void LiveCluster::CancelQuery(int e, const NodeId& query_id) {
  SEAWEED_CHECK(map_.IsLocal(static_cast<EndsystemIndex>(e)));
  seaweed_[static_cast<size_t>(e)]->CancelQuery(query_id);
}

}  // namespace seaweed::net
