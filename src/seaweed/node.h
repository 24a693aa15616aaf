// SeaweedNode: the per-endsystem Seaweed protocol engine (§3).
//
// One SeaweedNode is attached to each PastryNode as its application. It
// implements the three protocol planes:
//
//  1. Metadata replication — periodic pushes of the local data summary and
//     availability model to the k numerically closest neighbors, plus
//     anti-entropy on neighbor arrival and down-time bookkeeping on
//     neighbor failure (§3.2).
//  2. Query dissemination and completeness prediction — divide-and-conquer
//     namespace-range broadcast; terminal ranges are those inside the
//     handling node's "cell" (the region it is numerically closest to,
//     derived from its leafset), which is exactly where its metadata
//     replicas live; per-range predictors are aggregated back up the
//     dynamically built distribution tree with timeout-driven reissue
//     (§3.3).
//  3. Result aggregation — results flow up the vertex tree defined by the
//     function V; each interior vertex is a replica group (primary + m
//     backups) holding versioned per-child results, giving exactly-once
//     counting with incremental updates (§3.4).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "overlay/overlay_network.h"
#include "seaweed/data_provider.h"
#include "seaweed/metadata.h"
#include "seaweed/vertex_function.h"
#include "seaweed/wire.h"

namespace seaweed {

// A selectively-replicated view (§3.2.2): `sql` is an aggregate query each
// endsystem evaluates locally at metadata-push time; the result rides along
// with the metadata to the replica set.
struct ReplicatedView {
  std::string name;
  std::string sql;
};

struct SeaweedConfig {
  int metadata_replicas = 8;            // k of Table 1 (sim uses 8)
  int vertex_backups = 3;               // m (§4.3.1)
  SimDuration summary_push_period = static_cast<SimDuration>(17.5 * kMinute);
  SimDuration child_timeout = 10 * kSecond;  // predictor reissue window
  int max_child_retries = 4;
  // After max_child_retries the subrange is reported as uncovered, but not
  // abandoned: while the query lives, the descriptor is re-sent at this
  // cadence until the child finally reports. A crashed-and-restarted node
  // loses every in-flight query with its process, so this refresh is the
  // only way it ever learns the query again. 0 disables.
  SimDuration dissem_refresh_period = 5 * kMinute;
  SimDuration exec_delay = 500 * kMillisecond;  // local query execution time
  SimDuration result_ack_timeout = 10 * kSecond;
  // Result-plane retry bounds: unacked submits back off exponentially from
  // result_ack_timeout up to max_retry_backoff and give up (until the next
  // periodic refresh) after max_result_retries attempts. Unbounded fixed-
  // interval retries melt down under injected loss bursts; no bound at all
  // silently loses contributions.
  int max_result_retries = 8;
  SimDuration max_retry_backoff = 2 * kMinute;
  // A vertex handover of the same (query, vertex, child, version) seen twice
  // within this window means two nodes disagree about vertex ownership
  // (mid-repair leafsets); the second arrival is accepted locally instead of
  // bouncing forever.
  SimDuration handover_loop_window = 5 * kSecond;
  SimDuration result_refresh_period = 15 * kMinute;
  SimDuration result_deliver_debounce = 2 * kSecond;
  SimDuration query_sweep_period = 10 * kMinute;
  // Views included in every metadata push (empty = none).
  std::vector<ReplicatedView> views;

  // --- Multi-tenant pipeline (every knob off by default: strict no-op) ---
  // Shared-fate dissemination batching: direct-contact child dispatches are
  // held in a per-contact outbox for batch_flush_delay, then coalesced into
  // one kBroadcastBatch per hop. Retry/ack machinery is per entry, so a
  // partially-processed batch retries only the unacked descriptors.
  bool batching = false;
  SimDuration batch_flush_delay = 20 * kMillisecond;
  // Bounded-divergence predictor caching: a predictor computed for the same
  // (range, query shape) within cache_eps of now and against an unchanged
  // metadata store is served from cache, skipping the replica scan; the
  // reuse age rides the wire as the predictor's divergence. 0 disables.
  SimDuration cache_eps = 0;
  // Admission control: > 0 bounds queries this node will originate
  // concurrently; injections beyond the bound are load-shed with
  // Status::Unavailable (distinguishable from execution failures).
  // 0 = unbounded.
  int max_active_queries = 0;
  // SaGe-style time-sliced local execution: > 0 caps the ~1024-row batches
  // scanned per slice; long scans yield exec_slice_yield between slices so
  // concurrent queries interleave instead of convoying. 0 = one-shot.
  int exec_slice_batches = 0;
  SimDuration exec_slice_yield = 1 * kMillisecond;
};

// Origin-side observation hooks, invoked on the injecting endsystem.
struct QueryObserver {
  // Aggregated completeness predictor arrived (T_e after injection).
  std::function<void(const NodeId& query_id,
                     const CompletenessPredictor& predictor)>
      on_predictor;
  // Updated incremental result arrived from the root vertex.
  std::function<void(const NodeId& query_id, const db::AggregateResult&)>
      on_result;
};

class SeaweedNode : public overlay::PastryApp {
 public:
  SeaweedNode(overlay::OverlayNetwork* overlay, overlay::PastryNode* pastry,
              DataProvider* data, const SeaweedConfig& config);

  const NodeId& id() const { return pastry_->id(); }
  int index() const { return static_cast<int>(pastry_->address()); }

  // Injects a query from this endsystem. The observer's hooks fire as the
  // predictor and incremental results arrive. Fails on parse errors or
  // non-aggregate queries. A non-empty `id_salt` pins the queryId (and so
  // the aggregation-tree shape) — see Query::Create.
  Result<NodeId> InjectQuery(const std::string& sql, QueryObserver observer,
                             SimDuration ttl = 48 * kHour,
                             const std::string& id_salt = "");

  // Injects a continuous query: every endsystem re-executes the query each
  // `period` and the origin keeps receiving refreshed aggregates until the
  // TTL expires or the query is cancelled.
  Result<NodeId> InjectContinuousQuery(const std::string& sql,
                                       SimDuration period,
                                       QueryObserver observer,
                                       SimDuration ttl = 48 * kHour);

  // Cancels an active query (normally called on the origin). The
  // cancellation spreads epidemically through leafset gossip; every node
  // drops the query's state on notice, and a tombstone suppresses
  // re-adoption from stragglers until the original TTL passes.
  void CancelQuery(const NodeId& query_id);

  // Queries a replicated view (§3.2.2 selective replication): the answer is
  // assembled from the view values stored in the metadata plane, so it
  // arrives with dissemination latency (seconds), covers every endsystem
  // ever seen — up or down — and is stale by at most a push period.
  // The observer's on_result fires once with the assembled snapshot.
  Result<NodeId> QueryViewSnapshot(const std::string& view_name,
                                   QueryObserver observer);

  // --- PastryApp ---
  void OnAppMessage(const overlay::NodeHandle& from, bool routed,
                    const NodeId& key, WireMessagePtr payload) override;
  void OnJoined() override;
  void OnStopping() override;
  void OnNeighborFailed(const overlay::NodeHandle& neighbor) override;
  void OnNeighborAdded(const overlay::NodeHandle& neighbor) override;
  void OnAppSendFailed(const overlay::NodeHandle& dead,
                       WireMessagePtr payload) override;

  // --- Introspection (tests, benches) ---
  const AvailabilityModel& own_availability_model() const { return own_model_; }
  const MetadataStore& metadata_store() const { return metadata_; }
  size_t active_query_count() const { return active_.size(); }
  bool HasActiveQuery(const NodeId& query_id) const {
    return active_.count(query_id) > 0;
  }
  // Every child entry this node holds for the query's vertices, as primary
  // or backup, sorted by (vertex, child). Results are shared, not copied,
  // so tests can count the distinct objects behind them.
  std::vector<SeaweedMessage::ReplicaEntry> VertexEntries(
      const NodeId& query_id) const;
  // Admission control: true when this node already originates
  // max_active_queries queries and a new injection would be shed.
  bool AtAdmissionLimit() const;

 private:
  struct ChildRange {
    IdRange range;
    overlay::NodeHandle contact;  // where we sent it (may be re-resolved)
    bool via_routing = false;     // sent by key-routing (no known contact)
    int tries = 0;
    // Dispatch epoch: each (re)issue bumps it and arms a timer carrying the
    // new value; a firing timer whose epoch is stale was superseded by a
    // faster reissue (the drop-notice path) and must not double-dispatch.
    int attempt = 0;
    bool done = false;
    // A predictor report actually arrived (done alone can also mean "gave
    // up"); gates the slow re-dissemination refresh.
    bool reported = false;
  };

  // One outstanding dissemination task: a range this node must cover and
  // report a predictor for.
  struct RangeTask {
    IdRange range;
    overlay::NodeHandle parent;
    bool report_to_origin = false;  // we are the tree root
    CompletenessPredictor acc;
    db::AggregateResult view_acc;   // view-snapshot queries accumulate here
    std::map<std::string, ChildRange> children;
    bool finished = false;
  };

  // One child's latest submission at a vertex.
  struct ChildEntry {
    NodeId key;
    uint64_t version = 0;
    db::SharedResult result;
  };

  // Almost every vertex has one child (the vertex function keeps a leaf's
  // low digits as it climbs) and m backups, so both sets are small sorted
  // vectors rather than tree maps.
  struct VertexState {
    // Sorted by key: the order the merge folds children in.
    std::vector<ChildEntry> children;
    // Backups known to hold this vertex's full state, sorted; others get a
    // full sync before deltas (a delta-only backup would reconstruct a
    // partial subtree after primary failover).
    std::vector<NodeId> synced_backups;
    uint64_t version = 0;         // our version as a child of our parent
    // Leading-edge throttle on sends that leave the node: the earliest time
    // the next one may go.
    SimTime next_send_at = 0;
    // Upward-submit ack tracking: the version sent to our parent and not
    // yet acked (0 = nothing outstanding), and how many timeouts in a row
    // have fired for it.
    uint64_t pending_version = 0;
    int submit_tries = 0;
    // A trailing throttled send is armed for next_send_at.
    bool send_scheduled = false;
    bool repropagate_scheduled = false;
    // We have folded a submit for this vertex as its primary (a copy held
    // only as a backup has not). Failover reads it: a duplicate at a vertex
    // we never folded means we just took it over, and a local parent we
    // never folded needs a fresh version from us to start propagating.
    bool primary_folded = false;

    const ChildEntry* FindChild(const NodeId& key) const;
    // Stores the child's submission unless we hold that version or a newer
    // one; true when it was stored.
    bool Offer(const NodeId& key, uint64_t version,
               const db::SharedResult& result);
  };

  struct PendingSubmit {
    NodeId vertex_id;
    uint64_t version = 0;
    db::SharedResult result;
    bool acked = false;
    int tries = 0;
  };

  struct ActiveQuery {
    Query query;
    std::map<std::string, RangeTask> tasks;
    // Hashed: the primary of the run next to the queryId holds about D
    // vertices per contributing endsystem. References stay valid across
    // rehash, which the recursive fold relies on.
    std::unordered_map<NodeId, VertexState, NodeIdHash> vertices;
    PendingSubmit leaf;           // our own contribution
    bool executed = false;
    // Origin-side state (only on the injecting endsystem).
    bool is_origin = false;
    QueryObserver observer;
    // Origin-side lifecycle spans: the query root, injection -> first
    // aggregated predictor, and injection -> first delivered result.
    obs::SpanId root_span = obs::kNoSpan;
    obs::SpanId dissem_span = obs::kNoSpan;
    obs::SpanId result_span = obs::kNoSpan;
    // Per-query egress accounting ("query.<id>.tx_bytes"), resolved lazily
    // on the first send this node makes for the query.
    obs::Counter* tx_bytes = nullptr;
  };

  // Pending coalesced dispatches for one direct contact (batching).
  struct Outbox {
    overlay::NodeHandle contact;
    std::vector<SeaweedMessage::BatchEntry> entries;
    bool flush_scheduled = false;
  };

  // Bounded-divergence predictor cache entry: valid while the metadata
  // store's epoch is unchanged and now - computed_at <= cache_eps.
  struct CachedPredictor {
    CompletenessPredictor predictor;
    SimTime computed_at = 0;
    uint64_t metadata_epoch = 0;
  };

  Scheduler* sim() const { return overlay_->simulator(); }

  // --- Metadata plane ---
  void PushMetadataTick(uint64_t generation);
  void PushMetadataTo(const overlay::NodeHandle& to);
  // Drops records of owners believed up that we no longer qualify as a
  // replica for (safe any time: live owners re-push every period). Records
  // of down owners are only evicted by the periodic tick.
  void EvictLiveOwnerRecords();
  std::vector<overlay::NodeHandle> ReplicaSet() const;
  bool LikelyReplicaFor(const NodeId& owner,
                        const overlay::NodeHandle& holder) const;

  // --- Dissemination plane ---
  void HandleBroadcast(const overlay::NodeHandle& from,
                       const SeaweedMessagePtr& msg);
  void ProcessRange(ActiveQuery& aq, const IdRange& range,
                    const overlay::NodeHandle& parent, bool report_to_origin);
  // Terminal handling: fills `out` with this node's predictor for `range`.
  void GeneratePredictorFor(ActiveQuery& aq, const IdRange& range,
                            CompletenessPredictor* out);
  // Terminal handling for view snapshots: merges this node's own view value
  // (if in range) and the stored view values of down owners into `out`.
  void GenerateViewFor(ActiveQuery& aq, const IdRange& range,
                       db::AggregateResult* out);
  IdRange MyCell() const;
  bool CoveredByLeafset(const IdRange& range) const;
  void DispatchChild(ActiveQuery& aq, RangeTask& task, ChildRange& child);
  // Batching: queues the child descriptor in the contact's outbox and
  // schedules a deterministic flush; the child's retry timer is armed at
  // enqueue time exactly as for an immediate send.
  void EnqueueBatchedDispatch(ActiveQuery& aq, ChildRange& child);
  void FlushOutbox(const NodeId& contact_id);
  void HandleBroadcastBatch(const overlay::NodeHandle& from,
                            const SeaweedMessagePtr& msg);
  // Drop-notice fast path shared by kBroadcast and kBroadcastBatch entries:
  // reissues the child covering (query_id, range) via routing.
  void ReissueChildOnDrop(const NodeId& query_id, const IdRange& range);
  // Slow-cadence descriptor refresh for a child range whose fast retry
  // chain was exhausted; runs until the child reports or the query dies.
  void ArmChildRedissemination(const NodeId& query_id,
                               const std::string& task_token,
                               const std::string& child_token);
  void CheckTaskTimeout(const NodeId& query_id, const std::string& token);
  void FinishTaskIfDone(ActiveQuery& aq, RangeTask& task);
  void ReportTask(ActiveQuery& aq, RangeTask& task);
  void HandlePredictorReport(const SeaweedMessagePtr& msg);

  // --- Result plane ---
  void EnsureQueryActive(const Query& query);
  void ScheduleLocalExecution(const NodeId& query_id);
  void ExecuteAndSubmit(const NodeId& query_id);
  // Time-sliced execution: runs one quantum of `exec` and either yields
  // (rescheduling itself) or submits the finished leaf result.
  void StepSlicedExecution(const NodeId& query_id,
                           std::shared_ptr<SlicedExecution> exec,
                           obs::SpanId span);
  void FinishLeafExecution(const NodeId& query_id, db::AggregateResult result);
  NodeId LeafParentVertex(const Query& query) const;
  bool IsLikelyRootFor(const NodeId& key) const;
  void SubmitLeafResult(const NodeId& query_id);
  void RetryLeafSubmit(const NodeId& query_id, uint64_t version);
  // The query a submit or replica belongs to, created as a vertex-only
  // entry if its broadcast has not reached us; null once it was cancelled
  // or has expired.
  ActiveQuery* ResultPlaneQuery(const NodeId& query_id);
  void HandleResultSubmit(const overlay::NodeHandle& from,
                          const SeaweedMessagePtr& msg);
  void FoldResultSubmit(const overlay::NodeHandle& from,
                        const SeaweedMessagePtr& msg);
  // After a vertex's children changed: folds into a local parent at once,
  // and throttles a send that leaves the node.
  void ForwardVertex(const NodeId& query_id, const NodeId& vertex_id,
                     VertexState& state);
  void PropagateVertex(const NodeId& query_id, const NodeId& vertex_id);
  // Arms the ack timeout for an interior submit of `version`; on expiry the
  // vertex re-propagates (with a fresh version) up to max_result_retries
  // times with exponential backoff.
  void ArmVertexAckTimeout(const NodeId& query_id, const NodeId& vertex_id,
                           uint64_t version, int tries);
  // Periodic upward re-propagation: repairs aggregates lost to vertex
  // primary failover anywhere above us within one refresh period.
  void ScheduleVertexRepropagation(const NodeId& query_id,
                                   const NodeId& vertex_id);
  // Refresh gate: true when the vertex's parent is local, primary-owned
  // here and already holds the vertex's current version.
  bool LocalParentHoldsCurrent(const ActiveQuery& aq, const NodeId& vertex_id,
                               const VertexState& state) const;
  // Queues the changed child (or, for a backup not yet synced, the full
  // state) into the fold's per-backup replica batches.
  void ReplicateVertex(const NodeId& query_id, const NodeId& vertex_id,
                       VertexState& state, const NodeId& changed_child);
  void FlushReplicaBatches();
  // A fan-in-1 vertex's result is its child's; more children merge into a
  // new result.
  static db::SharedResult MergedVertexResult(const VertexState& state);

  // --- Query lifecycle ---
  void HandleQueryListRequest(const overlay::NodeHandle& from);
  void HandleQueryList(const SeaweedMessagePtr& msg);
  void HandleQueryCancel(const SeaweedMessagePtr& msg);
  void SweepExpiredTick(uint64_t generation);

  void SendSeaweed(const overlay::NodeHandle& to, const SeaweedMessagePtr& msg,
                   TrafficCategory category);
  void RouteSeaweed(const NodeId& key, const SeaweedMessagePtr& msg,
                    TrafficCategory category);
  // Charges `bytes` of egress to the query's "query.<id>.tx_bytes" counter.
  void ChargeQueryTx(ActiveQuery& aq, uint32_t bytes);

  // Opens the origin-side lifecycle spans and bumps injection metrics.
  void StartQueryTrace(ActiveQuery& aq, const char* kind);

  overlay::OverlayNetwork* overlay_;
  overlay::PastryNode* pastry_;
  DataProvider* data_;
  SeaweedConfig config_;

  // Pre-resolved observability handles (system-wide instruments; each node
  // holds its own copies of the same pointers).
  struct Metrics {
    obs::Counter* queries_injected;
    obs::Counter* metadata_pushes;
    obs::Counter* metadata_rereplications;
    obs::Counter* predictor_merges;
    obs::Counter* dissem_reissues;
    obs::Counter* vertex_updates;
    obs::Counter* vertex_handovers;
    obs::Counter* vertex_repropagations;
    obs::Counter* vertex_fn_invocations;
    obs::Counter* vertex_replicate_msgs;
    obs::Counter* leaf_retries;
    obs::Counter* leaf_giveups;
    obs::Counter* vertex_retries;
    obs::Counter* vertex_giveups;
    obs::Counter* handovers_suppressed;
    obs::Counter* duplicates_suppressed;
    obs::Counter* dissem_fastpath_reissues;
    obs::Counter* dissem_refreshes;
    obs::Counter* result_reroutes;
    obs::Counter* batch_flushes;
    obs::Counter* batch_entries;
    obs::Counter* pred_cache_hits;
    obs::Counter* pred_cache_misses;
    obs::Counter* queries_shed;
    obs::Counter* exec_slices;
    // Approximate-aggregate traffic: leaf submissions carrying sketch
    // states, interior folds of sketch-carrying children, and the encoded
    // sketch bytes placed on the wire (leaf + interior propagations).
    obs::Counter* sketch_results;
    obs::Counter* sketch_merges;
    obs::Counter* sketch_state_bytes;
    obs::Histogram* dissem_fanout;
    obs::Histogram* predictor_latency_us;
    obs::Histogram* result_latency_us;
  };
  Metrics metrics_;
  obs::TraceSink* tracer_;

  // Compiled plans keyed by query id: a long-running query re-executes
  // against local data every time the endsystem's contribution changes, and
  // re-binding the predicate each time would dominate small tables. Views
  // are NOT cached (their SQL re-parses with a fresh NOW() each push).
  db::PlanCache plan_cache_;

  // Persistent across down periods (§3.2.1: persisted at the endsystem).
  AvailabilityModel own_model_;
  SimTime went_down_at_ = -1;
  uint64_t metadata_version_ = 0;
  // §3.4: the leaf "persists that vertexId with the query". Recomputing the
  // entry vertex after churn could inject our contribution at two depths of
  // the same chain and double-count it, so the first choice is sticky.
  std::map<NodeId, NodeId> persisted_leaf_vertex_;

  // Volatile (lost on failure, rebuilt on rejoin).
  MetadataStore metadata_;
  std::map<NodeId, ActiveQuery> active_;
  // Batching outboxes, keyed by contact id (std::map for deterministic
  // flush-callback content).
  std::map<NodeId, Outbox> outboxes_;
  // Predictor cache keyed by (range token, query fingerprint).
  std::map<std::pair<std::string, std::string>, CachedPredictor>
      predictor_cache_;
  // Cancelled-query tombstones: query_id -> expiry of the suppression.
  std::map<NodeId, SimTime> cancelled_;
  // (query, vertex, child, version) -> time we last forwarded that exact
  // submission to a "closer" node. Breaks handover ping-pong when two nodes'
  // leafsets disagree about vertex ownership mid-repair.
  std::map<std::tuple<NodeId, NodeId, NodeId, uint64_t>, SimTime>
      recent_handovers_;
  // Replica batches of the fold in progress, one per (query, backup); sent
  // when the outermost HandleResultSubmit returns.
  struct BackupBatch {
    overlay::NodeHandle backup;
    ReplicaBatch batch;
  };
  std::vector<BackupBatch> replica_batches_;
  int fold_depth_ = 0;
  uint64_t generation_ = 0;
  Rng rng_;
};

}  // namespace seaweed
