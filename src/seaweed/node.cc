#include "seaweed/node.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "common/logging.h"

namespace seaweed {

using overlay::NodeHandle;

namespace {

// Exponential backoff: base * 2^(tries-1), capped. tries counts from 1.
SimDuration RetryBackoff(SimDuration base, int tries, SimDuration cap) {
  SimDuration d = base;
  for (int i = 1; i < tries && d < cap; ++i) d *= 2;
  return std::min(d, cap);
}

}  // namespace

SeaweedNode::SeaweedNode(overlay::OverlayNetwork* overlay,
                         overlay::PastryNode* pastry, DataProvider* data,
                         const SeaweedConfig& config)
    : overlay_(overlay),
      pastry_(pastry),
      data_(data),
      config_(config),
      rng_(pastry->id().lo() ^ 0xc0ffee) {
  pastry_->set_app(this);
  obs::Observability* o = overlay_->obs();
  tracer_ = &o->trace;
  obs::MetricsRegistry* reg = &o->metrics;
  metrics_.queries_injected = reg->GetCounter("seaweed.queries_injected");
  metrics_.metadata_pushes = reg->GetCounter("seaweed.metadata_pushes");
  metrics_.metadata_rereplications =
      reg->GetCounter("seaweed.metadata_rereplications");
  metrics_.predictor_merges = reg->GetCounter("seaweed.predictor_merges");
  metrics_.dissem_reissues = reg->GetCounter("seaweed.dissem_reissues");
  metrics_.vertex_updates = reg->GetCounter("seaweed.vertex_updates");
  metrics_.vertex_handovers = reg->GetCounter("seaweed.vertex_handovers");
  metrics_.vertex_repropagations =
      reg->GetCounter("seaweed.vertex_repropagations");
  metrics_.vertex_fn_invocations =
      reg->GetCounter("seaweed.vertex_fn_invocations");
  metrics_.vertex_replicate_msgs =
      reg->GetCounter("seaweed.vertex_replicate_msgs");
  metrics_.leaf_retries = reg->GetCounter("seaweed.leaf_retries");
  metrics_.leaf_giveups = reg->GetCounter("seaweed.leaf_giveups");
  metrics_.vertex_retries = reg->GetCounter("seaweed.vertex_retries");
  metrics_.vertex_giveups = reg->GetCounter("seaweed.vertex_giveups");
  metrics_.handovers_suppressed =
      reg->GetCounter("seaweed.handovers_suppressed");
  metrics_.duplicates_suppressed =
      reg->GetCounter("seaweed.duplicates_suppressed");
  metrics_.dissem_fastpath_reissues =
      reg->GetCounter("seaweed.dissem_fastpath_reissues");
  metrics_.dissem_refreshes = reg->GetCounter("seaweed.dissem_refreshes");
  metrics_.result_reroutes = reg->GetCounter("seaweed.result_reroutes");
  metrics_.batch_flushes = reg->GetCounter("seaweed.batch_flushes");
  metrics_.batch_entries = reg->GetCounter("seaweed.batch_entries");
  metrics_.pred_cache_hits = reg->GetCounter("seaweed.pred_cache_hits");
  metrics_.pred_cache_misses = reg->GetCounter("seaweed.pred_cache_misses");
  metrics_.queries_shed = reg->GetCounter("seaweed.queries_shed");
  metrics_.exec_slices = reg->GetCounter("seaweed.exec_slices");
  metrics_.sketch_results = reg->GetCounter("seaweed.sketch.results");
  metrics_.sketch_merges = reg->GetCounter("seaweed.sketch.merges");
  metrics_.sketch_state_bytes =
      reg->GetCounter("seaweed.sketch.state_bytes");
  metrics_.dissem_fanout = reg->GetHistogram("seaweed.dissem_fanout");
  metrics_.predictor_latency_us =
      reg->GetHistogram("seaweed.predictor_latency_us");
  metrics_.result_latency_us = reg->GetHistogram("seaweed.result_latency_us");
  plan_cache_.AttachMetrics(reg);
}

void SeaweedNode::StartQueryTrace(ActiveQuery& aq, const char* kind) {
  metrics_.queries_injected->Add();
  const SimTime now = sim()->Now();
  const uint64_t key = obs::TraceKey(aq.query.query_id);
  aq.root_span = tracer_->StartSpan("query", key, now);
  tracer_->AddAttr(aq.root_span, "query",
                   aq.query.query_id.ToShortString());
  tracer_->AddAttr(aq.root_span, "kind", std::string(kind));
  tracer_->AddAttr(aq.root_span, "origin", static_cast<int64_t>(index()));
  if (!aq.query.sql.empty()) {
    tracer_->AddAttr(aq.root_span, "sql", aq.query.sql);
  }
  aq.dissem_span = tracer_->StartSpan("disseminate", key, now, aq.root_span);
  tracer_->AddAttr(aq.dissem_span, "query",
                   aq.query.query_id.ToShortString());
  aq.result_span =
      tracer_->StartSpan("result_delivery", key, now, aq.root_span);
}

void SeaweedNode::SendSeaweed(const NodeHandle& to, const SeaweedMessagePtr& msg,
                              TrafficCategory category) {
  pastry_->SendApp(to, msg, category);
}

void SeaweedNode::RouteSeaweed(const NodeId& key, const SeaweedMessagePtr& msg,
                               TrafficCategory category) {
  pastry_->RouteApp(key, msg, category);
}

void SeaweedNode::ChargeQueryTx(ActiveQuery& aq, uint32_t bytes) {
  if (aq.tx_bytes == nullptr) {
    aq.tx_bytes = overlay_->obs()->metrics.GetCounter(
        "query." + aq.query.query_id.ToShortString() + ".tx_bytes");
  }
  aq.tx_bytes->Add(bytes);
}

bool SeaweedNode::AtAdmissionLimit() const {
  if (config_.max_active_queries <= 0) return false;
  int origins = 0;
  for (const auto& [qid, aq] : active_) {
    if (aq.is_origin) ++origins;
  }
  return origins >= config_.max_active_queries;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void SeaweedNode::OnJoined() {
  const SimTime now = sim()->Now();
  metadata_.SetNow(now);
  if (went_down_at_ >= 0) {
    own_model_.RecordDownPeriod(went_down_at_, now);
    went_down_at_ = -1;
  }
  // No generation bump: OnStopping already retired the previous life's
  // timers, and a bump here would also kill timers armed by messages that
  // arrived while joining, leaving their "scheduled" flags set forever (a
  // restarted vertex primary would never send again).
  uint64_t gen = generation_;

  // Replicate our metadata right away (§3.2.2: pushed on (re)join), then
  // periodically.
  PushMetadataTick(gen);

  // Learn about queries that went active while we were away. Ask both ring
  // neighbors (either could itself be a stale entry for a dead node), and
  // retry once against fresh neighbors after the leafset settles.
  auto request_query_list = [this] {
    auto req = std::make_shared<SeaweedMessage>();
    req->kind = SeaweedMessage::Kind::kQueryListRequest;
    auto cw = pastry_->leafset().NearestCw();
    auto ccw = pastry_->leafset().NearestCcw();
    if (cw.has_value()) SendSeaweed(*cw, req, TrafficCategory::kResult);
    if (ccw.has_value() && (!cw.has_value() || ccw->id != cw->id)) {
      SendSeaweed(*ccw, req, TrafficCategory::kResult);
    }
  };
  request_query_list();
  sim()->After(30 * kSecond, [this, gen, request_query_list] {
    if (gen != generation_ || !pastry_->joined()) return;
    request_query_list();
  });

  sim()->After(config_.query_sweep_period,
               [this, gen] { SweepExpiredTick(gen); });
}

void SeaweedNode::OnStopping() {
  went_down_at_ = sim()->Now();
  ++generation_;
  metadata_.Clear();
  active_.clear();
  outboxes_.clear();
  predictor_cache_.clear();
  recent_handovers_.clear();
  plan_cache_.Clear();
}

void SeaweedNode::OnNeighborFailed(const NodeHandle& neighbor) {
  metadata_.MarkDown(neighbor.id, sim()->Now());
  if (!pastry_->joined()) return;
  // Re-replication on failure (§3.2: "the metadata held by the leaving
  // endsystem must be re-replicated on some other endsystem" — the churn
  // term Nck(h+a)/f_on of the analytic model). For each record we are the
  // primary holder of, the failed node may have been a replica; restore the
  // k-th copy on the member that now qualifies, on the failed node's side.
  for (const auto* rec : metadata_.All()) {
    const NodeId& owner = rec->owner;
    if (owner == id() || owner == neighbor.id) continue;
    if (!IsLikelyRootFor(owner)) continue;
    // Pick the qualifying member farthest from the owner: the one most
    // recently pulled into the replica set by the failure.
    std::optional<NodeHandle> target;
    NodeId target_dist;
    for (const auto& m : pastry_->leafset().All()) {
      if (!LikelyReplicaFor(owner, m)) continue;
      NodeId d = m.id.RingDistanceTo(owner);
      if (!target.has_value() || d > target_dist) {
        target = m;
        target_dist = d;
      }
    }
    if (target.has_value()) {
      auto msg = std::make_shared<SeaweedMessage>();
      msg->kind = SeaweedMessage::Kind::kMetadataPush;
      msg->metadata = rec->Decoded();
      msg->metadata_wire_bytes = data_->SummaryWireBytes(index());
      metrics_.metadata_rereplications->Add();
      SendSeaweed(*target, msg, TrafficCategory::kMetadata);
    }
  }
}

void SeaweedNode::OnNeighborAdded(const NodeHandle& neighbor) {
  if (!pastry_->joined()) return;
  metadata_.MarkUp(neighbor.id);
  // Anti-entropy: hand the newcomer the replicas it should now hold, and our
  // own metadata if it entered our replica set.
  if (LikelyReplicaFor(id(), neighbor)) {
    PushMetadataTo(neighbor);
  }
  for (const auto* rec : metadata_.All()) {
    const NodeId& owner = rec->owner;
    if (owner == neighbor.id) continue;
    // Push only records the newcomer is responsible for, and only if we are
    // the closest live holder (the "primary" of the record) — otherwise all
    // k holders would re-push the same record on every join, amplifying the
    // churn re-replication cost k-fold over the model's k(h+a) per event.
    if (!IsLikelyRootFor(owner)) continue;
    if (LikelyReplicaFor(owner, neighbor)) {
      auto msg = std::make_shared<SeaweedMessage>();
      msg->kind = SeaweedMessage::Kind::kMetadataPush;
      msg->metadata = rec->Decoded();
      msg->metadata_wire_bytes =
          data_->SummaryWireBytes(index());  // summaries are same order size
      SendSeaweed(neighbor, msg, TrafficCategory::kMetadata);
    }
  }
  // The newcomer shifted the replica boundary: drop records we are no longer
  // a likely replica for. Waiting for the periodic push tick is fine in
  // steady state, but during a join storm leafsets shift on every arrival
  // and a node can accumulate hundreds of stale records between ticks —
  // O(N) aggregate store growth instead of O(k) per node.
  EvictLiveOwnerRecords();
}

void SeaweedNode::EvictLiveOwnerRecords() {
  // Storm-time eviction is restricted to owners believed UP: a live owner
  // re-pushes every summary_push_period, so dropping its record costs at
  // most one period of under-replication. Records of DOWN owners are the
  // coverage-critical ones (§3.2.1 answers for unavailable endsystems from
  // replicas, and a down owner cannot re-push) — those are left to the
  // periodic tick's eviction, whose rare sampling tolerates transient
  // leafset views that would wrongly purge them here.
  metadata_.EvictIf(
      [this](const NodeId& owner, const MetadataStore::Record& rec) {
        return rec.down_since >= 0 ||
               LikelyReplicaFor(owner, pastry_->handle());
      });
}

void SeaweedNode::OnAppSendFailed(const NodeHandle& dead,
                                  WireMessagePtr payload) {
  (void)dead;  // routing state was already purged by the overlay
  if (!pastry_->up() || payload == nullptr) return;
  auto msg = WireMessageCast<SeaweedMessage>(payload);
  switch (msg->kind) {
    case SeaweedMessage::Kind::kBroadcast:
      // A child range we handed to a now-dead contact: reissue via routing
      // immediately instead of waiting out the child timeout.
      ReissueChildOnDrop(msg->query_id, msg->range);
      return;
    case SeaweedMessage::Kind::kBroadcastBatch:
      // Shared fate: the whole batch died on one dead hop. Every entry is
      // independently ackable, so each reissues through its own child-range
      // retry state.
      for (const auto& entry : msg->batch) {
        ReissueChildOnDrop(entry.query_id, entry.range);
      }
      return;
    case SeaweedMessage::Kind::kResultSubmit:
      // A handover forward hit a dead node. Re-handle locally: the dead
      // member is gone from the leafset now, so this either picks the next
      // closer member or folds the submission into our own vertex state.
      metrics_.result_reroutes->Add();
      HandleResultSubmit(pastry_->handle(), msg);
      return;
    default:
      // The periodic planes (metadata pushes, predictor reports, acks,
      // vertex replication) have their own repair cycles; reacting here
      // would only duplicate them.
      return;
  }
}

void SeaweedNode::ReissueChildOnDrop(const NodeId& query_id,
                                     const IdRange& range) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  const std::string child_token = range.Token();
  for (auto& [token, task] : it->second.tasks) {
    auto c = task.children.find(child_token);
    if (c == task.children.end()) continue;
    if (task.finished || c->second.done ||
        c->second.tries > config_.max_child_retries) {
      return;
    }
    metrics_.dissem_fastpath_reissues->Add();
    c->second.via_routing = true;
    DispatchChild(it->second, task, c->second);
    return;
  }
}

void SeaweedNode::ArmChildRedissemination(const NodeId& query_id,
                                          const std::string& task_token,
                                          const std::string& child_token) {
  if (config_.dissem_refresh_period <= 0) return;
  uint64_t gen = generation_;
  sim()->After(config_.dissem_refresh_period,
               [this, gen, query_id, task_token, child_token] {
    if (gen != generation_) return;
    auto it = active_.find(query_id);
    if (it == active_.end() || it->second.query.ExpiredAt(sim()->Now())) {
      return;
    }
    auto t = it->second.tasks.find(task_token);
    if (t == it->second.tasks.end()) return;
    auto c = t->second.children.find(child_token);
    if (c == t->second.children.end() || c->second.reported) return;
    metrics_.dissem_refreshes->Add();
    // Route rather than send direct: the original contact is the likely
    // casualty, and routing lets the overlay pick whoever now owns the
    // range (possibly the restarted node under a fresh handle).
    c->second.via_routing = true;
    DispatchChild(it->second, t->second, c->second);
    ArmChildRedissemination(query_id, task_token, child_token);
  });
}

// ---------------------------------------------------------------------------
// Metadata plane
// ---------------------------------------------------------------------------

std::vector<NodeHandle> SeaweedNode::ReplicaSet() const {
  const auto& ls = pastry_->leafset();
  const int k = config_.metadata_replicas;
  std::vector<NodeHandle> out;
  const auto& cw = ls.cw();
  const auto& ccw = ls.ccw();
  size_t i = 0, j = 0;
  // k/2 a side, spilling over when one side is short.
  while (static_cast<int>(out.size()) < k && (i < cw.size() || j < ccw.size())) {
    if (i < cw.size() && (i <= j || j >= ccw.size())) {
      out.push_back(cw[i++]);
    } else if (j < ccw.size()) {
      out.push_back(ccw[j++]);
    }
  }
  return out;
}

bool SeaweedNode::LikelyReplicaFor(const NodeId& owner,
                                   const NodeHandle& holder) const {
  // `holder` belongs to owner's replica set iff it is among the k/2
  // numerically closest live nodes on its side of owner. Judged from this
  // node's leafset view: owner must lie within leafset coverage (otherwise
  // we know nothing about its neighborhood — and should not be holding its
  // metadata either), and fewer than k/2 live members may sit strictly
  // between holder and owner. Without the coverage requirement a purely
  // rank-based test accepts arbitrarily distant owners (the local candidate
  // set is tiny), anti-entropy then spreads every record to every node, and
  // the stores grow O(N^2).
  const auto& ls = pastry_->leafset();
  if (holder.id == owner) return false;
  if (!ls.Covers(owner) && owner != id()) return false;

  std::vector<NodeId> members;
  members.push_back(id());
  for (const auto& h : ls.All()) members.push_back(h.id);

  int between = 0;
  // Count live members strictly inside the arc between holder and owner
  // (on holder's side, i.e. the short way from holder to owner).
  NodeId cw = holder.id.ClockwiseDistanceTo(owner);
  NodeId ccw = owner.ClockwiseDistanceTo(holder.id);
  bool holder_ccw_of_owner = cw <= ccw;
  for (const NodeId& m : members) {
    if (m == holder.id || m == owner) continue;
    bool inside = holder_ccw_of_owner
                      ? (holder.id.ClockwiseDistanceTo(m) < cw && m != owner)
                      : (owner.ClockwiseDistanceTo(m) < ccw);
    if (inside) ++between;
  }
  return between < config_.metadata_replicas / 2;
}

void SeaweedNode::PushMetadataTo(const NodeHandle& to) {
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kMetadataPush;
  msg->metadata.owner = id();
  msg->metadata.version = metadata_version_;
  msg->metadata.summary = data_->Summary(index());
  msg->metadata.availability = own_model_;
  for (const auto& view : config_.views) {
    db::ParseOptions opts;
    opts.now_unix_seconds = sim()->Now() / kSecond;
    auto parsed = db::ParseSelect(view.sql, opts);
    if (!parsed.ok()) {
      SEAWEED_LOG(kWarn) << "bad view sql '" << view.sql
                         << "': " << parsed.status().ToString();
      continue;
    }
    auto value = data_->Execute(index(), *parsed);
    if (value.ok()) {
      msg->metadata.views.emplace_back(view.name, std::move(value).value());
    }
  }
  msg->metadata_wire_bytes = data_->SummaryWireBytes(index());
  metrics_.metadata_pushes->Add();
  SendSeaweed(to, msg, TrafficCategory::kMetadata);
}

void SeaweedNode::PushMetadataTick(uint64_t generation) {
  if (generation != generation_ || !pastry_->joined()) return;
  ++metadata_version_;
  for (const auto& replica : ReplicaSet()) {
    PushMetadataTo(replica);
  }
  // Evict records we are no longer responsible for (the owner's replica set
  // drifted away from us as nodes joined); keeps the store O(k). Unlike the
  // storm-time sweeps this one also drops records of down owners: by tick
  // time leafset views have settled, so the predicate is trustworthy.
  metadata_.EvictIf(
      [this](const NodeId& owner, const MetadataStore::Record&) {
        return LikelyReplicaFor(owner, pastry_->handle());
      });
  // Randomize each period slightly to avoid system-wide synchronization
  // (§4.3: "each endsystem choosing its push time randomly").
  SimDuration period = config_.summary_push_period;
  SimDuration jitter = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(period / 4 + 1)));
  sim()->After(period - period / 8 + jitter,
               [this, generation] { PushMetadataTick(generation); });
}

// ---------------------------------------------------------------------------
// Query lifecycle
// ---------------------------------------------------------------------------

Result<NodeId> SeaweedNode::InjectQuery(const std::string& sql,
                                        QueryObserver observer,
                                        SimDuration ttl,
                                        const std::string& id_salt) {
  if (!pastry_->up()) {
    return Status::Unavailable("injecting endsystem is down");
  }
  if (AtAdmissionLimit()) {
    metrics_.queries_shed->Add();
    return Status::Unavailable("load shed: admission limit reached");
  }
  SEAWEED_ASSIGN_OR_RETURN(
      Query query,
      Query::Create(sql, sim()->Now(), pastry_->handle(), ttl, id_salt));
  NodeId qid = query.query_id;
  EnsureQueryActive(query);
  auto& aq = active_[qid];
  aq.is_origin = true;
  aq.observer = std::move(observer);
  StartQueryTrace(aq, "oneshot");

  // Kick off dissemination: the tree root is the node closest to queryId.
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kBroadcast;
  msg->queries.push_back(query);
  msg->query_id = qid;
  msg->range = IdRange::Full(qid);
  msg->parent = pastry_->handle();  // the origin; root reports back to us
  RouteSeaweed(qid, msg, TrafficCategory::kDissemination);
  ChargeQueryTx(aq, msg->WireBytes());
  return qid;
}

Result<NodeId> SeaweedNode::InjectContinuousQuery(const std::string& sql,
                                                  SimDuration period,
                                                  QueryObserver observer,
                                                  SimDuration ttl) {
  if (period <= 0) {
    return Status::InvalidArgument("continuous period must be positive");
  }
  if (!pastry_->up()) {
    return Status::Unavailable("injecting endsystem is down");
  }
  if (AtAdmissionLimit()) {
    metrics_.queries_shed->Add();
    return Status::Unavailable("load shed: admission limit reached");
  }
  SEAWEED_ASSIGN_OR_RETURN(
      Query query, Query::Create(sql, sim()->Now(), pastry_->handle(), ttl));
  query.continuous = true;
  query.reexec_period = period;
  NodeId qid = query.query_id;
  EnsureQueryActive(query);
  auto& aq = active_[qid];
  aq.is_origin = true;
  aq.observer = std::move(observer);
  StartQueryTrace(aq, "continuous");

  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kBroadcast;
  msg->queries.push_back(query);
  msg->query_id = qid;
  msg->range = IdRange::Full(qid);
  msg->parent = pastry_->handle();
  RouteSeaweed(qid, msg, TrafficCategory::kDissemination);
  ChargeQueryTx(aq, msg->WireBytes());
  return qid;
}

void SeaweedNode::CancelQuery(const NodeId& query_id) {
  auto it = active_.find(query_id);
  SimTime tombstone_until = sim()->Now() + 48 * kHour;
  if (it != active_.end()) {
    tombstone_until = it->second.query.injected_at + it->second.query.ttl;
    active_.erase(it);
  }
  persisted_leaf_vertex_.erase(query_id);
  plan_cache_.Erase(query_id.ToHex());
  cancelled_[query_id] = tombstone_until;
  // Seed the epidemic: notify all leafset members; each recipient forwards
  // once (dedup via its own tombstone).
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kQueryCancel;
  msg->query_id = query_id;
  for (const auto& member : pastry_->leafset().All()) {
    SendSeaweed(member, msg, TrafficCategory::kResult);
  }
}

Result<NodeId> SeaweedNode::QueryViewSnapshot(const std::string& view_name,
                                              QueryObserver observer) {
  if (!pastry_->up()) {
    return Status::Unavailable("injecting endsystem is down");
  }
  if (AtAdmissionLimit()) {
    metrics_.queries_shed->Add();
    return Status::Unavailable("load shed: admission limit reached");
  }
  const ReplicatedView* view = nullptr;
  for (const auto& v : config_.views) {
    if (v.name == view_name) view = &v;
  }
  if (view == nullptr) {
    return Status::NotFound("no replicated view named '" + view_name + "'");
  }
  SEAWEED_ASSIGN_OR_RETURN(
      Query query, Query::Create(view->sql, sim()->Now(), pastry_->handle(),
                                 /*ttl=*/kHour));
  query.view_name = view_name;
  // Distinct id space from the equivalent one-shot query.
  query.query_id = Sha1ToNodeId("view:" + view_name + "@" +
                                std::to_string(sim()->Now()));
  NodeId qid = query.query_id;
  EnsureQueryActive(query);
  auto& aq = active_[qid];
  aq.is_origin = true;
  aq.observer = std::move(observer);
  StartQueryTrace(aq, "view_snapshot");

  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kBroadcast;
  msg->queries.push_back(query);
  msg->query_id = qid;
  msg->range = IdRange::Full(qid);
  msg->parent = pastry_->handle();
  RouteSeaweed(qid, msg, TrafficCategory::kDissemination);
  ChargeQueryTx(aq, msg->WireBytes());
  return qid;
}

void SeaweedNode::HandleQueryCancel(const SeaweedMessagePtr& msg) {
  if (cancelled_.count(msg->query_id)) return;  // already seen: stop flood
  CancelQuery(msg->query_id);
}

void SeaweedNode::EnsureQueryActive(const Query& query) {
  if (cancelled_.count(query.query_id)) return;
  auto it = active_.find(query.query_id);
  if (it != active_.end()) {
    if (it->second.query.sql.empty() && !query.sql.empty()) {
      it->second.query = query;
      ScheduleLocalExecution(query.query_id);
    }
    return;
  }
  ActiveQuery aq;
  aq.query = query;
  active_[query.query_id] = std::move(aq);
  if (!query.sql.empty() && !query.IsViewSnapshot()) {
    ScheduleLocalExecution(query.query_id);
  }
}

void SeaweedNode::ScheduleLocalExecution(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.executed) return;
  it->second.executed = true;
  uint64_t gen = generation_;
  sim()->After(config_.exec_delay, [this, gen, query_id] {
    if (gen != generation_) return;
    ExecuteAndSubmit(query_id);
  });
}

void SeaweedNode::ExecuteAndSubmit(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.query.sql.empty()) return;
  ActiveQuery& aq = it->second;
  if (aq.query.ExpiredAt(sim()->Now())) return;
  obs::SpanId span = tracer_->StartSpan(
      "local_exec", obs::TraceKey(query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  if (config_.exec_slice_batches > 0) {
    auto begun = data_->BeginSlicedExecution(index(), aq.query.parsed,
                                             &plan_cache_, query_id.ToHex());
    if (begun.ok() && begun.value().cursor != nullptr) {
      auto exec = std::make_shared<SlicedExecution>(std::move(begun).value());
      StepSlicedExecution(query_id, std::move(exec), span);
      return;
    }
    // Provider without sliced support: fall through to one-shot.
  }
  auto result = data_->ExecuteCached(index(), aq.query.parsed, &plan_cache_,
                                     query_id.ToHex());
  tracer_->EndSpan(span, sim()->Now());
  if (!result.ok()) {
    SEAWEED_LOG(kWarn) << "local execution failed: "
                       << result.status().ToString();
    return;
  }
  FinishLeafExecution(query_id, std::move(result).value());
}

void SeaweedNode::StepSlicedExecution(const NodeId& query_id,
                                      std::shared_ptr<SlicedExecution> exec,
                                      obs::SpanId span) {
  metrics_.exec_slices->Add();
  if (!exec->cursor->Step(static_cast<size_t>(config_.exec_slice_batches))) {
    // Quantum exhausted with rows left: yield so concurrent queries (and the
    // rest of this node's event work) interleave with the long scan.
    uint64_t gen = generation_;
    sim()->After(config_.exec_slice_yield, [this, gen, query_id, exec, span] {
      if (gen != generation_) return;
      if (active_.find(query_id) == active_.end()) return;  // cancelled
      StepSlicedExecution(query_id, exec, span);
    });
    return;
  }
  tracer_->EndSpan(span, sim()->Now());
  db::AggregateResult result = exec->cursor->Take();
  plan_cache_.RecordExecution(exec->cursor->rows_scanned(),
                              static_cast<uint64_t>(result.rows_matched));
  FinishLeafExecution(query_id, std::move(result));
}

void SeaweedNode::FinishLeafExecution(const NodeId& query_id,
                                      db::AggregateResult result) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.query.ExpiredAt(sim()->Now())) return;
  aq.leaf.result = std::move(result);
  aq.leaf.version = sim()->Now() > 0 ? static_cast<uint64_t>(sim()->Now()) : 1;
  aq.leaf.acked = false;
  SubmitLeafResult(query_id);
}

void SeaweedNode::HandleQueryListRequest(const NodeHandle& from) {
  auto reply = std::make_shared<SeaweedMessage>();
  reply->kind = SeaweedMessage::Kind::kQueryList;
  const SimTime now = sim()->Now();
  for (const auto& [qid, aq] : active_) {
    if (aq.query.sql.empty() || aq.query.ExpiredAt(now)) continue;
    reply->queries.push_back(aq.query);
  }
  SendSeaweed(from, reply, TrafficCategory::kResult);
}

void SeaweedNode::HandleQueryList(const SeaweedMessagePtr& msg) {
  const SimTime now = sim()->Now();
  for (const auto& q : msg->queries) {
    if (q.ExpiredAt(now)) continue;
    EnsureQueryActive(q);
  }
}

void SeaweedNode::SweepExpiredTick(uint64_t generation) {
  if (generation != generation_ || !pastry_->up()) return;
  const SimTime now = sim()->Now();
  for (auto it = active_.begin(); it != active_.end();) {
    // Submits and replicas do not carry the TTL, so a vertex-only entry
    // expires by the default TTL counted from its creation.
    const Query& q = it->second.query;
    if (!q.ExpiredAt(now)) {
      ++it;
      continue;
    }
    if (!q.sql.empty()) {
      // A late submit or replica must not bring the query back as a
      // vertex-only entry. The tombstone lasts as long as the query lived,
      // so tombstones never outnumber the queries of one TTL.
      cancelled_[it->first] = now + q.ttl;
    }
    persisted_leaf_vertex_.erase(it->first);
    plan_cache_.Erase(it->first.ToHex());
    it = active_.erase(it);
  }
  for (auto it = cancelled_.begin(); it != cancelled_.end();) {
    if (now > it->second) {
      it = cancelled_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = recent_handovers_.begin(); it != recent_handovers_.end();) {
    if (now - it->second > config_.handover_loop_window) {
      it = recent_handovers_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = predictor_cache_.begin(); it != predictor_cache_.end();) {
    if (it->second.metadata_epoch != metadata_.epoch() ||
        now - it->second.computed_at > config_.cache_eps) {
      it = predictor_cache_.erase(it);
    } else {
      ++it;
    }
  }
  sim()->After(config_.query_sweep_period,
               [this, generation] { SweepExpiredTick(generation); });
}

// ---------------------------------------------------------------------------
// Dissemination + completeness prediction
// ---------------------------------------------------------------------------

IdRange SeaweedNode::MyCell() const {
  const auto& ls = pastry_->leafset();
  auto left = ls.NearestCcw();
  auto right = ls.NearestCw();
  if (!left.has_value() && !right.has_value()) {
    return IdRange::Full(id());
  }
  NodeId left_id = left.has_value() ? left->id : right->id;
  NodeId right_id = right.has_value() ? right->id : left->id;
  NodeId lo = left_id.MidpointTo(id());
  NodeId hi = id().MidpointTo(right_id);
  if (lo == hi) return IdRange::Full(id());
  return IdRange{lo, hi, false};
}

bool SeaweedNode::CoveredByLeafset(const IdRange& range) const {
  if (range.full) return false;
  const auto& ls = pastry_->leafset();
  auto fccw = ls.FarthestCcw();
  auto fcw = ls.FarthestCw();
  if (!fccw.has_value() || !fcw.has_value()) return false;
  NodeId start = fccw->id;
  NodeId span = start.ClockwiseDistanceTo(fcw->id);
  NodeId off_lo = start.ClockwiseDistanceTo(range.lo);
  NodeId off_hi = start.ClockwiseDistanceTo(range.hi);
  return off_lo <= off_hi && off_hi <= span;
}

void SeaweedNode::HandleBroadcast(const NodeHandle& from,
                                  const SeaweedMessagePtr& msg) {
  (void)from;
  SEAWEED_CHECK(!msg->queries.empty());
  EnsureQueryActive(msg->queries[0]);
  auto& aq = active_[msg->query_id];
  const bool report_to_origin = msg->range.full;

  const std::string token = msg->range.Token();
  auto existing = aq.tasks.find(token);
  if (existing != aq.tasks.end()) {
    // Duplicate (parent reissued while our report was in flight): if we
    // already finished, re-report; otherwise keep working.
    if (existing->second.finished) {
      existing->second.parent = msg->parent;
      ReportTask(aq, existing->second);
    }
    return;
  }
  ProcessRange(aq, msg->range, msg->parent, report_to_origin);
}

void SeaweedNode::ProcessRange(ActiveQuery& aq, const IdRange& range,
                               const NodeHandle& parent,
                               bool report_to_origin) {
  const std::string token = range.Token();
  RangeTask& task = aq.tasks[token];
  task.range = range;
  task.parent = parent;
  task.report_to_origin = report_to_origin;

  // Worklist of subranges this node resolves locally; anything covered by a
  // remote node becomes a child entry with a network dispatch.
  std::deque<IdRange> work;
  work.push_back(range);
  const IdRange cell = MyCell();
  int guard = 0;

  while (!work.empty()) {
    IdRange r = work.front();
    work.pop_front();
    if (r.IsEmpty()) continue;
    if (++guard > 4 * kIdBits) {
      SEAWEED_LOG(kWarn) << "range subdivision guard tripped";
      break;
    }

    // Terminal: the range is inside the region we are numerically closest
    // to, which is exactly where our metadata replicas live.
    bool terminal = cell.full;
    if (!terminal && !r.full) {
      terminal = cell.Contains(r.lo) &&
                 (r.lo.ClockwiseDistanceTo(r.hi) <=
                  r.lo.ClockwiseDistanceTo(cell.hi));
    }
    if (terminal) {
      if (aq.query.IsViewSnapshot()) {
        GenerateViewFor(aq, r, &task.view_acc);
      } else {
        GeneratePredictorFor(aq, r, &task.acc);
      }
      continue;
    }

    if (CoveredByLeafset(r)) {
      // Partition r among the cells of {me} ∪ leafset members, assigning
      // each piece to the member numerically closest to it (= the member
      // holding the metadata replicas for dead ids in that piece).
      std::vector<NodeHandle> members = pastry_->leafset().All();
      members.push_back(pastry_->handle());
      std::sort(members.begin(), members.end(),
                [](const NodeHandle& a, const NodeHandle& b) {
                  return a.id < b.id;
                });
      std::vector<NodeId> member_ids;
      member_ids.reserve(members.size());
      for (const auto& m : members) member_ids.push_back(m.id);
      for (const RangePart& part :
           PartitionByClosestMember(r, member_ids)) {
        const NodeHandle& m = members[part.member_index];
        if (m.id == id()) {
          work.push_back(part.range);
        } else {
          ChildRange child;
          child.range = part.range;
          child.contact = m;
          aq.tasks[token].children[part.range.Token()] = child;
        }
      }
      continue;
    }

    // Too wide for local knowledge: divide and conquer.
    auto [first, second] = r.Split();
    for (const IdRange& half : {first, second}) {
      if (half.IsEmpty()) continue;
      if (half.Contains(id())) {
        work.push_back(half);
        continue;
      }
      // Prefer a known contact inside the half (O(1) hop, §3.3); fall back
      // to routing toward the midpoint.
      ChildRange child;
      child.range = half;
      auto contacts = pastry_->routing_table().EntriesInArc(half.lo, half.hi);
      for (const auto& h : pastry_->leafset().All()) {
        if (half.Contains(h.id)) contacts.push_back(h);
      }
      if (!contacts.empty()) {
        NodeId mid = half.Mid();
        std::sort(contacts.begin(), contacts.end(),
                  [&mid](const NodeHandle& a, const NodeHandle& b) {
                    return a.id.RingDistanceTo(mid) < b.id.RingDistanceTo(mid);
                  });
        // Drop contacts not actually in the half (EntriesInArc uses the
        // inclusive arc; re-check half-open membership).
        if (half.Contains(contacts.front().id)) {
          child.contact = contacts.front();
          aq.tasks[token].children[half.Token()] = child;
          continue;
        }
      }
      if (IsLikelyRootFor(half.Mid())) {
        // Routing would come straight back to us: keep subdividing locally.
        work.push_back(half);
        continue;
      }
      child.via_routing = true;
      aq.tasks[token].children[half.Token()] = child;
    }
  }

  RangeTask& final_task = aq.tasks[token];
  metrics_.dissem_fanout->Record(final_task.children.size());
  obs::SpanId span = tracer_->StartSpan(
      "disseminate_range", obs::TraceKey(aq.query.query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "fanout",
                   static_cast<int64_t>(final_task.children.size()));
  for (auto& [child_token, child] : final_task.children) {
    DispatchChild(aq, final_task, child);
  }
  FinishTaskIfDone(aq, final_task);
  tracer_->EndSpan(span, sim()->Now());
}

void SeaweedNode::DispatchChild(ActiveQuery& aq, RangeTask& task,
                                ChildRange& child) {
  ++child.tries;
  ++child.attempt;
  if (child.tries > 1) metrics_.dissem_reissues->Add();
  if (!child.via_routing && config_.batching) {
    // Shared-fate batching: hold the descriptor in the contact's outbox so
    // concurrent queries traversing the same hop coalesce. Retries bypass
    // the outbox (via_routing is forced on reissue), so each descriptor
    // stays independently ackable.
    EnqueueBatchedDispatch(aq, child);
  } else {
    auto msg = std::make_shared<SeaweedMessage>();
    msg->kind = SeaweedMessage::Kind::kBroadcast;
    msg->queries.push_back(aq.query);
    msg->query_id = aq.query.query_id;
    msg->range = child.range;
    msg->parent = pastry_->handle();
    if (child.via_routing) {
      RouteSeaweed(child.range.Mid(), msg, TrafficCategory::kDissemination);
    } else {
      SendSeaweed(child.contact, msg, TrafficCategory::kDissemination);
    }
    ChargeQueryTx(aq, msg->WireBytes());
  }
  // Arm the reissue timer, backing off per attempt so an injected loss
  // burst does not turn every child into a fixed-rate retry storm.
  uint64_t gen = generation_;
  NodeId qid = aq.query.query_id;
  std::string task_token = task.range.Token();
  std::string child_token = child.range.Token();
  int attempt = child.attempt;
  SimDuration timeout = RetryBackoff(config_.child_timeout, child.tries,
                                     config_.max_retry_backoff);
  sim()->After(timeout, [this, gen, qid, task_token, child_token, attempt] {
    if (gen != generation_) return;
    auto it = active_.find(qid);
    if (it == active_.end()) return;
    auto t = it->second.tasks.find(task_token);
    if (t == it->second.tasks.end() || t->second.finished) return;
    auto c = t->second.children.find(child_token);
    if (c == t->second.children.end() || c->second.done) return;
    // Superseded: a drop-notice fast path already re-dispatched this child
    // and armed a fresh timer; firing here too would double-reissue.
    if (c->second.attempt != attempt) return;
    if (c->second.tries > config_.max_child_retries) {
      // Give up on this subrange: report what we have (coverage loss is
      // visible to the user as a slightly low predictor). The range is not
      // abandoned outright — the slow refresh keeps re-sending the
      // descriptor so a crashed-and-restarted subtree, which lost every
      // in-flight query with its process, eventually learns it again and
      // its results flow through the self-healing result plane.
      c->second.done = true;
      FinishTaskIfDone(it->second, t->second);
      ArmChildRedissemination(qid, task_token, child_token);
      return;
    }
    // Reissue, preferring routing this time (the contact may be dead).
    c->second.via_routing = true;
    DispatchChild(it->second, t->second, c->second);
  });
}

void SeaweedNode::EnqueueBatchedDispatch(ActiveQuery& aq, ChildRange& child) {
  Outbox& box = outboxes_[child.contact.id];
  box.contact = child.contact;
  SeaweedMessage::BatchEntry entry;
  entry.query_id = aq.query.query_id;
  entry.range = child.range;
  entry.query = aq.query;
  box.entries.push_back(std::move(entry));
  if (box.flush_scheduled) return;
  box.flush_scheduled = true;
  uint64_t gen = generation_;
  NodeId contact_id = child.contact.id;
  sim()->After(config_.batch_flush_delay, [this, gen, contact_id] {
    if (gen != generation_) return;
    FlushOutbox(contact_id);
  });
}

void SeaweedNode::FlushOutbox(const NodeId& contact_id) {
  auto it = outboxes_.find(contact_id);
  if (it == outboxes_.end()) return;
  Outbox box = std::move(it->second);
  outboxes_.erase(it);
  if (box.entries.empty()) return;
  if (box.entries.size() == 1) {
    // No sharing materialized within the flush window: plain descriptor.
    const SeaweedMessage::BatchEntry& entry = box.entries.front();
    auto msg = std::make_shared<SeaweedMessage>();
    msg->kind = SeaweedMessage::Kind::kBroadcast;
    msg->queries.push_back(entry.query);
    msg->query_id = entry.query_id;
    msg->range = entry.range;
    msg->parent = pastry_->handle();
    SendSeaweed(box.contact, msg, TrafficCategory::kDissemination);
    if (auto qit = active_.find(entry.query_id); qit != active_.end()) {
      ChargeQueryTx(qit->second, msg->WireBytes());
    }
    return;
  }
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kBroadcastBatch;
  msg->parent = pastry_->handle();
  msg->batch = std::move(box.entries);
  metrics_.batch_flushes->Add();
  metrics_.batch_entries->Add(msg->batch.size());
  SendSeaweed(box.contact, msg, TrafficCategory::kBatched);
  // Split the coalesced wire cost evenly across the riding queries.
  const uint32_t share =
      static_cast<uint32_t>(msg->WireBytes() / msg->batch.size());
  for (const auto& entry : msg->batch) {
    if (auto qit = active_.find(entry.query_id); qit != active_.end()) {
      ChargeQueryTx(qit->second, share);
    }
  }
}

void SeaweedNode::HandleBroadcastBatch(const NodeHandle& from,
                                       const SeaweedMessagePtr& msg) {
  // Unpack into per-entry kBroadcasts: each entry was a complete descriptor
  // that merely shared this hop, and is handled (and acked via its own
  // predictor report) independently of its batch-mates.
  for (const auto& entry : msg->batch) {
    auto unpacked = std::make_shared<SeaweedMessage>();
    unpacked->kind = SeaweedMessage::Kind::kBroadcast;
    unpacked->queries.push_back(entry.query);
    unpacked->query_id = entry.query_id;
    unpacked->range = entry.range;
    unpacked->parent = msg->parent;
    HandleBroadcast(from, unpacked);
  }
}

void SeaweedNode::GeneratePredictorFor(ActiveQuery& aq, const IdRange& range,
                                       CompletenessPredictor* out) {
  const SimTime now = sim()->Now();
  const SimTime injected = aq.query.injected_at;
  obs::SpanId span = tracer_->StartSpan(
      "metadata_lookup", obs::TraceKey(aq.query.query_id), now);

  // Bounded-divergence cache: an identical (range, query-shape) scan within
  // cache_eps against an unchanged metadata store is reused, carrying its
  // age as the predictor's divergence. Reuse returns the exact predictor of
  // the original scan, so the monotone-predictor invariant holds: repeated
  // cache-hit deliveries are bit-identical, never regressing.
  std::pair<std::string, std::string> cache_key;
  const bool caching = config_.cache_eps > 0;
  if (caching) {
    cache_key = {range.Token(), aq.query.parsed.ToString()};
    auto hit = predictor_cache_.find(cache_key);
    if (hit != predictor_cache_.end() &&
        hit->second.metadata_epoch == metadata_.epoch() &&
        now - hit->second.computed_at <= config_.cache_eps) {
      metrics_.pred_cache_hits->Add();
      CompletenessPredictor cached = hit->second.predictor;
      cached.SetDivergenceS(static_cast<uint32_t>(
          (now - hit->second.computed_at) / kSecond));
      out->Merge(cached);
      tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
      tracer_->AddAttr(span, "cache_hit", static_cast<int64_t>(1));
      tracer_->EndSpan(span, now);
      return;
    }
    metrics_.pred_cache_misses->Add();
  }

  // With caching off, accumulate straight into `out` (the historical path,
  // kept bit-identical); with caching on, scan into a fresh predictor so
  // the cache stores this range's own contribution.
  CompletenessPredictor fresh;
  CompletenessPredictor* acc = caching ? &fresh : out;
  int64_t records = 0;
  if (range.Contains(id())) {
    // Our own contribution: row-count estimate from the local DBMS.
    double rows = data_->Summary(index()).EstimateRows(aq.query.parsed);
    acc->AddRowsAt(0, rows);
    acc->AddEndsystems(1);
  }
  // Unavailable endsystems whose metadata we replicate.
  for (const auto* rec : metadata_.InRange(range, /*only_down=*/false)) {
    const NodeId& owner = rec->owner;
    if (owner == id()) continue;
    if (rec->down_since < 0) {
      // Believed up: if it is a live leafset member it covers itself; only
      // predict for it when we have positively marked it down.
      if (pastry_->leafset().Contains(owner)) continue;
      // Not in our leafset but in our terminal range: treat as down since
      // we acquired the record.
    }
    SimTime down_since = rec->down_since >= 0 ? rec->down_since
                                              : rec->acquired_at;
    Metadata meta = rec->Decoded();
    double rows = meta.summary.EstimateRows(aq.query.parsed);
    if (rows <= 0) {
      acc->AddEndsystems(1);
      ++records;
      continue;
    }
    const AvailabilityModel& model = meta.availability;
    acc->AddRowsWithAvailability(
        rows, [&](SimDuration edge) {
          return model.ProbUpBy(now, down_since, injected + edge);
        });
    acc->AddEndsystems(1);
    ++records;
  }
  if (caching) {
    CachedPredictor& slot = predictor_cache_[cache_key];
    slot.predictor = fresh;
    slot.computed_at = now;
    slot.metadata_epoch = metadata_.epoch();
    out->Merge(fresh);
  }
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "replica_records", records);
  tracer_->EndSpan(span, now);
}

void SeaweedNode::GenerateViewFor(ActiveQuery& aq, const IdRange& range,
                                  db::AggregateResult* out) {
  if (range.Contains(id())) {
    // Our own (fresh) view value.
    auto own = data_->Execute(index(), aq.query.parsed);
    if (own.ok()) {
      out->Merge(*own);
    }
  }
  // Stored view values for every other owner in the range, up or down —
  // live owners in a terminal range would be leafset members handling their
  // own cells, so these are the unavailable ones.
  for (const auto* rec : metadata_.InRange(range, /*only_down=*/false)) {
    const NodeId& owner = rec->owner;
    if (owner == id()) continue;
    if (rec->down_since < 0 && pastry_->leafset().Contains(owner)) continue;
    Metadata meta = rec->Decoded();
    const db::AggregateResult* value = meta.FindView(aq.query.view_name);
    if (value != nullptr) {
      out->Merge(*value);
    }
  }
}

void SeaweedNode::FinishTaskIfDone(ActiveQuery& aq, RangeTask& task) {
  if (task.finished) return;
  for (const auto& [token, child] : task.children) {
    if (!child.done) return;
  }
  task.finished = true;
  ReportTask(aq, task);
}

void SeaweedNode::ReportTask(ActiveQuery& aq, RangeTask& task) {
  auto msg = std::make_shared<SeaweedMessage>();
  msg->query_id = aq.query.query_id;
  msg->range = task.range;
  msg->predictor = task.acc;
  msg->result = task.view_acc;  // non-empty only for view snapshots
  if (task.report_to_origin) {
    if (aq.query.IsViewSnapshot() && aq.is_origin && aq.observer.on_result) {
      // Origin is itself the tree root.
      if (aq.result_span != obs::kNoSpan) {
        tracer_->EndSpan(aq.result_span, sim()->Now());
        metrics_.result_latency_us->Record(static_cast<uint64_t>(
            sim()->Now() - aq.query.injected_at));
        aq.result_span = obs::kNoSpan;
      }
      if (aq.dissem_span != obs::kNoSpan) {
        tracer_->EndSpan(aq.dissem_span, sim()->Now());
        aq.dissem_span = obs::kNoSpan;
      }
      aq.observer.on_result(aq.query.query_id, task.view_acc);
      return;
    }
    msg->kind = aq.query.IsViewSnapshot()
                    ? SeaweedMessage::Kind::kResultDeliver
                    : SeaweedMessage::Kind::kPredictorDeliver;
    SendSeaweed(aq.query.origin, msg, TrafficCategory::kPredictor);
  } else {
    msg->kind = SeaweedMessage::Kind::kPredictorReport;
    SendSeaweed(task.parent, msg, TrafficCategory::kPredictor);
  }
  ChargeQueryTx(aq, msg->WireBytes());
}

void SeaweedNode::HandlePredictorReport(const SeaweedMessagePtr& msg) {
  auto it = active_.find(msg->query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  const std::string child_token = msg->range.Token();
  for (auto& [token, task] : aq.tasks) {
    auto c = task.children.find(child_token);
    if (c == task.children.end()) continue;
    // Even a late report (after give-up marked the child done) counts as
    // contact: it stops the slow re-dissemination refresh. The data is not
    // merged late — the task already reported upward — but the result
    // plane carries the actual rows regardless.
    c->second.reported = true;
    if (!c->second.done) {
      c->second.done = true;
      metrics_.predictor_merges->Add();
      obs::SpanId span = tracer_->StartSpan(
          "predictor_merge", obs::TraceKey(msg->query_id), sim()->Now());
      tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
      tracer_->EndSpan(span, sim()->Now());
      task.acc.Merge(msg->predictor);
      task.view_acc.Merge(*msg->result);
    }
    FinishTaskIfDone(aq, task);
    return;
  }
}

// ---------------------------------------------------------------------------
// Result aggregation
// ---------------------------------------------------------------------------

bool SeaweedNode::IsLikelyRootFor(const NodeId& key) const {
  return !pastry_->leafset().CloserMemberThanOwner(key).has_value();
}

NodeId SeaweedNode::LeafParentVertex(const Query& query) const {
  const int b = pastry_->config().b;
  const NodeId& qid = query.query_id;
  if (id() == qid) return qid;
  // Always the immediate parent: the tree shape must be a pure function of
  // (queryId, nodeId), never of the local ring view. Skipping vertices we
  // are currently primary for (the §3.4 shortcut) files this leaf under a
  // view-dependent vertexId — after a partition or restart a different view
  // picks a different vertex, and the old contribution still sitting in the
  // first vertex gets counted twice. The shortcut's saving is kept by
  // folding locally in SubmitLeafResult when we are primary for the parent.
  return VertexParent(qid, id(), b);
}

void SeaweedNode::SubmitLeafResult(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.query.sql.empty() || aq.query.ExpiredAt(sim()->Now())) return;

  NodeId vertex;
  auto persisted = persisted_leaf_vertex_.find(query_id);
  if (persisted != persisted_leaf_vertex_.end()) {
    vertex = persisted->second;
  } else {
    vertex = LeafParentVertex(aq.query);
    persisted_leaf_vertex_[query_id] = vertex;
  }
  aq.leaf.vertex_id = vertex;
  aq.leaf.tries = 0;  // fresh submit round, fresh retry budget
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kResultSubmit;
  msg->query_id = query_id;
  msg->vertex_id = vertex;
  msg->child_key = id();
  msg->version = aq.leaf.version;
  msg->result = aq.leaf.result;
  if (aq.leaf.result.has_sketch()) {
    metrics_.sketch_results->Add();
    metrics_.sketch_state_bytes->Add(aq.leaf.result.sketch_bytes());
  }
  if (IsLikelyRootFor(vertex)) {
    // We are (or believe we are) the vertex primary: fold locally. If the
    // view is wrong, HandleResultSubmit hands the submission over under the
    // same vertexId, so the tree shape is unaffected either way.
    HandleResultSubmit(pastry_->handle(), msg);
    aq.leaf.acked = true;
  } else {
    RouteSeaweed(vertex, msg, TrafficCategory::kResult);
    ChargeQueryTx(aq, msg->WireBytes());
    uint64_t gen = generation_;
    uint64_t version = aq.leaf.version;
    sim()->After(config_.result_ack_timeout, [this, gen, query_id, version] {
      if (gen != generation_) return;
      RetryLeafSubmit(query_id, version);
    });
  }
  // Periodic refresh keeps vertex replica groups populated across primary
  // churn for the lifetime of the query.
  uint64_t gen = generation_;
  SimDuration refresh = aq.query.continuous
                            ? aq.query.reexec_period
                            : config_.result_refresh_period;
  sim()->After(refresh, [this, gen, query_id] {
    if (gen != generation_) return;
    auto it2 = active_.find(query_id);
    if (it2 == active_.end() || it2->second.query.ExpiredAt(sim()->Now())) {
      return;
    }
    if (it2->second.query.continuous) {
      // Continuous mode: recompute the local result; the new version
      // replaces the old one in the vertex tree.
      ExecuteAndSubmit(query_id);
      return;
    }
    it2->second.leaf.acked = false;
    SubmitLeafResult(query_id);
  });
}

void SeaweedNode::RetryLeafSubmit(const NodeId& query_id, uint64_t version) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.leaf.acked || aq.leaf.version != version) return;
  if (aq.query.ExpiredAt(sim()->Now())) return;
  if (++aq.leaf.tries > config_.max_result_retries) {
    // Stop burning bandwidth into a black hole (partition, dead replica
    // group); the periodic refresh re-submits with a fresh budget.
    metrics_.leaf_giveups->Add();
    return;
  }
  metrics_.leaf_retries->Add();
  // Re-route; the primary may have changed.
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kResultSubmit;
  msg->query_id = query_id;
  msg->vertex_id = aq.leaf.vertex_id;
  msg->child_key = id();
  msg->version = aq.leaf.version;
  msg->result = aq.leaf.result;
  RouteSeaweed(aq.leaf.vertex_id, msg, TrafficCategory::kResult);
  ChargeQueryTx(aq, msg->WireBytes());
  uint64_t gen = generation_;
  SimDuration timeout = RetryBackoff(config_.result_ack_timeout,
                                     aq.leaf.tries + 1,
                                     config_.max_retry_backoff);
  sim()->After(timeout, [this, gen, query_id, version] {
    if (gen != generation_) return;
    RetryLeafSubmit(query_id, version);
  });
}

namespace {

template <typename Children>
auto ChildLowerBound(Children& children, const NodeId& key) {
  return std::lower_bound(
      children.begin(), children.end(), key,
      [](const auto& c, const NodeId& k) { return c.key < k; });
}

}  // namespace

const SeaweedNode::ChildEntry* SeaweedNode::VertexState::FindChild(
    const NodeId& key) const {
  auto it = ChildLowerBound(children, key);
  return it != children.end() && it->key == key ? &*it : nullptr;
}

bool SeaweedNode::VertexState::Offer(const NodeId& key, uint64_t version,
                                     const db::SharedResult& result) {
  auto it = ChildLowerBound(children, key);
  if (it == children.end() || it->key != key) {
    children.insert(it, {key, version, result});
    return true;
  }
  if (it->version >= version) return false;
  it->version = version;
  it->result = result;
  return true;
}

db::SharedResult SeaweedNode::MergedVertexResult(const VertexState& state) {
  // Merging into an empty result copies it, so one child's result is
  // already the merge: share it instead of copying it up the run.
  if (state.children.size() == 1) return state.children.front().result;
  db::AggregateResult merged;
  for (const ChildEntry& child : state.children) merged.Merge(*child.result);
  return merged;
}

std::vector<SeaweedMessage::ReplicaEntry> SeaweedNode::VertexEntries(
    const NodeId& query_id) const {
  std::vector<SeaweedMessage::ReplicaEntry> entries;
  auto it = active_.find(query_id);
  if (it == active_.end()) return entries;
  for (const auto& [vertex_id, state] : it->second.vertices) {
    for (const ChildEntry& c : state.children) {
      entries.push_back({vertex_id, c.key, c.version, c.result});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.vertex_id, a.child_key) <
           std::tie(b.vertex_id, b.child_key);
  });
  return entries;
}

SeaweedNode::ActiveQuery* SeaweedNode::ResultPlaneQuery(
    const NodeId& query_id) {
  if (cancelled_.count(query_id)) return nullptr;
  auto it = active_.find(query_id);
  if (it == active_.end()) {
    // Vertex-only participation: we may not have seen the query broadcast.
    ActiveQuery aq;
    aq.query.query_id = query_id;
    aq.query.injected_at = sim()->Now();
    it = active_.emplace(query_id, std::move(aq)).first;
  }
  return it->second.query.ExpiredAt(sim()->Now()) ? nullptr : &it->second;
}

void SeaweedNode::HandleResultSubmit(const NodeHandle& from,
                                     const SeaweedMessagePtr& msg) {
  // One submit can fold a whole run of local vertices (PropagateVertex
  // re-enters here for a local parent). Their replica entries leave as one
  // kVertexReplicate per backup when the outermost submit returns.
  ++fold_depth_;
  FoldResultSubmit(from, msg);
  if (--fold_depth_ == 0) FlushReplicaBatches();
}

void SeaweedNode::FoldResultSubmit(const NodeHandle& from,
                                   const SeaweedMessagePtr& msg) {
  const NodeId& vertex = msg->vertex_id;
  // If our view says someone else is closer to the vertexId, hand it over —
  // unless we already forwarded this exact submission moments ago. A repeat
  // within the window means ownership views disagree (leafsets mid-repair
  // after churn or a partition heal) and the submission is ping-ponging;
  // accept it here instead, and let replication + repropagation reconcile
  // ownership once views converge.
  if (!IsLikelyRootFor(vertex)) {
    auto closer = pastry_->leafset().CloserMemberThanOwner(vertex);
    if (closer.has_value()) {
      const auto key = std::make_tuple(msg->query_id, vertex, msg->child_key,
                                       msg->version);
      const SimTime now = sim()->Now();
      auto seen = recent_handovers_.find(key);
      if (seen == recent_handovers_.end() ||
          now - seen->second > config_.handover_loop_window) {
        recent_handovers_[key] = now;
        metrics_.vertex_handovers->Add();
        SendSeaweed(*closer, msg, TrafficCategory::kResult);
        return;
      }
      metrics_.handovers_suppressed->Add();
    }
  }
  ActiveQuery* aq = ResultPlaneQuery(msg->query_id);
  if (aq == nullptr) return;
  VertexState& state = aq->vertices[vertex];
  const bool updated =
      state.Offer(msg->child_key, msg->version, msg->result);
  if (updated) {
    metrics_.vertex_updates->Add();
  } else {
    // Stale or replayed version: the dedup that makes retries safe.
    metrics_.duplicates_suppressed->Add();
  }
  // Ack the submitter (exactly-once hinges on ack-after-replicate).
  if (from.id != id()) {
    auto ack = std::make_shared<SeaweedMessage>();
    ack->kind = SeaweedMessage::Kind::kResultAck;
    ack->query_id = msg->query_id;
    ack->vertex_id = vertex;
    ack->child_key = msg->child_key;
    ack->version = msg->version;
    SendSeaweed(from, ack, TrafficCategory::kResult);
  }
  // A duplicate at a vertex we never folded means we hold it as a backup
  // copy and have just become its primary: the old primary may have died
  // before sending it upward, so it propagates anyway.
  const bool took_over = !state.primary_folded;
  state.primary_folded = true;
  if (updated) {
    ReplicateVertex(msg->query_id, vertex, state, msg->child_key);
  } else if (!took_over) {
    return;
  }
  ScheduleVertexRepropagation(msg->query_id, vertex);
  ForwardVertex(msg->query_id, vertex, state);
}

void SeaweedNode::ForwardVertex(const NodeId& query_id,
                                const NodeId& vertex_id, VertexState& state) {
  // A parent we are primary for folds at once: the run of vertices next to
  // the queryId that one node owns costs one step, not one debounce each.
  if (vertex_id != query_id &&
      IsLikelyRootFor(VertexParent(query_id, vertex_id, pastry_->config().b))) {
    PropagateVertex(query_id, vertex_id);
    return;
  }
  // The result leaves the node (remote parent, or root -> origin): a
  // leading-edge throttle sends the first update at once and then at most
  // one per result_deliver_debounce, carrying whatever arrived meanwhile.
  if (state.send_scheduled) return;
  if (sim()->Now() >= state.next_send_at) {
    PropagateVertex(query_id, vertex_id);
    return;
  }
  state.send_scheduled = true;
  uint64_t gen = generation_;
  sim()->At(state.next_send_at, [this, gen, query_id, vertex_id] {
    if (gen != generation_) return;
    PropagateVertex(query_id, vertex_id);
  });
}

bool SeaweedNode::LocalParentHoldsCurrent(const ActiveQuery& aq,
                                          const NodeId& vertex_id,
                                          const VertexState& state) const {
  const NodeId& query_id = aq.query.query_id;
  if (vertex_id == query_id) return false;
  NodeId parent = VertexParent(query_id, vertex_id, pastry_->config().b);
  if (!IsLikelyRootFor(parent)) return false;
  auto pit = aq.vertices.find(parent);
  // A parent we folded as its primary refreshes itself, carrying the run
  // upward. A parent held only as a backup copy (we took over after
  // failover) needs a fresh version from us to start propagating.
  if (pit == aq.vertices.end() || !pit->second.primary_folded) {
    return false;
  }
  const ChildEntry* child = pit->second.FindChild(vertex_id);
  return child != nullptr && child->version == state.version;
}

void SeaweedNode::FlushReplicaBatches() {
  std::vector<BackupBatch> batches;
  batches.swap(replica_batches_);
  for (const BackupBatch& b : batches) {
    for (const SeaweedMessagePtr& msg : b.batch.messages()) {
      metrics_.vertex_replicate_msgs->Add();
      SendSeaweed(b.backup, msg, TrafficCategory::kResult);
    }
  }
}

void SeaweedNode::ReplicateVertex(const NodeId& query_id,
                                  const NodeId& vertex_id, VertexState& state,
                                  const NodeId& changed_child) {
  const ChildEntry* child = state.FindChild(changed_child);
  if (child == nullptr) return;
  // Replicas: the m leafset members closest to the vertexId. A backup that
  // has the baseline receives only the changed child entry (delta
  // replication — full-state would cost O(fan-in) per update and the root
  // vertex's fan-in grows with N); a backup seen for the first time gets
  // the full state, otherwise it would reconstruct a partial subtree after
  // primary failover.
  std::vector<NodeHandle> members = pastry_->leafset().All();
  std::sort(members.begin(), members.end(),
            [&vertex_id](const NodeHandle& a, const NodeHandle& b) {
              return a.id.RingDistanceTo(vertex_id) <
                     b.id.RingDistanceTo(vertex_id);
            });
  int m = std::min<int>(config_.vertex_backups,
                        static_cast<int>(members.size()));

  for (int i = 0; i < m; ++i) {
    const NodeHandle& backup = members[static_cast<size_t>(i)];
    // Entries join the backup's batch for the fold in progress.
    auto batch = std::find_if(
        replica_batches_.begin(), replica_batches_.end(),
        [&](const BackupBatch& b) {
          return b.backup.id == backup.id && b.batch.query_id() == query_id;
        });
    if (batch == replica_batches_.end()) {
      batch = replica_batches_.insert(replica_batches_.end(),
                                      {backup, ReplicaBatch(query_id)});
    }
    if (state.synced_backups.empty()) {
      state.synced_backups.reserve(static_cast<size_t>(m));
    }
    auto synced = std::lower_bound(state.synced_backups.begin(),
                                   state.synced_backups.end(), backup.id);
    if (synced != state.synced_backups.end() && *synced == backup.id) {
      batch->batch.Add({vertex_id, changed_child, child->version,
                        child->result});
      continue;
    }
    for (const ChildEntry& c : state.children) {
      batch->batch.Add({vertex_id, c.key, c.version, c.result});
    }
    state.synced_backups.insert(synced, backup.id);
  }
}

void SeaweedNode::ScheduleVertexRepropagation(const NodeId& query_id,
                                              const NodeId& vertex_id) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  VertexState& state = it->second.vertices[vertex_id];
  if (state.repropagate_scheduled) return;
  state.repropagate_scheduled = true;
  uint64_t gen = generation_;
  sim()->After(config_.result_refresh_period, [this, gen, query_id,
                                               vertex_id] {
    if (gen != generation_) return;
    auto it2 = active_.find(query_id);
    if (it2 == active_.end() || it2->second.query.ExpiredAt(sim()->Now())) {
      return;
    }
    auto vit = it2->second.vertices.find(vertex_id);
    if (vit == it2->second.vertices.end()) return;
    vit->second.repropagate_scheduled = false;
    // Only the current primary speaks for the vertex. A local parent that
    // already holds our current version needs nothing: re-sending would
    // bump every vertex above us in the run, once per vertex timer.
    if (IsLikelyRootFor(vertex_id) &&
        !LocalParentHoldsCurrent(it2->second, vertex_id, vit->second)) {
      metrics_.vertex_repropagations->Add();
      PropagateVertex(query_id, vertex_id);
    }
    ScheduleVertexRepropagation(query_id, vertex_id);
  });
}

void SeaweedNode::PropagateVertex(const NodeId& query_id,
                                  const NodeId& vertex_id) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.query.ExpiredAt(sim()->Now())) return;
  ActiveQuery& aq = it->second;
  auto vit = aq.vertices.find(vertex_id);
  if (vit == aq.vertices.end()) return;
  VertexState& state = vit->second;
  state.send_scheduled = false;
  const db::SharedResult merged = MergedVertexResult(state);
  if (merged.has_sketch()) {
    metrics_.sketch_merges->Add();
    metrics_.sketch_state_bytes->Add(merged.sketch_bytes());
  }
  obs::SpanId span = tracer_->StartSpan(
      "aggregation_round", obs::TraceKey(query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "vertex_children",
                   static_cast<int64_t>(state.children.size()));
  tracer_->AddAttr(span, "root", vertex_id == query_id ? 1 : 0);
  tracer_->EndSpan(span, sim()->Now());

  if (vertex_id == query_id) {
    // Root vertex: deliver the incremental result to the query origin.
    state.next_send_at = sim()->Now() + config_.result_deliver_debounce;
    if (aq.is_origin && aq.observer.on_result) {
      if (aq.result_span != obs::kNoSpan) {
        tracer_->EndSpan(aq.result_span, sim()->Now());
        metrics_.result_latency_us->Record(static_cast<uint64_t>(
            sim()->Now() - aq.query.injected_at));
        aq.result_span = obs::kNoSpan;
      }
      aq.observer.on_result(query_id, *merged);
      return;
    }
    if (aq.query.origin.id != NodeId()) {
      auto msg = std::make_shared<SeaweedMessage>();
      msg->kind = SeaweedMessage::Kind::kResultDeliver;
      msg->query_id = query_id;
      msg->vertex_id = vertex_id;
      msg->result = merged;
      SendSeaweed(aq.query.origin, msg, TrafficCategory::kResult);
      ChargeQueryTx(aq, msg->WireBytes());
    }
    return;
  }

  const int b = pastry_->config().b;
  metrics_.vertex_fn_invocations->Add();
  // Always the immediate parent — see LeafParentVertex for why the tree
  // shape must not depend on the local ring view. When we are primary for
  // the parent too, the fold below stays local, which is exactly the
  // traffic the old id-skipping shortcut saved.
  NodeId parent = VertexParent(query_id, vertex_id, b);
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kResultSubmit;
  msg->query_id = query_id;
  msg->vertex_id = parent;
  msg->child_key = vertex_id;
  // Versions are seeded from the clock: a node that takes the vertex over
  // after failover must outrank every version the old primary sent, or the
  // parent would drop its submissions as stale.
  state.version =
      std::max(state.version + 1, static_cast<uint64_t>(sim()->Now()));
  msg->version = state.version;
  msg->result = merged;
  if (IsLikelyRootFor(parent)) {
    state.pending_version = 0;
    state.submit_tries = 0;
    HandleResultSubmit(pastry_->handle(), msg);
  } else {
    // Track the submit until the parent acks it; retries re-propagate with
    // a fresh version, so dedup at the parent keeps them exactly-once.
    ++state.submit_tries;
    state.pending_version = msg->version;
    state.next_send_at = sim()->Now() + config_.result_deliver_debounce;
    RouteSeaweed(parent, msg, TrafficCategory::kResult);
    ChargeQueryTx(aq, msg->WireBytes());
    ArmVertexAckTimeout(query_id, vertex_id, msg->version,
                        state.submit_tries);
  }
}

void SeaweedNode::ArmVertexAckTimeout(const NodeId& query_id,
                                      const NodeId& vertex_id,
                                      uint64_t version, int tries) {
  uint64_t gen = generation_;
  SimDuration timeout = RetryBackoff(config_.result_ack_timeout, tries,
                                     config_.max_retry_backoff);
  sim()->After(timeout, [this, gen, query_id, vertex_id, version] {
    if (gen != generation_) return;
    auto it = active_.find(query_id);
    if (it == active_.end()) return;
    auto vit = it->second.vertices.find(vertex_id);
    if (vit == it->second.vertices.end()) return;
    VertexState& state = vit->second;
    if (state.pending_version != version) return;  // acked or superseded
    if (it->second.query.ExpiredAt(sim()->Now())) return;
    if (state.submit_tries > config_.max_result_retries) {
      metrics_.vertex_giveups->Add();
      state.pending_version = 0;
      state.submit_tries = 0;  // fresh budget for the periodic repropagation
      return;
    }
    metrics_.vertex_retries->Add();
    PropagateVertex(query_id, vertex_id);  // bumps version and re-arms
  });
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void SeaweedNode::OnAppMessage(const NodeHandle& from, bool routed,
                               const NodeId& key, WireMessagePtr payload) {
  (void)routed;
  (void)key;
  auto msg = WireMessageCast<SeaweedMessage>(payload);
  switch (msg->kind) {
    case SeaweedMessage::Kind::kMetadataPush: {
      metadata_.SetNow(sim()->Now());
      metadata_.Upsert(msg->metadata);
      if (msg->metadata.owner != from.id &&
          !pastry_->leafset().Contains(msg->metadata.owner)) {
        // Anti-entropy record for an owner we cannot see: leave its
        // down-state to be set by failure detection or assumed from
        // acquisition time.
        metadata_.MarkDown(msg->metadata.owner, sim()->Now());
      }
      // Soft cap: while the ring is churning, pushes from stale sender
      // views pile up faster than neighbor-add sweeps run. Once the store
      // exceeds a few replica sets' worth, sweep live-owner records so it
      // stays O(k) instead of O(churn).
      if (static_cast<int>(metadata_.size()) >
          4 * config_.metadata_replicas) {
        EvictLiveOwnerRecords();
      }
      break;
    }
    case SeaweedMessage::Kind::kBroadcast:
      HandleBroadcast(from, msg);
      break;
    case SeaweedMessage::Kind::kBroadcastBatch:
      HandleBroadcastBatch(from, msg);
      break;
    case SeaweedMessage::Kind::kPredictorReport:
      HandlePredictorReport(msg);
      break;
    case SeaweedMessage::Kind::kPredictorDeliver: {
      auto it = active_.find(msg->query_id);
      if (it != active_.end() && it->second.is_origin) {
        ActiveQuery& origin_aq = it->second;
        if (origin_aq.dissem_span != obs::kNoSpan) {
          tracer_->EndSpan(origin_aq.dissem_span, sim()->Now());
          metrics_.predictor_latency_us->Record(static_cast<uint64_t>(
              sim()->Now() - origin_aq.query.injected_at));
          origin_aq.dissem_span = obs::kNoSpan;
        }
        if (origin_aq.observer.on_predictor) {
          origin_aq.observer.on_predictor(msg->query_id, msg->predictor);
        }
      }
      break;
    }
    case SeaweedMessage::Kind::kResultSubmit:
      HandleResultSubmit(from, msg);
      break;
    case SeaweedMessage::Kind::kResultAck: {
      auto it = active_.find(msg->query_id);
      if (it == active_.end()) break;
      if (msg->child_key == id()) {
        if (it->second.leaf.version == msg->version) {
          it->second.leaf.acked = true;
          it->second.leaf.tries = 0;
        }
      } else if (auto vit = it->second.vertices.find(msg->child_key);
                 vit != it->second.vertices.end() &&
                 vit->second.pending_version == msg->version) {
        // Interior submit acked: stop the retry chain.
        vit->second.pending_version = 0;
        vit->second.submit_tries = 0;
      }
      break;
    }
    case SeaweedMessage::Kind::kVertexReplicate: {
      ActiveQuery* aq = ResultPlaneQuery(msg->query_id);
      if (aq == nullptr) break;
      for (const auto& entry : msg->replicas) {
        aq->vertices[entry.vertex_id].Offer(entry.child_key, entry.version,
                                            entry.result);
      }
      break;
    }
    case SeaweedMessage::Kind::kResultDeliver: {
      auto it = active_.find(msg->query_id);
      if (it != active_.end() && it->second.is_origin) {
        ActiveQuery& origin_aq = it->second;
        if (origin_aq.result_span != obs::kNoSpan) {
          tracer_->EndSpan(origin_aq.result_span, sim()->Now());
          metrics_.result_latency_us->Record(static_cast<uint64_t>(
              sim()->Now() - origin_aq.query.injected_at));
          origin_aq.result_span = obs::kNoSpan;
        }
        if (origin_aq.observer.on_result) {
          origin_aq.observer.on_result(msg->query_id, *msg->result);
        }
      }
      break;
    }
    case SeaweedMessage::Kind::kQueryListRequest:
      HandleQueryListRequest(from);
      break;
    case SeaweedMessage::Kind::kQueryList:
      HandleQueryList(msg);
      break;
    case SeaweedMessage::Kind::kQueryCancel:
      HandleQueryCancel(msg);
      break;
  }
}

}  // namespace seaweed
