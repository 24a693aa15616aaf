#include "seaweed/wire.h"

#include <string>
#include <utility>

namespace seaweed {

namespace {

// kVertexReplicate entry flag: the result encodes to the same bytes as the
// previous entry's.
constexpr uint8_t kReplicaSameResult = 1;
// Result bytes one kVertexReplicate may expand to through repeats, counting
// each repeat at the size of the result it copies (the socket transport's
// message cap). Without it, a small crafted message could decode into ~10^5
// copies of one large result. The encoder spells results out past it.
constexpr size_t kMaxReplicaResultBytes = 8 << 20;
// Encoded bytes of a kVertexReplicate entry besides its result: flags,
// vertex id, child key and version (ids are two u64s on the wire).
constexpr size_t kIdBytes = 16;
constexpr size_t kReplicaEntryFixedBytes = 1 + 2 * kIdBytes + 8;

[[maybe_unused]] const bool kSeaweedMessageRegistered = [] {
  RegisterWireDecoder(SeaweedMessage::kWireType, &SeaweedMessage::Decode);
  return true;
}();

}  // namespace

void SeaweedMessage::EncodeBody(Writer& w) const {
  w.PutU8(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kMetadataPush:
      metadata.Encode(w);
      w.PutVarint(metadata_wire_bytes);
      break;
    case Kind::kBroadcast:
      w.PutNodeId(query_id);
      range.Encode(w);
      overlay::EncodeNodeHandle(w, parent);
      w.PutVarint(queries.size());
      for (const Query& q : queries) q.Encode(w);
      break;
    case Kind::kPredictorReport:
    case Kind::kPredictorDeliver: {
      w.PutNodeId(query_id);
      range.Encode(w);
      predictor.Encode(w);
      // View-snapshot runs carry an aggregate instead of (empty) predictor
      // mass; it rides along only when present.
      bool has_result = !result->states.empty() || !result->groups.empty();
      w.PutBool(has_result);
      if (has_result) result.Encode(w);
      break;
    }
    case Kind::kResultSubmit:
    case Kind::kResultDeliver:
      w.PutNodeId(query_id);
      w.PutNodeId(vertex_id);
      w.PutNodeId(child_key);
      w.PutU64(version);
      result.Encode(w);
      break;
    case Kind::kResultAck:
      w.PutNodeId(query_id);
      w.PutNodeId(vertex_id);
      w.PutNodeId(child_key);
      w.PutU64(version);
      break;
    case Kind::kVertexReplicate: {
      w.PutNodeId(query_id);
      w.PutVarint(replicas.size());
      ReplicaSizer sizer;
      for (const ReplicaEntry& e : replicas) {
        const bool same = sizer.Add(e.result);
        w.PutU8(same ? kReplicaSameResult : 0);
        w.PutNodeId(e.vertex_id);
        w.PutNodeId(e.child_key);
        w.PutU64(e.version);
        if (!same) e.result.Encode(w);
      }
      break;
    }
    case Kind::kQueryListRequest:
      break;
    case Kind::kQueryList:
      w.PutVarint(queries.size());
      for (const Query& q : queries) q.Encode(w);
      break;
    case Kind::kQueryCancel:
      w.PutNodeId(query_id);
      break;
    case Kind::kBroadcastBatch:
      overlay::EncodeNodeHandle(w, parent);
      w.PutVarint(batch.size());
      for (const BatchEntry& e : batch) {
        w.PutNodeId(e.query_id);
        e.range.Encode(w);
        e.query.Encode(w);
      }
      break;
  }
}

Result<WireMessagePtr> SeaweedMessage::Decode(Reader& r) {
  auto msg = std::make_shared<SeaweedMessage>();
  SEAWEED_ASSIGN_OR_RETURN(uint8_t kind_raw, r.GetU8());
  if (kind_raw > static_cast<uint8_t>(Kind::kBroadcastBatch)) {
    return Status::ParseError("bad seaweed message kind " +
                              std::to_string(kind_raw));
  }
  msg->kind = static_cast<Kind>(kind_raw);
  switch (msg->kind) {
    case Kind::kMetadataPush: {
      SEAWEED_ASSIGN_OR_RETURN(msg->metadata, Metadata::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(uint64_t mwb, r.GetVarint());
      if (mwb > UINT32_MAX) {
        return Status::ParseError("metadata wire bytes overflow uint32");
      }
      msg->metadata_wire_bytes = static_cast<uint32_t>(mwb);
      break;
    }
    case Kind::kBroadcast: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->range, IdRange::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(msg->parent, overlay::DecodeNodeHandle(r));
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining()) {
        return Status::ParseError("broadcast query count exceeds buffer");
      }
      // The handler activates queries[0] under query_id.
      if (n == 0) return Status::ParseError("broadcast carries no query");
      msg->queries.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        SEAWEED_ASSIGN_OR_RETURN(Query q, Query::Decode(r));
        msg->queries.push_back(std::move(q));
      }
      if (msg->queries[0].query_id != msg->query_id) {
        return Status::ParseError("broadcast query id mismatch");
      }
      break;
    }
    case Kind::kPredictorReport:
    case Kind::kPredictorDeliver: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->range, IdRange::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(msg->predictor,
                               CompletenessPredictor::Decode(r));
      SEAWEED_ASSIGN_OR_RETURN(bool has_result, r.GetBool());
      if (has_result) {
        SEAWEED_ASSIGN_OR_RETURN(msg->result, db::SharedResult::Decode(r));
      }
      break;
    }
    case Kind::kResultSubmit:
    case Kind::kResultDeliver: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->vertex_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->child_key, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->version, r.GetU64());
      SEAWEED_ASSIGN_OR_RETURN(msg->result, db::SharedResult::Decode(r));
      break;
    }
    case Kind::kResultAck: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->vertex_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->child_key, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(msg->version, r.GetU64());
      break;
    }
    case Kind::kVertexReplicate: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining() / kReplicaEntryFixedBytes) {
        return Status::ParseError("replica entry count exceeds buffer");
      }
      msg->replicas.reserve(static_cast<size_t>(n));
      size_t expanded = 0;  // result bytes the entries decode to
      for (uint64_t i = 0; i < n; ++i) {
        SEAWEED_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
        if ((flags & ~kReplicaSameResult) != 0) {
          return Status::ParseError("unknown replica entry flags");
        }
        const bool same = flags == kReplicaSameResult;
        if (same && i == 0) {
          return Status::ParseError("first replica entry repeats a result");
        }
        if (same && expanded + msg->replicas.back().result.encoded_bytes() >
                        kMaxReplicaResultBytes) {
          return Status::ParseError("replica repeats expand past the limit");
        }
        ReplicaEntry e;
        SEAWEED_ASSIGN_OR_RETURN(e.vertex_id, r.GetNodeId());
        SEAWEED_ASSIGN_OR_RETURN(e.child_key, r.GetNodeId());
        SEAWEED_ASSIGN_OR_RETURN(e.version, r.GetU64());
        if (same) {
          e.result = msg->replicas.back().result;  // shared, not copied
        } else {
          SEAWEED_ASSIGN_OR_RETURN(e.result, db::SharedResult::Decode(r));
        }
        expanded += e.result.encoded_bytes();
        msg->replicas.push_back(std::move(e));
      }
      break;
    }
    case Kind::kQueryListRequest:
      break;
    case Kind::kQueryList: {
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      if (n > r.remaining()) {
        return Status::ParseError("query list count exceeds buffer");
      }
      msg->queries.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        SEAWEED_ASSIGN_OR_RETURN(Query q, Query::Decode(r));
        msg->queries.push_back(std::move(q));
      }
      break;
    }
    case Kind::kQueryCancel: {
      SEAWEED_ASSIGN_OR_RETURN(msg->query_id, r.GetNodeId());
      break;
    }
    case Kind::kBroadcastBatch: {
      SEAWEED_ASSIGN_OR_RETURN(msg->parent, overlay::DecodeNodeHandle(r));
      SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      // Entries are ≥20 wire bytes each (query id + range + query).
      if (n > r.remaining() / 20) {
        return Status::ParseError("broadcast batch count exceeds buffer");
      }
      msg->batch.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        BatchEntry e;
        SEAWEED_ASSIGN_OR_RETURN(e.query_id, r.GetNodeId());
        SEAWEED_ASSIGN_OR_RETURN(e.range, IdRange::Decode(r));
        SEAWEED_ASSIGN_OR_RETURN(e.query, Query::Decode(r));
        if (e.query.query_id != e.query_id) {
          return Status::ParseError("broadcast batch query id mismatch");
        }
        msg->batch.push_back(std::move(e));
      }
      break;
    }
  }
  return WireMessagePtr(std::move(msg));
}

bool SeaweedMessage::ReplicaSizer::Add(const db::SharedResult& result) {
  // Repeats need Identical, not operator== (which equates 3 with 3.0 and
  // -0.0 with 0.0), so decoding is exact.
  const bool same =
      entries_ > 0 &&
      expanded_ + spelled_.encoded_bytes() <= kMaxReplicaResultBytes &&
      result.Identical(spelled_);
  if (!same) {
    spelled_ = result;
    entry_bytes_ += result.encoded_bytes();
  }
  ++entries_;
  entry_bytes_ += kReplicaEntryFixedBytes;
  expanded_ += spelled_.encoded_bytes();
  return same;
}

size_t SeaweedMessage::ReplicaSizer::bytes() const {
  // Type tag, kind, query id and the entry count's varint.
  size_t count_bytes = 1;
  for (size_t n = entries_; n >= 0x80; n >>= 7) ++count_bytes;
  return 2 + kIdBytes + count_bytes + entry_bytes_;
}

void ReplicaBatch::Add(SeaweedMessage::ReplicaEntry entry) {
  SeaweedMessage::ReplicaSizer next = sizer_;
  next.Add(entry.result);
  if (messages_.empty() || next.bytes() > SeaweedMessage::kMaxReplicateBytes) {
    auto msg = std::make_shared<SeaweedMessage>();
    msg->kind = SeaweedMessage::Kind::kVertexReplicate;
    msg->query_id = query_id_;
    messages_.push_back(std::move(msg));
    next = {};
    next.Add(entry.result);
  }
  sizer_ = std::move(next);
  messages_.back()->replicas.push_back(std::move(entry));
}

uint32_t SeaweedMessage::WireBytes() const {
  if (charged_bytes_ == 0) {
    uint32_t n = EncodedBytes();
    if (kind == Kind::kMetadataPush && metadata_wire_bytes != 0) {
      // Charge the calibrated / delta-encoded summary size instead of the
      // encoded one; the summary is encoded inside `n`, so no underflow.
      n = n - static_cast<uint32_t>(metadata.summary.EncodedBytes()) +
          metadata_wire_bytes;
    }
    charged_bytes_ = n;
  }
  return charged_bytes_;
}

}  // namespace seaweed
