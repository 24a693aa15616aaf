// Seaweed protocol messages, carried as application payloads over the
// Pastry overlay. Each message is a WireMessage: its encoder defines both
// the byte layout and (via WireBytes) the bandwidth-meter charge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "db/query_exec.h"
#include "overlay/packet.h"
#include "seaweed/completeness.h"
#include "seaweed/id_range.h"
#include "seaweed/metadata.h"
#include "seaweed/query.h"

namespace seaweed {

struct SeaweedMessage : WireMessage {
  static constexpr uint8_t kWireType = wire_type::kSeaweedMessage;

  enum class Kind : uint8_t {
    kMetadataPush,      // owner (or anti-entropy peer) -> replica holder
    kBroadcast,         // query dissemination: handle this namespace range
    kPredictorReport,   // child -> parent in the distribution tree
    kPredictorDeliver,  // tree root -> query origin
    kResultSubmit,      // leaf/vertex -> parent vertex primary
    kResultAck,         // vertex primary -> submitter
    kVertexReplicate,   // vertex primary -> backups
    kResultDeliver,     // root vertex -> query origin
    kQueryListRequest,  // rejoining node -> neighbor
    kQueryList,         // neighbor -> rejoining node
    kQueryCancel,       // epidemic cancellation notice
    kBroadcastBatch,    // several kBroadcast descriptors, one shared hop
  };

  Kind kind = Kind::kQueryListRequest;

  // kMetadataPush
  Metadata metadata;
  // Meter charge for the summary part, when it differs from the encoded
  // size (paper-calibrated summaries, delta-encoded pushes). Travels on the
  // wire so the charge survives decode.
  uint32_t metadata_wire_bytes = 0;

  // Query-scoped fields.
  NodeId query_id;
  std::vector<Query> queries;  // kBroadcast (1), kQueryList (n)

  // kBroadcast / kPredictorReport
  IdRange range;
  overlay::NodeHandle parent;  // whom to report predictors to

  // kBroadcastBatch: dissemination descriptors for distinct queries that
  // share a next hop, coalesced into one message. `parent` is encoded once
  // (all entries report predictors to the same sender); each entry is
  // otherwise a complete kBroadcast and is acked/retried independently.
  struct BatchEntry {
    NodeId query_id;
    IdRange range;
    Query query;
  };
  std::vector<BatchEntry> batch;

  // kPredictorReport / kPredictorDeliver
  CompletenessPredictor predictor;

  // kResultSubmit / kResultAck / kResultDeliver
  NodeId vertex_id;
  NodeId child_key;
  uint64_t version = 0;
  db::SharedResult result;

  // kVertexReplicate: versioned child entries for a backup. One message
  // carries the entries of one fold — a run of vertices the sender is
  // primary for — so each entry names its vertex. On the wire, an entry
  // whose result is the previous entry's (a fan-in-1 vertex) carries a flag
  // instead of the result, within a bound on the decoded size; decoded
  // repeats share one result.
  struct ReplicaEntry {
    NodeId vertex_id;
    NodeId child_key;
    uint64_t version = 0;
    db::SharedResult result;
    bool operator==(const ReplicaEntry&) const = default;
  };
  std::vector<ReplicaEntry> replicas;

  // A fold's kVertexReplicate is split before its encoding would pass this
  // size: the socket transport's 8 MiB message cap, less room for the
  // overlay envelope the message travels in.
  static constexpr size_t kMaxReplicateBytes = (8 << 20) - 4096;

  // The encoded size of a kVertexReplicate as entries are appended, by the
  // encoder's own rule for which entries go as repeats.
  class ReplicaSizer {
   public:
    // Counts `result` as the next entry; true when it goes as a repeat.
    bool Add(const db::SharedResult& result);
    // Encoded bytes of the whole message (type tag included) so far.
    size_t bytes() const;

   private:
    db::SharedResult spelled_;  // the last result sent in full
    size_t entries_ = 0;
    size_t entry_bytes_ = 0;  // encoded entries
    size_t expanded_ = 0;     // result bytes the entries decode to
  };

  uint8_t wire_type() const override { return kWireType; }

  // Meter charge: the encoded size, with the calibrated summary charge (if
  // set) substituted for the summary's encoded size on metadata pushes.
  uint32_t WireBytes() const override;

  static Result<WireMessagePtr> Decode(Reader& r);

 protected:
  void EncodeBody(Writer& w) const override;

 private:
  mutable uint32_t charged_bytes_ = 0;  // 0 = not yet computed
};

using SeaweedMessagePtr = std::shared_ptr<SeaweedMessage>;

// The kVertexReplicate messages of one fold for one (query, backup). Entries
// keep their order; the next message starts before an entry would take the
// current one past SeaweedMessage::kMaxReplicateBytes.
class ReplicaBatch {
 public:
  explicit ReplicaBatch(const NodeId& query_id) : query_id_(query_id) {}

  void Add(SeaweedMessage::ReplicaEntry entry);
  const NodeId& query_id() const { return query_id_; }
  const std::vector<SeaweedMessagePtr>& messages() const { return messages_; }

 private:
  NodeId query_id_;
  std::vector<SeaweedMessagePtr> messages_;
  SeaweedMessage::ReplicaSizer sizer_;  // of messages_.back()
};

}  // namespace seaweed
