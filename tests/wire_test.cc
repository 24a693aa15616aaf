// Wire codec tests: every message kind must round-trip losslessly through
// Encode/Decode, reject corrupt or truncated input with a Status (never a
// crash), and report meter charges derived from the encoder. The golden
// size table pins the byte layout — a change there is a wire-format break.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/wire.h"
#include "overlay/packet.h"
#include "seaweed/wire.h"

namespace seaweed {
namespace {

using overlay::NodeHandle;
using overlay::Packet;

std::vector<uint8_t> EncodeToBytes(const WireMessage& msg) {
  Writer w;
  msg.Encode(w);
  return w.bytes();
}

// Decodes `bytes` expecting success and full consumption.
WireMessagePtr DecodeAll(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  auto decoded = DecodeWireMessage(r);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return nullptr;
  EXPECT_TRUE(r.AtEnd()) << r.remaining() << " trailing bytes";
  return std::move(decoded).value();
}

// encode -> decode -> encode must be the identity on bytes.
void ExpectFixpoint(const WireMessage& msg) {
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  WireMessagePtr copy = DecodeAll(bytes);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
  EXPECT_EQ(copy->WireBytes(), msg.WireBytes());
}

// Every strict prefix of a valid encoding must fail to decode with a Status
// (exercised under ASan/UBSan via scripts/check.sh).
void ExpectTruncationSafe(const WireMessage& msg) {
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Reader r(bytes.data(), len);
    auto decoded = DecodeWireMessage(r);
    EXPECT_FALSE(decoded.ok()) << "decode succeeded at prefix " << len << "/"
                               << bytes.size();
  }
}

Query TestQuery(const std::string& sql = "SELECT COUNT(*) FROM Flow") {
  auto q = Query::Create(sql, 3 * kHour, NodeHandle{NodeId(7, 7), 3});
  EXPECT_TRUE(q.ok());
  return std::move(q).value();
}

db::AggregateResult TestResult() {
  db::AggregateResult r;
  r.states.resize(2);
  r.states[0].sum = 12.5;
  r.states[0].count = 4;
  r.GroupStates(db::Value(int64_t{80}), 1)[0].count = 9;
  r.rows_matched = 13;
  r.endsystems = 2;
  return r;
}

Metadata TestMetadata() {
  Metadata m;
  m.owner = NodeId(3, 4);
  m.version = 17;
  db::TableSummary t;
  t.table_name = "Flow";
  t.total_rows = 1000;
  m.summary.tables.push_back(t);
  m.availability.RecordDownPeriod(kHour, 5 * kHour);
  m.views.emplace_back("v_flows", TestResult());
  return m;
}

// --- Golden wire sizes -----------------------------------------------------
//
// Encoded size of each message kind with default-constructed content. These
// pin the wire layout: an unintentional diff here is a format break; an
// intentional one must update DESIGN.md §5c.

TEST(GoldenWireSizeTest, PaddingMessage) {
  PaddingMessage p(100);
  EXPECT_EQ(p.EncodedBytes(), 2u);   // tag + 1-byte varint
  EXPECT_EQ(p.WireBytes(), 100u);    // declared charge, not encoded size
}

TEST(GoldenWireSizeTest, PacketDefault) {
  Packet pkt;
  EXPECT_EQ(pkt.EncodedBytes(), 45u);
}

TEST(GoldenWireSizeTest, PacketPerEntry) {
  Packet pkt;
  pkt.entries.resize(8);
  EXPECT_EQ(pkt.EncodedBytes(), 45u + 8 * overlay::kNodeHandleBytes);
}

TEST(GoldenWireSizeTest, SeaweedMessageDefaults) {
  struct GoldenRow {
    SeaweedMessage::Kind kind;
    uint32_t encoded_bytes;
  };
  const GoldenRow kGolden[] = {
      {SeaweedMessage::Kind::kMetadataPush, 74},
      {SeaweedMessage::Kind::kBroadcast, 72},
      {SeaweedMessage::Kind::kPredictorReport, 381},
      {SeaweedMessage::Kind::kPredictorDeliver, 381},
      {SeaweedMessage::Kind::kResultSubmit, 76},
      {SeaweedMessage::Kind::kResultAck, 58},
      {SeaweedMessage::Kind::kVertexReplicate, 19},
      {SeaweedMessage::Kind::kResultDeliver, 76},
      {SeaweedMessage::Kind::kQueryListRequest, 2},
      {SeaweedMessage::Kind::kQueryList, 3},
      {SeaweedMessage::Kind::kQueryCancel, 18},
      {SeaweedMessage::Kind::kBroadcastBatch, 23},
  };
  for (const auto& row : kGolden) {
    SeaweedMessage msg;
    msg.kind = row.kind;
    EXPECT_EQ(msg.EncodedBytes(), row.encoded_bytes)
        << "kind " << static_cast<int>(row.kind);
  }
}

// --- Packet round trips ----------------------------------------------------

TEST(PacketCodecTest, ControlKindsRoundTrip) {
  for (auto kind :
       {Packet::Kind::kJoinRequest, Packet::Kind::kJoinRow,
        Packet::Kind::kJoinLeafset, Packet::Kind::kNodeAnnounce,
        Packet::Kind::kLeafsetRequest, Packet::Kind::kLeafsetReply,
        Packet::Kind::kProbe, Packet::Kind::kProbeReply,
        Packet::Kind::kHeartbeat}) {
    Packet pkt;
    pkt.kind = kind;
    pkt.src = NodeHandle{NodeId(1, 2), 5};
    pkt.key = NodeId(3, 4);
    pkt.row = 2;
    pkt.hops = 7;
    pkt.entries.push_back(NodeHandle{NodeId(9, 9), 1});
    pkt.entries.push_back(NodeHandle{NodeId(8, 8), 2});

    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    auto copy = WireMessageCast<Packet>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->kind, kind);
    EXPECT_EQ(copy->src, pkt.src);
    EXPECT_EQ(copy->key, pkt.key);
    EXPECT_EQ(copy->row, pkt.row);
    EXPECT_EQ(copy->hops, pkt.hops);
    EXPECT_EQ(copy->entries, pkt.entries);
    EXPECT_EQ(copy->app_payload, nullptr);
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

TEST(PacketCodecTest, AppPacketWithNestedPayloadRoundTrips) {
  auto inner = std::make_shared<SeaweedMessage>();
  inner->kind = SeaweedMessage::Kind::kQueryCancel;
  inner->query_id = NodeId(5, 6);

  Packet pkt;
  pkt.kind = Packet::Kind::kApp;
  pkt.src = NodeHandle{NodeId(1, 1), 2};
  pkt.key = NodeId(2, 2);
  pkt.app_payload = inner;
  pkt.app_routed = true;
  pkt.category = TrafficCategory::kDissemination;

  std::vector<uint8_t> bytes = EncodeToBytes(pkt);
  auto copy = WireMessageCast<Packet>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_TRUE(copy->app_routed);
  EXPECT_EQ(copy->category, TrafficCategory::kDissemination);
  ASSERT_NE(copy->app_payload, nullptr);
  auto inner_copy = WireMessageCast<SeaweedMessage>(copy->app_payload);
  EXPECT_EQ(inner_copy->kind, SeaweedMessage::Kind::kQueryCancel);
  EXPECT_EQ(inner_copy->query_id, inner->query_id);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(PacketCodecTest, WireBytesSubstitutesPayloadCharge) {
  Packet bare;
  uint32_t base = bare.EncodedBytes();

  // A padding payload encodes tiny but charges 1000: the packet charge must
  // reflect the declared payload size, framed inside the packet bytes.
  Packet pkt;
  pkt.app_payload = std::make_shared<PaddingMessage>(1000);
  EXPECT_EQ(pkt.WireBytes(), base - 1 /*empty payload tag*/ + 1000);
}

// --- SeaweedMessage round trips --------------------------------------------

TEST(SeaweedCodecTest, MetadataPushRoundTrips) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kMetadataPush;
  msg.metadata = TestMetadata();
  msg.metadata_wire_bytes = 6473;

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->metadata.owner, msg.metadata.owner);
  EXPECT_EQ(copy->metadata.version, msg.metadata.version);
  EXPECT_EQ(copy->metadata.availability, msg.metadata.availability);
  ASSERT_EQ(copy->metadata.views.size(), 1u);
  EXPECT_EQ(copy->metadata.views[0].first, "v_flows");
  EXPECT_EQ(copy->metadata.views[0].second, msg.metadata.views[0].second);
  EXPECT_EQ(copy->metadata_wire_bytes, 6473u);
  // The calibrated charge survives the round trip.
  EXPECT_EQ(copy->WireBytes(), msg.WireBytes());
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, MetadataPushChargesCalibratedSummarySize) {
  SeaweedMessage plain;
  plain.kind = SeaweedMessage::Kind::kMetadataPush;
  plain.metadata = TestMetadata();
  uint32_t encoded = plain.EncodedBytes();
  uint32_t summary_encoded =
      static_cast<uint32_t>(plain.metadata.summary.EncodedBytes());

  SeaweedMessage calibrated;
  calibrated.kind = SeaweedMessage::Kind::kMetadataPush;
  calibrated.metadata = TestMetadata();
  calibrated.metadata_wire_bytes = 6473;
  // varint(6473) is 2 bytes; varint(0) is 1 — encoded sizes differ by 1.
  EXPECT_EQ(calibrated.WireBytes(),
            encoded + 1 - summary_encoded + 6473);
}

TEST(SeaweedCodecTest, BroadcastRoundTripsQueries) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kBroadcast;
  msg.range = IdRange{NodeId(1, 0), NodeId(2, 0), false};
  msg.parent = NodeHandle{NodeId(4, 4), 9};
  msg.queries.push_back(TestQuery());
  msg.query_id = msg.queries[0].query_id;

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->query_id, msg.query_id);
  EXPECT_EQ(copy->range, msg.range);
  EXPECT_EQ(copy->parent, msg.parent);
  ASSERT_EQ(copy->queries.size(), 1u);
  const Query& q = copy->queries[0];
  EXPECT_EQ(q.sql, msg.queries[0].sql);
  EXPECT_EQ(q.query_id, msg.queries[0].query_id);
  EXPECT_EQ(q.injected_at, msg.queries[0].injected_at);
  EXPECT_EQ(q.ttl, msg.queries[0].ttl);
  EXPECT_EQ(q.origin, msg.queries[0].origin);
  // Decode re-parses the SQL: the plan must be usable again.
  EXPECT_TRUE(q.parsed.IsAggregateOnly());
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, ContinuousAndViewQueriesRoundTrip) {
  Query cont = TestQuery();
  cont.continuous = true;
  cont.reexec_period = 5 * kMinute;

  Query view;  // view snapshots travel without SQL
  view.query_id = NodeId(42, 42);
  view.origin = NodeHandle{NodeId(1, 2), 3};
  view.view_name = "v_flows";

  for (const Query* q : {&cont, &view}) {
    SeaweedMessage msg;
    msg.kind = SeaweedMessage::Kind::kBroadcast;
    msg.query_id = q->query_id;
    msg.queries.push_back(*q);
    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    ASSERT_EQ(copy->queries.size(), 1u);
    EXPECT_EQ(copy->queries[0].continuous, q->continuous);
    EXPECT_EQ(copy->queries[0].reexec_period, q->reexec_period);
    EXPECT_EQ(copy->queries[0].view_name, q->view_name);
    EXPECT_EQ(copy->queries[0].IsViewSnapshot(), q->IsViewSnapshot());
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

TEST(SeaweedCodecTest, PredictorKindsRoundTrip) {
  for (auto kind : {SeaweedMessage::Kind::kPredictorReport,
                    SeaweedMessage::Kind::kPredictorDeliver}) {
    SeaweedMessage msg;
    msg.kind = kind;
    msg.query_id = NodeId(1, 2);
    msg.range = IdRange::Full(NodeId(1, 2));
    msg.predictor.AddRowsAt(10 * kMinute, 42.5);

    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->predictor, msg.predictor);
    EXPECT_EQ(copy->range, msg.range);
    EXPECT_EQ(EncodeToBytes(*copy), bytes);

    // View-snapshot variant: an aggregate rides along.
    SeaweedMessage with_result;
    with_result.kind = kind;
    with_result.query_id = NodeId(1, 2);
    with_result.result = TestResult();
    std::vector<uint8_t> bytes2 = EncodeToBytes(with_result);
    auto copy2 = WireMessageCast<SeaweedMessage>(DecodeAll(bytes2));
    ASSERT_NE(copy2, nullptr);
    EXPECT_EQ(copy2->result, with_result.result);
    EXPECT_EQ(EncodeToBytes(*copy2), bytes2);
  }
}

TEST(SeaweedCodecTest, ResultPlaneKindsRoundTrip) {
  for (auto kind : {SeaweedMessage::Kind::kResultSubmit,
                    SeaweedMessage::Kind::kResultAck,
                    SeaweedMessage::Kind::kResultDeliver}) {
    SeaweedMessage msg;
    msg.kind = kind;
    msg.query_id = NodeId(1, 1);
    msg.vertex_id = NodeId(2, 2);
    msg.child_key = NodeId(3, 3);
    msg.version = 12;
    msg.result = TestResult();

    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->query_id, msg.query_id);
    EXPECT_EQ(copy->vertex_id, msg.vertex_id);
    EXPECT_EQ(copy->child_key, msg.child_key);
    EXPECT_EQ(copy->version, msg.version);
    if (kind != SeaweedMessage::Kind::kResultAck) {
      EXPECT_EQ(copy->result, msg.result);
    }
    EXPECT_EQ(EncodeToBytes(*copy), bytes);
  }
}

TEST(SeaweedCodecTest, VertexReplicateRoundTrips) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.query_id = NodeId(1, 1);
  msg.replicas.push_back({NodeId(2, 2), NodeId(3, 3), 4, TestResult()});
  msg.replicas.push_back({NodeId(2, 2), NodeId(5, 5), 6, {}});

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->query_id, msg.query_id);
  EXPECT_EQ(copy->replicas, msg.replicas);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, MultiVertexReplicateSendsRepeatedResultOnce) {
  // One fold up a fan-in-1 run: each vertex's merged result equals its only
  // child's, so consecutive entries repeat a result.
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.query_id = NodeId(1, 1);
  msg.replicas.push_back({NodeId(2, 1), NodeId(9, 9), 3, TestResult()});
  msg.replicas.push_back({NodeId(2, 2), NodeId(2, 1), 7, TestResult()});
  msg.replicas.push_back({NodeId(2, 3), NodeId(2, 2), 8, TestResult()});
  msg.replicas.push_back({NodeId(2, 4), NodeId(2, 3), 1, {}});
  msg.replicas.push_back({NodeId(2, 5), NodeId(2, 4), 2, TestResult()});

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->replicas, msg.replicas);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);

  // Two repeats ride as a flag: the message is two results smaller than
  // the same entries with every result spelled out.
  SeaweedMessage empty;
  empty.kind = SeaweedMessage::Kind::kVertexReplicate;
  const size_t header = empty.EncodedBytes();
  size_t spelled_out = header;
  for (const auto& e : msg.replicas) {
    SeaweedMessage one;  // fresh: EncodedBytes() caches
    one.kind = SeaweedMessage::Kind::kVertexReplicate;
    one.replicas.push_back(e);
    spelled_out += one.EncodedBytes() - header;
  }
  EXPECT_EQ(bytes.size(), spelled_out - 2 * TestResult().EncodedBytes());
}

TEST(SeaweedCodecTest, QueryListKindsRoundTrip) {
  SeaweedMessage req;
  req.kind = SeaweedMessage::Kind::kQueryListRequest;
  ExpectFixpoint(req);

  SeaweedMessage list;
  list.kind = SeaweedMessage::Kind::kQueryList;
  list.queries.push_back(TestQuery());
  list.queries.push_back(TestQuery("SELECT SUM(bytes) FROM Flow"));
  std::vector<uint8_t> bytes = EncodeToBytes(list);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  ASSERT_EQ(copy->queries.size(), 2u);
  EXPECT_EQ(copy->queries[1].sql, "SELECT SUM(bytes) FROM Flow");
  EXPECT_EQ(EncodeToBytes(*copy), bytes);

  SeaweedMessage cancel;
  cancel.kind = SeaweedMessage::Kind::kQueryCancel;
  cancel.query_id = NodeId(9, 9);
  ExpectFixpoint(cancel);
}

TEST(SeaweedCodecTest, BroadcastBatchRoundTrips) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kBroadcastBatch;
  msg.parent = NodeHandle{NodeId(4, 4), 9};
  for (int i = 0; i < 3; ++i) {
    SeaweedMessage::BatchEntry e;
    e.query_id = NodeId(11, static_cast<uint64_t>(i));
    e.range = IdRange{NodeId(static_cast<uint64_t>(i), 0),
                      NodeId(static_cast<uint64_t>(i + 1), 0), false};
    e.query = TestQuery();
    e.query.query_id = e.query_id;
    msg.batch.push_back(std::move(e));
  }

  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->parent, msg.parent);
  ASSERT_EQ(copy->batch.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(copy->batch[i].query_id, msg.batch[i].query_id);
    EXPECT_EQ(copy->batch[i].range, msg.batch[i].range);
    EXPECT_EQ(copy->batch[i].query.sql, msg.batch[i].query.sql);
    // Decode re-parses the SQL: the plan must be usable again.
    EXPECT_TRUE(copy->batch[i].query.parsed.IsAggregateOnly());
  }
  EXPECT_EQ(EncodeToBytes(*copy), bytes);

  // Coalescing pays the shared hop once: a 3-entry batch is strictly
  // smaller than three standalone broadcasts of the same descriptors.
  uint32_t separate = 0;
  for (const auto& e : msg.batch) {
    SeaweedMessage one;
    one.kind = SeaweedMessage::Kind::kBroadcast;
    one.query_id = e.query_id;
    one.range = e.range;
    one.parent = msg.parent;
    one.queries.push_back(e.query);
    separate += one.EncodedBytes();
  }
  EXPECT_LT(msg.EncodedBytes(), separate);
}

// --- Corrupt and truncated input -------------------------------------------

TEST(CorruptInputTest, TruncationNeverCrashes) {
  // Exhaustive prefix truncation of a representative of every layout,
  // including a nested app payload (run under ASan/UBSan via check.sh).
  Packet pkt;
  pkt.kind = Packet::Kind::kApp;
  pkt.entries.resize(3);
  auto inner = std::make_shared<SeaweedMessage>();
  inner->kind = SeaweedMessage::Kind::kBroadcast;
  inner->queries.push_back(TestQuery());
  inner->query_id = inner->queries[0].query_id;
  pkt.app_payload = inner;
  ExpectTruncationSafe(pkt);

  SeaweedMessage push;
  push.kind = SeaweedMessage::Kind::kMetadataPush;
  push.metadata = TestMetadata();
  ExpectTruncationSafe(push);

  SeaweedMessage rep;
  rep.kind = SeaweedMessage::Kind::kVertexReplicate;
  rep.replicas.push_back({NodeId(3, 3), NodeId(1, 1), 2, TestResult()});
  rep.replicas.push_back({NodeId(4, 4), NodeId(3, 3), 5, TestResult()});
  ExpectTruncationSafe(rep);

  SeaweedMessage pred;
  pred.kind = SeaweedMessage::Kind::kPredictorReport;
  pred.result = TestResult();
  ExpectTruncationSafe(pred);
}

TEST(CorruptInputTest, BadTagsAndEnumsRejected) {
  {
    std::vector<uint8_t> bytes = {0x00};  // reserved transport tag
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    std::vector<uint8_t> bytes = {0xEE};  // unregistered transport tag
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    Packet pkt;
    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    bytes[1] = 0x77;  // packet kind out of range
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    SeaweedMessage msg;
    msg.kind = SeaweedMessage::Kind::kQueryCancel;
    std::vector<uint8_t> bytes = EncodeToBytes(msg);
    bytes[1] = 0x7F;  // seaweed kind out of range
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    // Absurd entry count must be rejected before allocation.
    Packet pkt;
    std::vector<uint8_t> bytes = EncodeToBytes(pkt);
    bytes[bytes.size() - 2] = 0xFF;  // entry-count varint, unterminated
    Reader r(bytes);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
}

// Well-formed but meaningless payloads: each decoded before the checks and
// then aborted a node or double-counted a contribution.

TEST(CorruptInputTest, UnsortedGroupKeysRejected) {
  // Groups [5, 3]: binary search misses key 3, so merging a result holding
  // key 3 adds a second group 3 and the key is counted twice.
  db::AggregateResult r;
  r.groups.push_back({db::Value(int64_t{5}), std::vector<db::AggState>(1)});
  r.groups.push_back({db::Value(int64_t{3}), std::vector<db::AggState>(1)});
  Writer w;
  r.Encode(w);
  Reader rd(w.bytes());
  auto decoded = db::AggregateResult::Decode(rd);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();

  // A repeated key is as bad as a descending one.
  r.groups[1].first = db::Value(int64_t{5});
  Writer w2;
  r.Encode(w2);
  Reader rd2(w2.bytes());
  EXPECT_FALSE(db::AggregateResult::Decode(rd2).ok());
}

TEST(CorruptInputTest, MixedGroupArityRejected) {
  // Groups of arity 1 and 2: AggregateResult::Merge CHECK-fails on them.
  db::AggregateResult r;
  r.groups.push_back({db::Value(int64_t{3}), std::vector<db::AggState>(1)});
  r.groups.push_back({db::Value(int64_t{5}), std::vector<db::AggState>(2)});
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kResultSubmit;
  msg.result = r;
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  Reader rd(bytes);
  auto decoded = DecodeWireMessage(rd);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
}

TEST(CorruptInputTest, BroadcastWithoutMatchingQueryRejected) {
  // HandleBroadcast activates queries[0] under query_id: an empty list
  // reached a CHECK, a foreign query id an orphaned task.
  SeaweedMessage none;
  none.kind = SeaweedMessage::Kind::kBroadcast;
  none.query_id = NodeId(1, 2);
  std::vector<uint8_t> bytes = EncodeToBytes(none);
  Reader r(bytes);
  EXPECT_FALSE(DecodeWireMessage(r).ok());

  SeaweedMessage foreign;
  foreign.kind = SeaweedMessage::Kind::kBroadcast;
  foreign.query_id = NodeId(1, 2);
  foreign.queries.push_back(TestQuery());
  ASSERT_NE(foreign.queries[0].query_id, foreign.query_id);
  bytes = EncodeToBytes(foreign);
  Reader r2(bytes);
  EXPECT_FALSE(DecodeWireMessage(r2).ok());

  SeaweedMessage batch;
  batch.kind = SeaweedMessage::Kind::kBroadcastBatch;
  batch.batch.push_back({NodeId(1, 2), IdRange{}, TestQuery()});
  bytes = EncodeToBytes(batch);
  Reader r3(bytes);
  EXPECT_FALSE(DecodeWireMessage(r3).ok());
}

TEST(CorruptInputTest, ReplicaEntryFlagsChecked) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.replicas.push_back({NodeId(3, 3), NodeId(1, 1), 2, TestResult()});
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  // Layout: tag, kind, query id (16), count, then the entry's flag byte.
  const size_t flag_at = 1 + 1 + 16 + 1;
  ASSERT_EQ(bytes[flag_at], 0);
  {
    // "Same result as the previous entry" on the first entry.
    std::vector<uint8_t> bad = bytes;
    bad[flag_at] = 1;
    Reader r(bad);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[flag_at] = 0x80;  // unknown flag bit
    Reader r(bad);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
  {
    // An entry count larger than the remaining bytes could hold.
    std::vector<uint8_t> bad = bytes;
    bad[flag_at - 1] = 2;
    Reader r(bad);
    EXPECT_FALSE(DecodeWireMessage(r).ok());
  }
}

// One group keyed by a 1 MiB string: a result whose copies add up fast.
db::AggregateResult LargeResult() {
  db::AggregateResult r;
  r.GroupStates(db::Value(std::string(1 << 20, 'x')), 1)[0].count = 1;
  return r;
}

TEST(CorruptInputTest, ReplicaRepeatExpansionBounded) {
  // One large result, then as many 41-byte "same result" entries as the
  // message holds: without a bound, ~1 MiB of wire decodes into ~100 GB.
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.replicas.push_back({NodeId(3, 3), NodeId(1, 1), 2, LargeResult()});
  const std::vector<uint8_t> one = EncodeToBytes(msg);
  const size_t count_at = 1 + 1 + 16;
  ASSERT_EQ(one[count_at], 1);
  auto crafted = [&](uint64_t entries) {
    Writer w;
    w.PutBytes(one.data(), count_at);
    w.PutVarint(entries);
    w.PutBytes(one.data() + count_at + 1, one.size() - count_at - 1);
    for (uint64_t i = 1; i < entries; ++i) {
      w.PutU8(1);  // same result as the previous entry
      w.PutNodeId(NodeId(4, i));
      w.PutNodeId(NodeId(3, 3));
      w.PutU64(i);
    }
    return w.TakeBytes();
  };
  {
    // Seven copies of the 1 MiB result fit in the 8 MiB bound.
    std::vector<uint8_t> bytes = crafted(7);
    Reader r(bytes);
    EXPECT_TRUE(DecodeWireMessage(r).ok());
  }
  for (uint64_t entries : {8ull, 100000ull}) {
    std::vector<uint8_t> bytes = crafted(entries);
    Reader r(bytes);
    auto decoded = DecodeWireMessage(r);
    ASSERT_FALSE(decoded.ok()) << entries;
    EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
  }
}

TEST(SeaweedCodecTest, ReplicaRepeatsPastBoundAreSpelledOut) {
  // Nine equal 1 MiB results: the encoder flags repeats while the decoded
  // size stays within the bound (entries 2-7), then spells out the rest.
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  for (uint64_t i = 0; i < 9; ++i) {
    msg.replicas.push_back({NodeId(4, i), NodeId(3, 3), i, LargeResult()});
  }
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  EXPECT_GT(bytes.size(), 3 * LargeResult().EncodedBytes());
  EXPECT_LT(bytes.size(), 4 * LargeResult().EncodedBytes());
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(bytes));
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->replicas, msg.replicas);
  EXPECT_EQ(EncodeToBytes(*copy), bytes);
}

TEST(SeaweedCodecTest, ReplicaRepeatNeedsIdenticalBytes) {
  // AggregateResult::operator== equates these pairs, but they encode
  // differently: each must be sent as itself, or the backup would get the
  // previous entry's bytes.
  db::AggregateResult zero;
  zero.states.resize(1);
  zero.states[0].sum = 0.0;
  db::AggregateResult neg_zero = zero;
  neg_zero.states[0].sum = -0.0;
  ASSERT_EQ(zero, neg_zero);
  db::AggregateResult int_key;
  int_key.GroupStates(db::Value(int64_t{3}), 1)[0].count = 1;
  db::AggregateResult double_key;
  double_key.GroupStates(db::Value(3.0), 1)[0].count = 1;
  ASSERT_EQ(int_key, double_key);

  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kVertexReplicate;
  msg.replicas.push_back({NodeId(2, 1), NodeId(9, 9), 1, zero});
  msg.replicas.push_back({NodeId(2, 2), NodeId(2, 1), 2, neg_zero});
  msg.replicas.push_back({NodeId(2, 3), NodeId(2, 2), 3, int_key});
  msg.replicas.push_back({NodeId(2, 4), NodeId(2, 3), 4, double_key});
  ExpectFixpoint(msg);
  auto copy = WireMessageCast<SeaweedMessage>(DecodeAll(EncodeToBytes(msg)));
  ASSERT_NE(copy, nullptr);
  ASSERT_EQ(copy->replicas.size(), 4u);
  EXPECT_TRUE(std::signbit(copy->replicas[1].result.states[0].sum));
  EXPECT_TRUE(copy->replicas[3].result.groups[0].first.is_double());
}

TEST(CorruptInputTest, TrailingGarbageDetectable) {
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kQueryCancel;
  msg.query_id = NodeId(1, 2);
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  bytes.push_back(0xAB);
  Reader r(bytes);
  auto decoded = DecodeWireMessage(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(r.AtEnd());  // transports CHECK AtEnd to catch this
}

// --- Varint and double properties ------------------------------------------

TEST(VarintPropertyTest, EdgeValuesRoundTrip) {
  const uint64_t kEdges[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kEdges) {
    Writer w;
    w.PutVarint(v);
    Reader r(w.bytes());
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintPropertyTest, RandomValuesRoundTrip) {
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    // Bias toward boundary-straddling magnitudes.
    uint64_t v = rng.Next() >> (rng.NextBelow(64));
    Writer w;
    w.PutVarint(v);
    Reader r(w.bytes());
    auto back = r.GetVarint();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(DoublePropertyTest, SpecialValuesPreserveBits) {
  const double kSpecials[] = {0.0,
                              -0.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max()};
  for (double v : kSpecials) {
    Writer w;
    w.PutDouble(v);
    Reader r(w.bytes());
    auto back = r.GetDouble();
    ASSERT_TRUE(back.ok());
    uint64_t in_bits, out_bits;
    std::memcpy(&in_bits, &v, sizeof(v));
    std::memcpy(&out_bits, &*back, sizeof(double));
    EXPECT_EQ(in_bits, out_bits);
  }
}

TEST(DoublePropertyTest, NaNResultIsRejectedOnDecode) {
  // Infinities and signed zeros are meaningful in an aggregate state (an
  // empty state carries min=+inf, max=-inf) and survive the message
  // fixpoint bit for bit. A NaN never is: the decoder rejects it rather
  // than hand a garbage state to the aggregation tree.
  SeaweedMessage msg;
  msg.kind = SeaweedMessage::Kind::kResultSubmit;
  msg.result.states.resize(1);
  msg.result.states[0].min = -std::numeric_limits<double>::infinity();
  msg.result.states[0].max = -0.0;
  ExpectFixpoint(msg);

  msg.result.states[0].sum = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint8_t> bytes = EncodeToBytes(msg);
  Reader r(bytes);
  auto decoded = DecodeWireMessage(r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError()) << decoded.status();
}

// --- Randomized encode -> decode -> encode fixpoint ------------------------

NodeId RandomId(Rng& rng) { return NodeId(rng.Next(), rng.Next()); }

NodeHandle RandomHandle(Rng& rng) {
  return NodeHandle{RandomId(rng), static_cast<EndsystemIndex>(
                                       rng.NextBelow(1000))};
}

db::AggregateResult RandomResult(Rng& rng) {
  db::AggregateResult r;
  r.states.resize(rng.NextBelow(3));
  for (auto& s : r.states) {
    s.sum = static_cast<double>(rng.Next()) / 3.0;
    s.count = static_cast<int64_t>(rng.NextBelow(1000));
  }
  for (uint64_t g = rng.NextBelow(4); g > 0; --g) {
    r.GroupStates(db::Value(static_cast<int64_t>(rng.NextBelow(100))),
                  r.states.empty() ? 1 : r.states.size());
  }
  r.rows_matched = static_cast<int64_t>(rng.NextBelow(100000));
  r.endsystems = static_cast<int64_t>(rng.NextBelow(500));
  return r;
}

Query RandomQuery(Rng& rng) {
  const char* kSql[] = {
      "SELECT COUNT(*) FROM Flow",
      "SELECT SUM(bytes) FROM Flow WHERE port = 80",
      "SELECT COUNT(*), SUM(bytes) FROM Flow",
  };
  auto q = Query::Create(kSql[rng.NextBelow(3)],
                         static_cast<SimTime>(rng.NextBelow(1000)) * kSecond,
                         RandomHandle(rng));
  EXPECT_TRUE(q.ok());
  Query out = std::move(q).value();
  if (rng.NextBelow(2) == 0) {
    out.continuous = true;
    out.reexec_period = static_cast<SimDuration>(rng.NextBelow(100)) * kSecond;
  }
  return out;
}

TEST(RandomizedFixpointTest, AllSeaweedKinds) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    SeaweedMessage msg;
    msg.kind = static_cast<SeaweedMessage::Kind>(rng.NextBelow(11));
    msg.query_id = RandomId(rng);
    msg.vertex_id = RandomId(rng);
    msg.child_key = RandomId(rng);
    msg.version = rng.Next();
    msg.range = IdRange{RandomId(rng), RandomId(rng), rng.NextBelow(4) == 0};
    msg.parent = RandomHandle(rng);
    msg.result = RandomResult(rng);
    msg.metadata.owner = RandomId(rng);
    msg.metadata.version = rng.Next();
    if (msg.kind == SeaweedMessage::Kind::kMetadataPush &&
        rng.NextBelow(2) == 0) {
      msg.metadata_wire_bytes = static_cast<uint32_t>(rng.NextBelow(10000));
    }
    for (uint64_t n = rng.NextBelow(3); n > 0; --n) {
      msg.queries.push_back(RandomQuery(rng));
    }
    if (msg.kind == SeaweedMessage::Kind::kBroadcast) {
      // A broadcast carries its own query first.
      msg.queries.insert(msg.queries.begin(), RandomQuery(rng));
      msg.query_id = msg.queries[0].query_id;
    }
    for (uint64_t n = rng.NextBelow(4); n > 0; --n) {
      // Per-entry vertex ids; about half the entries repeat the previous
      // entry's result, as in a fan-in-1 run.
      db::AggregateResult result =
          msg.replicas.empty() || rng.NextBelow(2) == 0
              ? RandomResult(rng)
              : msg.replicas.back().result;
      msg.replicas.push_back(
          {RandomId(rng), RandomId(rng), rng.Next(), std::move(result)});
    }
    for (uint64_t n = rng.NextBelow(10); n > 0; --n) {
      msg.predictor.AddRowsAt(
          static_cast<SimTime>(rng.NextBelow(100)) * kMinute,
          static_cast<double>(rng.NextBelow(1000)));
    }
    ExpectFixpoint(msg);
  }
}

TEST(RandomizedFixpointTest, AllPacketKinds) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    Packet pkt;
    pkt.kind = static_cast<Packet::Kind>(rng.NextBelow(10));
    pkt.src = RandomHandle(rng);
    pkt.key = RandomId(rng);
    pkt.row = static_cast<uint8_t>(rng.NextBelow(40));
    pkt.hops = static_cast<uint16_t>(rng.NextBelow(64));
    pkt.category = static_cast<TrafficCategory>(
        rng.NextBelow(static_cast<uint64_t>(kNumTrafficCategories)));
    for (uint64_t n = rng.NextBelow(6); n > 0; --n) {
      pkt.entries.push_back(RandomHandle(rng));
    }
    if (pkt.kind == Packet::Kind::kApp) {
      pkt.app_routed = rng.NextBelow(2) == 0;
      if (rng.NextBelow(3) != 0) {
        auto inner = std::make_shared<SeaweedMessage>();
        inner->kind = SeaweedMessage::Kind::kResultAck;
        inner->query_id = RandomId(rng);
        inner->child_key = RandomId(rng);
        inner->version = rng.Next();
        pkt.app_payload = inner;
      }
    }
    ExpectFixpoint(pkt);
  }
}

}  // namespace
}  // namespace seaweed
