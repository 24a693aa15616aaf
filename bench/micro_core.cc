// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// id arithmetic, SHA-1 query-id derivation, histogram build/estimation,
// predictor operations, the vertex function, SQL parsing, aggregate
// execution, and serialization.
#include <benchmark/benchmark.h>

#include "anemone/anemone.h"
#include "bench/bench_util.h"
#include "common/sha1.h"
#include "common/wire.h"
#include "db/histogram.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "db/query_exec.h"
#include "db/sql_parser.h"
#include "overlay/packet.h"
#include "seaweed/availability_model.h"
#include "seaweed/completeness.h"
#include "seaweed/id_range.h"
#include "seaweed/vertex_function.h"
#include "seaweed/wire.h"

namespace seaweed {
namespace {

// Guard for the obs hot path: recording through a pre-resolved handle must
// stay O(ns) — it sits on every message send in the packet simulator.
void BM_MetricsRecord(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter* counter = reg.GetCounter("bench.counter");
  obs::Histogram* hist = reg.GetHistogram("bench.hist");
  obs::Timeseries* series = reg.GetTimeseries("bench.series");
  uint64_t v = 1;
  SimTime t = 0;
  for (auto _ : state) {
    counter->Add(v);
    hist->Record(v);
    series->Record(t, v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
    t += kSecond;
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 3);  // 3 records per iter
}
BENCHMARK(BM_MetricsRecord);

void BM_TraceSpanStartEnd(benchmark::State& state) {
  obs::TraceSink sink(1 << 12);
  SimTime now = 0;
  uint64_t trace = 1;
  for (auto _ : state) {
    obs::SpanId id = sink.StartSpan("bench", trace, now);
    sink.EndSpan(id, now + 10);
    now += 20;
    trace = (trace + 1) & 1023;  // bounded key set keeps the root map small
  }
}
BENCHMARK(BM_TraceSpanStartEnd);

void BM_NodeIdRingDistance(benchmark::State& state) {
  Rng rng(1);
  NodeId a = NodeId::Random(rng), b = NodeId::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.RingDistanceTo(b));
    a = a.Add(NodeId(0, 1));
  }
}
BENCHMARK(BM_NodeIdRingDistance);

void BM_NodeIdDigit(benchmark::State& state) {
  Rng rng(2);
  NodeId a = NodeId::Random(rng);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Digit(i, 4));
    i = (i + 1) % 32;
  }
}
BENCHMARK(BM_NodeIdDigit);

void BM_Sha1QueryId(benchmark::State& state) {
  std::string sql =
      "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW()";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1ToNodeId(sql));
  }
}
BENCHMARK(BM_Sha1QueryId);

void BM_VertexParentChain(benchmark::State& state) {
  Rng rng(3);
  NodeId q = NodeId::Random(rng);
  NodeId v = NodeId::Random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexDepth(q, v, 4));
  }
}
BENCHMARK(BM_VertexParentChain);

void BM_HistogramBuild(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> values;
  for (int64_t i = 0; i < state.range(0); ++i) {
    values.push_back(rng.LogNormal(8, 2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db::NumericHistogram::BuildFromValues(values, 200));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HistogramEstimate(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.LogNormal(8, 2));
  auto h = db::NumericHistogram::BuildFromValues(values, 200);
  double cut = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.EstimateLessOrEqual(cut));
    cut += 13.7;
    if (cut > 1e6) cut = 10;
  }
}
BENCHMARK(BM_HistogramEstimate);

void BM_PredictorMerge(benchmark::State& state) {
  Rng rng(6);
  CompletenessPredictor a, b;
  for (int i = 0; i < 40; ++i) {
    a.AddRowsAt(static_cast<SimDuration>(rng.Uniform(0, 7.0 * kDay)), 10);
    b.AddRowsAt(static_cast<SimDuration>(rng.Uniform(0, 7.0 * kDay)), 10);
  }
  for (auto _ : state) {
    CompletenessPredictor c = a;
    c.Merge(b);
    benchmark::DoNotOptimize(c.TotalRows());
  }
}
BENCHMARK(BM_PredictorMerge);

void BM_AvailabilityProbUpBy(benchmark::State& state) {
  AvailabilityModel m;
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    SimTime down = i * kDay;
    m.RecordDownPeriod(down, down + static_cast<SimDuration>(
                                        rng.UniformInt(1, 30)) * kHour);
  }
  SimTime now = 100 * kDay;
  SimDuration d = kHour;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.ProbUpBy(now, now - 2 * kHour, now + d));
    d += kMinute;
    if (d > 2 * kDay) d = kHour;
  }
}
BENCHMARK(BM_AvailabilityProbUpBy);

void BM_SqlParse(benchmark::State& state) {
  db::ParseOptions opts;
  opts.now_unix_seconds = 1234567;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::ParseSelect(
        "SELECT SUM(Bytes), COUNT(*) FROM Flow WHERE SrcPort=80 AND "
        "ts <= NOW() AND ts >= NOW() - 86400",
        opts));
  }
}
BENCHMARK(BM_SqlParse);

void BM_AggregateScan(benchmark::State& state) {
  anemone::AnemoneConfig cfg;
  cfg.days = 14;
  cfg.workstation_flows_per_day =
      static_cast<double>(state.range(0)) / 14.0;
  db::Database database;
  anemone::GenerateEndsystemData(cfg, 1, &database);
  auto q = db::ParseSelect("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80");
  const db::Table* flow = database.FindTable("Flow");
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::ExecuteAggregate(*flow, *q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(flow->num_rows()));
}
BENCHMARK(BM_AggregateScan)->Arg(1000)->Arg(10000);

// --- Batch execution engine (scripts/bench_query_exec.py) ---
//
// Synthetic table mirroring the Anemone Flow shape: a dictionary-coded app
// column, two indexed int columns, and a payload column. Three workloads:
//  * Selective — WHERE port = K, ~1% of rows match (filter-dominated).
//  * Dense     — WHERE bytes >= K, ~90% match plus SUM (aggregation-heavy).
//  * GroupBy   — GROUP BY app with COUNT/SUM (dense dict accumulators).

std::unique_ptr<db::Table> BenchTable(int64_t rows) {
  db::Schema schema({
      {"app", db::ColumnType::kString, true},
      {"port", db::ColumnType::kInt64, true},
      {"bytes", db::ColumnType::kInt64, true},
  });
  auto t = std::make_unique<db::Table>(std::move(schema));
  Rng rng(42);
  const char* apps[] = {"HTTP", "SMB", "DNS", "NFS", "RPC", "SSH", "FTP",
                        "IMAP"};
  for (int64_t i = 0; i < rows; ++i) {
    t->column(0).AppendString(apps[rng.NextBelow(8)]);
    t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(10000)));
    t->CommitRow();
  }
  return t;
}

void AggregateBench(benchmark::State& state, const char* sql) {
  auto table = BenchTable(state.range(0));
  auto q = db::ParseSelect(sql);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::ExecuteAggregate(*table, *q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kSelectiveSql =
    "SELECT SUM(bytes), COUNT(*) FROM t WHERE port = 7";
constexpr const char* kDenseSql =
    "SELECT SUM(bytes), MIN(bytes), MAX(bytes) FROM t WHERE bytes >= 1000";
constexpr const char* kGroupBySql =
    "SELECT app, COUNT(*), SUM(bytes) FROM t WHERE port < 50 GROUP BY app";

void BM_ExecuteAggregateSelective(benchmark::State& state) {
  AggregateBench(state, kSelectiveSql);
}
BENCHMARK(BM_ExecuteAggregateSelective)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_ExecuteAggregateDense(benchmark::State& state) {
  AggregateBench(state, kDenseSql);
}
BENCHMARK(BM_ExecuteAggregateDense)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_ExecuteAggregateGroupBy(benchmark::State& state) {
  AggregateBench(state, kGroupBySql);
}
BENCHMARK(BM_ExecuteAggregateGroupBy)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PartitionByClosestMember(benchmark::State& state) {
  Rng rng(8);
  std::vector<NodeId> members;
  for (int i = 0; i < 9; ++i) members.push_back(NodeId::Random(rng));
  std::sort(members.begin(), members.end());
  IdRange range{NodeId::Random(rng), NodeId::Random(rng), false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionByClosestMember(range, members));
  }
}
BENCHMARK(BM_PartitionByClosestMember);

// --- Wire codec: full message encode -> decode per kind ---
//
// One benchmark per message kind, each round-tripping a representatively
// populated message through the typed codec (tag dispatch included). These
// bound the per-message CPU cost the serializing transport adds.

db::AggregateResult CodecBenchResult() {
  db::AggregateResult r;
  r.states.resize(2);
  for (int i = 0; i < 100; ++i) {
    r.states[0].Add(i * 1.5);
    r.states[1].AddCountOnly();
  }
  r.rows_matched = 100;
  r.endsystems = 4;
  return r;
}

SeaweedMessagePtr CodecBenchMessage(SeaweedMessage::Kind kind) {
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = kind;
  msg->query_id = NodeId(0x1234, 0x5678);
  msg->vertex_id = NodeId(0x9abc, 0xdef0);
  msg->child_key = NodeId(0x1111, 0x2222);
  msg->version = 42;
  msg->range = IdRange{NodeId(1, 0), NodeId(2, 0), false};
  msg->parent = overlay::NodeHandle{NodeId(3, 3), 7};
  switch (kind) {
    case SeaweedMessage::Kind::kMetadataPush: {
      msg->metadata.owner = NodeId(5, 5);
      msg->metadata.version = 3;
      db::TableSummary t;
      t.table_name = "Flow";
      t.total_rows = 100000;
      msg->metadata.summary.tables.push_back(t);
      msg->metadata.availability.RecordDownPeriod(kHour, 9 * kHour);
      msg->metadata_wire_bytes = 6473;
      break;
    }
    case SeaweedMessage::Kind::kBroadcast:
    case SeaweedMessage::Kind::kQueryList: {
      auto q = Query::Create("SELECT SUM(Bytes), COUNT(*) FROM Flow", kHour,
                             msg->parent);
      SEAWEED_CHECK(q.ok());
      msg->queries.push_back(std::move(q).value());
      break;
    }
    case SeaweedMessage::Kind::kPredictorReport:
    case SeaweedMessage::Kind::kPredictorDeliver:
      for (int i = 0; i < 40; ++i) {
        msg->predictor.AddRowsAt(i * kHour, 25.0);
      }
      break;
    case SeaweedMessage::Kind::kResultSubmit:
    case SeaweedMessage::Kind::kResultDeliver:
      msg->result = CodecBenchResult();
      break;
    case SeaweedMessage::Kind::kVertexReplicate:
      // One fold up a fan-in-1 run: each entry names its vertex, and each
      // result after the first repeats the previous entry's.
      for (int i = 0; i < 4; ++i) {
        msg->replicas.push_back({NodeId(8, static_cast<uint64_t>(i)),
                                 NodeId(7, static_cast<uint64_t>(i)),
                                 static_cast<uint64_t>(i),
                                 CodecBenchResult()});
      }
      break;
    case SeaweedMessage::Kind::kResultAck:
    case SeaweedMessage::Kind::kQueryListRequest:
    case SeaweedMessage::Kind::kQueryCancel:
      break;
  }
  return msg;
}

void EncodeDecodeLoop(benchmark::State& state, const WireMessage& msg) {
  size_t bytes = 0;
  for (auto _ : state) {
    Writer w;
    msg.Encode(w);
    Reader r(w.bytes());
    auto decoded = DecodeWireMessage(r);
    SEAWEED_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded);
    bytes += w.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}

void RegisterEncodeDecodeBenches() {
  struct KindName {
    SeaweedMessage::Kind kind;
    const char* name;
  };
  static constexpr KindName kKinds[] = {
      {SeaweedMessage::Kind::kMetadataPush, "MetadataPush"},
      {SeaweedMessage::Kind::kBroadcast, "Broadcast"},
      {SeaweedMessage::Kind::kPredictorReport, "PredictorReport"},
      {SeaweedMessage::Kind::kPredictorDeliver, "PredictorDeliver"},
      {SeaweedMessage::Kind::kResultSubmit, "ResultSubmit"},
      {SeaweedMessage::Kind::kResultAck, "ResultAck"},
      {SeaweedMessage::Kind::kVertexReplicate, "VertexReplicate"},
      {SeaweedMessage::Kind::kResultDeliver, "ResultDeliver"},
      {SeaweedMessage::Kind::kQueryListRequest, "QueryListRequest"},
      {SeaweedMessage::Kind::kQueryList, "QueryList"},
      {SeaweedMessage::Kind::kQueryCancel, "QueryCancel"},
  };
  for (const auto& k : kKinds) {
    SeaweedMessagePtr msg = CodecBenchMessage(k.kind);
    std::string name = std::string("BM_EncodeDecode/") + k.name;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [msg](benchmark::State& state) { EncodeDecodeLoop(state, *msg); });
  }
  // An overlay packet carrying an app payload — the outermost frame the
  // serializing transport round-trips.
  auto pkt = std::make_shared<overlay::Packet>();
  pkt->kind = overlay::Packet::Kind::kApp;
  pkt->src = overlay::NodeHandle{NodeId(1, 1), 2};
  pkt->key = NodeId(2, 2);
  pkt->category = TrafficCategory::kResult;
  pkt->app_payload = CodecBenchMessage(SeaweedMessage::Kind::kResultSubmit);
  benchmark::RegisterBenchmark(
      "BM_EncodeDecode/AppPacket",
      [pkt](benchmark::State& state) { EncodeDecodeLoop(state, *pkt); });
}

void BM_AggregateResultSerialize(benchmark::State& state) {
  db::AggregateResult r;
  r.states.resize(3);
  for (int i = 0; i < 100; ++i) {
    r.states[0].Add(i);
    r.states[1].Add(i * 2.5);
    r.states[2].AddCountOnly();
  }
  r.rows_matched = 100;
  r.endsystems = 1;
  for (auto _ : state) {
    Writer w;
    r.Encode(w);
    Reader rd(w.bytes());
    benchmark::DoNotOptimize(db::AggregateResult::Decode(rd));
  }
}
BENCHMARK(BM_AggregateResultSerialize);

// Console reporter that also captures (name, real time) per run so the
// results can be exported through the standard SEAWEED_BENCH_OUT channel.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      results_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace
}  // namespace seaweed

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  seaweed::RegisterEncodeDecodeBenches();
  seaweed::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  seaweed::bench::ResultWriter writer("micro_core");
  for (const auto& [name, real_time_ns] : reporter.results()) {
    writer.Scalar(name + "/real_time_ns", real_time_ns);
  }
  writer.WriteFromEnv();
  benchmark::Shutdown();
  return 0;
}
