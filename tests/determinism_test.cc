// Determinism of the simulator: a run is a pure function of its
// configuration and seed — same events, same messages, same obs JSONL
// (metrics and trace spans), same final aggregates.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

namespace seaweed {
namespace {

struct RunArtifacts {
  uint64_t events_executed = 0;
  uint64_t messages_sent = 0;
  uint64_t batch_entries = 0;
  int joined = 0;
  std::string metrics_jsonl;
  std::string trace_jsonl;
  std::vector<db::AggregateResult> finals;
};

// Multi-tenant pipeline knobs for a run; all off reproduces the classic
// single-query configuration the original determinism tests were written
// against.
struct MultiTenantKnobs {
  bool batching = false;
  SimDuration cache_eps = 0;
  int exec_slice_batches = 0;
  int num_queries = 1;
};

RunArtifacts RunSeededCluster(int endsystems, SimDuration duration,
                              const MultiTenantKnobs& knobs = {}) {
  FarsiteModelConfig trace_cfg;
  trace_cfg.seed = 11;
  AvailabilityTrace trace =
      GenerateFarsiteTrace(trace_cfg, endsystems, duration + kHour);

  ClusterOptions opts;
  opts.WithEndsystems(endsystems)
      .WithSeed(11)
      .WithKeepTables(false);
  opts.seaweed().batching = knobs.batching;
  opts.seaweed().cache_eps = knobs.cache_eps;
  opts.seaweed().exec_slice_batches = knobs.exec_slice_batches;
  SeaweedCluster cluster(opts.BuildOrDie());
  cluster.DriveFromTrace(trace, duration);

  const SimTime inject_at = duration / 4;
  auto finals =
      std::make_shared<std::vector<db::AggregateResult>>(knobs.num_queries);
  static const char* kSql[] = {
      "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
      "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
      "SELECT COUNT(*) FROM Flow WHERE Bytes > 0",
  };
  const int num_queries = knobs.num_queries;
  cluster.sim().At(inject_at, [&cluster, duration, inject_at, finals,
                               num_queries] {
    for (int e = 0; e < cluster.config().num_endsystems; ++e) {
      if (cluster.pastry_node(e)->joined()) {
        // Same-origin simultaneous injections share dissemination hops —
        // the shape that actually exercises the batching outboxes.
        for (int q = 0; q < num_queries; ++q) {
          QueryObserver obs;
          obs.on_result = [finals, q](const NodeId&,
                                      const db::AggregateResult& r) {
            (*finals)[q] = r;
          };
          (void)cluster.InjectQuery(e, kSql[q % 3], std::move(obs),
                                    duration - inject_at);
        }
        return;
      }
    }
  });

  cluster.sim().RunUntil(duration);
  cluster.PublishStatsGauges();

  RunArtifacts a;
  a.events_executed = cluster.sim().events_executed();
  a.messages_sent = cluster.network().messages_sent();
  a.batch_entries =
      cluster.obs().metrics.GetCounter("seaweed.batch_entries")->value();
  a.joined = cluster.CountJoined();
  a.finals = *finals;
  std::ostringstream metrics;
  obs::WriteMetricsJsonl(cluster.obs().metrics, metrics);
  a.metrics_jsonl = metrics.str();
  std::ostringstream spans;
  obs::WriteTraceJsonl(cluster.obs().trace, spans);
  a.trace_jsonl = spans.str();
  return a;
}

TEST(Determinism, RepeatedRunIsByteIdentical) {
  // The full multi-tenant pipeline — outbox batching, the bounded-divergence
  // predictor cache, and time-sliced execution — run twice with the same
  // seed must be byte-identical. Guards against iteration-order,
  // uninitialized-state and wall-clock leaks.
  MultiTenantKnobs knobs;
  knobs.batching = true;
  knobs.cache_eps = 30 * kSecond;
  knobs.exec_slice_batches = 4;
  knobs.num_queries = 3;
  const SimDuration kDuration = 25 * kMinute;
  RunArtifacts a = RunSeededCluster(600, kDuration, knobs);
  RunArtifacts b = RunSeededCluster(600, kDuration, knobs);

  // The run must have actually done something before identity means much,
  // and the pipeline must have engaged — a batch-free run proves nothing.
  EXPECT_GT(a.joined, 300);
  EXPECT_GT(a.messages_sent, 10000u);
  EXPECT_GT(a.batch_entries, 0u);

  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.joined, b.joined);
  // Byte-identical observability output: metrics registry and span ring.
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.finals, b.finals);
}

TEST(Determinism, BatchingOnOffSameFinalAggregates) {
  // Batching and caching change message timing and wire layout, never
  // query answers: a run with the pipeline on must converge to the same
  // final aggregate per query as the plain run.
  MultiTenantKnobs off;
  off.num_queries = 3;
  MultiTenantKnobs on = off;
  on.batching = true;
  on.cache_eps = 30 * kSecond;
  on.exec_slice_batches = 4;
  const SimDuration kDuration = 40 * kMinute;
  RunArtifacts plain = RunSeededCluster(300, kDuration, off);
  RunArtifacts batched = RunSeededCluster(300, kDuration, on);

  EXPECT_EQ(plain.batch_entries, 0u);
  EXPECT_GT(batched.batch_entries, 0u);
  ASSERT_EQ(plain.finals.size(), batched.finals.size());
  for (size_t q = 0; q < plain.finals.size(); ++q) {
    EXPECT_GT(plain.finals[q].endsystems, 0) << "query " << q;
    EXPECT_EQ(plain.finals[q], batched.finals[q]) << "query " << q;
  }
}

TEST(Determinism, LaneGaugesPublished) {
  RunArtifacts a = RunSeededCluster(200, 10 * kMinute);
  // Engine and memory-footprint gauges must appear in the metrics dump
  // (obs_report and perfbench consume these names).
  EXPECT_NE(a.metrics_jsonl.find("sim.event_queue_depth"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.overlay.routing_bytes"),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.meta.store_bytes"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.meta.store_records"),
            std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("mem.sim.event_queue_bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace seaweed
