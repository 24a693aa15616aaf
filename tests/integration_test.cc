// End-to-end tests of the full Seaweed stack: Pastry overlay + metadata
// replication + query dissemination + completeness prediction + result
// aggregation, over the simulated network.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "anemone/anemone.h"
#include "seaweed/cluster_options.h"
#include "seaweed/vertex_function.h"
#include "trace/farsite_model.h"

namespace seaweed {
namespace {

// Builds simple per-endsystem databases where endsystem e has exactly
// (e+1) rows matching `port = 80` out of 2*(e+1) total rows.
std::shared_ptr<StaticDataProvider> MakeToyData(int n) {
  std::vector<std::shared_ptr<db::Database>> dbs;
  db::Schema schema({
      {"port", db::ColumnType::kInt64, true},
      {"bytes", db::ColumnType::kInt64, true},
  });
  for (int e = 0; e < n; ++e) {
    auto database = std::make_shared<db::Database>();
    auto table = database->CreateTable("Flow", schema);
    for (int i = 0; i < e + 1; ++i) {
      (*table)->column(0).AppendInt64(80);
      (*table)->column(1).AppendInt64(100);
      (*table)->CommitRow();
      (*table)->column(0).AppendInt64(443);
      (*table)->column(1).AppendInt64(50);
      (*table)->CommitRow();
    }
    dbs.push_back(std::move(database));
  }
  return std::make_shared<StaticDataProvider>(std::move(dbs));
}

// Total rows matching port=80 over endsystems [0, n): sum of (e+1).
int64_t ToyMatching(int n) {
  return static_cast<int64_t>(n) * (n + 1) / 2;
}
// Total bytes: each matching row contributes 100.
double ToyBytes(int n) { return 100.0 * static_cast<double>(ToyMatching(n)); }

struct Capture {
  bool got_predictor = false;
  CompletenessPredictor predictor;
  std::vector<std::pair<SimTime, db::AggregateResult>> results;
  SimTime predictor_at = -1;

  QueryObserver MakeObserver(Simulator* sim) {
    QueryObserver obs;
    obs.on_predictor = [this, sim](const NodeId&,
                                   const CompletenessPredictor& p) {
      got_predictor = true;
      predictor = p;
      predictor_at = sim->Now();
    };
    obs.on_result = [this, sim](const NodeId&, const db::AggregateResult& r) {
      results.push_back({sim->Now(), r});
    };
    return obs;
  }

  const db::AggregateResult* latest() const {
    return results.empty() ? nullptr : &results.back().second;
  }
};

ClusterConfig ToyConfig(int n, uint64_t seed = 1) {
  return ClusterOptions()
      .WithEndsystems(n)
      .WithSeed(seed)
      .WithSummaryWireBytes(0)  // charge actual summary sizes
      .BuildOrDie();
}

TEST(IntegrationTest, AllUpQueryReturnsExactResult) {
  const int n = 40;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  Capture cap;
  auto qid = cluster.InjectQuery(
      0, "SELECT SUM(bytes), COUNT(*) FROM Flow WHERE port = 80",
      cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok()) << qid.status();
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  // Predictor arrived within seconds and covers all endsystems.
  ASSERT_TRUE(cap.got_predictor);
  EXPECT_EQ(cap.predictor.endsystems(), n);
  // All nodes are up: everything available immediately, and the row
  // estimate should be near-exact (exact-count histograms on toy data).
  EXPECT_NEAR(cap.predictor.ExpectedRowsBy(0),
              static_cast<double>(ToyMatching(n)),
              0.02 * static_cast<double>(ToyMatching(n)));

  // Results converge to the exact global aggregate.
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n));
  EXPECT_DOUBLE_EQ(cap.latest()->states[0].sum, ToyBytes(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
}

TEST(IntegrationTest, PredictorLatencyIsSeconds) {
  const int n = 40;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  Capture cap;
  SimTime inject_at = cluster.sim().Now();
  auto qid = cluster.InjectQuery(3, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(inject_at + kMinute);
  ASSERT_TRUE(cap.got_predictor);
  // §4.3.3: 3.1 s at 2,000 endsystems; small nets should be well under 30 s.
  EXPECT_LT(cap.predictor_at - inject_at, 30 * kSecond);
}

TEST(IntegrationTest, DownEndsystemsPredictedNotCountedYet) {
  const int n = 40;
  const int down_count = 8;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);

  // Take down the last `down_count` endsystems; wait for failure detection
  // and metadata down-marking.
  for (int e = n - down_count; e < n; ++e) cluster.BringDown(e);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(
      0, "SELECT SUM(bytes) FROM Flow WHERE port = 80",
      cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);

  ASSERT_TRUE(cap.got_predictor);
  // The predictor should know about (nearly) all endsystems, including the
  // down ones whose metadata is replicated.
  EXPECT_GE(cap.predictor.endsystems(), n - 1);
  double immediate = cap.predictor.ExpectedRowsBy(0);
  double total = cap.predictor.TotalRows();
  double up_rows = static_cast<double>(ToyMatching(n - down_count));
  double all_rows = static_cast<double>(ToyMatching(n));
  // Immediate completeness reflects only the live population...
  EXPECT_NEAR(immediate, up_rows, 0.05 * up_rows);
  // ...while the projected total includes the unavailable data.
  EXPECT_NEAR(total, all_rows, 0.05 * all_rows);

  // The incremental result counts only live endsystems' rows.
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n - down_count));
}

TEST(IntegrationTest, RejoiningEndsystemContributesLater) {
  const int n = 30;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(10 * kMinute);
  cluster.BringDown(7);
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow WHERE port = 80",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 5 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  int64_t before = cap.latest()->rows_matched;
  EXPECT_EQ(before, ToyMatching(n) - 8);  // endsystem 7 has 8 matching rows

  // Endsystem 7 rejoins: the active-query handoff (query list from its
  // neighbor) must get it executing and submitting its result.
  cluster.BringUp(7);
  cluster.sim().RunUntil(cluster.sim().Now() + 10 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, ToyMatching(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
}

TEST(IntegrationTest, ExactlyOnceUnderResubmission) {
  // Result refresh re-submits results periodically; versioned child slots
  // must keep every endsystem counted exactly once.
  const int n = 24;
  ClusterConfig cfg = ToyConfig(n);
  cfg.seaweed.result_refresh_period = 30 * kSecond;  // aggressive refresh
  SeaweedCluster cluster(cfg, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 20 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));
  EXPECT_EQ(cap.latest()->endsystems, n);
  // And it never exceeded the true total at any point.
  for (const auto& [t, r] : cap.results) {
    EXPECT_LE(r.rows_matched, 2 * ToyMatching(n));
    EXPECT_LE(r.endsystems, n);
  }
}

TEST(IntegrationTest, SurvivesAggregationVertexFailure) {
  const int n = 32;
  SeaweedCluster cluster(ToyConfig(n, /*seed=*/5), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow WHERE port = 80",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);

  // Kill the node hosting the root vertex (closest to queryId) — the worst
  // possible interior failure. Backups + refresh must reconstruct.
  auto root = cluster.overlay().OracleRoot(*qid);
  ASSERT_TRUE(root.has_value());
  if (root->address != 0) {  // don't kill the origin, it holds the observer
    cluster.BringDown(static_cast<int>(root->address));
  }
  cluster.sim().RunUntil(cluster.sim().Now() + 15 * kMinute);

  ASSERT_NE(cap.latest(), nullptr);
  int64_t expected = ToyMatching(n);
  if (root->address != 0) {
    expected -= static_cast<int64_t>(root->address) + 1;  // its own rows gone
  }
  EXPECT_GE(cap.latest()->rows_matched, expected - 2);
  EXPECT_LE(cap.latest()->rows_matched, ToyMatching(n));
}

TEST(IntegrationTest, MetadataReplicatedToNeighbors) {
  const int n = 20;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(30 * kMinute);

  // Every endsystem's metadata should be held by several peers.
  for (int e = 0; e < n; ++e) {
    NodeId owner = cluster.pastry_node(e)->id();
    int holders = 0;
    for (int other = 0; other < n; ++other) {
      if (other == e) continue;
      if (cluster.seaweed_node(other)->metadata_store().Find(owner)) {
        ++holders;
      }
    }
    EXPECT_GE(holders, 3) << "endsystem " << e << " under-replicated";
  }
  EXPECT_GT(cluster.meter().CategoryTxBytes(TrafficCategory::kMetadata), 0u);
}

TEST(IntegrationTest, QueriesUnderRealisticChurn) {
  // Farsite-style churn for a few hours with a query injected mid-way:
  // the system must stay consistent (no over-counting) and the result must
  // track the live population.
  const int n = 60;
  ClusterConfig cfg = ToyConfig(n, /*seed=*/9);
  SeaweedCluster cluster(cfg, MakeToyData(n));

  FarsiteModelConfig fcfg;
  fcfg.seed = 17;
  auto trace = GenerateFarsiteTrace(fcfg, n, 12 * kHour);
  cluster.DriveFromTrace(trace, 12 * kHour);
  cluster.sim().RunUntil(2 * kHour);

  Capture cap;
  // Find an endsystem that is up to inject from.
  int origin = -1;
  for (int e = 0; e < n; ++e) {
    if (cluster.pastry_node(e)->joined()) {
      origin = e;
      break;
    }
  }
  ASSERT_GE(origin, 0);
  auto qid = cluster.InjectQuery(origin, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()),
                                 /*ttl=*/10 * kHour);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(6 * kHour);

  ASSERT_TRUE(cap.got_predictor);
  EXPECT_GT(cap.predictor.endsystems(), n / 2);
  ASSERT_NE(cap.latest(), nullptr);
  // Never over-counts.
  for (const auto& [t, r] : cap.results) {
    EXPECT_LE(r.rows_matched, 2 * ToyMatching(n));
    EXPECT_LE(r.endsystems, n);
  }
  // By 4 hours in, most endsystems that were ever up should have
  // contributed (origin stayed up or not, results persist in the tree).
  EXPECT_GT(cap.latest()->endsystems, n / 2);
}

// --- Run folding ------------------------------------------------------------
//
// Beyond the first level or two, V puts vertex ids next to the queryId, so
// one node is primary for long runs of them. A run folds in one step; only
// results that leave a node wait for result_deliver_debounce.

uint64_t CounterValue(SeaweedCluster& cluster, const char* name) {
  return cluster.obs().metrics.GetCounter(name)->value();
}

// The primary for `key` when every endsystem is up: the ring-closest id.
int OwnerOf(SeaweedCluster& cluster, int n, const NodeId& key) {
  int best = 0;
  for (int e = 1; e < n; ++e) {
    if (cluster.pastry_node(e)->id().RingDistanceTo(key) <
        cluster.pastry_node(best)->id().RingDistanceTo(key)) {
      best = e;
    }
  }
  return best;
}

// Submits that leave a node on the way from `leaf` up to the root vertex.
int RemoteHops(SeaweedCluster& cluster, int n, const NodeId& query_id,
               int leaf) {
  const int b = cluster.config().pastry.b;
  int at = leaf;
  int hops = 0;
  for (NodeId v = cluster.pastry_node(leaf)->id(); v != query_id;) {
    v = VertexParent(query_id, v, b);
    const int owner = OwnerOf(cluster, n, v);
    if (owner != at) ++hops;
    at = owner;
  }
  return hops;
}

TEST(IntegrationTest, OwnedRunFoldsInOneStep) {
  const int n = 48;
  SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  Capture cap;
  const SimTime inject_at = cluster.sim().Now();
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()));
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(inject_at + 2 * kMinute);

  SimTime full_at = -1;
  for (const auto& [t, r] : cap.results) {
    if (r.endsystems == n) {
      full_at = t;
      break;
    }
  }
  ASSERT_GE(full_at, 0) << "no result covered every endsystem";
  EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));

  // Full coverage within a few debounce periods of injection. Waiting one
  // period per tree level took about 31 (D = 32 levels at b = 4).
  const SimDuration debounce = cluster.config().seaweed.result_deliver_debounce;
  EXPECT_LT(full_at - inject_at, 4 * debounce);

  // One kVertexReplicate per backup per fold: a contribution costs
  // vertex_backups messages where it lands and at each remote hop, not at
  // every tree level.
  int64_t bound = 0;
  for (int e = 0; e < n; ++e) {
    bound += cluster.config().seaweed.vertex_backups *
             (RemoteHops(cluster, n, *qid, e) + 1);
  }
  const uint64_t replicate_msgs =
      CounterValue(cluster, "seaweed.vertex_replicate_msgs");
  EXPECT_GT(replicate_msgs, 0u);
  EXPECT_LE(replicate_msgs, static_cast<uint64_t>(bound));
}

TEST(IntegrationTest, RefreshDoesNotCascadeDownAnOwnedRun) {
  // Every vertex has its own refresh timer. If each re-sent to a local
  // parent that already holds its version, a run of k vertices would fold
  // O(k^2) times per period.
  const int n = 48;
  ClusterConfig cfg = ToyConfig(n);
  cfg.seaweed.result_refresh_period = 15 * kSecond;
  SeaweedCluster cluster(cfg, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(5 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  Capture cap;
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()),
                                 /*ttl=*/48 * kHour);
  ASSERT_TRUE(qid.ok());
  cluster.sim().RunUntil(cluster.sim().Now() + 2 * kMinute);
  ASSERT_NE(cap.latest(), nullptr);
  ASSERT_EQ(cap.latest()->endsystems, n);

  const uint64_t before = CounterValue(cluster, "seaweed.vertex_updates");
  cluster.sim().RunUntil(cluster.sim().Now() + cfg.seaweed.result_refresh_period);
  const uint64_t added =
      CounterValue(cluster, "seaweed.vertex_updates") - before;
  const int depth = 128 / cfg.pastry.b;
  EXPECT_LE(added, static_cast<uint64_t>(n * (depth + 1)));
  // Refreshes re-send, never re-count.
  EXPECT_EQ(cap.latest()->endsystems, n);
  EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));
}

TEST(IntegrationTest, FoldedRunSurvivesPrimaryFailover) {
  // Kill the primary of the run next to the queryId while leaves are still
  // folding into it. The next-closest node holds backup copies but no
  // refresh timers, and the old primary's versions are ahead of its own:
  // it must still restart propagation and outrank the dead node's
  // submissions, or the origin stalls at a partial count forever.
  const int n = 48;
  for (SimDuration kill_after : {1200 * kMillisecond, 2500 * kMillisecond}) {
    SeaweedCluster cluster(ToyConfig(n), MakeToyData(n));
    cluster.BringUpAll();
    cluster.sim().RunUntil(5 * kMinute);
    Capture cap;
    const SimTime inject_at = cluster.sim().Now();
    auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                   cap.MakeObserver(&cluster.sim()));
    ASSERT_TRUE(qid.ok());
    auto root = cluster.overlay().OracleRoot(*qid);
    ASSERT_TRUE(root.has_value());
    ASSERT_NE(root->address, 0u) << "the origin holds the observer";
    cluster.sim().RunUntil(inject_at + kill_after);
    cluster.BringDown(static_cast<int>(root->address));

    // Repaired within one refresh period. The dead node's own contribution
    // was replicated with the fold that counted it, so it stays counted.
    cluster.sim().RunUntil(cluster.sim().Now() +
                           cluster.config().seaweed.result_refresh_period +
                           kMinute);
    ASSERT_NE(cap.latest(), nullptr);
    EXPECT_EQ(cap.latest()->endsystems, n) << "kill after " << kill_after;
    EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));
    for (const auto& [t, r] : cap.results) EXPECT_LE(r.endsystems, n);
  }
}

TEST(IntegrationTest, RestartedPrimaryResumesSending) {
  // A loopback-cluster crash in miniature: the three endsystems of one
  // shard die while the query folds and come back a second later, under 5%
  // loss with seaweedd's fast timers. The root primary is one of them; it
  // receives submissions while still joining and arms its deliver and
  // refresh timers then. Those timers must survive the join.
  const int n = 12;
  ClusterConfig cfg = ClusterOptions()
                          .WithEndsystems(n)
                          .WithSeed(26)
                          .WithMessageLossRate(0.05)
                          .BuildOrDie();
  cfg.pastry.heartbeat_period = 2 * kSecond;
  cfg.pastry.probe_period = 20 * kSecond;
  cfg.pastry.probe_timeout = kSecond;
  cfg.pastry.join_retry_timeout = kSecond;
  cfg.seaweed.exec_delay = 100 * kMillisecond;
  cfg.seaweed.child_timeout = 2 * kSecond;
  cfg.seaweed.result_ack_timeout = kSecond;
  cfg.seaweed.max_retry_backoff = 5 * kSecond;
  cfg.seaweed.summary_push_period = 30 * kSecond;
  cfg.seaweed.result_refresh_period = 15 * kSecond;
  cfg.seaweed.dissem_refresh_period = 3 * kSecond;
  cfg.seaweed.result_deliver_debounce = 200 * kMillisecond;
  SeaweedCluster cluster(cfg, MakeToyData(n));
  cluster.BringUpAll();
  cluster.sim().RunUntil(2 * kMinute);
  ASSERT_EQ(cluster.CountJoined(), n);

  Capture cap;
  const SimTime inject_at = cluster.sim().Now();
  auto qid = cluster.InjectQuery(0, "SELECT COUNT(*) FROM Flow",
                                 cap.MakeObserver(&cluster.sim()),
                                 /*ttl=*/10 * kMinute);
  ASSERT_TRUE(qid.ok());
  const std::vector<int> shard = {2, 6, 10};
  auto root = cluster.overlay().OracleRoot(*qid);
  ASSERT_TRUE(root.has_value());
  ASSERT_NE(std::find(shard.begin(), shard.end(),
                      static_cast<int>(root->address)),
            shard.end());
  cluster.sim().RunUntil(inject_at + 400 * kMillisecond);
  for (int e : shard) cluster.BringDown(e);
  cluster.sim().RunUntil(cluster.sim().Now() + kSecond);
  for (int e : shard) cluster.BringUp(e);
  cluster.sim().RunUntil(inject_at + 3 * kMinute);

  ASSERT_NE(cap.latest(), nullptr);
  EXPECT_EQ(cap.latest()->endsystems, n);
  EXPECT_EQ(cap.latest()->rows_matched, 2 * ToyMatching(n));
  for (const auto& [t, r] : cap.results) EXPECT_LE(r.endsystems, n);
}

}  // namespace
}  // namespace seaweed
