// swbench: in-process runner for the two simulated workloads of the Seaweed
// benchmark. perfbench/run.py starts one swbench process per measurement so
// that peak RSS belongs to that measurement alone.
//
//   swbench churn|query_mix --seed S --seconds T --trace 0|1 [--spans FILE]
//
// One repetition = set-up (trace/data generation, cluster build, join) plus
// the timed phase. Repetitions use identical inputs (all derived from S) and
// repeat until T wall-clock seconds have passed, at least kMinReps times;
// wall-clock figures are reported per repetition so the caller can take
// medians, simulated-time figures once (every repetition must reproduce
// them exactly, which is itself checked).
//
// With --trace 1 untraced and traced repetitions alternate. A traced
// repetition wraps the DataProvider handed to SeaweedCluster, times each
// Simulator::RunUntil slice, records spans around those calls, reads the
// program's obs registry, and afterwards re-times Encode/Decode/Merge on
// the DatabaseSummary, AggregateResult and CompletenessPredictor objects
// it captured at those boundaries. Spans are kept in memory and written to
// --spans at exit, one JSON object per line.
//
// The last line on stdout is one JSON object (see PrintReport); progress
// and failure notes go to stderr.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/rng.h"
#include "db/aggregate.h"
#include "db/sql_parser.h"
#include "net/result_format.h"
#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

using namespace seaweed;

namespace {

// Set-up is sampled kSetupOnlyReps extra times; the timed phase runs at
// least kMinReps times (untraced) and at most kMaxReps times.
constexpr int kSetupOnlyReps = 8;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0,100]).
double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  obs::AppendJsonEscaped(&out, s);
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += JsonNum(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Spans: name, wall-clock start/end, parent, and the query id they serve.

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string query;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  // Opens a span nested under the innermost open one.
  int Begin(const char* name, std::string query = "") {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, std::move(query), WallNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = WallNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  // A span whose interval is known after the fact (query lifecycles, which
  // overlap the simulation slices instead of nesting inside them).
  void Add(const char* name, std::string query, int64_t start_ns,
           int64_t end_ns, int parent) {
    spans_.push_back({name, std::move(query), start_ns, end_ns, parent});
  }
  size_t size() const { return spans_.size(); }

  // Self time per span name: duration minus the union of child intervals.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, cur_s = 0, cur_e = -1;
      for (const auto& [s, e] : iv) {
        const int64_t cs = std::max(s, spans_[i].start_ns);
        const int64_t ce = std::min(e, spans_[i].end_ns);
        if (ce <= cs) continue;
        if (cs > cur_e) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = cs;
          cur_e = ce;
        } else {
          cur_e = std::max(cur_e, ce);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
      out[spans_[i].name] +=
          (spans_[i].end_ns - spans_[i].start_ns - covered) * 1e-9;
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream os(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"name\":" << JsonStr(s.name) << ",\"query\":" << JsonStr(s.query)
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Objects captured at layer boundaries during a traced repetition, re-timed
// afterwards in isolation.
struct Capture {
  static constexpr size_t kMaxSummaries = 32;
  static constexpr size_t kMaxLeafPerQuery = 64;
  static constexpr size_t kMaxPredictors = 256;
  std::vector<db::DatabaseSummary> summaries;
  std::map<std::string, std::vector<db::AggregateResult>> leaf_results;
  std::vector<db::AggregateResult> root_results;
  std::vector<CompletenessPredictor> predictors;
};

// DataProvider decorator: times every call into the db layer and captures
// summaries and per-endsystem results.
class TimedProvider final : public DataProvider {
 public:
  TimedProvider(std::shared_ptr<DataProvider> inner, Tracer* tracer,
                Capture* capture)
      : inner_(std::move(inner)), tracer_(tracer), capture_(capture) {}

  const db::DatabaseSummary& Summary(int e) override {
    const int64_t t0 = WallNs();
    const db::DatabaseSummary& s = inner_->Summary(e);
    summary_ns_ += WallNs() - t0;
    ++summary_calls_;
    if (capture_->summaries.size() < Capture::kMaxSummaries &&
        captured_summary_of_.insert(e).second) {
      capture_->summaries.push_back(s);
    }
    return s;
  }
  Result<db::AggregateResult> Execute(int e,
                                      const db::SelectQuery& q) override {
    return Timed("", [&] { return inner_->Execute(e, q); });
  }
  Result<db::AggregateResult> ExecuteCached(int e, const db::SelectQuery& q,
                                            db::PlanCache* cache,
                                            const std::string& key) override {
    return Timed(key, [&] { return inner_->ExecuteCached(e, q, cache, key); });
  }
  Result<SlicedExecution> BeginSlicedExecution(int e, const db::SelectQuery& q,
                                               db::PlanCache* cache,
                                               const std::string& key) override {
    return inner_->BeginSlicedExecution(e, q, cache, key);
  }
  uint32_t SummaryWireBytes(int e) override { return inner_->SummaryWireBytes(e); }

  uint64_t exec_calls() const { return exec_us_.size(); }
  double exec_busy_s() const { return exec_ns_ * 1e-9; }
  const std::vector<double>& exec_us() const { return exec_us_; }
  uint64_t summary_calls() const { return summary_calls_; }
  double summary_busy_s() const { return summary_ns_ * 1e-9; }

 private:
  Result<db::AggregateResult> Timed(
      const std::string& key,
      const std::function<Result<db::AggregateResult>()>& call) {
    const int span = tracer_->Begin("db.exec", key);
    const int64_t t0 = WallNs();
    Result<db::AggregateResult> r = call();
    const int64_t ns = WallNs() - t0;
    tracer_->End(span);
    exec_ns_ += ns;
    exec_us_.push_back(ns * 1e-3);
    if (r.ok() && !key.empty()) {
      auto& v = capture_->leaf_results[key];
      if (v.size() < Capture::kMaxLeafPerQuery) v.push_back(*r);
    }
    return r;
  }

  std::shared_ptr<DataProvider> inner_;
  Tracer* tracer_;
  Capture* capture_;
  std::set<int> captured_summary_of_;
  int64_t exec_ns_ = 0;
  std::vector<double> exec_us_;
  uint64_t summary_calls_ = 0;
  int64_t summary_ns_ = 0;
};

// Median per-call microseconds of `op` over `objects`; each object's op is
// repeated until at least 20 µs of work accumulates so short calls resolve.
template <typename T, typename Op>
double RetimeUs(const std::vector<T>& objects, Op op) {
  std::vector<double> per_call;
  for (const T& obj : objects) {
    int reps = 0;
    const int64_t t0 = WallNs();
    int64_t t1 = t0;
    while (reps < 1000 && (reps == 0 || t1 - t0 < 20000)) {
      op(obj);
      ++reps;
      t1 = WallNs();
    }
    per_call.push_back((t1 - t0) * 1e-3 / reps);
  }
  return Median(per_call);
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// The query_mix rotation: the paper's four evaluation queries (Figs 5-8),
// a narrow and a wide GROUP BY, and the three sketches.
const std::vector<std::string>& MixSql() {
  static const std::vector<std::string> kSql = {
      "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80",
      "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
      "SELECT AVG(Bytes) FROM Flow WHERE App = 'SMB'",
      "SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
      "SELECT App, COUNT(*), SUM(Bytes) FROM Flow GROUP BY App",
      "SELECT SrcPort, COUNT(*), SUM(Bytes) FROM Flow GROUP BY SrcPort",
      "SELECT DISTINCT_APPROX(SrcPort) FROM Flow",
      "SELECT QUANTILE(Bytes, 0.9) FROM Flow",
      "SELECT TOPK(App, 3) FROM Flow",
  };
  return kSql;
}

const char* kChurnSql = "SELECT SUM(Bytes) FROM Flow WHERE SrcPort = 80";

struct WorkloadShape {
  int endsystems;
  int anemone_days;
  double flows_per_day;
  // churn
  SimDuration duration = 0;
  // query_mix
  int queries = 0;
  double rate_qps = 0;
  SimDuration settle = 0;
  SimDuration query_ttl = 0;
};

WorkloadShape ShapeOf(const std::string& workload) {
  WorkloadShape s{};
  if (workload == "churn") {
    s.endsystems = 2000;
    s.anemone_days = 7;
    s.flows_per_day = 20;
    s.duration = kHour;
  } else {
    s.endsystems = 48;
    s.anemone_days = 1;
    s.flows_per_day = 10;
    // 24 rounds of the 9-query rotation: a p90 with twenty samples beyond
    // it, and enough queries that per-query variation averages out.
    s.queries = 216;
    s.rate_qps = 2;
    s.settle = 30 * kSecond;
    // About three times the time to full coverage, so that the set of live
    // queries, and the memory they hold, stays level across the run.
    s.query_ttl = 3 * kMinute;
  }
  return s;
}

// The deployment is fixed: node ids (cluster seed), topology and the
// dataset (the program's default Anemone seed, as in seaweedd) do not
// depend on --seed, which drives only the load: the query schedule and
// origins, and churn's availability trace. With a few dozen endsystems a
// seeded dataset would swing its volume by tens of percent with the number
// of high-volume servers drawn, and seeded ids would shift every query's
// tree depth alike.
constexpr uint64_t kClusterSeed = 1;

ClusterConfig MakeConfig(const WorkloadShape& shape) {
  // Program defaults throughout; only population and the generated
  // dataset's size are chosen by the workload.
  ClusterOptions opts;
  opts.WithEndsystems(shape.endsystems).WithSeed(kClusterSeed);
  opts.anemone().days = shape.anemone_days;
  opts.anemone().workstation_flows_per_day = shape.flows_per_day;
  return opts.BuildOrDie();
}

struct QueryTrack {
  int tmpl = 0;
  int origin = 0;
  SimTime due = 0;
  int need90 = 0;
  bool injected = false;
  std::string id;
  SimTime first_predictor = -1;
  SimTime reached90 = -1;
  int64_t wall_injected_ns = 0;
  int64_t wall_predictor_ns = 0;
  int64_t wall_reached90_ns = 0;
  double last_pred_rows = -1;
  int64_t last_pred_endsystems = -1;
  bool predictor_regressed = false;
  bool overcount = false;
  std::optional<db::AggregateResult> last;
};

// A repetition either stops after set-up (extra set-up samples) or runs the
// timed phase too, traced or not.
enum class Mode { kSetupOnly, kPlain, kTraced };

struct RepResult {
  bool setup_only = false;
  bool traced = false;
  double setup_s = 0, trace_gen_s = 0, cluster_build_s = 0, join_s = 0;
  double run_s = 0, cpu_s = 0;
  std::vector<double> ttfp_ms, tt90_ms;
  double overhead_Bps = 0, result_bpq = 0, dissem_bpq = 0;
  int attempted = 0;
  std::vector<std::string> failures;
  std::string fingerprint;
  std::map<std::string, double> layers;
};

// Oracle aggregates: the fold of every endsystem's local execution,
// computed outside the protocol.
class Oracle {
 public:
  explicit Oracle(const ClusterConfig& cfg)
      : n_(cfg.num_endsystems),
        data_(cfg.anemone, cfg.num_endsystems, /*keep_tables=*/false,
              cfg.summary_wire_bytes) {}

  const db::AggregateResult& Fold(const std::string& sql) {
    auto it = cache_.find(sql);
    if (it != cache_.end()) return it->second;
    auto parsed = db::ParseSelect(sql);
    SEAWEED_CHECK_MSG(parsed.ok(), "oracle parse: " + sql);
    db::AggregateResult acc;
    for (int e = 0; e < n_; ++e) {
      auto r = data_.Execute(e, *parsed);
      SEAWEED_CHECK_MSG(r.ok(), "oracle exec: " + sql);
      acc.Merge(*r);
    }
    return cache_.emplace(sql, std::move(acc)).first->second;
  }

 private:
  int n_;
  AnemoneDataProvider data_;
  std::map<std::string, db::AggregateResult> cache_;
};

// Checks a completed query_mix answer; returns "" when it passes.
std::string CheckMixAnswer(const std::string& sql, const db::AggregateResult& got,
                           int n, Oracle* oracle) {
  auto parsed = db::ParseSelect(sql);
  if (!parsed.ok()) return "parse failed";
  if (got.endsystems != n) {
    return "covered " + std::to_string(got.endsystems) + "/" +
           std::to_string(n) + " endsystems";
  }
  const db::SelectItem& first = parsed->items[0];
  if (!first.is_aggregate || first.func->exact()) {
    const std::string want = net::FormatAggregateLine(*parsed, oracle->Fold(sql));
    const std::string have = net::FormatAggregateLine(*parsed, got);
    if (want != have) return "exact answer differs: got '" + have.substr(0, 160) + "'";
    return "";
  }
  auto v = first.func->Finalize(got.states[0], first.EffectiveParam());
  if (!v.ok()) return "sketch finalize failed";
  const std::string& fn = first.func->name();
  if (fn == "DISTINCT_APPROX") {
    const double exact = static_cast<double>(
        oracle->Fold("SELECT " + first.column + ", COUNT(*) FROM Flow GROUP BY " +
                     first.column).groups.size());
    const double err = std::fabs(static_cast<double>(v->AsInt64()) - exact) / exact;
    if (err > 0.02) return "DISTINCT_APPROX error " + std::to_string(err) + " > 2%";
    return "";
  }
  if (fn == "QUANTILE") {
    const db::AggregateResult& dist = oracle->Fold(
        "SELECT " + first.column + ", COUNT(*) FROM Flow GROUP BY " + first.column);
    const double x = v->is_double() ? v->AsDouble() : static_cast<double>(v->AsInt64());
    double total = 0, lt = 0, le = 0;
    for (const auto& [key, states] : dist.groups) {
      const double k = key.is_double() ? key.AsDouble()
                                       : static_cast<double>(key.AsInt64());
      const double c = static_cast<double>(states[1].count);
      total += c;
      if (k < x) lt += c;
      if (k <= x) le += c;
    }
    const double q = first.EffectiveParam();
    if (lt / total > q + 0.01 || le / total < q - 0.01) {
      return "QUANTILE rank [" + std::to_string(lt / total) + ", " +
             std::to_string(le / total) + "] misses q=" + std::to_string(q) +
             " by > 1%";
    }
    return "";
  }
  if (fn == "TOPK") {
    const db::AggregateResult& counts = oracle->Fold(
        "SELECT " + first.column + ", COUNT(*) FROM Flow GROUP BY " + first.column);
    std::map<std::string, double> truth;
    double rows = 0;
    for (const auto& [key, states] : counts.groups) {
      truth[net::FormatValue(key)] = static_cast<double>(states[1].count);
      rows += static_cast<double>(states[1].count);
    }
    const double k = first.EffectiveParam();
    const double slack = rows / std::max(8 * k, 64.0);
    std::stringstream ss(v->AsString());
    std::string entry;
    double min_reported_true = 1e300;
    std::map<std::string, bool> reported;
    while (std::getline(ss, entry, ';')) {
      const size_t colon = entry.rfind(':');
      const std::string key = entry.substr(0, colon);
      const double cnt = std::atof(entry.c_str() + colon + 1);
      auto t = truth.find(key);
      if (t == truth.end() || cnt > t->second || cnt < t->second - slack) {
        return "TOPK entry '" + entry + "' outside its count bound";
      }
      reported[key] = true;
      min_reported_true = std::min(min_reported_true, t->second);
    }
    for (const auto& [key, c] : truth) {
      if (!reported.count(key) && c > min_reported_true + slack) {
        return "TOPK missed heavy key " + key;
      }
    }
    return "";
  }
  return "no check for " + fn;
}

// Counter/gauge/histogram accessors that tolerate absent instruments.
struct Reg {
  const obs::MetricsRegistry& r;
  double C(const std::string& n) const {
    const obs::Counter* c = r.FindCounter(n);
    return c ? static_cast<double>(c->value()) : 0;
  }
  double GMax(const std::string& n) const {
    const obs::Gauge* g = r.FindGauge(n);
    return g ? static_cast<double>(g->max()) : 0;
  }
  double G(const std::string& n) const {
    const obs::Gauge* g = r.FindGauge(n);
    return g ? static_cast<double>(g->value()) : 0;
  }
  double TsTotal(const std::string& n) const {
    const obs::Timeseries* t = r.FindTimeseries(n);
    return t ? static_cast<double>(t->total()) : 0;
  }
  const obs::Histogram* H(const std::string& n) const { return r.FindHistogram(n); }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics read from the cluster's obs registry after a traced
// repetition, plus the benchmark's own timings of the run phase.
void FillLayers(SeaweedCluster& cluster, const TimedProvider& prov,
                const Capture& cap, Tracer& tracer, double run_s,
                double run_sim_h, uint64_t run_events, size_t depth_peak,
                RepResult* out) {
  cluster.PublishStatsGauges();
  Reg reg{cluster.obs().metrics};
  auto& L = out->layers;
  constexpr double kMiB = 1024.0 * 1024.0;
  L["sim.events"] = static_cast<double>(cluster.sim().events_executed());
  L["sim.events_per_s"] = Ratio(static_cast<double>(run_events), run_s);
  L["sim.msgs_sent"] = reg.C("sim.msgs_sent");
  L["sim.queue_depth_peak"] =
      std::max(static_cast<double>(depth_peak), reg.GMax("sim.event_queue_depth"));
  L["sim.wall_s_per_sim_h"] = Ratio(run_s, run_sim_h);

  L["overlay.heartbeats"] = reg.C("overlay.heartbeats");
  L["overlay.joins"] = reg.C("overlay.joins");
  L["overlay.leafset_repairs"] = reg.C("overlay.leafset_repairs");
  const obs::Histogram* hops = reg.H("overlay.route_hops");
  L["overlay.route_hops_p50"] = hops ? static_cast<double>(hops->ApproxQuantile(0.5)) : 0;
  L["overlay.bytes"] = reg.TsTotal("bw.tx.pastry");
  L["overlay.routing_mb"] = reg.G("mem.overlay.routing_bytes") / kMiB;

  L["seaweed.metadata_pushes"] = reg.C("seaweed.metadata_pushes");
  L["seaweed.metadata_bytes"] = reg.TsTotal("bw.tx.metadata");
  L["seaweed.meta_store_mb"] = reg.G("mem.meta.store_bytes") / kMiB;

  const double updates = reg.C("seaweed.vertex_updates");
  const double repro = reg.C("seaweed.vertex_repropagations");
  L["seaweed.vertex_updates"] = updates;
  L["seaweed.vertex_repropagations"] = repro;
  L["seaweed.reprop_share"] = Ratio(repro, repro + updates);
  L["seaweed.result_bytes"] = reg.TsTotal("bw.tx.result");
  L["seaweed.sketch_merges"] = reg.C("seaweed.sketch.merges");

  L["seaweed.predictor_merges"] = reg.C("seaweed.predictor_merges");
  const double hits = reg.C("seaweed.pred_cache_hits");
  L["seaweed.pred_cache_hit_ratio"] =
      Ratio(hits, hits + reg.C("seaweed.pred_cache_misses"));
  L["seaweed.predictor_bytes"] = reg.TsTotal("bw.tx.predictor");
  L["seaweed.dissem_bytes"] =
      reg.TsTotal("bw.tx.dissemination") + reg.TsTotal("bw.tx.batched");
  L["seaweed.dissem_reissues"] = reg.C("seaweed.dissem_reissues");

  const obs::Histogram* scanned = reg.H("db.rows_scanned");
  const double rows = scanned ? static_cast<double>(scanned->sum()) : 0;
  L["db.exec_calls"] = static_cast<double>(prov.exec_calls());
  L["db.exec_busy_s"] = prov.exec_busy_s();
  L["db.exec_us_p50"] = Pct(prov.exec_us(), 50);
  L["db.exec_us_p99"] = Pct(prov.exec_us(), 99);
  L["db.rows_scanned"] = rows;
  L["db.ns_per_row"] = Ratio(prov.exec_busy_s() * 1e9, rows);
  const double plan_hits = reg.C("db.plan_cache.hits");
  L["db.plan_cache_hit_ratio"] =
      Ratio(plan_hits, plan_hits + reg.C("db.plan_cache.binds"));
  L["db.summary_calls"] = static_cast<double>(prov.summary_calls());
  L["db.summary_busy_s"] = prov.summary_busy_s();

  L["wire.bytes_tx"] = reg.C("bw.tx.total_bytes");
  L["obs.spans"] = static_cast<double>(cluster.obs().trace.started());

  // Re-time the codec and the folds on the captured objects.
  const int retime = tracer.Begin("retime");
  L["wire.summary_encode_us"] =
      RetimeUs(cap.summaries, [](const db::DatabaseSummary& s) {
        Writer w;
        s.Encode(w);
      });
  L["wire.result_encode_us"] =
      RetimeUs(cap.root_results, [](const db::AggregateResult& r) {
        Writer w;
        r.Encode(w);
      });
  std::vector<std::vector<uint8_t>> encoded;
  for (const auto& r : cap.root_results) {
    Writer w;
    r.Encode(w);
    encoded.push_back(w.TakeBytes());
  }
  L["wire.result_decode_us"] =
      RetimeUs(encoded, [](const std::vector<uint8_t>& b) {
        Reader rd(b);
        auto r = db::AggregateResult::Decode(rd);
        SEAWEED_CHECK_MSG(r.ok(), "captured result failed to decode");
      });
  L["wire.predictor_encode_us"] =
      RetimeUs(cap.predictors, [](const CompletenessPredictor& p) {
        Writer w;
        p.Encode(w);
      });
  // Folds: merge each query's captured leaf results in arrival order.
  std::vector<double> fold_us;
  for (const auto& [key, leaves] : cap.leaf_results) {
    for (int rep = 0; rep < 3; ++rep) {
      db::AggregateResult acc;
      for (const auto& leaf : leaves) {
        const int64_t t0 = WallNs();
        acc.Merge(leaf);
        fold_us.push_back((WallNs() - t0) * 1e-3);
      }
    }
  }
  L["seaweed.fold_us_p50"] = Pct(fold_us, 50);
  std::vector<double> pfold_us;
  if (!cap.predictors.empty()) {
    for (int rep = 0; rep < 200; ++rep) {
      CompletenessPredictor acc;
      const int64_t t0 = WallNs();
      for (const auto& p : cap.predictors) acc.Merge(p);
      pfold_us.push_back((WallNs() - t0) * 1e-3 / cap.predictors.size());
    }
  }
  L["seaweed.predictor_fold_us_p50"] = Pct(pfold_us, 50);
  tracer.End(retime);
}

// Runs the simulation in slices, timing each slice when traced.
struct SliceStats {
  size_t depth_peak = 0;
};

void RunSlice(SeaweedCluster& cluster, SimTime until, Tracer* tracer,
              SliceStats* stats) {
  const int span = tracer ? tracer->Begin("sim.slice") : -1;
  cluster.sim().RunUntil(until);
  if (tracer) {
    tracer->End(span);
    stats->depth_peak = std::max(stats->depth_peak, cluster.sim().pending_events());
  }
}

QueryObserver TrackObserver(SeaweedCluster& cluster, QueryTrack* t,
                            Capture* cap) {
  QueryObserver obs;
  obs.on_predictor = [&cluster, t, cap](const NodeId&,
                                        const CompletenessPredictor& p) {
    if (t->first_predictor < 0) {
      t->first_predictor = cluster.sim().Now();
      t->wall_predictor_ns = WallNs();
    }
    if (p.TotalRows() < t->last_pred_rows ||
        p.endsystems() < t->last_pred_endsystems) {
      t->predictor_regressed = true;
    }
    t->last_pred_rows = p.TotalRows();
    t->last_pred_endsystems = p.endsystems();
    if (cap && cap->predictors.size() < Capture::kMaxPredictors) {
      cap->predictors.push_back(p);
    }
  };
  obs.on_result = [&cluster, t](const NodeId&, const db::AggregateResult& r) {
    if (r.endsystems > cluster.config().num_endsystems) t->overcount = true;
    if (t->reached90 < 0 && r.endsystems >= t->need90) {
      t->reached90 = cluster.sim().Now();
      t->wall_reached90_ns = WallNs();
    }
    t->last = r;
  };
  return obs;
}

// Fills latencies, the determinism fingerprint and per-query spans.
void Summarize(const std::vector<QueryTrack>& tracks, Tracer* tracer,
               int parent, RepResult* out) {
  std::ostringstream fp;
  for (size_t i = 0; i < tracks.size(); ++i) {
    const QueryTrack& t = tracks[i];
    fp << i << ':' << t.injected << ',' << t.first_predictor << ','
       << t.reached90 << ';';
    if (!t.injected) continue;
    if (t.first_predictor >= 0) {
      out->ttfp_ms.push_back(static_cast<double>(t.first_predictor - t.due) /
                             kMillisecond);
    }
    if (t.reached90 >= 0) {
      out->tt90_ms.push_back(static_cast<double>(t.reached90 - t.due) /
                             kMillisecond);
    }
    if (tracer) {
      const int64_t end = t.wall_reached90_ns ? t.wall_reached90_ns : WallNs();
      tracer->Add("query", t.id, t.wall_injected_ns, end, parent);
      if (t.wall_predictor_ns) {
        tracer->Add("query.first_predictor", t.id, t.wall_injected_ns,
                    t.wall_predictor_ns, static_cast<int>(tracer->size()) - 1);
      }
    }
  }
  out->fingerprint += fp.str();
}

// ---------------------------------------------------------------------------

RepResult RunChurn(const Args& args, Mode mode, Tracer* tracer_all,
                   Oracle* oracle) {
  RepResult out;
  out.setup_only = mode == Mode::kSetupOnly;
  out.traced = mode == Mode::kTraced;
  Tracer* tracer = out.traced ? tracer_all : nullptr;
  const WorkloadShape shape = ShapeOf("churn");
  const ClusterConfig cfg = MakeConfig(shape);
  Capture cap;
  const int rep_span = tracer ? tracer->Begin("rep") : -1;

  const int64_t setup0 = WallNs();
  int span = tracer ? tracer->Begin("setup.trace_gen") : -1;
  FarsiteModelConfig fcfg;
  fcfg.seed = args.seed * 131 + 7;
  const AvailabilityTrace trace =
      GenerateFarsiteTrace(fcfg, shape.endsystems, shape.duration + kHour);
  if (tracer) tracer->End(span);
  span = tracer ? tracer->Begin("setup.data_gen") : -1;
  auto anemone = std::make_shared<AnemoneDataProvider>(
      cfg.anemone, cfg.num_endsystems, cfg.keep_tables, cfg.summary_wire_bytes);
  for (int e = 0; e < shape.endsystems; ++e) anemone->Summary(e);
  if (tracer) tracer->End(span);
  const int64_t built0 = WallNs();
  out.trace_gen_s = (built0 - setup0) * 1e-9;

  span = tracer ? tracer->Begin("setup.cluster_build") : -1;
  std::shared_ptr<TimedProvider> timed;
  std::shared_ptr<DataProvider> provider = anemone;
  if (tracer) provider = timed = std::make_shared<TimedProvider>(anemone, tracer, &cap);
  SeaweedCluster cluster(cfg, provider);
  cluster.DriveFromTrace(trace, shape.duration);

  // The paper's Q1 at T/4 from the first joined endsystem, living to the
  // end. Its 90% mark counts the endsystems up at submit.
  const int n = shape.endsystems;
  std::vector<QueryTrack> tracks(1);
  QueryTrack& q = tracks[0];
  q.due = shape.duration / 4;
  int up = 0;
  for (int e = 0; e < n; ++e) up += trace.endsystem(e).IsUp(q.due);
  q.need90 = (up * 9 + 9) / 10;
  cluster.sim().At(q.due, [&cluster, &q, &cap, tracer, n, &shape] {
    for (int e = 0; e < n; ++e) {
      if (!cluster.pastry_node(e)->joined()) continue;
      q.origin = e;
      q.wall_injected_ns = WallNs();
      auto id = cluster.InjectQuery(
          e, kChurnSql, TrackObserver(cluster, &q, tracer ? &cap : nullptr),
          shape.duration - q.due);
      if (id.ok()) {
        q.injected = true;
        q.id = id->ToHex();
      }
      return;
    }
  });
  if (tracer) tracer->End(span);
  const int64_t run0 = WallNs();
  out.cluster_build_s = (run0 - built0) * 1e-9;
  out.setup_s = (run0 - setup0) * 1e-9;
  if (out.setup_only) return out;

  const int run_span = tracer ? tracer->Begin("run") : -1;
  const double cpu0 = CpuSeconds();
  SliceStats slices;
  for (SimTime t = kMinute; t <= shape.duration; t += kMinute) {
    RunSlice(cluster, t, tracer, &slices);
  }
  out.cpu_s = CpuSeconds() - cpu0;
  out.run_s = (WallNs() - run0) * 1e-9;
  if (tracer) tracer->End(run_span);

  out.overhead_Bps = cluster.MeanTxPerOnline(0, shape.duration / kHour - 1);
  out.result_bpq =
      static_cast<double>(cluster.meter().CategoryTxBytes(TrafficCategory::kResult)) /
      static_cast<double>(tracks.size());
  out.dissem_bpq =
      static_cast<double>(cluster.meter().CategoryTxBytes(TrafficCategory::kDissemination) +
                          cluster.meter().CategoryTxBytes(TrafficCategory::kBatched)) /
      static_cast<double>(tracks.size());
  Summarize(tracks, tracer, rep_span, &out);
  std::ostringstream fp;
  fp << "|events=" << cluster.sim().events_executed()
     << "|tx=" << cluster.meter().total_tx_bytes();
  out.fingerprint += fp.str();

  // Never-overcount against the oracle fold over every endsystem, and a
  // predictor that never goes backwards.
  const db::AggregateResult& all = oracle->Fold(kChurnSql);
  {
    ++out.attempted;
    std::string fail;
    if (!q.injected) {
      fail = "query was not injected";
    } else if (q.overcount) {
      fail = "result covered more endsystems than exist";
    } else if (q.predictor_regressed) {
      fail = "completeness predictor went backwards";
    } else if (q.first_predictor < 0) {
      fail = "no completeness predictor arrived";
    } else if (q.reached90 < 0 || !q.last) {
      fail = "never covered 90% of the endsystems up at submit";
    } else if (q.last->rows_matched > all.rows_matched ||
               q.last->states[0].sum > all.states[0].sum) {
      fail = "result overcounts the oracle (rows " +
             std::to_string(q.last->rows_matched) + " > " +
             std::to_string(all.rows_matched) + ")";
    }
    if (!fail.empty()) out.failures.push_back("churn Q1: " + fail);
    if (tracer && q.last) cap.root_results.push_back(*q.last);
  }

  if (tracer) {
    FillLayers(cluster, *timed, cap, *tracer, out.run_s,
               ToSeconds(shape.duration) / 3600.0, cluster.sim().events_executed(),
               slices.depth_peak, &out);
    tracer->End(rep_span);
  }
  return out;
}

RepResult RunQueryMix(const Args& args, Mode mode, Tracer* tracer_all,
                      Oracle* oracle) {
  RepResult out;
  out.setup_only = mode == Mode::kSetupOnly;
  out.traced = mode == Mode::kTraced;
  Tracer* tracer = out.traced ? tracer_all : nullptr;
  const WorkloadShape shape = ShapeOf("query_mix");
  const ClusterConfig cfg = MakeConfig(shape);
  const int n = shape.endsystems;
  Capture cap;
  const int rep_span = tracer ? tracer->Begin("rep") : -1;

  // Data generation: build every endsystem's tables and summary up front.
  const int64_t setup0 = WallNs();
  int span = tracer ? tracer->Begin("setup.data_gen") : -1;
  auto anemone = std::make_shared<AnemoneDataProvider>(
      cfg.anemone, cfg.num_endsystems, cfg.keep_tables, cfg.summary_wire_bytes);
  for (int e = 0; e < n; ++e) anemone->Summary(e);
  if (tracer) tracer->End(span);
  const int64_t built0 = WallNs();
  out.trace_gen_s = (built0 - setup0) * 1e-9;

  span = tracer ? tracer->Begin("setup.cluster_build") : -1;
  std::shared_ptr<TimedProvider> timed;
  std::shared_ptr<DataProvider> provider = anemone;
  if (tracer) provider = timed = std::make_shared<TimedProvider>(anemone, tracer, &cap);
  SeaweedCluster cluster(cfg, provider);
  cluster.BringUpAll();
  if (tracer) tracer->End(span);
  const int64_t join0 = WallNs();
  out.cluster_build_s = (join0 - built0) * 1e-9;

  // Join: run until every endsystem is in the overlay, then settle.
  span = tracer ? tracer->Begin("setup.join") : -1;
  SliceStats slices;
  while (cluster.CountJoined() < n && cluster.sim().Now() < 10 * kMinute) {
    RunSlice(cluster, cluster.sim().Now() + kSecond, tracer, &slices);
  }
  RunSlice(cluster, cluster.sim().Now() + shape.settle, tracer, &slices);
  if (tracer) tracer->End(span);
  const int64_t run0 = WallNs();
  out.join_s = (run0 - join0) * 1e-9;
  out.setup_s = (run0 - setup0) * 1e-9;
  if (out.setup_only) return out;
  if (cluster.CountJoined() < n) {
    out.failures.push_back("only " + std::to_string(cluster.CountJoined()) +
                           " endsystems joined");
  }

  // Open-loop Poisson arrivals, fixed from the seed before the run: a
  // Poisson process conditioned on `queries` arrivals in a fixed window is
  // that many uniform points, so every seed offers the same load over the
  // same span.
  const SimTime start = cluster.sim().Now();
  const double window_s = shape.queries / shape.rate_qps;
  Rng rng(args.seed * 7919 + 13);
  std::vector<double> offsets;
  for (int i = 0; i < shape.queries; ++i) offsets.push_back(rng.Uniform(0, window_s));
  std::sort(offsets.begin(), offsets.end());
  std::vector<QueryTrack> tracks;
  for (double t : offsets) {
    QueryTrack q;
    q.tmpl = static_cast<int>(tracks.size() % MixSql().size());
    q.origin = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
    q.due = start + static_cast<SimDuration>(t * kSecond);
    q.need90 = (n * 9 + 9) / 10;
    tracks.push_back(q);
  }
  const SimTime last_due = tracks.back().due;
  const SimTime deadline = last_due + shape.query_ttl;
  for (QueryTrack& q : tracks) {
    cluster.sim().At(q.due, [&cluster, &q, &cap, tracer, &shape] {
      q.wall_injected_ns = WallNs();
      auto id = cluster.InjectQuery(q.origin, MixSql()[static_cast<size_t>(q.tmpl)],
                                    TrackObserver(cluster, &q, tracer ? &cap : nullptr),
                                    shape.query_ttl);
      if (id.ok()) {
        q.injected = true;
        q.id = id->ToHex();
      }
    });
  }

  const int run_span = tracer ? tracer->Begin("run") : -1;
  const double cpu0 = CpuSeconds();
  const uint64_t events0 = cluster.sim().events_executed();
  const double tx0 = static_cast<double>(cluster.meter().total_tx_bytes());
  auto all_done = [&tracks, n] {
    for (const QueryTrack& q : tracks) {
      if (!q.last || q.last->endsystems < n) return false;
    }
    return true;
  };
  while (cluster.sim().Now() < deadline &&
         (cluster.sim().Now() < last_due || !all_done())) {
    RunSlice(cluster, cluster.sim().Now() + kSecond, tracer, &slices);
  }
  out.cpu_s = CpuSeconds() - cpu0;
  out.run_s = (WallNs() - run0) * 1e-9;
  if (tracer) tracer->End(run_span);
  const SimDuration ran = cluster.sim().Now() - start;

  const double tx = static_cast<double>(cluster.meter().total_tx_bytes()) - tx0;
  out.overhead_Bps = tx / ToSeconds(ran) / n;
  const double injected = static_cast<double>(
      std::count_if(tracks.begin(), tracks.end(), [](const QueryTrack& q) { return q.injected; }));
  out.result_bpq = Ratio(static_cast<double>(cluster.meter().CategoryTxBytes(TrafficCategory::kResult)),
                         injected);
  out.dissem_bpq = Ratio(
      static_cast<double>(cluster.meter().CategoryTxBytes(TrafficCategory::kDissemination) +
                          cluster.meter().CategoryTxBytes(TrafficCategory::kBatched)),
      injected);
  Summarize(tracks, tracer, rep_span, &out);

  // Answer checks against the oracle fold.
  for (size_t i = 0; i < tracks.size(); ++i) {
    const QueryTrack& q = tracks[i];
    const std::string& sql = MixSql()[static_cast<size_t>(q.tmpl)];
    ++out.attempted;
    std::string fail;
    if (!q.injected) fail = "not injected (shed or rejected)";
    else if (q.overcount) fail = "result covered more endsystems than exist";
    else if (q.predictor_regressed) fail = "completeness predictor went backwards";
    else if (q.first_predictor < 0) fail = "no completeness predictor arrived";
    else if (q.reached90 < 0 || !q.last) fail = "never covered 90% of endsystems";
    else fail = CheckMixAnswer(sql, *q.last, n, oracle);
    if (!fail.empty()) {
      out.failures.push_back("query_mix #" + std::to_string(i) + " [" + sql + "]: " + fail);
    }
    if (q.last) {
      auto parsed = db::ParseSelect(sql);
      out.fingerprint += net::FormatAggregateLine(*parsed, *q.last).substr(0, 64);
      if (tracer) cap.root_results.push_back(*q.last);
    }
  }

  if (tracer) {
    FillLayers(cluster, *timed, cap, *tracer, out.run_s, ToSeconds(ran) / 3600.0,
               cluster.sim().events_executed() - events0, slices.depth_peak, &out);
    tracer->End(rep_span);
  }
  return out;
}

void PrintReport(const Args& args, const std::vector<RepResult>& reps) {
  const RepResult& first = *std::find_if(
      reps.begin(), reps.end(), [](const RepResult& r) { return !r.setup_only; });
  std::vector<std::string> failures;
  int attempted = 0;
  for (const RepResult& r : reps) {
    if (r.setup_only) continue;
    attempted += r.attempted;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    if (r.fingerprint != first.fingerprint) {
      ++attempted;
      failures.push_back(std::string("repetition ") + (r.traced ? "(traced) " : "") +
                         "diverged from the first: same inputs, different outputs");
    }
  }
  std::ostringstream os;
  os << "{\"workload\":" << JsonStr(args.workload) << ",\"seed\":" << args.seed
     << ",\"reps\":[";
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    if (i) os << ',';
    os << "{\"setup_only\":" << (r.setup_only ? "true" : "false")
       << ",\"traced\":" << (r.traced ? "true" : "false")
       << ",\"setup_s\":" << JsonNum(r.setup_s)
       << ",\"trace_gen_s\":" << JsonNum(r.trace_gen_s)
       << ",\"cluster_build_s\":" << JsonNum(r.cluster_build_s)
       << ",\"join_s\":" << JsonNum(r.join_s) << ",\"run_s\":" << JsonNum(r.run_s)
       << ",\"cpu_s\":" << JsonNum(r.cpu_s) << "}";
  }
  os << "],\"peak_rss_mb\":" << JsonNum(PeakRssMb())
     << ",\"overhead_Bps\":" << JsonNum(first.overhead_Bps)
     << ",\"result_bytes_per_query\":" << JsonNum(first.result_bpq)
     << ",\"dissem_bytes_per_query\":" << JsonNum(first.dissem_bpq)
     << ",\"ttfp_ms\":" << JsonList(first.ttfp_ms)
     << ",\"tt90_ms\":" << JsonList(first.tt90_ms)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failures.size()
     << ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    os << (i ? "," : "") << JsonStr(failures[i]);
  }
  os << "],\"layers\":{";
  // Per-layer values: medians over traced repetitions (counts repeat).
  std::map<std::string, std::vector<double>> layer_samples;
  for (const RepResult& r : reps) {
    for (const auto& [k, v] : r.layers) layer_samples[k].push_back(v);
  }
  bool comma = false;
  for (const auto& [k, v] : layer_samples) {
    os << (comma ? "," : "") << JsonStr(k) << ':' << JsonNum(Median(v));
    comma = true;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "swbench: %s\nusage: swbench churn|query_mix --seed S --seconds T "
               "--trace 0|1 [--spans FILE]\n",
               error.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) Usage("missing workload");
  args.workload = argv[1];
  if (args.workload != "churn" && args.workload != "query_mix") {
    Usage("unknown workload " + args.workload);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--spans") args.spans_path = value;
    else Usage("unknown flag " + flag);
  }

  Oracle oracle(MakeConfig(ShapeOf(args.workload)));
  Tracer tracer;
  std::vector<RepResult> reps;
  auto run = [&](Mode mode) {
    reps.push_back(args.workload == "churn"
                       ? RunChurn(args, mode, &tracer, &oracle)
                       : RunQueryMix(args, mode, &tracer, &oracle));
    const RepResult& r = reps.back();
    std::fprintf(stderr, "rep %zu%s: setup %.3f s, run %.3f s, %zu failures\n",
                 reps.size(), r.setup_only ? " (setup only)" : r.traced ? " (traced)" : "",
                 r.setup_s, r.run_s, r.failures.size());
  };
  for (int i = 0; i < kSetupOnlyReps; ++i) run(Mode::kSetupOnly);
  // Timed repetitions; traced mode alternates untraced and traced ones.
  const int64_t start = WallNs();
  const int min_full = args.trace ? 2 * kMinReps - 2 : kMinReps;
  for (int full = 0; full < kMaxReps; ++full) {
    if (full >= min_full && (WallNs() - start) * 1e-9 >= args.seconds) break;
    run(args.trace && full % 2 == 1 ? Mode::kTraced : Mode::kPlain);
  }
  if (args.trace) {
    for (const auto& [name, s] : tracer.SelfSeconds()) {
      std::fprintf(stderr, "self time %-24s %10.4f s\n", name.c_str(), s);
    }
    if (!args.spans_path.empty() && !tracer.Write(args.spans_path)) {
      std::fprintf(stderr, "swbench: cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  PrintReport(args, reps);
  return 0;
}
