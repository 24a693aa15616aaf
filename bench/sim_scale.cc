// Simulation-engine scale bench: wall-clock and peak RSS of a Fig-9-style
// run (Farsite-like churn trace, the paper's query injected at T/4) at
// 10^4 / 10^5 / 10^6 endsystems. Only the population (and its simulated
// window) varies between points; everything else is fixed.
//
// Each point runs in a forked child so ru_maxrss (process-monotone)
// measures that point alone; the child reports a POD result over a pipe.
// Reproduce with
//
//   SEAWEED_BENCH_OUT=BENCH_sim_scale.raw.json ./build/bench/sim_scale
//
// Knobs:
//   SEAWEED_SIM_SCALE_POINTS  comma list of N:sim_hours pairs
//                             (default "10000:2,100000:0.5,1000000:0.1" —
//                             larger populations get shorter windows so the
//                             full sweep stays within a few hours on one
//                             core; every window still covers the join
//                             storm, steady churn, and a live query)
//   SEAWEED_SIM_SCALE_MAX_N   skip points above this N (CI smoke uses it)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"

using namespace seaweed;
using seaweed::bench::Header;
using seaweed::bench::Note;

namespace {

struct Point {
  int endsystems;
  double sim_hours;
};

// POD shipped child -> parent over the pipe.
struct RunResult {
  double wall_seconds;
  double peak_rss_bytes;
  double events_executed;
  double messages_sent;
  double events_per_second;
};

std::vector<Point> ParsePoints() {
  std::vector<Point> points = {{10000, 2.0}, {100000, 0.5}, {1000000, 0.1}};
  if (const char* env = std::getenv("SEAWEED_SIM_SCALE_POINTS")) {
    points.clear();
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
      size_t comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      std::string item = s.substr(pos, comma - pos);
      size_t colon = item.find(':');
      Point p{};
      p.endsystems = std::atoi(item.c_str());
      p.sim_hours =
          colon == std::string::npos ? 1.0 : std::atof(item.c_str() + colon + 1);
      if (p.endsystems >= 2 && p.sim_hours > 0) points.push_back(p);
      pos = comma + 1;
    }
  }
  if (const char* env = std::getenv("SEAWEED_SIM_SCALE_MAX_N")) {
    int max_n = std::atoi(env);
    std::vector<Point> kept;
    for (const Point& p : points) {
      if (p.endsystems <= max_n) kept.push_back(p);
    }
    points = kept;
  }
  return points;
}

// Runs one point in this process; called only in the forked child.
RunResult RunPoint(const Point& point) {
  bench::WallTimer timer;
  SimDuration duration = static_cast<SimDuration>(point.sim_hours * kHour);

  FarsiteModelConfig trace_cfg;
  trace_cfg.seed = 1;
  AvailabilityTrace trace =
      GenerateFarsiteTrace(trace_cfg, point.endsystems, duration + kHour);

  ClusterOptions opts;
  opts.WithEndsystems(point.endsystems)
      .WithSeed(1)
      .WithKeepTables(false)
      .WithSummaryWireBytes(6473);
  // Small per-node tables keep the 10^6 point inside RAM: every endsystem
  // still builds, replicates, and queries real summaries, but the encoded
  // record is ~1 KB instead of ~14 KB (metadata replicas dominate peak RSS
  // at large N). Wire-level costs are unaffected — summaries are charged at
  // the paper's h = 6473 B via WithSummaryWireBytes above.
  opts.anemone().days = 1;
  opts.anemone().workstation_flows_per_day = 6;
  SeaweedCluster cluster(opts.BuildOrDie());
  cluster.DriveFromTrace(trace, duration);

  const SimTime inject_at = duration / 4;
  cluster.sim().At(inject_at, [&cluster, duration, inject_at] {
    for (int e = 0; e < cluster.config().num_endsystems; ++e) {
      if (cluster.pastry_node(e)->joined()) {
        (void)cluster.InjectQuery(
            e, "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
            QueryObserver{}, duration - inject_at);
        return;
      }
    }
  });

  cluster.sim().RunUntil(duration);
  cluster.PublishStatsGauges();

  // SEAWEED_SIM_SCALE_OBS_DIR=<dir> dumps each point's final metrics +
  // spans as <dir>/obs_<N>.jsonl — the per-subsystem mem.* gauges are how
  // you attribute peak RSS at a given point.
  if (const char* dir = std::getenv("SEAWEED_SIM_SCALE_OBS_DIR")) {
    std::string path = std::string(dir) + "/obs_" +
                       std::to_string(point.endsystems) + ".jsonl";
    Status st =
        obs::DumpToFile(&cluster.obs().metrics, &cluster.obs().trace, path);
    if (!st.ok()) {
      std::fprintf(stderr, "obs dump failed: %s\n", st.ToString().c_str());
    }
  }

  RunResult r{};
  r.wall_seconds = timer.Seconds();
  r.peak_rss_bytes = bench::PeakRssBytes();
  r.events_executed = static_cast<double>(cluster.sim().events_executed());
  r.messages_sent = static_cast<double>(cluster.network().messages_sent());
  r.events_per_second =
      r.wall_seconds > 0 ? r.events_executed / r.wall_seconds : 0;
  return r;
}

// Forks, runs `point` in the child, ships the RunResult back over a pipe.
// Returns false (and leaves *out* untouched) if the child failed.
bool RunPointForked(const Point& point, RunResult* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    RunResult r = RunPoint(point);
    ssize_t n = write(fds[1], &r, sizeof(r));
    _exit(n == static_cast<ssize_t>(sizeof(r)) ? 0 : 1);
  }
  close(fds[1]);
  RunResult r{};
  size_t got = 0;
  while (got < sizeof(r)) {
    ssize_t n = read(fds[0], reinterpret_cast<char*>(&r) + got,
                     sizeof(r) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  bool ok = got == sizeof(r) && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0;
  if (ok) *out = r;
  return ok;
}

}  // namespace

int main() {
  Header("sim_scale", "engine wall-clock and peak RSS vs population");
  Note("Fig-9-style run: Farsite churn trace + the paper's query at T/4.");

  bench::ResultWriter results("sim_scale");
  std::vector<std::vector<double>> rows;

  std::printf("%10s %9s %10s %12s %12s %12s\n", "N", "sim_h", "wall_s",
              "peak_rss_MB", "events", "events/s");
  for (const Point& p : ParsePoints()) {
    RunResult r{};
    if (!RunPointForked(p, &r)) {
      std::fprintf(stderr, "!! point N=%d failed\n", p.endsystems);
      continue;
    }
    std::printf("%10d %9.2f %10.1f %12.1f %12.0f %12.0f\n", p.endsystems,
                p.sim_hours, r.wall_seconds, r.peak_rss_bytes / 1e6,
                r.events_executed, r.events_per_second);
    std::fflush(stdout);
    rows.push_back({static_cast<double>(p.endsystems), p.sim_hours,
                    r.wall_seconds, r.peak_rss_bytes, r.events_executed,
                    r.events_per_second});
  }

  results.Table("scale",
                {"endsystems", "sim_hours", "wall_seconds", "peak_rss_bytes",
                 "events_executed", "events_per_second"},
                rows);
  results.WriteFromEnv();
  return 0;
}
