// seaweed_sim: configurable simulation driver.
//
//   ./build/examples/seaweed_sim [options]
//     --endsystems N        population size               (default 200)
//     --hours H             simulated duration            (default 24)
//     --trace farsite|gnutella  availability model        (default farsite)
//     --save-trace FILE     write the generated trace and exit
//     --load-trace FILE     drive from a saved trace file
//     --query SQL           query to inject (repeatable)
//     --inject-hour H       injection time                (default H/4)
//     --continuous MIN      make queries continuous with this period
//     --seed S              master seed                   (default 1)
//     --transport SPEC      transport decorator stack, outermost first:
//                           e.g. "serializing", "faulty:plan.json",
//                           "serializing,faulty:plan.json", or
//                           "serializing,batching:20,faulty:plan.json"
//     --batching            coalesce same-hop query descriptors into
//                           batched wire messages (shorthand for naming
//                           "batching" in --transport)
//     --cache-eps SEC       bounded-divergence predictor cache staleness
//                           bound in seconds (0 = caching off)
//     --max-active-queries N  admission limit on concurrently active
//                           origin queries (0 = unbounded)
//     --serializing-transport  shorthand for --transport serializing:
//                           round-trip every message through the wire
//                           codec in flight (debug mode; stdout is
//                           bit-identical to the in-memory transport)
//     --obs-dump FILE       write metrics + trace spans as JSONL at exit
//
// Prints the completeness predictor, incremental results, and the final
// bandwidth accounting. Example:
//
//   ./build/examples/seaweed_sim --endsystems 300 --hours 12 \
//       --query "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/export.h"
#include "seaweed/cluster_options.h"
#include "trace/farsite_model.h"
#include "trace/gnutella_model.h"
#include "trace/trace_io.h"

using namespace seaweed;

namespace {

struct Args {
  int endsystems = 200;
  double hours = 24;
  std::string trace_kind = "farsite";
  std::string save_trace;
  std::string load_trace;
  std::vector<std::string> queries;
  double inject_hour = -1;
  double continuous_minutes = 0;
  uint64_t seed = 1;
  std::string transport;
  bool batching = false;
  double cache_eps_s = 0;
  int max_active_queries = 0;
  std::string obs_dump;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v;
    if (flag == "--endsystems" && (v = need_value())) {
      args->endsystems = std::atoi(v);
    } else if (flag == "--hours" && (v = need_value())) {
      args->hours = std::atof(v);
    } else if (flag == "--trace" && (v = need_value())) {
      args->trace_kind = v;
    } else if (flag == "--save-trace" && (v = need_value())) {
      args->save_trace = v;
    } else if (flag == "--load-trace" && (v = need_value())) {
      args->load_trace = v;
    } else if (flag == "--query" && (v = need_value())) {
      args->queries.push_back(v);
    } else if (flag == "--inject-hour" && (v = need_value())) {
      args->inject_hour = std::atof(v);
    } else if (flag == "--continuous" && (v = need_value())) {
      args->continuous_minutes = std::atof(v);
    } else if (flag == "--seed" && (v = need_value())) {
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--transport" && (v = need_value())) {
      args->transport = v;
    } else if (flag == "--serializing-transport") {
      args->transport = args->transport.empty()
                            ? "serializing"
                            : "serializing," + args->transport;
    } else if (flag == "--batching") {
      args->batching = true;
    } else if (flag == "--cache-eps" && (v = need_value())) {
      args->cache_eps_s = std::atof(v);
    } else if (flag == "--max-active-queries" && (v = need_value())) {
      args->max_active_queries = std::atoi(v);
    } else if (flag == "--obs-dump" && (v = need_value())) {
      args->obs_dump = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->endsystems < 2 || args->hours <= 0) {
    std::fprintf(stderr, "need --endsystems >= 2 and --hours > 0\n");
    return false;
  }
  // Validate the transport spec up front so a typo is a usage error with
  // the available layers listed, not a mid-construction crash. "udp"
  // parses (seaweedd hosts it) but a simulation cannot run on it.
  auto layers = ParseTransportSpec(args->transport);
  bool has_udp = false;
  if (layers.ok()) {
    for (const auto& layer : *layers) has_udp = has_udp || layer.kind == "udp";
  }
  if (!layers.ok() || has_udp) {
    std::fprintf(stderr, "--transport %s: %s\navailable layers: %s\n",
                 args->transport.c_str(),
                 layers.ok() ? "\"udp\" is the live socket transport "
                               "(seaweedd only); simulations run in-memory"
                             : layers.status().message().c_str(),
                 KnownTransportLayers());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 1;
  if (args.queries.empty()) {
    args.queries.push_back("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80");
  }
  SimDuration duration = static_cast<SimDuration>(args.hours * kHour);

  // --- Trace ---
  AvailabilityTrace trace(0, 0);
  if (!args.load_trace.empty()) {
    auto loaded = LoadTraceFromFile(args.load_trace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    args.endsystems = trace.num_endsystems();
  } else if (args.trace_kind == "gnutella") {
    GnutellaModelConfig cfg;
    cfg.seed = args.seed;
    trace = GenerateGnutellaTrace(cfg, args.endsystems, duration + kHour);
  } else {
    FarsiteModelConfig cfg;
    cfg.seed = args.seed;
    trace = GenerateFarsiteTrace(cfg, args.endsystems, duration + kHour);
  }
  std::printf("trace: %d endsystems, mean availability %.1f%%, departure "
              "rate %.2e /online-endsystem/s\n",
              trace.num_endsystems(),
              100 * trace.MeanAvailability(0, duration),
              trace.DepartureRatePerOnline(0, duration));
  if (!args.save_trace.empty()) {
    auto st = SaveTraceToFile(trace, args.save_trace);
    std::printf("%s trace to %s\n", st.ok() ? "saved" : "FAILED to save",
                args.save_trace.c_str());
    return st.ok() ? 0 : 1;
  }

  // --- Cluster ---
  ClusterOptions options;
  options.WithEndsystems(args.endsystems)
      .WithSeed(args.seed)
      .WithKeepTables(args.endsystems <= 500)
      .WithTransport(args.transport);
  if (args.batching) options.seaweed().batching = true;
  if (args.cache_eps_s < 0 || args.max_active_queries < 0) {
    std::fprintf(stderr,
                 "--cache-eps and --max-active-queries must be >= 0\n");
    return 1;
  }
  options.seaweed().cache_eps =
      static_cast<SimDuration>(args.cache_eps_s * kSecond);
  options.seaweed().max_active_queries = args.max_active_queries;
  options.anemone().days = 7;
  options.anemone().workstation_flows_per_day = 40;
  auto config = options.Build();
  if (!config.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  SeaweedCluster cluster(*config);
  cluster.DriveFromTrace(trace, duration);

  SimTime inject_at = args.inject_hour >= 0
                          ? static_cast<SimTime>(args.inject_hour * kHour)
                          : duration / 4;
  for (const auto& sql : args.queries) {
    cluster.sim().At(inject_at, [&cluster, sql, &args, duration, inject_at] {
      int origin = -1;
      for (int e = 0; e < cluster.config().num_endsystems; ++e) {
        if (cluster.pastry_node(e)->joined()) {
          origin = e;
          break;
        }
      }
      if (origin < 0) {
        std::printf("!! nobody online at injection time\n");
        return;
      }
      QueryObserver obs;
      obs.on_predictor = [&cluster, sql](const NodeId&,
                                         const CompletenessPredictor& p) {
        std::printf("[%s] predictor for \"%s\":\n",
                    FormatSimTime(cluster.sim().Now()).c_str(), sql.c_str());
        std::printf("    %.0f rows expected over %lld endsystems; now "
                    "%.1f%% | +1h %.1f%% | +12h %.1f%%\n",
                    p.TotalRows(), static_cast<long long>(p.endsystems()),
                    100 * p.CompletenessAt(0), 100 * p.CompletenessAt(kHour),
                    100 * p.CompletenessAt(12 * kHour));
      };
      auto last = std::make_shared<int64_t>(-1);
      obs.on_result = [&cluster, last](const NodeId&,
                                       const db::AggregateResult& r) {
        if (r.rows_matched == *last) return;
        *last = r.rows_matched;
        std::printf("[%s] result update: %lld rows from %lld endsystems\n",
                    FormatSimTime(cluster.sim().Now()).c_str(),
                    static_cast<long long>(r.rows_matched),
                    static_cast<long long>(r.endsystems));
      };
      Result<NodeId> qid = Status::Internal("unset");
      if (args.continuous_minutes > 0) {
        qid = cluster.seaweed_node(origin)->InjectContinuousQuery(
            sql, static_cast<SimDuration>(args.continuous_minutes * kMinute),
            std::move(obs), duration - inject_at);
      } else {
        qid = cluster.InjectQuery(origin, sql, std::move(obs),
                                  duration - inject_at);
      }
      if (!qid.ok()) {
        std::printf("!! query rejected: %s\n",
                    qid.status().ToString().c_str());
      }
    });
  }

  cluster.sim().RunUntil(duration);

  int64_t hours = duration / kHour;
  std::printf("\n--- bandwidth accounting (tx, per online endsystem) ---\n");
  for (int c = 0; c < kNumTrafficCategories; ++c) {
    std::printf("  %-14s %8.2f B/s\n",
                TrafficCategoryName(static_cast<TrafficCategory>(c)),
                cluster.MeanTxPerOnline(0, hours, c));
  }
  std::printf("  %-14s %8.2f B/s\n", "total",
              cluster.MeanTxPerOnline(0, hours));
  std::printf("events executed: %llu, messages sent: %llu\n",
              static_cast<unsigned long long>(cluster.sim().events_executed()),
              static_cast<unsigned long long>(
                  cluster.network().messages_sent()));
  // Debug-mode stats go to stderr so stdout stays bit-identical to the
  // in-memory transport and can be diffed (scripts/check.sh relies on this).
  if (const auto* st = cluster.serializing_transport()) {
    std::fprintf(stderr,
                 "serializing transport: %llu messages round-tripped, "
                 "%llu bytes\n",
                 static_cast<unsigned long long>(st->messages_roundtripped()),
                 static_cast<unsigned long long>(st->bytes_roundtripped()));
  }
  if (const auto* ft = cluster.fault_transport()) {
    std::fprintf(stderr,
                 "fault transport: %llu messages dropped, %llu delayed\n",
                 static_cast<unsigned long long>(ft->injected_drops()),
                 static_cast<unsigned long long>(ft->injected_delays()));
  }
  if (!args.obs_dump.empty()) {
    cluster.PublishStatsGauges();  // final engine/memory snapshot
    Status st = obs::DumpToFile(&cluster.obs().metrics, &cluster.obs().trace,
                                args.obs_dump);
    if (!st.ok()) {
      std::fprintf(stderr, "obs dump failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
