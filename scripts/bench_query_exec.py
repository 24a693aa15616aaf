#!/usr/bin/env python3
"""Runs the execution-engine benchmarks and reports batch ns/row.

Times the batch engine (ExecuteAggregate) on three workloads at
10k/100k/1M rows (bench/micro_core, BM_ExecuteAggregate*) and writes
ns/row per workload and size as JSON.

BENCH_query_exec.json is the historical record of the batch engine against
the deleted scalar reference engine; this script does not overwrite it by
default.

Usage: scripts/bench_query_exec.py [build_dir] [output_json]
  output_json defaults to <build_dir>/bench_query_exec.json.
"""
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUILD = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "build"
OUT = Path(sys.argv[2]) if len(sys.argv) > 2 else BUILD / "bench_query_exec.json"

WORKLOADS = {
    "selective": "BM_ExecuteAggregateSelective",
    "dense": "BM_ExecuteAggregateDense",
    "group_by": "BM_ExecuteAggregateGroupBy",
}


def main():
    raw_path = BUILD / "bench_query_exec_raw.json"
    subprocess.run(
        [
            str(BUILD / "bench" / "micro_core"),
            "--benchmark_filter=BM_ExecuteAggregate",
            f"--benchmark_out={raw_path}",
            "--benchmark_out_format=json",
            "--benchmark_repetitions=1",
        ],
        check=True,
    )
    raw = json.loads(raw_path.read_text())

    # name -> ns total: "BM_ExecuteAggregateSelective/100000"
    times = {}
    for b in raw["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        base, rows = b["name"].rsplit("/", 1)
        times[(base, int(rows))] = b["real_time"]  # ns (default time unit)

    report = {
        "benchmark": "query_exec",
        "description": "Local aggregate execution, batch engine, ns/row",
        "context": {
            "date": raw["context"]["date"],
            "num_cpus": raw["context"]["num_cpus"],
            "mhz_per_cpu": raw["context"]["mhz_per_cpu"],
            "build_type": "RelWithDebInfo",
        },
        "workloads": {
            key: {
                str(rows): {"batch_ns_per_row": round(times[(base, rows)] / rows, 4)}
                for rows in (10000, 100000, 1000000)
            }
            for key, base in WORKLOADS.items()
        },
    }

    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT}")
    sel = report["workloads"]["selective"]["100000"]["batch_ns_per_row"]
    print(f"selective/100k: {sel} ns/row")


if __name__ == "__main__":
    main()
