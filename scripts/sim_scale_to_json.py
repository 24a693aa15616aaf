#!/usr/bin/env python3
"""Converts bench/sim_scale raw ResultWriter output into a BENCH JSON file.

Usage: scripts/sim_scale_to_json.py <raw.json> [note...] > sim_scale.json

Extra arguments are joined into a free-form "notes" field (e.g. recording
that the run was capped with SEAWEED_SIM_SCALE_MAX_N).

The raw file is what SEAWEED_BENCH_OUT captures: a "scale" table with one
row per (endsystems, sim_hours) point. The output keys points by
population. The committed BENCH_sim_scale.json predates this layout: it is
the historical serial-vs-laned record (see EXPERIMENTS.md).
"""
import datetime
import json
import os
import sys


def main() -> None:
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    table = raw["tables"]["scale"]
    cols = table["columns"]
    points: dict = {}
    for row in table["rows"]:
        r = dict(zip(cols, row))
        points[str(int(r["endsystems"]))] = {
            "sim_hours": r["sim_hours"],
            "wall_seconds": round(r["wall_seconds"], 1),
            "peak_rss_mb": round(r["peak_rss_bytes"] / 1e6, 1),
            "events_executed": int(r["events_executed"]),
            "events_per_second": int(r["events_per_second"]),
        }
    out = {
        "benchmark": "sim_scale",
        "description": (
            "Fig-9-style run (Farsite churn trace, paper query at T/4): "
            "wall-clock and peak RSS vs population; only the population "
            "(and its simulated window) varies. Forked child per point so "
            "ru_maxrss is per-point. Reproduce: "
            "SEAWEED_BENCH_OUT=raw.json ./build/bench/sim_scale, then "
            "scripts/sim_scale_to_json.py raw.json (see EXPERIMENTS.md)."
        ),
        "context": {
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "num_cpus": os.cpu_count(),
            "build_type": "RelWithDebInfo",
        },
        "points": dict(sorted(points.items(), key=lambda kv: int(kv[0]))),
    }
    if len(sys.argv) > 2:
        out["notes"] = " ".join(sys.argv[2:])
    json.dump(out, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
