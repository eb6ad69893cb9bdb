"""Every end-to-end and per-layer metric of the benchmark in one command.

    python3 bench/summary.py [--workloads A,B] [--out FILE]

For each workload this runs ``bench/run.py`` once untraced and once traced,
with seed 1 and ``run_seconds`` from ``BENCHMARK.json``,
prints each metric by name with its unit, sample count and spread, and the
check verdicts, then reads the traced spans to print where time and memory
went: the stages with the most self time, the stage whose own peak-RSS growth
is largest, and the sum of stage self times against the traced wall time.
``--out`` writes all of it as JSON, with the Python version and ``nproc``.
"""

import argparse
import json
import os
import platform
import sys

import run

SEED = 1


def rss_growth(spans):
    """Peak-RSS growth (MB) of each stage minus that of its child stages."""
    own = [s["rss_end_mb"] - s["rss_start_mb"] for s in spans]
    growth = list(own)
    for k, span in enumerate(spans):
        if span["parent"] is not None:
            growth[span["parent"]] -= own[k]
    out = {}
    for span, mb in zip(spans, growth):
        out[span["name"]] = out.get(span["name"], 0.0) + mb
    return out


def analyse(workload, seed, per_layer):
    with open(os.path.join(run.ROOT, ".bench_work", f"{workload}-{seed}",
                           "spans.json")) as fh:
        spans_by_case = json.load(fh)
    growth = {}
    for spans in spans_by_case.values():
        for name, mb in rss_growth(spans).items():
            growth[name] = growth.get(name, 0.0) + mb
    stage_self = {name[len("pipeline."):-len(".self_s")]: m["value"]
                  for name, m in per_layer.items()
                  if name.startswith("pipeline.") and name.endswith(".self_s")}
    top = sorted(stage_self.items(), key=lambda kv: -kv[1])[:8]
    traced_wall = per_layer["trace.wall_s"]["value"]
    ratio = per_layer["trace.overhead_ratio"]["value"]
    return {
        "top_self_time_stages": top,
        "largest_rss_growth_stage": max(growth.items(), key=lambda kv: kv[1]),
        "stage_self_sum_s": sum(stage_self.values()),
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": traced_wall - traced_wall / ratio,
    }


def main(argv=None):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in benchmark["workloads"]),
                        help=f"comma-separated, from {sorted(run.WORKLOADS)}")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "machine": platform.machine(), "seed": SEED,
               "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        untraced = run.run(workload, SEED, seconds, 0)
        traced = run.run(workload, SEED, seconds, 1)
        analysis = analyse(workload, SEED, traced["metrics"])
        print(f"  analysis: {json.dumps(analysis)}")
        summary["workloads"][workload] = {
            "end_to_end": untraced, "per_layer": traced, "analysis": analysis}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    ok = all(w[k]["correct"] for w in summary["workloads"].values()
             for k in ("end_to_end", "per_layer"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
