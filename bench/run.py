"""nefsphere benchmark: times the ``nefsphere report`` CLI on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.

``--trace 0`` measures the end-to-end metrics.  It times the set-up of a
fresh interpreter (import ``nefsphere.cli``, ``cli.load_input``, construct
``Pipeline``) several times, then runs the workload's CLI invocations one
child process at a time, until S seconds have passed (at least once).
Wall time, CPU time and peak RSS of each child come from ``wait4``.
Every time is reported at the speed of the reference host, as measured by
``refclock.ReferenceClock`` while the children run.

``--trace 1`` measures the per-layer metrics: each input is run once through
the plain CLI and once through ``bench/child.py trace``, which wraps the
pipeline stages and layer functions from outside (see ``tracer.py``).  The two
outputs must be byte-identical.

Every invocation is checked: exit code, the facts frozen in ``workloads.py``,
and identical stdout across every run of an input by the same program sources
(digests persist in ``.bench_work`` between runs in a checkout).
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refclock import ReferenceClock, REFERENCE_RATE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15


def metric_units():
    """The unit of every metric, as ``BENCHMARK.json`` lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in benchmark[key]}


Invocation = collections.namedtuple(
    "Invocation", "stdout code wall_s cpu_s rss_mb stderr chunks clock_s")


def run_child(argv, workdir, clock):
    """Run one child to completion; resources from ``wait4``, and the
    reference clock's chunks and CPU seconds while it ran."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        chunks, clock_s = clock.read()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=env)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        chunks_end, clock_end = clock.read()
    with open(err_path, "rb") as err:
        stderr = err.read().decode(errors="replace")
    return Invocation(stdout, proc.returncode, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      stderr, chunks_end - chunks, clock_end - clock_s)


def host_speed(invocations):
    """The host's speed while these children ran, relative to the reference
    host: multiply their seconds by it to get reference seconds."""
    clock_s = sum(i.clock_s for i in invocations)
    if clock_s <= 0:
        raise RuntimeError("the reference clock got no CPU time")
    return sum(i.chunks for i in invocations) / clock_s / REFERENCE_RATE


def own_wall_s(invocations):
    """Wall time of the children less the reference clock's share of it."""
    return sum(i.wall_s - i.clock_s for i in invocations)


def cli_argv(case, path):
    return [sys.executable, "-m", "nefsphere.cli"] + case.argv(path)


def source_digest():
    """sha256 over the program's sources, naming its stdout digest store."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nefsphere")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Checker:
    """Exit code, frozen facts, and the same stdout on every run of an input
    by the same program sources, within a run and across runs."""

    def __init__(self, store_path):
        self.store_path = store_path
        try:
            with open(store_path) as fh:
                self.digests = json.load(fh)
        except (OSError, ValueError):
            self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, case, inv, label):
        self.attempted += 1
        problems = []
        if inv.code != case.exit_code:
            problems.append(f"exit {inv.code}, want {case.exit_code}: "
                            f"{inv.stderr.strip()[-300:]}")
        if case.exit_code == 0 and inv.code == 0:
            try:
                problems += case.facts(json.loads(inv.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"report unreadable: {exc!r}")
        elif case.exit_code != 0 and inv.stdout:
            problems.append("expected empty stdout")
        digest = hashlib.sha256(inv.stdout).hexdigest()
        key = hashlib.sha256(" ".join(case.flags).encode() + b"\0"
                             + case.text.encode()).hexdigest()
        if not problems:
            self.digests.setdefault(key, digest)
        if self.digests.get(key, digest) != digest:
            problems.append(f"stdout sha256 {digest[:12]} differs from "
                            f"{self.digests[key][:12]}")
        self.failed += bool(problems)
        self.failures += [f"{label} {case.name}: {p}" for p in problems]

    def save(self):
        with open(self.store_path, "w") as fh:
            json.dump(self.digests, fh, indent=0, sort_keys=True)


def write_inputs(cases, workdir):
    paths = []
    for case in cases:
        path = os.path.join(workdir, case.name + ".json")
        with open(path, "w") as fh:
            fh.write(case.text)
        paths.append(os.path.relpath(path, ROOT))
    return paths


def spread(values):
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / med if med else 0.0


def measure_end_to_end(cases, paths, seconds, workdir, checker, clock):
    setup_inputs = [p for c, p in zip(cases, paths) if c.exit_code == 0]
    probes = []
    for _ in range(SETUP_SAMPLES):
        inv = run_child([sys.executable, os.path.join(HERE, "child.py"),
                         "setup"] + setup_inputs, workdir, clock)
        if inv.code != 0:
            raise RuntimeError(f"set-up probe failed: {inv.stderr.strip()}")
        probes.append(inv)
    speed = host_speed(probes)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
               "setup_s": [float(p.stdout) * speed for p in probes]}
    start = time.perf_counter()
    unit = 0
    while unit == 0 or time.perf_counter() - start < seconds:
        unit += 1
        runs = [run_child(cli_argv(c, p), workdir, clock)
                for c, p in zip(cases, paths)]
        for case, inv in zip(cases, runs):
            checker.check(case, inv, f"unit {unit}")
        speed = host_speed(runs)
        samples["wall_s"].append(own_wall_s(runs) * speed)
        samples["cpu_s"].append(sum(i.cpu_s for i in runs) * speed)
        samples["peak_rss_mb"].append(max(i.rss_mb for i in runs))
    return samples


def measure_per_layer(cases, paths, workdir, checker, clock, units):
    totals = {}
    plains, traceds = [], []
    spans = {}
    for case, path in zip(cases, paths):
        plain = run_child(cli_argv(case, path), workdir, clock)
        checker.check(case, plain, "untraced")
        trace_path = os.path.join(workdir, case.name + ".trace.json")
        traced = run_child([sys.executable, os.path.join(HERE, "child.py"),
                            "trace", trace_path] + case.argv(path), workdir,
                           clock)
        checker.check(case, traced, "traced")
        plains.append(plain)
        traceds.append(traced)
        with open(trace_path) as fh:
            trace = json.load(fh)
        spans[case.name] = trace["spans"]
        for name, value in trace["metrics"].items():
            if units.get(name) == "MB":
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    # The traced children time their spans by wall clock, which includes
    # the reference clock's share of the CPU.
    traced_s = own_wall_s(traceds) * host_speed(traceds)
    scale = traced_s / sum(i.wall_s for i in traceds)
    for name in totals:
        if units.get(name) == "s":
            totals[name] *= scale
    totals["trace.wall_s"] = traced_s
    totals["trace.overhead_ratio"] = traced_s / (
        own_wall_s(plains) * host_speed(plains))
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump(spans, fh)
    return {name: [value] for name, value in totals.items()}


def run(workload, seed, seconds, trace, out=sys.stdout):
    """Run one workload; return the result object of the last stdout line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nefsphere", "cli.py")):
        raise RuntimeError(f"no nefsphere sources under {ROOT}/src")
    units = metric_units()
    cases = WORKLOADS[workload](seed)
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    paths = write_inputs(cases, workdir)
    checker = Checker(os.path.join(ROOT, ".bench_work",
                                   f"digests-{source_digest()[:16]}.json"))
    with ReferenceClock() as clock:
        if trace:
            samples = measure_per_layer(cases, paths, workdir, checker, clock,
                                        units)
        else:
            samples = measure_end_to_end(cases, paths, seconds, workdir,
                                         checker, clock)
        chunks, clock_s = clock.read()
    checker.save()
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(cases)} inputs, {checker.attempted} invocations checked, "
          f"{checker.failed} failed; host speed "
          f"{chunks / clock_s / REFERENCE_RATE:.3f} of the reference host",
          file=out)
    for failure in checker.failures:
        print(f"  FAILED {failure}", file=out)
    print(f"  failed_frac {checker.failed / checker.attempted:.4f}", file=out)
    metrics = {}
    for name, values in samples.items():
        if name not in units:
            raise RuntimeError(f"metric {name} is not in BENCHMARK.json")
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:48s} {value:14.6g} {units[name]:6s} "
              f"n={len(values):<3d} spread={spread(values):.4f}", file=out)
    return {"correct": not checker.failures, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
