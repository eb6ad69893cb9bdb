"""Tests of the benchmark itself: tracer, self time, rebinding, inputs.

    python3 -m pytest bench/tests
"""

import contextlib
import fractions
import io
import json
import os
import sys
import time

import pytest

import corpus
import refclock
import tracer
import workloads
from tracer import Tracer


def _cli_stdout(argv):
    import nefsphere.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(workloads.FIXED_INPUTS["triangle"])
    return str(path)


def test_tracer_leaves_report_bytes_unchanged(triangle_path):
    argv = ["report", triangle_path, "--verify", "full", "--dual"]
    plain = _cli_stdout(argv)
    t = Tracer().install()
    try:
        traced = _cli_stdout(argv)
    finally:
        t.uninstall()
    assert traced == plain
    assert plain[0] == 0
    assert t.stages["report"][0] == 1
    assert t.functions["linalg.dot"][0] > 0
    assert t.fraction_news > 0
    assert _cli_stdout(argv) == plain


def test_uninstall_restores_every_binding():
    import nefsphere.pipeline
    import nefsphere.polytope
    import nefsphere.sphere

    def bindings():
        return (nefsphere.sphere.convex_hull,
                vars(nefsphere.polytope.Polytope)["contains"],
                vars(nefsphere.pipeline.Pipeline)["sigma"],
                vars(fractions.Fraction)["__new__"])

    before = bindings()
    t = Tracer().install()
    assert nefsphere.sphere.convex_hull is not before[0]
    t.uninstall()
    assert bindings() == before


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_function_self_time_is_span_minus_children():
    clock = FakeClock()
    t = Tracer(clock=clock, rss=lambda: 1.0)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        clock.now += 0.5
        leaf_w()

    def top():
        clock.now += 3.0
        middle_w()
        clock.now += 0.25

    leaf_w = t.function_wrapper("m.leaf", leaf)
    middle_w = t.function_wrapper("m.middle", middle)
    top_w = t.function_wrapper("m.top", top)
    top_w()
    # top spans [0, 8.75]; middle [3, 8.5]; leaf [4, 6] and [6.5, 8.5].
    assert t.functions["m.leaf"][:2] == [2, 4.0]
    assert t.functions["m.middle"][:2] == [1, 5.5 - 4.0]
    assert t.functions["m.top"][:2] == [1, 8.75 - 5.5]
    assert t.functions["m.top"][3] == 8.75


def test_stage_spans_and_cache_hits():
    clock = FakeClock()
    t = Tracer(clock=clock, rss=lambda: clock.now * 10)

    class Pipe:
        def __init__(self):
            self._cache = {}

        def inner(self):
            if "_inner" not in self._cache:
                clock.now += 1.0
                self._cache["_inner"] = 1
            return 1

        def outer(self):
            clock.now += 2.0
            inner(self)
            inner(self)
            clock.now += 0.5

    inner = t.stage_wrapper("inner", Pipe.inner, cached=True)
    outer = t.stage_wrapper("outer", Pipe.outer, cached=False)
    pipe = Pipe()
    outer(pipe)
    assert (t.cache_hits, t.cache_misses) == (1, 1)
    assert t.spans == [("outer", 0.0, 3.5, None, 0.0, 35.0),
                       ("inner", 2.0, 3.0, 0, 20.0, 30.0)]
    assert t.stages["outer"] == [1, 3.5 - 1.0, 35.0]
    assert t.stages["inner"] == [1, 1.0, 30.0]


def test_rebinding_reaches_every_by_name_import():
    import nefsphere.cli  # noqa: F401  (cli is a rebinding site too)
    originals = {}
    for mod, fname, _ in tracer.FUNCTIONS:
        originals[f"{mod}.{fname}"] = getattr(
            sys.modules[f"nefsphere.{mod}"], fname)
    t = Tracer().install()
    try:
        for modname, module in sys.modules.items():
            if modname == "nefsphere" or modname.startswith("nefsphere."):
                for attr, value in vars(module).items():
                    assert all(value is not fn for fn in originals.values()), \
                        f"{modname}.{attr} still holds the untraced function"
        assert {"nefsphere.nef", "nefsphere.sphere", "nefsphere.subdivision",
                "nefsphere.tropical", "nefsphere.polytope", "nefsphere"} <= \
            set(t.rebound["polytope.convex_hull"])
        assert {"nefsphere.dd", "nefsphere.polytope", "nefsphere.nef",
                "nefsphere.sphere", "nefsphere.subdivision",
                "nefsphere.monodromy"} <= set(t.rebound["linalg.dot"])
        assert "nefsphere.polytope" in t.rebound["dd.cone_rays"]
        import nefsphere.sphere
        nefsphere.sphere.convex_hull([(0, 0), (1, 0), (0, 1)], "M")
        assert t.functions["polytope.convex_hull"][0] == 1
        assert t.functions["dd.cone_rays"][0] >= 1
    finally:
        t.uninstall()


def test_metric_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(Tracer().metrics()) + [
        "cli.import_s", "trace.wall_s", "trace.overhead_ratio"]
    assert listed == produced
    assert len(listed) <= 128


def test_reference_clock_shares_the_cpu_and_stops():
    affinity = os.sched_getaffinity(0)
    with refclock.ReferenceClock() as clock:
        assert len(os.sched_getaffinity(0)) == 1
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass  # keep the CPU busy, as a child would
        chunks, clock_s = clock.read()
    assert chunks > 0 and 0 < clock_s < 0.5
    assert os.sched_getaffinity(0) == affinity
    with pytest.raises(ProcessLookupError):
        os.kill(clock.pid, 0)


def test_generator_is_deterministic_for_a_seed():
    a = [(c.name, c.text) for c in workloads.corpus_cases(7)]
    b = [(c.name, c.text) for c in workloads.corpus_cases(7)]
    assert a == b
    seeds = {tuple(c.name for c in workloads.corpus_cases(s))
             for s in range(6)}
    assert len(seeds) > 1
    assert workloads.kinked_prism_input() == workloads.kinked_prism_input()


def test_every_seeded_partition_is_valid_for_the_program():
    # Whatever the seed, a class's input is one of these symmetric images.
    from nefsphere import NefPartition
    from nefsphere.nef import validate_nef_partition
    for k, r in corpus.RANDOM_CLASSES:
        base = corpus.BASES[k]
        _, parts = next(corpus.valid_splits(base, r))
        for sym in corpus.symmetries(base):
            moved = [[corpus.transform(sym, v) for v in p] for p in parts]
            nef = NefPartition.from_vertex_lists(moved)
            assert validate_nef_partition(nef).passed, (k, r, sym)


def test_ray_split_rejects_a_non_partition():
    # The diamond is not a Minkowski sum, so no split of its rays works.
    assert list(corpus.valid_splits(corpus.BASES[1], 2)) == []
    # The square is the sum of two segments.
    assert any(sorted(map(sorted, parts)) == [[(-1, 0), (1, 0)],
                                              [(0, -1), (0, 1)]]
               for _, parts in corpus.valid_splits(corpus.BASES[2], 2))


def test_kinked_table_covers_the_program_supports():
    from nefsphere import NefPartition
    data = json.loads(workloads.kinked_prism_input())
    nef = NefPartition.from_vertex_lists(workloads.PRISM_PAIR_5D)
    assert [tuple(p) for p, _ in data["omega"]["table"]] == \
        list(nef.parts_hull.lattice_points())
    assert [tuple(p) for p, _ in data["nu"]["table"]] == \
        list(nef.sum_polar.lattice_points())
