"""Workload inputs, CLI flags, expected exit codes and frozen output facts.

The facts are copied from ``tests/test_prism_pair_structure.py`` and the
acceptance suite, never from a run of the benchmark itself, so a change that
alters what the program computes fails the benchmark's correctness gate.
"""

import json
import random
from fractions import Fraction
from itertools import product

import corpus

PRISM_PAIR_5D = [
    [(0, -1, -1, 0, 0), (0, 2, -1, 0, 0), (0, -1, 2, 0, 0),
     (1, -1, -1, 0, 0), (1, 2, -1, 0, 0), (1, -1, 2, 0, 0)],
    [(0, 0, 0, -1, -1), (0, 0, 0, 2, -1), (0, 0, 0, -1, 2),
     (-1, 0, 0, -1, -1), (-1, 0, 0, 2, -1), (-1, 0, 0, -1, 2)],
]
PRISM_PAIR_DUALS = [
    [(1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (0, 1, 1, 0, 0)],
    [(-1, 0, 0, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, -1), (0, 0, 0, 1, 1)],
]

# The small inputs of tests/data, as text so that the bytes the CLI parses
# are fixed here.
FIXED_INPUTS = {
    "triangle": '{"dim": 2, "parts": [[[1, 0], [0, 1], [-1, -1]]], '
                '"omega": "all_ones", "nu": "all_ones"}\n',
    "square_sum": '{"dim": 2, "parts": [[[1, 0], [-1, 0]], '
                  '[[0, 1], [0, -1]]], '
                  '"omega": "all_ones", "nu": "all_ones"}\n',
    "pentagon_pair": '{"dim": 2, "parts": [[[1, 0], [0, 0]], '
                     '[[0, 1], [0, 0], [-1, -1]]], '
                     '"omega": "all_ones", "nu": "all_ones"}\n',
    "simplex3": '{"dim": 3, "parts": [[[1, 0, 0], [0, 1, 0], [0, 0, 1], '
                '[-1, -1, -1]]], "omega": "all_ones", "nu": "all_ones"}\n',
    "segment_weighted": '{"dim": 1, "parts": [[[1], [-1]]],\n'
                        ' "omega": {"table": [[[-1], "3/2"], [[0], 0], '
                        '[[1], 2]]},\n'
                        ' "nu": {"table": [[[-1], 1], [[0], 0], '
                        '[[1], "5/4"]]}}\n',
    "malformed": '{"dim": 2, "parts": [[[1, 0]\n',
}

CIRCLE = [[1, []], [1, []]]
SPHERE3 = [[1, []], [0, []], [0, []], [1, []]]


class Case:
    """One CLI invocation: an input file, its flags and what must come out."""

    def __init__(self, name, text, flags, exit_code, facts):
        self.name = name
        self.text = text
        self.flags = flags
        self.exit_code = exit_code
        self.facts = facts  # report dict -> list of failed fact descriptions

    def argv(self, path):
        return ["report", path] + self.flags


def _json(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


def _vertex_input(parts, omega="all_ones", nu="all_ones"):
    return _json({"dim": len(parts[0][0]),
                  "parts": [[list(v) for v in part] for part in parts],
                  "omega": omega, "nu": nu})


def _lattice_points(box_from, normals):
    """Lattice points of {x : <a, x> <= 1 for a in normals} inside the
    bounding box of the points ``box_from`` (which must span the polytope's
    vertices), sorted."""
    box = [range(min(c), max(c) + 1) for c in zip(*box_from)]
    return [x for x in product(*box)
            if all(corpus.dot(n, x) <= 1 for n in normals)]


def _sums(parts):
    return {tuple(map(sum, zip(*combo))) for combo in product(*parts)}


def kinked_prism_input():
    """The prism with omega = nu = 1 + |m_0|/4 on every nonzero lattice point
    (test_interval_kink_weight_separates_circles), as a "table" input.

    By Batyrev-Borisov duality Conv(parts) is the polar of the sum of the dual
    parts and the polar of the sum of the parts is Conv(dual parts), which
    gives both supports by inequalities; their vertices bound the search."""
    parts_hull = _lattice_points([v for p in PRISM_PAIR_5D for v in p],
                                 _sums(PRISM_PAIR_DUALS))
    sum_polar = _lattice_points([v for p in PRISM_PAIR_DUALS for v in p],
                                _sums(PRISM_PAIR_5D))

    def table(points):
        return {"table": [[list(pt), str(1 + Fraction(abs(pt[0]), 4)
                                         if any(pt) else 0)]
                          for pt in points]}

    return _vertex_input(PRISM_PAIR_5D, table(parts_hull), table(sum_polar))


# -- frozen facts -----------------------------------------------------------


def _check(failures, label, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


def prism_facts(rep):
    out = []
    s = rep["stages"]
    _check(out, "sigma.cells", s["sigma"]["cells"], 888)
    _check(out, "sigma.cells_by_dim", s["sigma"]["cells_by_dim"],
           {"0": 108, "1": 324, "2": 336, "3": 120})
    _check(out, "sigma.homology", s["sigma"]["homology"], SPHERE3)
    for side, cells in (("S", 158), ("T", 146)):
        _check(out, f"{side} cells",
               sum(s["subdivisions"][side]["cells_by_dim"].values()), cells)
    _check(out, "P", s["transversal"]["P"], 120)
    _check(out, "Q", s["transversal"]["Q"], 120)
    _check(out, "discriminant.vertices", s["discriminant"]["vertices"], 135)
    _check(out, "discriminant.components", s["discriminant"]["components"], 7)
    _check(out, "primary_loops", s["monodromy"]["primary_loops"], 756)
    _check(out, "degenerate_loops", s["monodromy"]["degenerate_loops"], 504)
    _check(out, "divisors", s["monodromy"]["global"]["divisors"],
           [1, 1, 3, 3, 3, 3, 3, 3])
    _check(out, "passed", rep["passed"], True)
    return out


def prism_full_dual_facts(rep):
    out = prism_facts(rep)
    s = rep["stages"]
    _check(out, "complement_homology betti",
           [b for b, _ in s["complement_homology"]], [1, 16, 6, 0])
    _check(out, "duality loops_checked",
           s["duality_monodromy"]["loops_checked"], 756)
    _check(out, "duality all_preserve_pairing",
           s["duality_monodromy"]["all_preserve_pairing"], True)
    _check(out, "tropical all passed",
           all(v["passed"] for v in s["tropical"].values()), True)
    _check(out, "lemma_suite_failures", s["lemma_suite_failures"], [])
    return out


def kinked_facts(rep):
    out = []
    s = rep["stages"]
    # Twelve components of twelve cells each: 144 discriminant vertices.
    _check(out, "discriminant.components", s["discriminant"]["components"], 12)
    _check(out, "discriminant.vertices", s["discriminant"]["vertices"], 144)
    _check(out, "component homology all circles",
           s["discriminant"]["component_homology"], [CIRCLE] * 12)
    _check(out, "sigma.homology", s["sigma"]["homology"], SPHERE3)
    _check(out, "passed", rep["passed"], True)
    return out


def corpus_facts(rep):
    out = []
    sigma = rep["stages"]["sigma"]
    if sigma["expected_euler"] is not None:
        _check(out, "sigma.euler", sigma["euler"], sigma["expected_euler"])
    _check(out, "passed", rep["passed"], True)
    return out


def no_facts(rep):
    return []


# -- workloads --------------------------------------------------------------

FAST = ["--verify", "fast"]
FULL_DUAL = ["--verify", "full", "--dual"]


def corpus_cases(seed):
    """The small_corpus inputs for a seed: the tests/data files, every base
    with r = 1, and for each (base, r) class in ``corpus.RANDOM_CLASSES`` the
    class's first ray split moved by a seeded lattice symmetry of the base."""
    rng = random.Random(seed)
    cases = [Case(name, text, FULL_DUAL, 2 if name == "malformed" else 0,
                  no_facts if name == "malformed" else corpus_facts)
             for name, text in FIXED_INPUTS.items()]
    for k, base in enumerate(corpus.BASES):
        if k not in corpus.FIXED_BASES:
            cases.append(Case(f"base{k}_r1", _vertex_input([base]), FULL_DUAL,
                              0, corpus_facts))
    for k, r in corpus.RANDOM_CLASSES:
        base = corpus.BASES[k]
        syms = corpus.symmetries(base)
        g = rng.randrange(len(syms))
        _, parts = next(corpus.valid_splits(base, r))
        parts = [sorted(corpus.transform(syms[g], v) for v in part)
                 for part in parts]
        cases.append(Case(f"base{k}_r{r}_g{g}", _vertex_input(parts),
                          FULL_DUAL, 0, corpus_facts))
    return cases


def prism_cases(seed):
    return [Case("prism_pair_5d", _vertex_input(PRISM_PAIR_5D), FAST, 0,
                 prism_facts)]


def prism_full_dual_cases(seed):
    return [Case("prism_pair_5d", _vertex_input(PRISM_PAIR_5D), FULL_DUAL, 0,
                 prism_full_dual_facts)]


def kinked_cases(seed):
    return [Case("prism_kinked", kinked_prism_input(), FAST, 0, kinked_facts)]


WORKLOADS = {
    "prism_fast": prism_cases,
    "prism_kinked_fast": kinked_cases,
    "small_corpus": corpus_cases,
    # Not in BENCHMARK.json: one run takes 81-88 s (2-vCPU x86_64, CPython
    # 3.11) and its traced run about 190 s, which fits neither 22 timed runs
    # in the time allowed nor the 180 s limit on one run; kept for the
    # recorded baseline and manual runs.
    "prism_full_dual": prism_full_dual_cases,
}
