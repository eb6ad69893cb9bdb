"""Byte-for-byte behaviour gate: canonical reports frozen under tests/data/golden.

``NAME.json`` is the stdout of ``nefsphere report INPUT --verify full
--dual`` for the small inputs, frozen before the exact kernel switched from
all-Fraction to int-first arithmetic.  ``prism_pair_5d_fast.json`` is the
stdout of ``nefsphere report prism_pair_5d.json --verify fast``, frozen
before Sigma's homology moved from the barycentric subdivision to its own
cells.  ``prism_pair_5d_kinked_fast.json`` is the same for the prism with the
non-integral weights omega = nu = 1 + |m_0|/4 (``prism_pair_5d_kinked.json``),
frozen before the hull kernel's simplicial start and incidence-mask vertex
test.  ``product_triangles_6d_fast.json`` is the same for the product of
three reflexive triangles in their own coordinate planes (a reducible 6D
r = 3 partition whose Sigma is a 3-torus), frozen before charts and chart
maps moved to integer lattice coordinates.  ``prism_pair_5d_full_dual.json``
is the stdout of ``nefsphere report prism_pair_5d.json --verify full
--dual``, frozen before Sigma's orders became bitmasks end to end.
``prism_pair_5d_kinked_full_dual.json`` is the stdout of ``nefsphere report
prism_pair_5d_kinked.json --verify full --dual`` (monodromies, local groups
and the duality pairing on rational base points), frozen before every loop
holonomy moved to pushing the base chart's frame.
``product_triangles_6d_full.json`` is the stdout of ``nefsphere report
product_triangles_6d.json --verify full`` (1 512 of its 2 160 loops are
degenerate), frozen before degenerate loops stopped being transported to the
base chart.  ``simplex_p5_222_fast.json``,
``simplex_p5_222_full_dual.json``, ``simplex_p6_223_fast.json`` and
``simplex_p6_223_full_dual.json`` are the ``--verify fast`` and ``--verify
full --dual`` reports of the simplex family: the P^d simplex with vertices
e_1, ..., e_d and -(e_1 + ... + e_d), split into groups of the sizes named
(P^5 as 2+2+2, P^6 as 2+2+3), with 0 joined to each group; they were frozen
before the interior vectors were read in closed form.
``simplex_p7_2222_fast.json`` and ``simplex_p7_2222_full_dual.json`` are the
same for P^7 as 2+2+2+2, the intersection of four quadrics and the first
r = 4 input, which the doubling search could not finish.  That change
refroze ``stages.interior_vectors.v`` and ``.w`` in ``pentagon_pair``, the
four prism goldens and the simplex family, and nothing else in them (the
closed form's oracle test in ``test_nef.py`` checks the rest of each report
against the doubling search it replaced).  ``simplex_p6_34_fast.json`` and
``simplex_p7_44_fast.json`` are the ``--verify fast`` reports of P^6 as 3+4
and P^7 as 4+4, the scale goldens: Sigma is S^4 on 1 130 cells and S^5 on
4 000, and each discriminant is one component, with b_2 = 42 and b_3 = 73.
They were frozen while each discriminant component's order complex was
still reduced by a heap-driven sparse elimination, before it went through
the coreduction pass.  P^6 (3,4) is checked here; P^7 (4,4), the larger
order complex, is checked by a CI step.  ``simplex_p7_332_fast.json`` is the
``--verify fast`` report of P^7 as 3+3+2 (Sigma is S^4 on 1 658 cells), frozen
before a face's H-representation was computed on first read, which changes
when its 7-dimensional faces read their rows.  ``simplex3_monodromy.json``,
``prism_pair_5d_kinked_monodromy.json`` and
``product_triangles_6d_monodromy.json`` are the stdout of ``nefsphere
monodromy`` on those inputs: every loop's triviality verdict and the global
group, on integral charts, on rational translations (1 080 loops) and at
r = 3 (2 160 loops).  They were frozen while each loop's holonomy was still
read by pushing the base chart's frame through the loop's transitions,
before it was read from the closed formula.  ``simplex3_tropical.json`` and
``prism_pair_5d_kinked_tropical.json`` are the stdout of ``nefsphere
tropical`` (the bounded tropical complex's cells, their vertices and rays,
and the amoeba's size), and ``cube_split_r3_full_dual.json`` is the
``--verify full --dual`` report of ``cube_split_r3.json``, the cube's polar
split into three parts by its rays (an r = 3 ray split, a box and two
segments).  All three were frozen while every tropical cell was still the
H->V solution of one inequality per lattice point of its support and the
bounded-cells check still met every combination of part cells.  Any
refactor of the arithmetic or the stages must reproduce them exactly.

Every report golden was refrozen once more for report schema 2, which
dropped nine verdicts that no input could flip and reports
``sign_pattern`` as null when r = 1; nothing else in them changed, and the
``monodromy`` and ``tropical`` goldens did not change.
``test_report_goldens_pin_schema_2`` names the dropped paths.

``NAME_complex.json``, ``NAME_discriminant.json``, ``NAME_dualize.json``
and ``NAME_validate.json`` are the stdout of those four commands on
simplex3 and the kinked prism, frozen before a face of a polytope became
its vertex bitmask everywhere and the transversal posets were built in
cell-key order, which reach the slices, Sigma and the loops beneath them.

``simplex3_generic_full_dual.json``, ``simplex_p4_5_full_dual.json``,
``simplex_p5_33_full_dual.json`` and ``simplex_p5_24_full_dual.json`` are the
``--verify full --dual`` reports of the quartic with the generic quadratic
bump as both weights (``simplex3_generic.json``: 24 discriminant
components, the first golden with a generic weight) and of the simplex
family's quintic, P^5 as 3+3 and P^5 as 2+4.  They were frozen before each
transversal poset's inclusion order was computed once, over its own cells,
which the mixed subdivision, the tropical complex and the dual run read.

``segment_split_full_dual.json`` and ``segment_split_monodromy.json`` are
the ``--verify full --dual`` report and the ``monodromy`` output of the
segment split into its two rays (``segment_split.json``: d = 1 and r = 2,
so Sigma is empty), frozen after its expected Euler number became the int 0
and its global section gained ``log_rank`` and ``base_component_size``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from test_cli import BASE, DATA, path

GOLDEN = os.path.join(DATA, "golden")
NAMES = ["triangle", "square_sum", "pentagon_pair", "simplex3",
         "segment_weighted"]
SIMPLEX_FAMILY = ["simplex_p5_222", "simplex_p6_223", "simplex_p7_2222"]
SIMPLEX_FAST = SIMPLEX_FAMILY + ["simplex_p6_34", "simplex_p7_332"]
SIMPLEX_FULL_DUAL = SIMPLEX_FAMILY + [
    "simplex_p4_5", "simplex_p5_33", "simplex_p5_24", "simplex3_generic"]
# segment_split is r = d + 1, where Sigma is empty.
RAY_SPLITS = ["cube_split_r3", "segment_split"]
# The commands whose stdout is not a report, each with its own goldens.
COMMANDS = ["complex", "discriminant", "dualize", "validate"]
FAST = ("--verify", "fast")
FULL = ("--verify", "full")
FULL_DUAL = FULL + ("--dual",)
# Every report golden the byte tests below compare: its input and flags.
REPORTS = {
    **{name: (name, FULL_DUAL) for name in NAMES},
    **{f"{name}_fast": (name, FAST) for name in SIMPLEX_FAST},
    **{f"{name}_full_dual": (name, FULL_DUAL)
       for name in SIMPLEX_FULL_DUAL + RAY_SPLITS},
    "prism_pair_5d_fast": ("prism_pair_5d", FAST),
    "prism_pair_5d_kinked_fast": ("prism_pair_5d_kinked", FAST),
    "product_triangles_6d_fast": ("product_triangles_6d", FAST),
    "prism_pair_5d_full_dual": ("prism_pair_5d", FULL_DUAL),
    "prism_pair_5d_kinked_full_dual": ("prism_pair_5d_kinked", FULL_DUAL),
    "product_triangles_6d_full": ("product_triangles_6d", FULL),
}
# The report golden too slow for this module, compared by a CI step.
CI_REPORTS = ["simplex_p7_44_fast"]


def _assert_report_matches(input_name, golden_name, *flags,
                           command="report"):
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", command,
         path(f"{input_name}.json"), *flags],
        capture_output=True, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(GOLDEN, f"{golden_name}.json"), "rb") as fh:
        want = fh.read()
    assert proc.stdout == want


def _assert_report_golden(golden_name):
    input_name, flags = REPORTS[golden_name]
    _assert_report_matches(input_name, golden_name, *flags)


@pytest.mark.parametrize("name", NAMES)
def test_full_dual_report_matches_golden(name):
    _assert_report_golden(name)


def test_prism_fast_report_matches_golden():
    _assert_report_golden("prism_pair_5d_fast")


def test_kinked_prism_fast_report_matches_golden():
    _assert_report_golden("prism_pair_5d_kinked_fast")


def test_product_triangles_fast_report_matches_golden():
    _assert_report_golden("product_triangles_6d_fast")


def test_prism_full_dual_report_matches_golden():
    _assert_report_golden("prism_pair_5d_full_dual")


def test_kinked_prism_full_dual_report_matches_golden():
    _assert_report_golden("prism_pair_5d_kinked_full_dual")


def test_product_triangles_full_report_matches_golden():
    _assert_report_golden("product_triangles_6d_full")


@pytest.mark.parametrize("name", SIMPLEX_FAST)
def test_simplex_family_fast_report_matches_golden(name):
    _assert_report_golden(f"{name}_fast")


@pytest.mark.parametrize("name", SIMPLEX_FULL_DUAL)
def test_simplex_family_full_dual_report_matches_golden(name):
    _assert_report_golden(f"{name}_full_dual")


@pytest.mark.parametrize("name", RAY_SPLITS)
def test_ray_split_full_dual_report_matches_golden(name):
    _assert_report_golden(f"{name}_full_dual")


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked",
                                  "product_triangles_6d", "segment_split"])
def test_monodromy_command_matches_golden(name):
    _assert_report_matches(name, f"{name}_monodromy", command="monodromy")


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_tropical_command_matches_golden(name):
    _assert_report_matches(name, f"{name}_tropical", command="tropical")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_command_matches_golden(name, command):
    _assert_report_matches(name, f"{name}_{command}", command=command)


# Schema 2 dropped these report verdicts, which no input could flip, with
# the code behind them; a v1 report carries them.
V1_ONLY_PATHS = [
    "stages.monodromy.atlas.u_charts_cover",
    "stages.monodromy.atlas.v_charts_cover",
    "stages.monodromy.atlas.chart_overlaps_match_adjacency",
    "stages.monodromy.atlas.nerve_witnessed_by_poset",
    "stages.monodromy.atlas.passed",
    "stages.tropical.order_complex.injective",
    "stages.tropical.order_complex.anti_isomorphism",
    "stages.tropical.order_complex.passed",
    "stages.sigma.projections.cells_project_to_their_factors",
]


def _has_path(report, dotted):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


REPORT_GOLDENS = sorted(
    f[:-len(".json")] for f in os.listdir(GOLDEN) if not f.endswith(tuple(
        f"_{c}.json" for c in COMMANDS + ["monodromy", "tropical"])))


def _golden_report(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        return json.load(fh)


def test_report_goldens_on_disk_are_the_compared_ones():
    # A report golden that no byte test reads would pin nothing, and the
    # schema check below runs once per golden on disk.
    assert REPORT_GOLDENS == sorted([*REPORTS, *CI_REPORTS])
    with open(os.path.join(BASE, ".github", "workflows", "tests.yml")) as fh:
        workflow = fh.read()
    for name in CI_REPORTS:
        assert f"cmp - tests/data/golden/{name}.json" in workflow
    # Both branches of the sign-pattern check below are exercised.
    assert {_golden_report(name)["input"]["r"] == 1
            for name in REPORT_GOLDENS} == {True, False}


@pytest.mark.parametrize("name", REPORT_GOLDENS)
def test_report_goldens_pin_schema_2(name):
    report = _golden_report(name)
    assert report["schema"] == 2
    assert [p for p in V1_ONLY_PATHS if _has_path(report, p)] == []
    sign = report["stages"]["interior_vectors"]["sign_pattern"]
    if report["input"]["r"] == 1:
        assert sign is None  # v_1 = w_1 = 0 when r = 1
    else:  # null only on a reducible partition
        assert (sign is None) is \
            (not report["stages"]["irreducible"]["irreducible"])


def _floats(node, at="$"):
    """The paths of the floats in a parsed JSON document."""
    if isinstance(node, float):
        return [at]
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    return [p for k, v in items for p in _floats(v, f"{at}.{k}")]


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN)))
def test_no_golden_holds_a_float(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        assert _floats(json.load(fh)) == []


# The report paths whose bytes changed on r = d + 1 inputs, and only there:
# the expected Euler number became an int, and the global section gained
# the two keys that every other input already had.  The monodromy command's
# "global" is the same section.
EMPTY_SIGMA_PATHS = ["stages.sigma.expected_euler",
                     "stages.monodromy.global.log_rank",
                     "stages.monodromy.global.base_component_size"]


def test_an_empty_sigma_has_an_int_euler_and_the_global_keys():
    # The goldens are byte-compared with the CLI above.  1 + (-1) ** (d - r)
    # was the float 0.0 on r = d + 1.
    report = _golden_report("segment_split_full_dual")
    command = _golden_report("segment_split_monodromy")
    section = report["stages"]["monodromy"]["global"]
    assert report["stages"]["sigma"]["cells"] == 0
    expected = report["stages"]["sigma"]["expected_euler"]
    assert type(expected) is int and expected == 0
    assert report["stages"]["monodromy"]["graph_nodes"] == 0
    assert all(_has_path(report, p) for p in EMPTY_SIGMA_PATHS)
    assert (section["log_rank"], section["base_component_size"]) == (0, 0)
    keys = set(_golden_report("simplex3")["stages"]["monodromy"]["global"])
    assert set(section) == keys
    assert set(_golden_report("simplex3_monodromy")["global"]) == keys
    assert command["global"] == section


# -- metamorphic: the report does not depend on how the parts are written ------


def _fast_report(input_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", "report", input_path, *FAST],
        capture_output=True, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", ["simplex3", "pentagon_pair",
                                  "simplex_p5_222", "prism_pair_5d"])
def test_fast_report_ignores_the_order_and_repeats_of_part_vertices(
        tmp_path, name):
    # Each part's vertex list is shuffled with a seed, one vertex repeated
    # and the origin, which lies in every part, inserted: the same parts,
    # so the same report bytes, whatever order the hulls and cells meet
    # their points in.
    with open(path(f"{name}.json")) as fh:
        data = json.load(fh)
    rng = random.Random(name)
    for part in data["parts"]:
        rng.shuffle(part)
        part.insert(rng.randrange(len(part) + 1), rng.choice(part))
        part.insert(rng.randrange(len(part) + 1), [0] * data["dim"])
    moved = tmp_path / f"{name}.json"
    moved.write_text(json.dumps(data))
    assert _fast_report(str(moved)) == _fast_report(path(f"{name}.json"))
