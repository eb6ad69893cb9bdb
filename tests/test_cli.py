import json
import os
import subprocess
import sys
import time

import pytest

BASE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# The slowest call here takes 0.3 s (pytest --durations, 2 vCPUs); a hang
# raises TimeoutExpired in its own test instead of stalling the CI job.
RUN_CLI_TIMEOUT_S = 60


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", *args],
        capture_output=True, text=True, timeout=RUN_CLI_TIMEOUT_S,
        cwd=BASE, env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    return proc


def path(name):
    return os.path.join(DATA, name)


def test_validate_triangle():
    proc = run_cli("validate", path("triangle.json"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["passed"] and out["irreducible"]


def test_validate_reducible_square():
    proc = run_cli("validate", path("square_sum.json"))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["passed"] and not out["irreducible"]
    assert out["witness"] == [0]
    proc2 = run_cli("validate", path("square_sum.json"),
                    "--require-irreducible")
    assert proc2.returncode == 3


def test_malformed_json_distinct_exit():
    proc = run_cli("validate", path("malformed.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_missing_file():
    proc = run_cli("validate", path("no_such_file.json"))
    assert proc.returncode == 2


def test_dualize_matches_library(pentagon_pipe):
    proc = run_cli("dualize", path("pentagon_pair.json"))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    want = [[[str(x) for x in v] for v in p.vertices]
            for p in pentagon_pipe.dual().parts]
    assert out["parts"] == want


def test_report_deterministic():
    first = run_cli("report", path("triangle.json"), "--verify", "full")
    second = run_cli("report", path("triangle.json"), "--verify", "full")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"]


def test_report_dual_flag():
    proc = run_cli("report", path("pentagon_pair.json"), "--dual")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "duality_monodromy" in out["stages"]
    assert out["stages"]["duality_monodromy"]["all_preserve_pairing"]


def test_complex_and_discriminant_commands():
    proc = run_cli("complex", path("simplex3.json"))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["homology"] == [[1, []], [0, []], [1, []]]
    proc = run_cli("discriminant", path("simplex3.json"))
    out = json.loads(proc.stdout)
    assert out["components"] == 6


def test_tropical_scene_projection():
    proc = run_cli("tropical", path("triangle.json"), "--project", "0,1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["bounded_cells"] == 6
    assert all(len(v) == 2 for cell in out["scene"] for v in cell["vertices"])


@pytest.mark.parametrize("project, message", [
    ("9", "index 9 is not in 0..1"),
    ("2", "index 2 is not in 0..1"),
    ("-1", "index -1 is not in 0..1"),
    ("a", "'a' is not a coordinate index"),
    ("0,,", "'' is not a coordinate index"),
    ("", "'' is not a coordinate index"),
    ("0.5", "'0.5' is not a coordinate index"),
])
def test_bad_project_exits_2(project, message):
    proc = run_cli("tropical", path("triangle.json"), f"--project={project}")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "--project" in proc.stderr and message in proc.stderr


def _refuse_pipeline(*args, **kwargs):
    raise AssertionError("a stage ran before the option was checked")


def test_emit_complexes_under_a_file_exits_2_before_any_stage(
        tmp_path, monkeypatch, capsys):
    from nefsphere import cli
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")
    proc = run_cli("report", path("triangle.json"), "--emit-complexes",
                   target)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "--emit-complexes" in proc.stderr
    # In process: the option is refused before a Pipeline exists.
    monkeypatch.setattr(cli, "Pipeline", _refuse_pipeline)
    assert cli.main(["report", path("triangle.json"),
                     "--emit-complexes", target]) == 2
    assert "--emit-complexes" in capsys.readouterr().err


def _raising(name):
    def stage(pipe):
        raise RuntimeError(f"stub {name} raised")
    stage.__name__ = name
    return stage


@pytest.mark.parametrize("stub, cached, named", [
    ("sigma_homology", True, "sigma_homology"),
    # report reaches omega only through s_boundary and s_coned: the
    # innermost stage is named.
    ("omega", True, "omega"),
    # Raised by report itself, in no stage.
    ("_input_description", False, "report"),
])
def test_internal_error_names_its_stage(monkeypatch, capsys, stub, cached,
                                        named):
    from nefsphere import cli
    from nefsphere.pipeline import Pipeline, _cached
    fn = _raising(stub)
    monkeypatch.setattr(Pipeline, stub, _cached(fn) if cached else fn)
    assert cli.main(["report", path("triangle.json")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"internal error in stage {named}: RuntimeError: "
                   f"stub {stub} raised\n")


def test_sigma_homology_gates_passed(monkeypatch, capsys):
    # The Euler number cannot tell T^3 from S^3 (both are 0), so an
    # irreducible input whose Sigma had T^3's groups must fail on them.
    from nefsphere import cli
    from nefsphere.pipeline import Pipeline
    torus = [(1, ()), (3, ()), (3, ()), (1, ())]
    monkeypatch.setattr(Pipeline, "sigma_homology", lambda pipe: torus)
    assert cli.main(["report", path("prism_pair_5d.json")]) == 3
    out = json.loads(capsys.readouterr().out)
    sigma = out["stages"]["sigma"]
    assert out["stages"]["irreducible"]["irreducible"]
    assert sigma["euler"] == sigma["expected_euler"] == 0
    assert sigma["homology"] == [[1, []], [3, []], [3, []], [1, []]]
    assert out["passed"] is False


@pytest.mark.parametrize("n, groups", [
    (-1, []), (0, [[2, []]]), (1, [[1, []], [1, []]]),
    (3, [[1, []], [0, []], [0, []], [1, []]]),
])
def test_sphere_homology(n, groups):
    from nefsphere.pipeline import _sphere_homology
    assert _sphere_homology(n) == groups


def test_emit_complexes(tmp_path):
    proc = run_cli("report", path("triangle.json"),
                   "--emit-complexes", str(tmp_path))
    assert proc.returncode == 0
    blob = json.loads((tmp_path / "complexes.json").read_text())
    assert blob["sphere_cells"]
    assert blob["points"]
    assert blob["discriminant"]["vertices"] == []


def test_monodromy_command():
    proc = run_cli("monodromy", path("simplex3.json"))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["global"]["log_rank"] == 3


def test_weight_table_roundtrip():
    proc = run_cli("validate", path("segment_weighted.json"))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["central"]["omega"] and out["passed"]


@pytest.mark.parametrize("extra, message", [
    ([[1.5], 7], "weight table point [3/2] is not a lattice point"),
    ([[1], 9], "weight table lists the point [1] twice"),
])
def test_bad_weight_table_exits_2(tmp_path, extra, message):
    # A non-lattice or repeated table point must not silently overwrite the
    # weight of a lattice point.
    with open(path("segment_weighted.json")) as fh:
        data = json.load(fh)
    data["omega"]["table"].append(extra)
    bad = tmp_path / "bad_weights.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


def test_falsification_exit_code(monkeypatch, capsys):
    # A falsified claim surfaces as exit code 3 with its certificate.
    from nefsphere import cli
    from nefsphere.errors import FalsificationError

    class Boom:
        def __init__(self, *a, **k):
            raise FalsificationError("synthetic claim", {"witness": [1, 2]})

    monkeypatch.setattr(cli, "Pipeline", Boom)
    code = cli.main(["complex", path("triangle.json")])
    assert code == 3
    out = capsys.readouterr().out
    assert "synthetic claim" in out and "witness" in out


SEGMENT = [[[1], [-1]]]


@pytest.mark.parametrize("data, message", [
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1], "1/0"], [[0], 0], [[1], 2]]}},
     "bad omega value '1/0': zero denominator"),
    ({"dim": True, "parts": [[[1, 0], [-1, 0]]]},
     "bad dim true: need a positive integer"),
    ({"dim": 0, "parts": [[[], []]]}, "bad dim 0: need a positive integer"),
    ({"dim": 1, "parts": [[[True], [-1]]]},
     "bad vertex [true]: need 1 integers"),
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1], True], [[0], 0], [[1], 2]]}},
     "bad omega value true: not an exact rational"),
    ({"dim": 1, "parts": SEGMENT,
      "nu": {"table": [[[True], 1], [[0], 0], [[-1], 2]]}},
     "bad weight table point [true]"),
    ({"dim": 1, "parts": []}, "no parts: need at least one part"),
    ({"dim": 1, "parts": [SEGMENT[0], []]}, "part 1 has no vertices"),
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1], "nan"], [[0], 0], [[1], 2]]}},
     "bad omega value 'nan': not a rational literal"),
    ({"dim": 1, "parts": SEGMENT,
      "nu": {"table": [[[-1], 1], [[0], 0], [[1], "inf"]]}},
     "bad nu value 'inf': not a rational literal"),
    ({"dim": 1, "parts": SEGMENT,
      "nu": {"table": [[[-1], "1/2/3"], [[0], 0], [[1], 2]]}},
     "bad nu value '1/2/3': not a rational literal"),
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1], 1.5], [[0], 0], [[1], 2]]}},
     "bad omega value 1.5: not an exact rational"),
])
def test_malformed_values_exit_2(tmp_path, data, message):
    # JSON booleans are not integers, and a zero denominator or an empty
    # part list is an input error, not a traceback.  A bad weight value is
    # named by its weight.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {message}\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where, message", [
    ("parts", "the input nests too deeply to read"),
    ("omega", 'bad omega "w.json": the weight file nests too deeply to read'),
])
def test_deeply_nested_json_exits_2(tmp_path, where, message):
    # JSON nested past the interpreter's recursion limit, in the input or
    # in a weight file, is an input error, not a RecursionError traceback.
    if where == "parts":
        text = '{"dim": 1, "parts": ' + DEEP + "}"
    else:
        (tmp_path / "w.json").write_text(DEEP)
        text = json.dumps({"dim": 1, "parts": SEGMENT, "omega": "w.json"})
    (tmp_path / "deep.json").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", "report", "deep.json"],
        capture_output=True, text=True, timeout=RUN_CLI_TIMEOUT_S,
        cwd=tmp_path, env={**os.environ,
                           "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {message}\n"


def test_a_bad_value_in_a_weight_file_names_the_weight(tmp_path):
    # The same message whether the table is in the input or in a weight
    # file given by --nu.
    weights = tmp_path / "nu.json"
    weights.write_text(json.dumps(
        {"table": [[[-1], "nan"], [[0], 0], [[1], 1]]}))
    proc = run_cli("report", path("segment_weighted.json"), "--nu",
                   str(weights))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("input error: bad nu value 'nan': not a rational "
                           "literal\n")


@pytest.mark.parametrize("data, message", [
    ({"dim": 1, "parts": [5]}, "part 0 is not a list of vertices: 5"),
    ({"dim": 1, "parts": SEGMENT, "omega": {"table": [[[1]]]}},
     "bad omega table entry [[1]]: need a [point, value] pair"),
    ([SEGMENT], "input is not a JSON object: need the fields dim and parts"),
    ({"dim": 1}, "missing field 'parts'"),
    ({"dim": 1, "parts": SEGMENT, "omega": 5},
     "bad omega 5: need all_ones, a weight file or a table of "
     "[point, value] pairs"),
    ({"dim": 1, "parts": SEGMENT, "nu": {"table": [[["a"], 1]]}},
     'bad weight table point ["a"]'),
    ({"dim": 1, "parts": SEGMENT, "nu": {"table": [[[{}], 1]]}},
     "bad weight table point [{}]"),
    ({"dim": 1, "parts": SEGMENT, "nu": {"table": [[[float("inf")], 1]]}},
     "bad weight table point [Infinity]"),
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1, 0], 1], [[0], 0], [[1], 1]]}},
     "bad weight table point [-1, 0]: need 1 coordinates"),
])
def test_malformed_structure_exit_2(tmp_path, data, message):
    # A wrong JSON shape is named by its field, not by Python's own error.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {message}\n"


@pytest.mark.parametrize("value, code", [
    ("1e5000", 2), ("1e-5000", 2), ("1e10000000", 2), ("1e" + "1" * 5000, 2),
    ("1e4200", 0)])
def test_an_oversized_weight_value_exits_2_before_it_is_built(
        tmp_path, capsys, value, code):
    # simplex3 with omega 1 off the origin and one value replaced.  A value
    # whose numerator or denominator would pass the interpreter's
    # int-to-string digit limit is refused by name before it is built: built,
    # 1e5000 could not be printed in the report (exit 4), and 1e10000000
    # took seconds before that.  An exponent too long for int() is named
    # too.
    from nefsphere import cli
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    table = [[[0, 0, 0], 0], [points[0], value]] + [[p, 1]
                                                   for p in points[1:]]
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps({"dim": 3, "parts": [points],
                               "omega": {"table": table}}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        got = cli.main(["report", str(bad)])
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert got == code, err
    if code == 2:
        assert elapsed < 1 and out == ""
        assert err == (f"input error: bad omega value {value[:24]!r}: its "
                       "numerator or denominator would exceed 4300 digits\n")


# The single triangle part with omega = |x_0 - 1| on its 10 lattice points:
# not every cell of the lower hull contains the origin.
NON_CENTRAL = {
    "dim": 2, "parts": [[[-1, -1], [2, -1], [-1, 2]]],
    "omega": {"table": [[[x, y], abs(x - 1)] for x in range(-1, 3)
                        for y in range(-1, 3) if x + y <= 1]},
}


def test_validate_reports_non_central_weight(tmp_path):
    bad = tmp_path / "non_central.json"
    bad.write_text(json.dumps(NON_CENTRAL))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 3, proc.stderr
    out = json.loads(proc.stdout)
    assert out["passed"]
    assert out["central"] == {"omega": False, "nu": True}
    assert out["coned_over_boundary"] == {"omega": False, "nu": True}


def test_validate_builds_no_subdivision_of_an_invalid_partition(tmp_path):
    # A huge vertex makes the single part no nef-partition; the weights'
    # subdivisions would scan its lattice points (an OverflowError here,
    # a hang for smaller coordinates), so validate reports them as null,
    # and every command that would build them rejects the input first.
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(
        {"dim": 2, "parts": [[[10**30, 0], [0, 1], [-1, -1], [0, 0]]]}))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 3, proc.stderr
    out = json.loads(proc.stdout)
    assert not out["passed"]
    assert out["central"] is None and out["coned_over_boundary"] is None
    for command in ("complex", "tropical", "discriminant", "monodromy",
                    "report"):
        proc = run_cli(command, str(bad))
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stderr == \
            "input rejected: input is not a valid nef-partition\n", command


# Sums whose polar is undefined: a point, a segment in the plane, and a
# triangle with the origin as a vertex.
NOT_REFLEXIVE_SUMS = {
    "point": {"dim": 1, "parts": [[[0]]]},
    "flat_segment": {"dim": 2, "parts": [[[1, 0], [-1, 0]]]},
    "origin_on_boundary": {"dim": 2, "parts": [[[0, 0], [1, 0], [0, 1]]]},
}


@pytest.mark.parametrize("name", sorted(NOT_REFLEXIVE_SUMS))
def test_a_non_reflexive_sum_is_named_by_every_command(tmp_path, capsys,
                                                       name):
    # Every command that needs the dual names validate's cause (exit 2),
    # not the polar that the cause leaves undefined.
    from nefsphere import cli
    cause = "the Minkowski sum is not a reflexive d-polytope"
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(NOT_REFLEXIVE_SUMS[name]))
    for command in ("report", "complex", "tropical", "discriminant",
                    "monodromy", "dualize"):
        assert cli.main([command, str(bad)]) == 2, command
        assert capsys.readouterr() == ("", f"input rejected: {cause}\n")
    assert cli.main(["validate", str(bad)]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["detail"] for c in checks}["sum_is_reflexive"] == \
        cause


def test_a_part_off_the_origin_is_rejected_by_every_command(tmp_path,
                                                            capsys):
    # pentagon_pair with part 0 moved by (-1, 0) and part 1 by (1, 0): the
    # sum is unchanged and reflexive, but part 1 misses the origin.  That is
    # bad input (exit 2) for every command that needs the dual, not a
    # failed theorem (exit 3).
    from nefsphere import cli
    bad = tmp_path / "off_origin.json"
    bad.write_text(json.dumps({"dim": 2, "parts": [
        [[0, 0], [-1, 0]], [[1, 1], [1, 0], [0, -1]]]}))
    for command in ("report", "complex", "tropical", "discriminant",
                    "monodromy", "dualize"):
        assert cli.main([command, str(bad)]) == 2, command
        assert capsys.readouterr() == \
            ("", "input rejected: input is not a valid nef-partition\n")
    assert cli.main(["validate", str(bad)]) == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["passed"] for c in checks}[
        "origin_in_every_part"] is False


def test_report_rejects_non_central_weight(tmp_path):
    bad = tmp_path / "non_central.json"
    bad.write_text(json.dumps(NON_CENTRAL))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input rejected: subdivision not central (omega)\n"


def test_report_rejects_a_weight_that_is_no_pyramid(tmp_path):
    # The affine omega = x_0 leaves the segment one cell, which has the
    # origin inside, not as a vertex: the message names the weight.
    bad = tmp_path / "affine.json"
    bad.write_text(json.dumps({
        "dim": 1, "parts": SEGMENT,
        "omega": {"table": [[[-1], -1], [[0], 0], [[1], 1]]}}))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "(omega)" in proc.stderr


# -- weight files ---------------------------------------------------------------


def _segment_with_omega(tmp_path, omega):
    """segment_weighted.json with its omega field replaced, in a new file."""
    with open(path("segment_weighted.json")) as fh:
        data = json.load(fh)
    data["omega"] = omega
    out = tmp_path / f"segment_{len(list(tmp_path.iterdir()))}.json"
    out.write_text(json.dumps(data))
    return str(out)


def test_a_weight_file_gives_the_report_of_its_table(tmp_path):
    # segment_weighted's omega table, moved to a file named by the input's
    # omega field or by --omega (over an all_ones field), either as the
    # {"table": ...} object or as the bare table.
    with open(path("segment_weighted.json")) as fh:
        table = json.load(fh)["omega"]
    want = run_cli("report", path("segment_weighted.json"))
    assert want.returncode == 0, want.stderr
    as_object = tmp_path / "omega.json"
    as_object.write_text(json.dumps(table))
    bare = tmp_path / "omega_table.json"
    bare.write_text(json.dumps(table["table"]))
    for weights in (as_object, bare):
        for args in (
                [_segment_with_omega(tmp_path, str(weights))],
                [_segment_with_omega(tmp_path, "all_ones"),
                 "--omega", str(weights)]):
            proc = run_cli("report", *args)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == want.stdout


def test_an_unreadable_weight_file_names_the_weight(tmp_path):
    # A weight string other than all_ones is a file name; a file that is
    # missing, in the input or after --omega, or that holds no JSON, exits
    # 2 with a message naming the weight.
    field = tmp_path / "bad.json"
    field.write_text(json.dumps({"dim": 1, "parts": SEGMENT, "nu": "bogus"}))
    not_json = tmp_path / "weights.txt"
    not_json.write_text("1/2")
    for args, message in (
            (["report", str(field)],
             'bad nu "bogus": cannot read the weight file '
             "(No such file or directory)"),
            (["validate", path("segment_weighted.json"), "--omega", "bogus"],
             'bad omega "bogus": cannot read the weight file '
             "(No such file or directory)"),
            (["report", _segment_with_omega(tmp_path, str(not_json))],
             f"bad omega {json.dumps(str(not_json))}: the weight file is "
             "not JSON (Extra data: line 1 column 2 (char 1))")):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"input error: {message}\n"


def test_the_generic_quintic_input_has_generic_central_weights(tmp_path):
    # tests/generic_input.py writes the generic-weight quintic that CI runs
    # with --verify full --dual (it stays out of tests/data, whose inputs
    # every data test runs).  Its tables, read as any input is, are
    # generic_weight of both supports in lattice-point order, and validate
    # finds both weights central and coned over the boundary.
    from conftest import generic_weight
    from nefsphere.cli import load_input
    proc = subprocess.run(
        [sys.executable, os.path.join(BASE, "tests", "generic_input.py"),
         path("simplex_p4_5.json")],
        capture_output=True, text=True, timeout=RUN_CLI_TIMEOUT_S, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr
    quintic = tmp_path / "quintic.json"
    quintic.write_text(proc.stdout)
    nef, omega, nu = load_input(str(quintic))
    assert omega == generic_weight(nef.parts_hull.lattice_points(), seed=1)
    assert nu == generic_weight(nef.sum_polar.lattice_points(), seed=1001)
    assert (len(omega), len(nu)) == (6, 126)
    proc = run_cli("validate", str(quintic))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["passed"]
    assert out["central"] == out["coned_over_boundary"] == {"omega": True,
                                                           "nu": True}
