import json
import os
import subprocess
import sys

import pytest

BASE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", *args],
        capture_output=True, text=True,
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
     "zero denominator in '1/0'"),
    ({"dim": True, "parts": [[[1, 0], [-1, 0]]]},
     "bad dim true: need a positive integer"),
    ({"dim": 0, "parts": [[[], []]]}, "bad dim 0: need a positive integer"),
    ({"dim": 1, "parts": [[[True], [-1]]]},
     "bad vertex [true]: need 1 integers"),
    ({"dim": 1, "parts": SEGMENT,
      "omega": {"table": [[[-1], True], [[0], 0], [[1], 2]]}},
     "not an exact rational: true"),
    ({"dim": 1, "parts": SEGMENT,
      "nu": {"table": [[[True], 1], [[0], 0], [[-1], 2]]}},
     "bad weight table point [true]"),
    ({"dim": 1, "parts": []}, "no parts: need at least one part"),
    ({"dim": 1, "parts": [SEGMENT[0], []]}, "part 1 has no vertices"),
])
def test_malformed_values_exit_2(tmp_path, data, message):
    # JSON booleans are not integers, and a zero denominator or an empty
    # part list is an input error, not a traceback.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("report", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {message}\n"


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
