"""The role-swapped run is seeded from the primal run.

By Batyrev-Borisov duality the dual nef-partition's run is the primal's with
the roles of Delta and nabla swapped, so ``dual_pipeline()`` reuses the
primal's subdivisions and posets after checking the duality equalities.  The
seeded run must equal the one computed from scratch.
"""

import json

import pytest

from nefsphere import NefPartition, Pipeline, cli
from nefsphere import pipeline as pipeline_module
from nefsphere.cli import load_input
from nefsphere.monodromy import PrimaryLoop, duality_check
from nefsphere.nef import NefPartitionError

from test_cli import path

INPUTS = ["triangle", "square_sum", "pentagon_pair", "simplex3",
          "segment_weighted", "prism_pair_5d", "prism_pair_5d_kinked"]


def _pipeline(name):
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


def _coned(sub):
    return sub.maximal_cells, sub.cells()


def _boundary(sub):
    return sub.side, sub.cells


def _poset(poset):
    return ([(e.cell, e.slices, e.minkowski)
             for e in poset.elements],
            [poset.above(i) for i in range(len(poset))], poset.minimal)


@pytest.mark.parametrize("name", INPUTS)
def test_seeded_dual_run_equals_unseeded(name):
    primal = _pipeline(name)
    seeded = primal.dual_pipeline()
    fresh = Pipeline(seeded.nef, omega_spec=seeded.omega_spec,
                     nu_spec=seeded.nu_spec)
    for stage in ("s_coned", "t_coned"):
        assert _coned(getattr(seeded, stage)()) == \
            _coned(getattr(fresh, stage)()), stage
    for stage in ("s_boundary", "t_boundary"):
        assert _boundary(getattr(seeded, stage)()) == \
            _boundary(getattr(fresh, stage)()), stage
    for stage in ("p_poset", "q_poset"):
        assert _poset(getattr(seeded, stage)()) == \
            _poset(getattr(fresh, stage)()), stage
    # The dual Sigma is the primal Sigma with (i, j) <-> (j, i).
    swapped = {(j, i) for i, j in primal.sigma().pairs}
    assert set(seeded.sigma().pairs) == swapped
    assert set(fresh.sigma().pairs) == swapped


def test_dual_run_shares_the_double_dual(simplex3_pipe):
    dual_pipe = simplex3_pipe.dual_pipeline()
    assert dual_pipe.dual() is simplex3_pipe.double_dual()
    assert dual_pipe.nef is simplex3_pipe.dual()
    assert dual_pipe.p_poset() is simplex3_pipe.q_poset()
    assert dual_pipe.q_poset() is simplex3_pipe.p_poset()


def test_dual_run_shares_the_polar_hulls(simplex3_pipe):
    # The dual parts hull is the polar of the sum, and the polar of the
    # dual sum the parts hull: one live object each, scanned once.
    dual_nef = simplex3_pipe.dual_pipeline().nef
    assert dual_nef.parts_hull is simplex3_pipe.nef.sum_polar
    assert dual_nef.sum_polar is simplex3_pipe.nef.parts_hull


@pytest.mark.parametrize("name", ["prism_pair_5d", "prism_pair_5d_kinked"])
def test_duality_suite_builds_no_dual_sigma(name):
    pipe = _pipeline(name)
    assert pipe.report(verify="full", include_dual=True)["passed"]
    assert "_sigma" not in pipe.dual_pipeline()._cache


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d"])
def test_dual_loop_is_the_cell_lookup_in_an_unseeded_run(name):
    # Oracle: the dual loop (tau0, sigma1, tau1, sigma0) found by cell in
    # the posets of a dual run computed from scratch has the indices of
    # the swap, and pairs the same way through that run's charts.
    primal = _pipeline(name)
    seeded = primal.dual_pipeline()
    fresh = Pipeline(seeded.nef, omega_spec=seeded.omega_spec,
                     nu_spec=seeded.nu_spec)
    p_index = {e.cell: i for i, e in enumerate(fresh.p_poset().elements)}
    q_index = {e.cell: i for i, e in enumerate(fresh.q_poset().elements)}
    p_el, q_el = primal.p_poset().elements, primal.q_poset().elements
    loops = primal.loops()
    assert loops
    for loop in loops:
        assert PrimaryLoop(p_index[q_el[loop.q0].cell],
                           q_index[p_el[loop.p1].cell],
                           p_index[q_el[loop.q1].cell],
                           q_index[p_el[loop.p0].cell]) == \
            PrimaryLoop(loop.q0, loop.p1, loop.q1, loop.p0)
    assert primal.duality_suite() == [
        duality_check(loop, m, fresh.atlas())
        for loop, m in zip(loops, primal.monodromies())]


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_dual_run_weights_are_the_primal_weights(name):
    # The dual run's omega is this run's nu and its nu this run's omega,
    # the same objects, so no table is rebuilt or compared.
    primal = _pipeline(name)
    dual_pipe = primal.dual_pipeline()
    assert dual_pipe.omega() is primal.nu()
    assert dual_pipe.nu() is primal.omega()


def test_involution_reports_only_geometric_failures(monkeypatch):
    real = pipeline_module.dual_nef_partition

    def failing(exc):
        def dualize(np_):
            if np_.role == "N":  # the double dual
                raise exc
            return real(np_)
        return dualize

    monkeypatch.setattr(pipeline_module, "dual_nef_partition",
                        failing(NefPartitionError("not a nef-partition")))
    assert _pipeline("triangle")._involution_holds() is False
    # Any other error is an internal fault and must not read as "false".
    monkeypatch.setattr(pipeline_module, "dual_nef_partition",
                        failing(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        _pipeline("triangle")._involution_holds()


# -- the duality claims dual_pipeline checks, each flipped by one fault ------


def _planted(monkeypatch, capsys, name, plant):
    """(exit code, falsified) of ``report --verify full --dual`` on an input
    whose run is handed to `plant` just before its dual run is built."""
    real = Pipeline.dual_pipeline

    def dual_pipeline(self):
        if "_dual_pipeline" not in self._cache:
            plant(self)
        return real(self)

    monkeypatch.setattr(Pipeline, "dual_pipeline", dual_pipeline)
    code = cli.main(["report", path(f"{name}.json"), "--verify", "full",
                     "--dual"])
    return code, json.loads(capsys.readouterr().out)["falsified"]


def _claim(text):
    return {"claim": f"dual_pipeline: {text}",
            "certificate": {"stage": "dual_pipeline"}}


def test_a_wrong_dual_parts_hull_fails_the_dual_run(monkeypatch, capsys):
    def plant(pipe):
        pipe.dual()._parts_hull = pipe.nef.parts_hull

    assert _planted(monkeypatch, capsys, "simplex3", plant) == \
        (3, _claim("the dual parts hull is not the polar of the sum"))


def test_a_wrong_dual_sum_polar_fails_the_dual_run(monkeypatch, capsys):
    def plant(pipe):
        pipe.dual()._sum_polar = pipe.nef.sum_polar

    assert _planted(monkeypatch, capsys, "simplex3", plant) == \
        (3, _claim("the polar of the dual sum is not the parts hull"))


def test_a_reordered_double_dual_fails_the_dual_run(monkeypatch, capsys):
    # The sum of the parts is unchanged, so only the involution sees it.
    def plant(pipe):
        back = pipe.double_dual()
        assert back.parts[0] != back.parts[1]
        pipe._cache["_double_dual"] = NefPartition(back.parts[::-1],
                                                   back.role)

    assert _planted(monkeypatch, capsys, "pentagon_pair", plant) == \
        (3, _claim("the double-dual parts are not the parts"))
