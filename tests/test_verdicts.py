"""Every boolean verdict of the report can read false: one fault each.

Each test plants one targeted fault in what a verdict reads (a poset,
Sigma, the parts hull, the sum polytope, a minimal cell, a part
subdivision, the tropical complex, a monodromy, the partition or the dual
that the validation reads, the double dual, Sigma's cell order, Sigma's
Euler count or homology) by rebinding the function that computes
the verdict, so that this function alone is handed the doctored input.  It
then runs ``nefsphere report`` in process and expects exit 3, the verdict
false and ``"passed": false``.  Every other check of the run reads the
true input.

``nefsphere validate``'s weight verdicts, ``central`` and
``coned_over_boundary``, are flipped by weight tables instead: the weight is
the input.  Its ``passed`` is the partition's verdict, so it stays true
there while the exit code is 3.
"""

import copy
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nefsphere import cli, pipeline, sphere, tropical
from nefsphere import monodromy as mono
from nefsphere.linalg import identity, mat_mul
from nefsphere.nef import NefPartition, NefPartitionError
from nefsphere.polytope import convex_hull, dilate, polar_dual

from conftest import TRIANGLE, transpose
from test_cli import NON_CENTRAL, SEGMENT, path


def _feed(monkeypatch, module, name, doctor):
    """Rebind module.name so that it computes on doctor(*args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*doctor(*args)))


def _failed(capsys, name, *flags):
    """The stages of ``report`` on tests/data/NAME.json, which must exit 3
    with passed false."""
    code = cli.main(["report", path(f"{name}.json"), *flags])
    rep = json.loads(capsys.readouterr().out)
    assert (code, rep["passed"]) == (3, False)
    return rep["stages"]


# -- Sigma and the Minkowski complexes ----------------------------------------


@pytest.mark.parametrize("side, key", [(0, "p1_surjective"),
                                       (1, "p2_surjective")])
def test_a_sigma_without_one_factor_cell_fails_its_projection(
        monkeypatch, capsys, side, key):
    # Drop every cell of Sigma over the first pair's P-cell (Q-cell): the
    # projection to that factor no longer hits it.
    def doctor(sigma):
        gone = sigma.pairs[0][side]
        return (SimpleNamespace(
            pairs=[pq for pq in sigma.pairs if pq[side] != gone],
            p_poset=sigma.p_poset, q_poset=sigma.q_poset),)

    _feed(monkeypatch, sphere, "projection_images", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    assert stages["sigma"]["projections"][key] is False


def test_two_equal_minkowski_cells_fail_injective(monkeypatch, capsys):
    # The second element is given the first element's Minkowski cell.  Its
    # order is then no longer inclusion either: the key reads false only
    # together with order_isomorphism.
    def doctor(poset, delta, r, parts_hull):
        first, second = poset.elements[:2]
        doctored = copy.copy(poset)
        doctored.elements = (first, sphere.TransversalCell(
            second.cell, second.slices, first.minkowski)) + poset.elements[2:]
        return doctored, delta, r, parts_hull

    _feed(monkeypatch, sphere, "minkowski_complex", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    for side in ("P_side", "Q_side"):
        report = stages["minkowski_complexes"][side]
        assert report["checks"]["injective"] is False
        assert report["checks"]["order_isomorphism"] is False
        assert report["passed"] is False


def test_cells_off_the_dilated_boundary_fail_the_check(monkeypatch, capsys):
    # Against twice the parts hull no Minkowski cell lies on the boundary
    # of the r-fold dilation; the sum polytope meets none of its facets,
    # so the support check has nothing to cover.
    def doctor(poset, delta, r, parts_hull):
        return poset, delta, r, dilate(parts_hull, 2)

    _feed(monkeypatch, sphere, "minkowski_complex", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    checks = stages["minkowski_complexes"]["P_side"]["checks"]
    assert checks["cells_on_dilated_boundary"] is False
    assert checks["support_covers_dilated_boundary"] is True


def test_a_missing_maximal_cell_fails_the_support_cover(monkeypatch,
                                                        capsys):
    # Drop one maximal element from the poset: its facet of the r-fold
    # dilation is no longer filled, while the order among the others is
    # still inclusion and each cell's faces are still elements.
    def doctor(poset, delta, r, parts_hull):
        top = next(j for j, mask in enumerate(poset._above) if mask == 1 << j)
        elements = poset.elements[:top] + poset.elements[top + 1:]
        ids = {}
        masks = [sum(1 << ids.setdefault(v, len(ids)) for v in e.cell.vertices)
                 for e in elements]
        doctored = sphere.TransversalPoset(
            poset.parts, elements, poset.slices, masks,
            *sphere._inclusion_masks(masks, masks))
        return doctored, delta, r, parts_hull

    _feed(monkeypatch, sphere, "minkowski_complex", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    checks = stages["minkowski_complexes"]["P_side"]["checks"]
    assert checks["support_covers_dilated_boundary"] is False
    assert checks["order_isomorphism"] is True
    assert checks["face_lattices_match"] is True


def test_a_doubled_minimal_cell_fails_the_lemma_suite(monkeypatch, capsys):
    # The first minimal cell [a, b] (r = 2) is stretched to [a, 2b - a]:
    # still two vertices with point slices, but no longer unimodular.
    def doctor(poset):
        i = poset.minimal[0]
        e = poset.elements[i]
        a, b = e.cell.vertices
        doubled = convex_hull([a, tuple(2 * y - x for x, y in zip(a, b))],
                              e.cell.role)
        doctored = copy.copy(poset)
        doctored.elements = poset.elements[:i] + (sphere.TransversalCell(
            doubled, e.slices, e.minkowski),) + poset.elements[i + 1:]
        return (doctored,)

    _feed(monkeypatch, sphere, "minimal_cells_unimodular", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "full")
    assert [f["check"] for f in stages["lemma_suite_failures"]] == \
        ["minimal_cell_unimodular_simplex"] * 2


# -- the tropical suite -----------------------------------------------------


def test_a_missing_bounded_amoeba_cell_fails_the_zero_cell_check(
        monkeypatch, capsys):
    def doctor(amoeba_cells, zero_cell):
        k = next(k for k, t in enumerate(amoeba_cells) if t.bounded)
        return amoeba_cells[:k] + amoeba_cells[k + 1:], zero_cell

    _feed(monkeypatch, tropical, "bounded_amoeba_matches_zero_cell", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "full")
    report = stages["tropical"]["bounded_amoeba_is_zero_cell_boundary"]
    assert report["bounded_cells"] == report["proper_zero_cell_faces"] - 1
    assert report["passed"] is False


class _Unlisted:
    """A subdivision whose cells() leaves out one of its cells."""

    def __init__(self, sub, cell):
        self._sub = sub
        self._cell = cell

    def cells(self):
        return [c for c in self._sub.cells() if c != self._cell]

    def __getattr__(self, name):
        return getattr(self._sub, name)


def test_an_unlisted_part_cell_fails_sliced_cones_are_cells(monkeypatch,
                                                            capsys):
    # The part subdivision no longer lists the cone over the first
    # element's slice.
    def doctor(parts, boundary, p_poset, cplx, cells):
        cone = boundary.coned(p_poset.elements[0].slices[0])
        return ([_Unlisted(parts[0], cone)] + parts[1:], boundary, p_poset,
                cplx, cells)

    _feed(monkeypatch, tropical, "bounded_cells_check", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "full")
    report = stages["tropical"]["bounded_cells"]
    assert report["sliced_cones_are_cells"] is False
    assert report["passed"] is False


def test_a_complex_cell_swapped_for_a_larger_one_fails_realized(monkeypatch,
                                                               capsys):
    # A cell that lies in another is replaced by that larger cell: the
    # meet of part cells that gave it is still inside the complex, but no
    # meet now lands on its index.  cellwise_equal fails with it: this key
    # reads false only with cellwise_equal or sliced_cones_are_cells.
    def doctor(parts, boundary, p_poset, cplx, cells):
        containment = sphere.containment_order([c.poly for c in cplx])
        k, j = next((k, j) for k, mask in enumerate(containment)
                    for j in range(len(cplx)) if j != k and mask >> j & 1)
        doctored = [cplx[j] if i == k else c for i, c in enumerate(cplx)]
        return parts, boundary, p_poset, doctored, cells

    _feed(monkeypatch, tropical, "bounded_cells_check", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "full")
    report = stages["tropical"]["bounded_cells"]
    assert report["complex_cells_realized"] is False
    assert report["cellwise_equal"] is False
    assert report["refinement_inside_complex"] is True
    assert report["passed"] is False


def test_a_larger_sum_polytope_fails_the_mixed_volume(monkeypatch, capsys):
    # The slice sums still tile the sum polytope, not twice it.
    def doctor(boundary, poset, delta):
        return boundary, poset, dilate(delta, 2)

    _feed(monkeypatch, tropical, "mixed_subdivision_check", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "full")
    report = stages["tropical"]["mixed_subdivision"]
    assert report["volume_matches"] is False
    assert report["full_dimensional"] is True
    assert report["interiors_disjoint"] is True
    assert report["passed"] is False


# -- the monodromy suites ---------------------------------------------------


def test_a_wrong_tau_dimension_fails_w_dimension_matches(monkeypatch, capsys):
    # Each local group reads its tau-cell as that cell's first minimal
    # face, of a lower dimension than the span of its slice differences.
    def doctor(sigma, k, atlas):
        j = sigma.pairs[k][1]
        q_poset = copy.copy(sigma.q_poset)
        tau = q_poset.elements[j]
        face = q_poset.elements[q_poset.minimal_below(j)[0]].cell
        q_poset.elements = q_poset.elements[:j] + (sphere.TransversalCell(
            face, tau.slices, tau.minkowski),) + q_poset.elements[j + 1:]
        doctored = copy.copy(sigma)
        doctored.q_poset = q_poset
        return doctored, k, atlas

    _feed(monkeypatch, mono, "local_group", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "full")
    assert stages["local_groups"]
    for report in stages["local_groups"].values():
        assert report["w_dimension_matches"] is False
        assert report["passed"] is False


def _local_logs(monkeypatch, make_change):
    """Inside each local group, read every loop's log N as change(N), with
    change = make_change() made afresh for the group.  The monodromies
    stage and every other suite read the true holonomy."""
    real_unipotent, real_local_group = mono._unipotent, mono.local_group

    def local_group(sigma, k, atlas):
        change = make_change()

        def changed(frame, coords, terms):
            linear, us, vs = real_unipotent(frame, coords, terms)
            log = change(mono._mat_sub_identity(linear))
            return (tuple(tuple(int(i == j) + x for j, x in enumerate(row))
                          for i, row in enumerate(log)), us, vs)

        with monkeypatch.context() as patch:
            patch.setattr(mono, "_unipotent", changed)
            return real_local_group(sigma, k, atlas)

    monkeypatch.setattr(mono, "local_group", local_group)


def test_a_log_that_moves_w_fails_vanishes_on_w(monkeypatch, capsys):
    # Each log N = u v^T becomes N N^T = |v|^2 u u^T: its image is still
    # in W = span(u) and the logs still commute, but u is no longer killed.
    _local_logs(monkeypatch, lambda: lambda n: mat_mul(n, transpose(n)))
    stages = _failed(capsys, "simplex3", "--verify", "full")
    assert stages["local_groups"]
    for report in stages["local_groups"].values():
        assert report["vanishes_on_w"] is False
        assert report["image_in_w"] is True
        assert report["commuting"] is True
    assert stages["triviality"]["all_equivalent"] is True


def test_one_transposed_log_fails_commuting_and_image_in_w(monkeypatch,
                                                           capsys):
    # The first non-zero log of each local group is transposed: it no
    # longer commutes with the others, and its image leaves W.
    def first_transposed():
        done = []

        def change(n):
            if done or not any(map(any, n)):
                return n
            done.append(True)
            return transpose(n)
        return change

    _local_logs(monkeypatch, first_transposed)
    stages = _failed(capsys, "simplex3", "--verify", "full")
    assert stages["local_groups"]
    for report in stages["local_groups"].values():
        assert report["commuting"] is False
        assert report["image_in_w"] is False
        assert report["passed"] is False


def test_an_identity_primal_monodromy_fails_the_duality_pairing(monkeypatch,
                                                               capsys):
    # The duality check is handed the identity for every primal loop: the
    # non-trivial dual monodromies no longer preserve the pairing.
    def doctor(loop, m, dual_atlas):
        k = len(m.basis)
        return loop, mono.AffineMonodromy(m.basis, identity(k),
                                          m.translation, m.basis), dual_atlas

    _feed(monkeypatch, mono, "duality_check", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "full", "--dual")
    assert stages["duality_monodromy"]["all_preserve_pairing"] is False
    assert stages["triviality"]["all_equivalent"] is True


# -- the partition, the double dual and Sigma's cell order ---------------------


def test_a_dual_that_cannot_be_formed_fails_the_validation(monkeypatch,
                                                          capsys):
    # The validation is handed a dualize that refuses the partition: its
    # dual_partition_integral check, and so the validation, reads false.
    def refuse(nef):
        raise NefPartitionError("planted: no integral dual")

    _feed(monkeypatch, pipeline, "validate_nef_partition",
          lambda nef, dualize: (nef, refuse))
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    checks = {c["name"]: c["passed"] for c in stages["validation"]["checks"]}
    assert stages["validation"]["passed"] is False
    assert checks["dual_partition_integral"] is False


def _validation_checks(stages):
    """The validation's checks by name; the validation must have failed."""
    assert stages["validation"]["passed"] is False
    return {c["name"]: c["passed"] for c in stages["validation"]["checks"]}


def test_a_part_off_the_origin_fails_origin_in_every_part(monkeypatch,
                                                          capsys):
    # The validation is handed simplex3's part moved by e_0, next to the
    # point -e_0: the sum is the same reflexive simplex, but the point
    # misses the origin.  The dual is not formed then, so this check reads
    # false only together with dual_partition_integral ("skipped").
    def doctor(nef, dualize):
        part = nef.parts[0]
        e0 = (1,) + (0,) * (nef.ambient - 1)
        moved = convex_hull([tuple(x + y for x, y in zip(v, e0))
                             for v in part.vertices], nef.role)
        point = convex_hull([tuple(-x for x in e0)], nef.role)
        return NefPartition([moved, point], nef.role), dualize

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    checks = _validation_checks(_failed(capsys, "simplex3", "--verify",
                                        "fast"))
    assert checks == {"origin_in_every_part": False,
                      "parts_are_lattice_polytopes": True,
                      "sum_is_reflexive": True,
                      "dual_partition_integral": False}


def test_halved_parts_fail_parts_are_lattice_polytopes(monkeypatch, capsys):
    # simplex3's part A is handed over as A/2 twice: the same sum, each
    # half holds the origin, and its vertices are not integral.  As above,
    # dual_partition_integral reads false with it.
    def doctor(nef, dualize):
        part = nef.parts[0]
        half = convex_hull([tuple(Fraction(x, 2) for x in v)
                            for v in part.vertices], nef.role)
        return NefPartition([half, half], nef.role), dualize

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    checks = _validation_checks(_failed(capsys, "simplex3", "--verify",
                                        "fast"))
    assert checks == {"origin_in_every_part": True,
                      "parts_are_lattice_polytopes": False,
                      "sum_is_reflexive": True,
                      "dual_partition_integral": False}


def _only_failing(checks, name):
    assert [k for k, ok in checks.items() if not ok] == [name]


def test_swapped_dual_parts_fail_psi_certificates(monkeypatch, capsys):
    # The validation's dual comes back with its two parts swapped: their
    # hull and their sum are unchanged, but psi_j is 1 on part i != j.
    def doctor(nef, dualize):
        def swapped(n):
            dual = dualize(n)
            return NefPartition(dual.parts[::-1], dual.role)
        return nef, swapped

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "fast")
    _only_failing(_validation_checks(stages), "psi_certificates")


def _with(nef, **cached):
    """A copy of a partition with some cached polytopes replaced."""
    out = copy.copy(nef)
    for name, value in cached.items():
        setattr(out, name, value)
    return out


def test_a_doubled_sum_polar_fails_sum_polar_equals_conv_of_dual_parts(
        monkeypatch, capsys):
    # Only this check reads the polar of the sum; the dual is the true one.
    def doctor(nef, dualize):
        return _with(nef, _sum_polar=dilate(nef.sum_polar, 2)), dualize

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "fast")
    _only_failing(_validation_checks(stages),
                  "sum_polar_equals_conv_of_dual_parts")


def test_a_doubled_parts_hull_fails_dual_sum_is_polar_of_parts_hull(
        monkeypatch, capsys):
    # Only this check reads the parts hull; the dual is the true one.
    def doctor(nef, dualize):
        return _with(nef, _parts_hull=dilate(nef.parts_hull, 2)), dualize

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "fast")
    _only_failing(_validation_checks(stages),
                  "dual_sum_is_polar_of_parts_hull")


def test_a_doubled_dual_sum_fails_dual_sum_is_reflexive(monkeypatch, capsys):
    # The dual's sum is doubled, so its facets lie at lattice distance 2,
    # and the parts hull is halved to stay its polar: only reflexivity is
    # left to see it.
    def doctor(nef, dualize):
        dual = dualize(nef)
        doubled = _with(dual, _sum=dilate(dual.sum_polytope, 2))
        return (_with(nef, _parts_hull=polar_dual(doubled.sum_polytope)),
                lambda n: doubled)

    _feed(monkeypatch, pipeline, "validate_nef_partition", doctor)
    stages = _failed(capsys, "pentagon_pair", "--verify", "fast")
    _only_failing(_validation_checks(stages), "dual_sum_is_reflexive")


def test_a_reordered_double_dual_fails_the_involution(monkeypatch, capsys):
    # The double dual comes back with its parts swapped; the dual itself,
    # which the rest of the run reads, is the true one.
    real = pipeline.dual_nef_partition

    def dualize(nef):
        out = real(nef)
        if nef.role == "N":  # the dual's dual
            return NefPartition(out.parts[::-1], out.role)
        return out

    monkeypatch.setattr(pipeline, "dual_nef_partition", dualize)
    stages = _failed(capsys, "pentagon_pair", "--verify", "fast")
    assert stages["dual_partition"]["involution"] is False
    assert stages["validation"]["passed"] is True


def test_a_doubled_top_cell_fails_the_pseudomanifold_check(monkeypatch,
                                                           capsys):
    # A copy of one top cell of Sigma over the same faces: each of its
    # ridges then lies in three top cells.  Homology reads the true Sigma.
    def doctor(dims, below, facets):
        k = dims.index(max(dims))
        copy_below = below[k] & ~(1 << k) | 1 << len(dims)
        return (list(dims) + [dims[k]], list(below) + [copy_below],
                list(facets) + [facets[k]])

    _feed(monkeypatch, sphere, "is_closed_pseudomanifold", doctor)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    assert stages["sigma"]["pseudomanifold"] is False
    assert stages["sigma"]["homology"] == [[1, []], [0, []], [1, []]]


def test_a_doubled_top_cell_in_the_count_fails_the_euler_check(monkeypatch,
                                                               capsys):
    # Sigma's Euler characteristic is counted with one top cell twice;
    # its homology reads the true Sigma.
    real = sphere.SigmaComplex.euler_characteristic
    monkeypatch.setattr(
        sphere.SigmaComplex, "euler_characteristic",
        lambda self: real(SimpleNamespace(
            dims=self.dims + (max(self.dims),))))
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    assert (stages["sigma"]["euler"], stages["sigma"]["expected_euler"]) == \
        (3, 2)
    assert stages["sigma"]["homology"] == [[1, []], [0, []], [1, []]]


def test_a_missing_top_cell_fails_the_homology_check(monkeypatch, capsys):
    # Sigma's homology is computed without one top cell, on a disc; its
    # Euler characteristic counts the true Sigma.
    real = sphere.SigmaComplex.homology

    def homology(self, cells=None):
        if cells is None:
            top = self.dims.index(max(self.dims))
            cells = (1 << len(self.dims)) - 1 & ~(1 << top)
        return real(self, cells)

    monkeypatch.setattr(sphere.SigmaComplex, "homology", homology)
    stages = _failed(capsys, "simplex3", "--verify", "fast")
    assert stages["sigma"]["homology"] == [[1, []], [0, []], [0, []]]
    assert stages["sigma"]["euler"] == stages["sigma"]["expected_euler"]


# -- nefsphere validate: the weights -------------------------------------------

# The segment's omega or nu = x_0 is affine: the one cell holds the origin
# in its interior, not as an apex.  On the triangle's polar, minus the
# triangle part of NON_CENTRAL, NON_CENTRAL's omega mirrored through the
# origin leaves cells that miss the origin.
AFFINE = {"table": [[[-1], -1], [[0], 0], [[1], 1]]}
MIRRORED = {"table": [[[-x for x in pt], value]
                      for pt, value in NON_CENTRAL["omega"]["table"]]}


@pytest.mark.parametrize("parts, weight, table, central, coned", [
    (SEGMENT, "omega", AFFINE, True, False),
    (SEGMENT, "nu", AFFINE, True, False),
    ([[list(v) for v in TRIANGLE[0]]], "nu", MIRRORED, False, False),
])
def test_a_weight_fails_its_validate_verdicts(tmp_path, capsys, parts, weight,
                                              table, central, coned):
    # The other weight is all ones, and reads true.
    data = tmp_path / "weights.json"
    data.write_text(json.dumps({"dim": len(parts[0][0]), "parts": parts,
                                weight: table}))
    code = cli.main(["validate", str(data)])
    out = json.loads(capsys.readouterr().out)
    other = "nu" if weight == "omega" else "omega"
    assert (code, out["passed"]) == (3, True)
    assert out["central"] == {weight: central, other: True}
    assert out["coned_over_boundary"] == {weight: coned, other: True}
