import glob
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from nefsphere import Pipeline, sphere
from nefsphere.cli import load_input
from nefsphere.errors import FalsificationError
from nefsphere.homology import order_complex_homology
from nefsphere.linalg import dot
from nefsphere.nef import NefPartition
from nefsphere.polytope import (as_fractions, bits, convex_hull, dilate,
                                intersect, is_minkowski_sum,
                                minkowski_sum_all)
from nefsphere.sphere import projection_images
from test_cli import BASE, DATA, path
from test_exact_kernel import contains_by_fractions
from test_geometry import deferred_membership_failures
from test_monodromy import _data_pipe
from test_order_masks import sigma_leq, sigma_successors

INPUTS = ["triangle", "square_sum", "pentagon_pair", "simplex3",
          "segment_weighted", "prism_pair_5d"]
DATA_INPUTS = INPUTS + ["prism_pair_5d_kinked", "product_triangles_6d"]


def _data_pipeline(name):
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


ALL_INPUTS = sorted(
    os.path.basename(f)[:-len(".json")]
    for f in glob.glob(os.path.join(DATA, "*.json"))
    if not f.endswith("malformed.json"))


def containment_order_by_fractions(polyhedra):
    """Inclusion masks: polyhedron i lies in polyhedron j iff its vertices
    are among the vertices of all of them that pass j's rows in Fraction
    arithmetic on (1, v)."""
    points = {v for c in polyhedra for v in c.vertices}
    inside = [{v for v in points
               if contains_by_fractions(c.eq_rows, c.ineq_rows, v)}
              for c in polyhedra]
    return [sum(1 << j for j, ins in enumerate(inside)
                if ins.issuperset(ci.vertices))
            for ci in polyhedra]


def _bsd_homology(sigma):
    return order_complex_homology(len(sigma.pairs), sigma_successors(sigma))


# -- oracles: what the slice lemma and the Sigma certificates prove --------


def lemma_slice_oracle(slices_by_cell, other_parts):
    """The face and lattice-distance checks on every cell of a slice map
    (a poset's `slices`), with psi read from the other side's parts.

    For every index set I with a nonempty I-slice: the vertices of the
    I-slices span a face of the cell, and sum_{i in I} psi_i is 1 on them
    and 0 on the vertices of the other slices.  The unit-psi corollary of
    the slice lemma (:mod:`nefsphere.sphere`) proves both on every run.
    """
    r = len(other_parts)
    failures = []
    for cell, slices in slices_by_cell.items():
        bit = {v: 1 << k for k, v in enumerate(cell.vertices)}
        for size in range(1, r + 1):
            for idxs in combinations(range(r), size):
                chosen = [v for i in idxs if slices[i] is not None
                          for v in slices[i].vertices]
                if not chosen:
                    continue
                if not cell.is_face(sum(bit[v] for v in set(chosen))):
                    failures.append({"check": "slice_hull_is_face",
                                     "cell": sphere._cell_key(cell),
                                     "index_set": list(idxs)})
                comp = [v for i in range(r)
                        if i not in idxs and slices[i] is not None
                        for v in slices[i].vertices]
                if not comp:
                    continue
                psi = [sum(max(dot(v, x) for x in other_parts[i].vertices)
                           for i in idxs) for v in chosen + comp]
                if psi != [1] * len(chosen) + [0] * len(comp):
                    failures.append({"check": "lattice_distance_one",
                                     "cell": sphere._cell_key(cell),
                                     "index_set": list(idxs)})
    return failures


def pairing_level_failures(sigma):
    """The vertex pairs (m, n) of Sigma's product cells with <m, n> != r."""
    return [(m, n) for i, j in sigma.pairs
            for m in sigma.p_poset.elements[i].minkowski.vertices
            for n in sigma.q_poset.elements[j].minkowski.vertices
            if dot(m, n) != sigma.r]


def minkowski_cell_failures(poset, r, delta):
    """The transversal cells whose Minkowski cell is not r*cell & delta, by
    H->V, or not the sum of their slices.  The run certifies this on the
    maximal cells only; the faces inherit it (:mod:`nefsphere.sphere`)."""
    return [sphere._cell_key(e.cell) for e in poset.elements
            if e.minkowski.key() != intersect(dilate(e.cell, r), delta).key()
            or not is_minkowski_sum(e.minkowski, e.slices)]


def upper_set_failures(poset, boundary):
    """The (transversal cell, non-transversal cell above it) pairs of a
    boundary subdivision, by vertex sets.  Transversality is monotone by
    construction: psi is read per vertex."""
    transversal = {e.cell for e in poset.elements}
    vsets = {c: frozenset(c.vertices) for c in boundary.cells}
    return [(sphere._cell_key(a), sphere._cell_key(b))
            for a in transversal for b in boundary.cells
            if b not in transversal and vsets[a] <= vsets[b]]


def face_closure_failures(sigma):
    """The (pair, subpair) of Sigma with i2 <= i and j2 <= j whose subpair
    is not a cell.  :func:`sphere.adjoint_pairs` tests every slice vertex
    pair, and a face's slice vertices are among its cell's, so there are
    none (:class:`sphere.SigmaComplex`)."""
    pairs = set(sigma.pairs)
    return [((i, j), (i2, j2)) for i, j in sigma.pairs
            for i2 in sigma.p_poset.below(i)
            for j2 in sigma.q_poset.below(j) if (i2, j2) not in pairs]


def _transversal_facts_hold(pipe):
    for poset, boundary, nef in (
            (pipe.p_poset(), pipe.s_boundary(), pipe.nef),
            (pipe.q_poset(), pipe.t_boundary(), pipe.dual())):
        assert minkowski_cell_failures(poset, nef.r, nef.sum_polytope) == []
        assert upper_set_failures(poset, boundary) == []
    assert face_closure_failures(pipe.sigma()) == []


def _removed_checks_hold(pipe):
    for poset, other in ((pipe.p_poset(), pipe.dual().parts),
                         (pipe.q_poset(), pipe.nef.parts)):
        assert lemma_slice_oracle(poset.slices, other) == []
    sigma = pipe.sigma()
    assert pairing_level_failures(sigma) == []
    assert all(d <= pipe.nef.ambient - pipe.nef.r for d in sigma.dims)


def test_r1_every_cell_transversal(triangle_pipe):
    p = triangle_pipe
    assert len(p.p_poset()) == len(p.s_boundary().cells)


def test_r1_minkowski_cell_is_cell(triangle_pipe):
    for e in triangle_pipe.p_poset().elements:
        assert e.minkowski == e.cell


def test_pentagon_transversal_cells(pentagon_pipe):
    # Exactly the two crossing edges are transversal.
    p = pentagon_pipe.p_poset()
    assert len(p) == 2
    got = {e.cell.vertices for e in p.elements}
    assert got == {(( -1, -1), (1, 0)), ((0, 1), (1, 0))}


def test_pentagon_minkowski_cells_and_support(pentagon_pipe):
    # Oracle: direct computation of the sum intersected with the scaled
    # boundary gives two single points.
    cells = {e.minkowski.vertices for e in pentagon_pipe.p_poset().elements}
    assert cells == {((0, -1),), ((1, 1),)}
    assert pentagon_pipe.p_minkowski_complex()["passed"]
    assert pentagon_pipe.q_minkowski_complex()["passed"]


def test_minimal_transversal_cell_slices_are_points(pentagon_pipe):
    poset = pentagon_pipe.p_poset()
    for i in poset.minimal:
        for s in poset.elements[i].slices:
            assert s.dim == 0


@pytest.mark.parametrize("name", ["pentagon_pair", "prism_pair_5d",
                                  "prism_pair_5d_kinked"])
def test_minkowski_cells_equal_both_old_routes(name):
    # Oracles, on every transversal cell of both sides: the V->H hull of
    # every sum of slice vertices, and the H->V intersection of r*cell with
    # the sum polytope.
    pipe = _data_pipeline(name)
    for poset, nef in ((pipe.p_poset(), pipe.nef),
                       (pipe.q_poset(), pipe.dual())):
        for e in poset.elements:
            summed = minkowski_sum_all(list(e.slices))
            direct = intersect(dilate(e.cell, nef.r), nef.sum_polytope)
            for oracle in (summed, direct):
                assert e.minkowski.key() == oracle.key()
                assert e.minkowski.equations == oracle.equations
                assert e.minkowski.facets == oracle.facets


def _maximal_above(poset, j):
    """The maximal elements of the poset above element j."""
    return [m for m in poset.above(j) if poset.above(m) == [m]]


# P^7's boundary cells are 6-dimensional, with 10^4 faces in all, and are
# left out for time; their Minkowski cells are kept.
@pytest.mark.parametrize("name", ALL_INPUTS)
def test_deferred_faces_read_membership_from_their_parent_rows(name):
    # Every face of every boundary cell is a face of a maximal one, and
    # every Minkowski cell, with its faces, is a face of a maximal one.
    # Each such face, with its rows unread, answers membership from the
    # maximal cell's rows as under its own H-representation.
    pipe = _data_pipe(name)
    parents = [e.minkowski for poset in (pipe.p_poset(), pipe.q_poset())
               for j, e in enumerate(poset.elements)
               if poset.above(j) == [j]]
    if not name.startswith("simplex_p7"):
        parents += pipe.s_boundary().maximal_cells
        parents += pipe.t_boundary().maximal_cells
    for parent in parents:
        assert deferred_membership_failures(parent) == []


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_face_keys_read_from_a_maximal_cell_are_the_cell_face_keys(name):
    # minkowski_complex reads a Minkowski cell's faces from the face
    # lattice of a maximal cell above it: the faces of a face G of M are
    # the faces of M inside G.  Every maximal cell above gives the keys the
    # cell's own face lattice gives.
    pipe = _data_pipe(name)
    for poset in (pipe.p_poset(), pipe.q_poset()):
        cells = [e.minkowski for e in poset.elements]
        for j, cell in enumerate(cells):
            for m in _maximal_above(poset, j):
                top = cells[m]
                inside = sum(1 << i for i, v in enumerate(top.vertices)
                             if v in cell.vertices)
                assert {(top.role, tuple(top.vertices[i] for i in bits(g)))
                        for g in top.faces() if g & inside == g} \
                    == cell.face_keys()


def test_building_the_prism_minkowski_complexes_reads_no_face_rows():
    # The posets and both Minkowski complexes of the prism read the
    # H-representation of no non-maximal Minkowski cell: each is a face of
    # a maximal one, which answers its membership and its faces.  A fresh
    # process, so no face comes read from the intern table.
    script = (
        "import sys\n"
        "from nefsphere import Pipeline\n"
        "from nefsphere.cli import load_input\n"
        "nef, omega, nu = load_input(sys.argv[1])\n"
        "pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)\n"
        "assert pipe.p_minkowski_complex()['passed']\n"
        "assert pipe.q_minkowski_complex()['passed']\n"
        "faces = [e.minkowski for poset in (pipe.p_poset(), pipe.q_poset())\n"
        "         for j, e in enumerate(poset.elements)\n"
        "         if poset.above(j) != [j]]\n"
        "print(len(faces), sum(c._rows is not None for c in faces))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, path("prism_pair_5d.json")],
        capture_output=True, text=True, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr
    faces, unread = map(int, proc.stdout.split())
    assert faces > 0 and unread == faces


@pytest.mark.parametrize("swap", ["off_the_maximal_cell", "not_a_face"])
def test_a_cell_that_is_not_a_face_of_its_maximal_cell_fails_the_check(swap):
    # The face check reads a cell's faces from a maximal cell above it.  A
    # cell swapped for a polytope with a vertex off that maximal cell, or
    # for the hull of two of its vertices that span no edge, makes
    # face_lattices_match false rather than raise.
    pipe = _data_pipe("prism_pair_5d")
    poset, nef = pipe.p_poset(), pipe.nef
    j = next(j for j in range(len(poset)) if poset.above(j) != [j])
    top = poset.elements[_maximal_above(poset, j)[0]].minkowski
    if swap == "off_the_maximal_cell":
        w = top.vertices[0]
        fake = convex_hull([w, tuple(2 * x for x in w)], top.role)
    else:
        diagonal = next(
            (a, b) for a, b in combinations(range(len(top.vertices)), 2)
            if not top.is_face(1 << a | 1 << b))
        fake = convex_hull([top.vertices[k] for k in diagonal], top.role)
    elements = list(poset.elements)
    e = elements[j]
    elements[j] = sphere.TransversalCell(e.cell, e.slices, fake)
    doctored = sphere.TransversalPoset(poset.parts, elements, poset.slices,
                                       poset.masks, poset._above, poset._below)
    report = sphere.minkowski_complex(doctored, nef.sum_polytope, nef.r,
                                      nef.parts_hull)
    assert report["checks"]["face_lattices_match"] is False
    assert sphere.minkowski_complex(poset, nef.sum_polytope, nef.r,
                                    nef.parts_hull)["passed"]


def test_a_cell_with_a_face_that_is_no_poset_element_fails_the_check():
    # Drop one minimal transversal cell from the poset: every Minkowski
    # cell above it keeps that face, which is now no element's Minkowski
    # cell, so each has one face too many.  Every face an element below it
    # has is still among its faces and the order is still inclusion, so
    # only the count of faces against the elements below sees it.
    pipe = _data_pipe("prism_pair_5d")
    poset, nef = pipe.p_poset(), pipe.nef
    i = next(i for i in poset.minimal if poset.above(i) != [i])
    elements = [e for k, e in enumerate(poset.elements) if k != i]
    masks = [m for k, m in enumerate(poset.masks) if k != i]
    doctored = sphere.TransversalPoset(
        poset.parts, elements, poset.slices, masks,
        *sphere._inclusion_masks(masks, masks))
    report = sphere.minkowski_complex(doctored, nef.sum_polytope, nef.r,
                                      nef.parts_hull)
    assert report["checks"]["order_isomorphism"] is True
    assert report["checks"]["face_lattices_match"] is False


def _corrupt_one_slice(monkeypatch, target):
    """Make compute_slices replace a slice of the cell `target` that has
    two or more vertices by its first vertex."""
    real = sphere.compute_slices

    def corrupted(subdivision, parts, other_parts):
        out = real(subdivision, parts, other_parts)
        if target in out:
            slices = list(out[target])
            i = next(i for i, s in enumerate(slices) if len(s.vertices) > 1)
            slices[i] = slices[i].face_polytope(1)
            out[target] = tuple(slices)
        return out

    monkeypatch.setattr(sphere, "compute_slices", corrupted)


@pytest.mark.parametrize("maximal", [True, False])
def test_a_corrupted_slice_falsifies_the_minkowski_cell(monkeypatch, capsys,
                                                        maximal):
    # On a maximal transversal cell the sum of the slices no longer equals
    # r*cell intersected with the sum polytope, read by H->V.  A face's
    # Minkowski cell is read from its maximal cell's, with no certificate
    # of its own, so there the corrupted slice shows in Sigma, whose cells
    # on the changed adjoint pairs break the diamond property.
    from nefsphere import cli
    poset = _data_pipeline("prism_pair_5d").p_poset()
    target = next(
        e.cell for i, e in enumerate(poset.elements)
        if (poset.above(i) == [i]) == maximal
        and any(len(s.vertices) > 1 for s in e.slices))
    _corrupt_one_slice(monkeypatch, target)
    assert cli.main(["report", path("prism_pair_5d.json")]) == 3
    out = json.loads(capsys.readouterr().out)["falsified"]
    if not maximal:
        assert out["claim"] == ("ridge of a cell does not lie in exactly two "
                                "of its facets (diamond property)")
        return
    assert out["claim"] == ("Minkowski cell differs from r*cell intersected "
                            "with the sum")
    cert = out["certificate"]
    assert cert["cell"] == sphere._cell_key(target)
    assert cert["dilated_intersection"] != cert["sum_of_slices"]


def test_a_corrupted_slice_is_refused_by_the_pseudomanifold_test(monkeypatch):
    # The pseudomanifold verdict is read only after Sigma's orientation,
    # which certifies the diamond property that the corrupted face's cells
    # break; the verdict alone checks thinness across top cells only.
    poset = _data_pipeline("prism_pair_5d").p_poset()
    target = next(
        e.cell for i, e in enumerate(poset.elements)
        if poset.above(i) != [i] and any(len(s.vertices) > 1 for s in e.slices))
    _corrupt_one_slice(monkeypatch, target)
    with pytest.raises(FalsificationError) as err:
        _data_pipeline("prism_pair_5d").sigma().is_closed_pseudomanifold()
    assert err.value.claim == ("ridge of a cell does not lie in exactly two "
                               "of its facets (diamond property)")


def test_a_transversal_cell_that_is_no_face_of_its_maximal_cell_is_refused():
    # r = 1 on the cube: a square facet and its diagonal, whose vertices lie
    # on the square but which is not a face of it.
    from conftest import make_pipeline
    cube = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    pipe = make_pipeline([cube])
    square = convex_hull([v for v in cube if v[0] == 1], "M")
    diagonal = convex_hull([(1, 1, 1), (1, -1, -1)], "M")
    cells = [diagonal, square]
    masks = [sum(1 << cube.index(v) for v in c.vertices) for c in cells]
    with pytest.raises(FalsificationError) as err:
        sphere.transversal_poset(
            SimpleNamespace(cells=cells, vertex_masks=masks),
            list(pipe.nef.parts), list(pipe.dual().parts),
            pipe.nef.sum_polytope)
    assert err.value.claim == ("transversal cell is not a face of the "
                               "maximal transversal cell above it")
    assert err.value.certificate == {"cell": sphere._cell_key(diagonal),
                                     "maximal_cell": sphere._cell_key(square)}


def test_adjoint_pairs_triangle(triangle_pipe):
    # r=1 on the boundary of a reflexive triangle: 12 pairs forming a circle.
    sigma = triangle_pipe.sigma()
    assert len(sigma) == 12
    assert sigma.euler_characteristic() == 0
    assert triangle_pipe.sigma_homology() == [(1, ()), (1, ())]
    assert sigma.is_closed_pseudomanifold()


def test_sigma_square_product_of_spheres(square_pipe):
    sigma = square_pipe.sigma()
    assert len(sigma) == 4
    assert all(d == 0 for d in sigma.dims)
    assert square_pipe.sigma_homology() == [(4, ())]


def test_sigma_pentagon_zero_sphere(pentagon_pipe):
    assert pentagon_pipe.sigma_homology() == [(2, ())]
    assert pentagon_pipe.sigma().euler_characteristic() == 2


def test_sigma_simplex3_two_sphere(simplex3_pipe):
    assert simplex3_pipe.sigma_homology() == [(1, ()), (0, ()), (1, ())]
    assert simplex3_pipe.sigma().euler_characteristic() == 2
    assert simplex3_pipe.sigma().is_closed_pseudomanifold()


def test_euler_formula_irreducible(triangle_pipe, pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, pentagon_pipe, simplex3_pipe):
        d = pipe.nef.ambient
        r = pipe.nef.r
        assert pipe.sigma().euler_characteristic() == 1 + (-1) ** (d - r)


def test_dimension_bound(simplex3_pipe):
    sigma = simplex3_pipe.sigma()
    bound = simplex3_pipe.nef.ambient - simplex3_pipe.nef.r
    assert max(sigma.dims) == bound
    assert all(dim <= bound for dim in sigma.dims)


def test_projection_images(triangle_pipe, pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, pentagon_pipe, simplex3_pipe):
        assert projection_images(pipe.sigma())["passed"]


def test_lemma_suite_standard_inputs(triangle_pipe, square_pipe,
                                     pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, square_pipe, pentagon_pipe, simplex3_pipe):
        assert pipe.lemma_suite() == []


def test_lemma_suite_reuses_the_poset_slices(monkeypatch):
    # Every subdivision cell is sliced once per run: the lemma suite reads
    # the minimal cells of the posets and slices nothing again.
    from nefsphere import sphere
    calls = []
    real = sphere._cell_slices
    monkeypatch.setattr(sphere, "_cell_slices",
                        lambda cell, supports: calls.append(cell)
                        or real(cell, supports))
    pipe = _data_pipeline("simplex3")
    assert pipe.lemma_suite() == []
    assert len(calls) == len(set(calls)) > 0
    assert set(calls) == set(pipe.s_boundary().cells) | \
        set(pipe.t_boundary().cells)


def test_lemma_suite_randomized(randomized_partitions):
    assert randomized_partitions, "generator produced no partitions"
    saw_r2 = False
    for nef in randomized_partitions:
        saw_r2 = saw_r2 or nef.r >= 2
        pipe = Pipeline(nef)
        assert pipe.lemma_suite() == [], \
            f"lemma suite failed for parts {[p.vertices for p in nef.parts]}"
        _removed_checks_hold(pipe)
        _transversal_facts_hold(pipe)
    assert saw_r2, "randomized sample contains no r >= 2 partition"


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_checks_proved_by_certificates_hold(name):
    # The slice faces and lattice distances (unit-psi corollary), the
    # pairing-level equation and the dimension bound (SigmaComplex) are
    # proved from the certificates each run raises; here they are checked.
    _removed_checks_hold(_data_pipeline(name))


@pytest.mark.parametrize("name", [n for n in ALL_INPUTS
                                  if n != "simplex_p7_44"])
def test_transversal_facts_proved_by_construction_hold(name):
    # The faces' Minkowski cells, the upper set and Sigma's face closure
    # are proved from the maximal cells' certificates and from the
    # per-vertex slices; here they are checked.  P^7 (4,4) is left out for
    # the time its Sigma takes.
    _transversal_facts_hold(_data_pipeline(name))


def test_the_minkowski_cells_of_p7_44_match_the_hrep_oracle():
    # The one input the test above leaves out: the Minkowski cells of both
    # posets against r*cell & delta by H->V, without Sigma.
    pipe = _data_pipeline("simplex_p7_44")
    for poset, nef in ((pipe.p_poset(), pipe.nef),
                       (pipe.q_poset(), pipe.dual())):
        assert minkowski_cell_failures(poset, nef.r, nef.sum_polytope) == []


def test_transversal_posets_run_no_h_to_v(monkeypatch):
    # The Minkowski cells are sums of slices: building the prism's two
    # posets runs no H->V construction.
    from nefsphere import polytope
    pipe = _data_pipeline("prism_pair_5d")
    pipe.s_boundary(), pipe.t_boundary(), pipe.dual()
    calls = []
    real = polytope.polytope_from_hrep

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "polytope_from_hrep", spy)
    assert len(pipe.p_poset()) and len(pipe.q_poset())
    assert calls == []


def test_a_maximal_cell_vertex_in_no_slice_falsifies_the_minkowski_cell(
        monkeypatch, capsys):
    # r = 1 on simplex3: the one slice of a maximal transversal cell, the
    # triangle itself, is replaced by one of its edges, so its third vertex
    # lies in no slice.  The edge is the sum of the slices, so only the
    # check that the slices partition the cell's vertices refutes it.
    from nefsphere import cli
    poset = _data_pipeline("simplex3").p_poset()
    target = next(e.cell for i, e in enumerate(poset.elements)
                  if poset.above(i) == [i])
    edge = target.face_polytope(0b011)
    real = sphere.compute_slices

    def corrupted(subdivision, parts, other_parts):
        out = real(subdivision, parts, other_parts)
        if target in out:
            out[target] = (edge,)
        return out

    monkeypatch.setattr(sphere, "compute_slices", corrupted)
    assert cli.main(["report", path("simplex3.json")]) == 3
    out = json.loads(capsys.readouterr().out)["falsified"]
    assert out["claim"] == ("Minkowski cell differs from r*cell intersected "
                            "with the sum")
    assert out["certificate"] == {
        "cell": sphere._cell_key(target),
        "sum_of_slices": sphere._cell_key(edge),
        "dilated_intersection": sphere._cell_key(target)}


def test_the_transversal_oracles_can_fail(simplex3_pipe):
    # Each oracle names a planted fault: a face's Minkowski cell swapped
    # for its maximal cell's, a dropped top cell, and a dropped pair below
    # another.
    poset = simplex3_pipe.p_poset()
    r, delta = simplex3_pipe.nef.r, simplex3_pipe.nef.sum_polytope
    top = next(i for i in range(len(poset)) if poset.above(i) == [i])
    face = next(i for i in poset.below(top) if i != top)
    elements = list(poset.elements)
    e = elements[face]
    elements[face] = sphere.TransversalCell(e.cell, e.slices,
                                            elements[top].minkowski)
    assert minkowski_cell_failures(SimpleNamespace(elements=elements),
                                   r, delta) == [sphere._cell_key(e.cell)]
    boundary = simplex3_pipe.s_boundary()
    dropped = poset.elements[top].cell
    thinned = SimpleNamespace(elements=[x for x in poset.elements
                                        if x.cell != dropped])
    failures = upper_set_failures(thinned, boundary)
    assert failures
    assert all(b == sphere._cell_key(dropped) for _, b in failures)
    sigma = simplex3_pipe.sigma()
    low = next(k for k in range(len(sigma)) if sigma._above[k] != 1 << k)
    thinned = SimpleNamespace(pairs=[pq for k, pq in enumerate(sigma.pairs)
                                     if k != low],
                              p_poset=sigma.p_poset, q_poset=sigma.q_poset)
    assert face_closure_failures(thinned)


def test_a_non_lattice_other_side_part_is_refused():
    # psi is integral only when the other side's parts are lattice
    # polytopes, so a part with a half-integral vertex is refused.
    parts = [convex_hull([(1, 0), (0, 1), (-1, -1)], "M")]
    other = [convex_hull([(0, 0), (Fraction(1, 2), 0), (0, 1)], "N")]
    with pytest.raises(FalsificationError) as err:
        sphere._Supports(parts, other)
    assert err.value.claim == \
        "slice lemma: an other-side part is not a lattice polytope"
    assert err.value.certificate == {
        "other_part": 0, "vertices": [["0", "0"], ["0", "1"], ["1/2", "0"]]}


def test_elliptic_dimension_has_empty_discriminant(randomized_partitions):
    # d - r = 1 inputs: no adjoint pair can be non-smooth.
    from nefsphere.monodromy import discriminant
    seen = 0
    for nef in randomized_partitions:
        if nef.ambient - nef.r != 1:
            continue
        seen += 1
        pipe = Pipeline(nef)
        assert not discriminant(pipe.sigma()).mask
        assert pipe.sigma_homology() == [(1, ()), (1, ())]
    assert seen > 0, "no d - r = 1 partition in the randomized sample"


@pytest.mark.parametrize("name", INPUTS)
def test_cellular_homology_matches_bsd(name):
    # Sigma is regular CW: its cellular homology equals the homology of the
    # order complex of its face poset (the barycentric subdivision).
    pipe = _data_pipeline(name)
    for sigma in (pipe.sigma(), pipe.dual_pipeline().sigma()):
        assert sigma.homology() == _bsd_homology(sigma)


def test_cellular_homology_matches_bsd_randomized(randomized_partitions):
    for nef in randomized_partitions:
        sigma = Pipeline(nef).sigma()
        assert sigma.homology() == _bsd_homology(sigma), \
            f"parts {[p.vertices for p in nef.parts]}"


def _block_sum(a, b):
    """The block sum of two tests/data inputs: a's parts in the first
    coordinates, then b's in the last ones, each padded with zeros."""
    na, nb = _data_pipeline(a).nef, _data_pipeline(b).nef
    return NefPartition.from_vertex_lists(
        [[v + (0,) * nb.ambient for v in p.vertices] for p in na.parts]
        + [[(0,) * na.ambient + v for v in p.vertices] for p in nb.parts])


@pytest.mark.parametrize("a, b, betti", [
    ("segment_weighted", "triangle", [2, 2]),
    ("triangle", "triangle", [1, 2, 1]),
    ("square_sum", "segment_weighted", [8]),
    ("triangle", "square_sum", [4, 4]),
    ("pentagon_pair", "triangle", [2, 2]),
    ("pentagon_pair", "segment_weighted", [4]),
])
def test_block_sum_homology_is_the_kunneth_product(a, b, betti):
    # Sigma of a block sum (unit weights) is the product of the blocks'
    # Sigmas, cell for cell.  The blocks' homology is free, so by Kunneth
    # the Betti numbers convolve and there is no torsion.  None of these is
    # a sphere, so Sigma's orientation is read beyond S^n.
    factors = [Pipeline(_data_pipeline(name).nef).sigma() for name in (a, b)]
    sigma = Pipeline(_block_sum(a, b)).sigma()
    assert len(sigma) == len(factors[0]) * len(factors[1])
    homs = [f.homology() for f in factors]
    assert not [t for hom in homs for _, t in hom if t]
    x, y = ([b_k for b_k, _ in hom] for hom in homs)
    product = [sum(x[i] * y[n - i] for i in range(len(x))
                   if 0 <= n - i < len(y))
               for n in range(len(x) + len(y) - 1)]
    assert product == betti
    assert sigma.homology() == [(b_n, ()) for b_n in betti]


@pytest.mark.parametrize("name", ["simplex3", "segment_weighted"])
def test_sigma_order_is_the_product_order(name):
    sigma = _data_pipeline(name).sigma()
    p, q = sigma.p_poset, sigma.q_poset
    n = len(sigma.pairs)
    succ = sigma_successors(sigma)
    for a, (i, j) in enumerate(sigma.pairs):
        want = [b for b, (i2, j2) in enumerate(sigma.pairs)
                if p.leq(i, i2) and q.leq(j, j2)]
        assert [b for b in range(n) if sigma_leq(sigma, a, b)] == want
        assert succ[a] == [b for b in want if b != a]


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_containment_order_matches_all_vertices_route(name):
    # The bitmask relation is the brute-force one (every vertex of cell i
    # tested against cell j), and it is the poset's order on both sides.
    from nefsphere.sphere import containment_order
    pipe = _data_pipeline(name)
    for poset in (pipe.p_poset(), pipe.q_poset()):
        cells = [e.minkowski for e in poset.elements]
        n = len(cells)
        got = containment_order(cells)
        want = [sum(1 << j for j in range(n)
                    if all(cells[j].contains(v) for v in cells[i].vertices))
                for i in range(n)]
        assert got == want
        assert all(poset.leq(i, j) == bool(got[i] >> j & 1)
                   for i in range(n) for j in range(n))


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_mask_filtered_containment_order_matches_the_unfiltered(name):
    # Each vertex marked with the facets of r times the parts hull (P side)
    # or of r times the sum polar (Q side) it lies on: skipping a vertex
    # whose mask misses one of a cell's common facets changes nothing, and
    # both give the poset's order, read from vertex sets.
    from nefsphere.polytope import point_ray
    from nefsphere.sphere import containment_order
    pipe = _data_pipeline(name)
    for poset, hull in ((pipe.p_poset(), pipe.nef.parts_hull),
                        (pipe.q_poset(), pipe.nef.sum_polar)):
        cells = [e.minkowski for e in poset.elements]
        rows = dilate(hull, pipe.nef.r).facets
        marks = {}
        for v in {v for c in cells for v in c.vertices}:
            ray = point_ray(v)
            marks[v] = ray, sum(1 << t for t, f in enumerate(rows)
                                if dot(f, ray) == 0)
        assert containment_order(cells, marks) == containment_order(cells) \
            == poset._above


@pytest.mark.parametrize("name", ["simplex3", "pentagon_pair",
                                  "prism_pair_5d_kinked"])
def test_containment_order_matches_fraction_oracle(name):
    # The integer-ray route against Fraction arithmetic on (1, v), on the
    # tropical complex's polyhedra (the kinked prism's have Fraction
    # vertices).  The Minkowski cells are checked against `contains` above.
    from nefsphere.sphere import containment_order
    pipe = _data_pipeline(name)
    tropical = [c.poly for c in pipe.tropical_complex()]
    assert containment_order(tropical) == \
        containment_order_by_fractions(tropical)
    if name == "prism_pair_5d_kinked":
        assert any(type(x) is Fraction
                   for c in tropical for v in c.vertices for x in v)


def _assert_slices_are_intersections(pipe):
    for poset, boundary, parts in (
            (pipe.p_poset(), pipe.s_boundary(), pipe.nef.parts),
            (pipe.q_poset(), pipe.t_boundary(), pipe.dual().parts)):
        assert set(poset.slices) == set(boundary.cells)
        for cell, slices in poset.slices.items():
            assert slices == tuple(intersect(cell, p) for p in parts), \
                f"slice differs from the intersection on {cell.vertices}"


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_face_slices_equal_intersections(name):
    # Oracle: the slices read as certified faces are the intersections.
    _assert_slices_are_intersections(_data_pipeline(name))


def test_face_slices_equal_intersections_randomized(randomized_partitions):
    for nef in randomized_partitions:
        _assert_slices_are_intersections(Pipeline(nef))


def _slice_cells(pipe, cells, parts=None, other_parts=None):
    """compute_slices on a bare list of cells of the S side."""
    return sphere.compute_slices(
        SimpleNamespace(cells=cells),
        list(pipe.nef.parts if parts is None else parts),
        list(pipe.dual().parts if other_parts is None else other_parts))


def test_slice_lemma_i_rejects_swapped_dual_parts():
    pipe = _data_pipeline("prism_pair_5d")
    parts = pipe.nef.parts
    swapped = list(reversed(pipe.dual().parts))
    with pytest.raises(FalsificationError) as err:
        sphere.transversal_poset(pipe.s_boundary(), list(parts), swapped,
                                 pipe.nef.sum_polytope)
    assert err.value.claim.startswith("slice lemma (i)")
    cert = err.value.certificate
    i, j = cert["part"], cert["other_part"]
    vertex = as_fractions(cert["vertex"])
    assert i != j and vertex in parts[i].vertices
    assert max(sum(a * x for a, x in zip(vertex, v))
               for v in swapped[j].vertices) == int(cert["psi"]) > 0


def test_slice_lemma_i_rejects_an_other_part_missing_the_origin():
    pipe = _data_pipeline("square_sum")
    others = list(pipe.dual().parts)
    far = tuple(2 for _ in range(pipe.nef.ambient))
    others[1] = convex_hull([tuple(a + b for a, b in zip(v, far))
                             for v in others[1].vertices], others[1].role)
    with pytest.raises(FalsificationError) as err:
        _slice_cells(pipe, [], other_parts=others)
    assert err.value.claim.startswith("slice lemma (i)")
    assert err.value.certificate == {"other_part": 1}


def test_slice_lemma_i_rejects_a_part_missing_the_origin():
    # The coned slice lemma needs 0 in every part of the poset's own side.
    pipe = _data_pipeline("square_sum")
    parts = list(pipe.nef.parts)
    far = tuple(2 for _ in range(pipe.nef.ambient))
    parts[1] = convex_hull([tuple(a + b for a, b in zip(v, far))
                            for v in parts[1].vertices], parts[1].role)
    with pytest.raises(FalsificationError) as err:
        _slice_cells(pipe, [], parts=parts)
    assert err.value.claim == "slice lemma (i): a part misses the origin"
    assert err.value.certificate == {"part": 1}


def test_slice_lemma_ii_rejects_a_vertex_off_the_boundary():
    # A cell vertex pushed off the boundary of the parts hull.
    pipe = _data_pipeline("prism_pair_5d")
    cell = pipe.s_boundary().maximal_cells[0]
    far = tuple(2 * x for x in cell.vertices[-1])
    bad = convex_hull(cell.vertices[:-1] + (far,), cell.role)
    with pytest.raises(FalsificationError) as err:
        _slice_cells(pipe, [bad])
    assert err.value.claim.startswith("slice lemma (ii)")
    assert err.value.certificate["vertex"] == [str(x) for x in far]
    assert sum(int(x) for x in err.value.certificate["psi"]) == 2


@pytest.mark.parametrize("name", ["square_sum", "prism_pair_5d"])
def test_slice_lemma_iii_rejects_a_cell_across_two_cones(name):
    # A cell vertex moved to a parts-hull vertex on the far side: every
    # vertex is still on the boundary, but some psi_j bends on the cell.
    pipe = _data_pipeline(name)
    cell = pipe.s_boundary().maximal_cells[0]
    moved = 0
    for w in pipe.nef.parts_hull.vertices:
        if w in cell.vertices:
            continue
        bad = convex_hull(cell.vertices[1:] + (w,), cell.role)
        try:
            _slice_cells(pipe, [bad])
        except FalsificationError as err:
            assert err.claim.startswith("slice lemma (iii)")
            assert err.certificate == {
                "cell": [[str(x) for x in v] for v in bad.vertices],
                "other_part": err.certificate["other_part"]}
            moved += 1
    assert moved > 0


def test_slice_lemma_iv_rejects_a_part_that_misses_its_slice():
    # Part 0 shrunk to the origin still satisfies (i), but the cell
    # vertices at psi_0 = 1 are no longer in it.
    pipe = _data_pipeline("square_sum")
    parts = list(pipe.nef.parts)
    parts[0] = convex_hull([(0,) * pipe.nef.ambient], parts[0].role)
    with pytest.raises(FalsificationError) as err:
        _slice_cells(pipe, list(pipe.s_boundary().cells), parts=parts)
    assert err.value.claim.startswith("slice lemma (iv)")
    assert err.value.certificate["part"] == 0
    vertex = as_fractions(err.value.certificate["vertex"])
    assert pipe.nef.parts[0].contains(vertex) and not parts[0].contains(vertex)


def _sides(pipe):
    """(poset, parts, sum polytope, parts hull) of the P and the Q side."""
    return ((pipe.p_poset(), pipe.nef.parts, pipe.nef.sum_polytope,
             pipe.nef.parts_hull),
            (pipe.q_poset(), pipe.dual().parts, pipe.dual().sum_polytope,
             pipe.nef.sum_polar))


def _assert_same_polytope(got, want):
    assert got.key() == want.key()
    assert got.equations == want.equations
    assert got.facets == want.facets


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_coned_slices_equal_intersections(name):
    # Oracle: the cone over a cell sliced by a part, by H->V, is the cone
    # over the cell's slice, or the origin where the slice is empty.
    pipe = _data_pipeline(name)
    origin = ((0,) * pipe.nef.ambient,)
    for (poset, parts, _, _), boundary in zip(
            _sides(pipe), (pipe.s_boundary(), pipe.t_boundary())):
        for cell, slices in poset.slices.items():
            coned = boundary.coned(cell)
            for s, part in zip(slices, parts):
                oracle = intersect(coned, part)
                if s is None:
                    assert oracle.vertices == origin
                else:
                    _assert_same_polytope(boundary.coned(s), oracle)


@pytest.mark.parametrize("name", ["pentagon_pair", "prism_pair_5d"])
def test_coned_cells_are_pyramid_faces_without_a_hull(monkeypatch, name):
    # Oracle: the hull of the cell's vertices and the origin.  The coned
    # cells of a fresh boundary are read with no hull run.
    from nefsphere import subdivision
    pipe = _data_pipeline(name)
    origin = (0,) * pipe.nef.ambient
    for coned in (pipe.s_coned(), pipe.t_coned()):
        boundary = subdivision.boundary_subdivision(coned)
        with monkeypatch.context() as m:
            m.setattr(subdivision, "convex_hull", None)
            got = [boundary.coned(cell) for cell in boundary.cells]
        for cell, cone in zip(boundary.cells, got):
            oracle = convex_hull(cell.vertices + (origin,), cell.role)
            _assert_same_polytope(cone, oracle)


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_facet_regions_equal_intersections(name):
    # Oracle: each facet of r times the parts hull intersected with the sum
    # polytope by H->V.
    pipe = _data_pipeline(name)
    for _, _, delta, hull in _sides(pipe):
        scaled = dilate(hull, pipe.nef.r)
        for f in scaled.facets:
            region = sphere.facet_region(f, delta)
            facet = scaled.face_polytope(
                sum(1 << k for k, v in enumerate(scaled.vertices)
                    if sum(a * b for a, b in zip(f, (1,) + v)) == 0))
            oracle = intersect(facet, delta)
            if oracle is None:
                assert region is None
            else:
                _assert_same_polytope(region, oracle)


def test_a_sum_polytope_outside_the_dilated_hull_is_refused():
    # Undilated, the parts hull of the square sum does not hold the sum.
    pipe = _data_pipeline("square_sum")
    hull, delta = pipe.nef.parts_hull, pipe.nef.sum_polytope
    with pytest.raises(FalsificationError) as err:
        sphere.minkowski_complex(pipe.p_poset(), delta, 1, hull)
    assert err.value.claim == "the sum polytope leaves r times the parts hull"
    cert = err.value.certificate
    f = as_fractions(cert["facet"])
    w = as_fractions(cert["vertex"])
    assert f in hull.facets and w in delta.vertices
    assert sum(a * b for a, b in zip(f, (1,) + w)) < 0


def test_lemma_suite_flags_a_non_face_and_swapped_slices():
    # A slice whose vertices are no face of the cell, and two slices traded
    # between parts, each fail their check of the lemma oracle.
    pipe = _data_pipeline("prism_pair_5d")
    poset = pipe.p_poset()
    cell, pair = next(
        (e.cell, (i, j)) for e in poset.elements
        for i in range(len(e.cell.vertices))
        for j in range(i + 1, len(e.cell.vertices))
        if not e.cell.is_face(1 << i | 1 << j))
    slices = poset.slices[cell]

    def suite(cell_slices):
        return lemma_slice_oracle({cell: cell_slices}, pipe.dual().parts)

    assert suite(slices) == []
    non_face = convex_hull([cell.vertices[k] for k in pair], cell.role)
    for bad, check in (((non_face,) + slices[1:], "slice_hull_is_face"),
                       (slices[::-1], "lattice_distance_one")):
        assert {"check": check, "cell": sphere._cell_key(cell),
                "index_set": [0]} in suite(bad)
