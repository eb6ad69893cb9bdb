import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from unittest import mock
from weakref import WeakValueDictionary

import pytest

from nefsphere import polytope

from nefsphere.linalg import dot, row_rank, clear_denominators, kernel_basis
from nefsphere.polytope import GeometryError, ROLE_M, ROLE_N, convex_hull
from nefsphere.subdivision import (
    ConedSubdivision,
    WeightFunction,
    boundary_subdivision,
    lower_hull_subdivision,
)

from conftest import generic_weight, lattice_volume
from test_cli import BASE, path
from test_monodromy import DATA_NAMES, _data_pipe


def brute_force_lower_cells(points, weight):
    """Oracle: lower-hull cells by hyperplane enumeration over lifted points."""
    lifted = [tuple(p) + (weight(p),) for p in points]
    d = len(lifted[0])
    cells = set()
    for sub in combinations(range(len(lifted)), d):
        pts = [lifted[i] for i in sub]
        rows = [tuple(Fraction(a) - Fraction(b) for a, b in zip(p, pts[0]))
                for p in pts[1:]]
        rows = [clear_denominators(r) for r in rows]
        rows = [r for r in rows if any(r)]
        if not rows or row_rank(rows) != d - 1:
            continue
        k = kernel_basis(rows, d)
        if len(k) != 1:
            continue
        normal = k[0]
        if normal[-1] == 0:
            continue
        if normal[-1] < 0:
            normal = tuple(-x for x in normal)
        base = dot(normal, pts[0])
        vals = [dot(normal, q) - base for q in lifted]
        if all(v >= 0 for v in vals):
            tight = frozenset(points[i] for i, v in enumerate(vals) if v == 0)
            cells.add(tight)
    maximal = {c for c in cells
               if not any(c < other for other in cells)}
    return maximal


def test_segment_all_ones():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    w = WeightFunction.all_ones(seg)
    sub = lower_hull_subdivision(seg, w)
    got = {c.vertices for c in sub.maximal_cells}
    assert got == {((-1,), (0,)), ((0,), (1,))}
    assert sub.is_central()
    boundary = boundary_subdivision(sub)
    assert {c.vertices for c in boundary.maximal_cells} == \
        {((-1,),), ((1,),)}


def test_triangle_all_ones():
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    w = WeightFunction.all_ones(tri)
    sub = lower_hull_subdivision(tri, w)
    assert len(sub.maximal_cells) == 3
    origin = (0, 0)
    for cell in sub.maximal_cells:
        assert cell.contains(origin)
    # Oracle agreement on the marked point sets.
    want = brute_force_lower_cells(list(tri.lattice_points()), w)
    got = {frozenset(tuple(int(x) for x in p) for p in sub.marked[c])
           for c in sub.maximal_cells}
    assert got == want
    boundary = boundary_subdivision(sub)
    assert len(boundary.maximal_cells) == 3
    assert all(c.dim == 1 for c in boundary.maximal_cells)


def test_centrality_matches_oracle_on_square():
    # Push one boundary point below zero and compare against the brute-force
    # lower hull: a cell avoiding the origin must appear in both.
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], ROLE_M)

    def centrality(bad_point, value):
        table = {pt: Fraction(1) for pt in square.lattice_points()}
        table[(0, 0)] = Fraction(0)
        table[bad_point] = Fraction(value)
        w = WeightFunction(square, table)
        sub = lower_hull_subdivision(square, w)
        cells = brute_force_lower_cells(list(square.lattice_points()), w)
        oracle = all((0, 0) in c for c in cells)
        assert sub.is_central() == oracle
        return sub.is_central(), sub

    # A -1 corner still keeps the origin on the diagonal of both cells.
    central, _ = centrality((1, 1), -1)
    assert central
    # A -2 edge midpoint produces a maximal cell missing the origin.
    central, sub = centrality((1, 0), -2)
    assert not central
    with pytest.raises(GeometryError):
        boundary_subdivision(sub)


def test_positive_weights_1d_always_central():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    for vals in [(1, 2), (3, 1), (5, 5)]:
        table = {(-1,): Fraction(vals[0]), (0,): Fraction(0),
                 (1,): Fraction(vals[1])}
        sub = lower_hull_subdivision(seg, WeightFunction(seg, table))
        assert sub.is_central()


def test_all_ones_marks_every_boundary_point():
    # For the all-ones weight every nonzero lattice point is marked on the
    # lower hull (height-1 points over the height-0 origin).
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    sub = lower_hull_subdivision(tri, WeightFunction.all_ones(tri))
    marked = set()
    for c in sub.maximal_cells:
        marked.update(sub.marked[c])
    nonzero = {p for p in tri.lattice_points() if any(p)}
    assert nonzero <= marked


def test_affine_weight_gives_trivial_subdivision_and_is_rejected():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    table = {(-1,): Fraction(-1), (0,): Fraction(0), (1,): Fraction(1)}
    sub = lower_hull_subdivision(seg, WeightFunction(seg, table))
    assert len(sub.maximal_cells) == 1
    assert sub.is_central()  # the single cell contains the origin
    with pytest.raises(GeometryError):
        boundary_subdivision(sub)  # but it is not a cone with apex 0


def test_boundary_rejects_coned_cells_that_are_not_pyramids_over_it():
    # The unit square has the origin as a vertex, but its other three
    # vertices are not a face; the segment [-1, 1] misses the origin as a
    # vertex.  Both are refused with one message, which names the weight
    # of the cell's side.
    for pts, role, weight in (([(0, 0), (1, 0), (0, 1), (1, 1)], ROLE_M,
                               "omega"),
                              ([(-1,), (1,)], ROLE_M, "omega"),
                              ([(-1,), (1,)], ROLE_N, "nu")):
        cell = convex_hull(pts, role)
        sub = ConedSubdivision(cell, None, [cell], {})
        assert sub.is_central()
        with pytest.raises(GeometryError, match="^subdivision is not a cone "
                           rf"with apex 0 over the boundary \({weight}\)$"):
            boundary_subdivision(sub)
    # A triangle with apex 0 is the pyramid over its opposite edge.
    tri = convex_hull([(0, 0), (1, 0), (0, 1)], ROLE_M)
    boundary = boundary_subdivision(ConedSubdivision(tri, None, [tri], {}))
    assert boundary.maximal_cells == (convex_hull([(1, 0), (0, 1)], ROLE_M),)


def test_weight_function_requires_full_domain():
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    with pytest.raises(GeometryError):
        WeightFunction(tri, {(0, 0): Fraction(0)})


def test_weight_normalization():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    table = {(-1,): Fraction(4), (0,): Fraction(3), (1,): Fraction(4)}
    w = WeightFunction(seg, table)
    assert w((0,)) == 0
    assert w((1,)) == 1


def test_boundary_cells_cover_boundary():
    # Union of the maximal boundary cells equals the boundary (area count).
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    sub = lower_hull_subdivision(tri, WeightFunction.all_ones(tri))
    boundary = boundary_subdivision(sub)
    total = sum(lattice_volume(c) for c in boundary.maximal_cells)
    # Three edges, each of lattice length one in its own chart.
    assert total == 3
    facecount = {}
    for c in boundary.cells:
        facecount[c.dim] = facecount.get(c.dim, 0) + 1
    assert facecount == {0: 3, 1: 3}


def test_boundary_cells_intersect_in_common_faces():
    # Cells of a boundary subdivision meet in faces of both (complex
    # property), checked exhaustively on small inputs.
    from nefsphere.polytope import intersect
    for pts in ([(1, 0), (0, 1), (-1, -1)],
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]):
        p = convex_hull(pts, ROLE_M)
        boundary = boundary_subdivision(
            lower_hull_subdivision(p, WeightFunction.all_ones(p)))
        cells = boundary.cells
        for i, a in enumerate(cells):
            faces_a = {a.face_polytope(fs) for fs in a.faces()}
            for b in cells[i + 1:]:
                meet = intersect(a, b)
                if meet is None:
                    continue
                faces_b = {b.face_polytope(fs) for fs in b.faces()}
                assert meet in faces_a and meet in faces_b


# -- faces that read their H-representation on first use ----------------------


def assert_is_the_hull_of_its_vertices(poly, points=None):
    """`poly` is field for field the hull of its vertices, or of `points`,
    computed in an empty table so that the hull cannot be `poly` itself."""
    if points is None:
        points = poly.vertices
    with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
        hull = convex_hull(points, poly.role, poly.ambient)
    assert hull is not poly
    assert poly.vertices == hull.vertices
    assert poly.equations == hull.equations
    assert poly.facets == hull.facets
    assert poly.dim == hull.dim == poly.ambient - len(poly.equations)


# P^7 (4,4) is left out: its boundary subdivisions are the largest input's.
@pytest.mark.parametrize("name", [n for n in DATA_NAMES
                                  if n != "simplex_p7_44"])
def test_deferred_faces_are_the_hulls_of_their_vertices(name):
    # The faces below a boundary subdivision's maximal cells take their
    # dimension from the face lattice's grade, and the coned cells theirs
    # from the cell's; either reads its rows on first use.
    pipe = _data_pipe(name)
    for boundary in (pipe.s_boundary(), pipe.t_boundary()):
        for cell in boundary.cells:
            assert_is_the_hull_of_its_vertices(cell)
            assert_is_the_hull_of_its_vertices(boundary.coned(cell))


# -- maximal cells read from the lifted hull -----------------------------------


def assert_cells_are_the_hulls_of_their_points(subdivision):
    """The oracle of :func:`lower_hull_subdivision`: every maximal cell is
    field for field the V->H hull of its marked points."""
    for cell in subdivision.maximal_cells:
        assert_is_the_hull_of_its_vertices(cell, subdivision.marked[cell])


@pytest.mark.parametrize("name", DATA_NAMES)
def test_lower_hull_cells_are_the_hulls_of_their_points(name):
    # Both coned subdivisions and, for r >= 2, each part's subdivision.
    pipe = _data_pipe(name)
    subdivisions = [pipe.s_coned(), pipe.t_coned()]
    if pipe.nef.r > 1:
        subdivisions.extend(pipe.part_subdivisions())
    for subdivision in subdivisions:
        assert_cells_are_the_hulls_of_their_points(subdivision)


@pytest.mark.parametrize("name", ["simplex3", "simplex_p4_5"])
def test_lower_hull_cells_with_a_generic_weight_are_the_hulls(name):
    # The generic weight of seed 1 as omega and of seed 1001 as nu.
    nef = _data_pipe(name).nef
    for support, seed in ((nef.parts_hull, 1), (nef.sum_polar, 1001)):
        weight = WeightFunction.from_pairs(
            support, generic_weight(support.lattice_points(), seed=seed))
        subdivision = lower_hull_subdivision(support, weight)
        assert len(subdivision.maximal_cells) > 1
        assert_cells_are_the_hulls_of_their_points(subdivision)


def test_a_lower_hull_subdivision_runs_one_double_description(monkeypatch):
    # The lifted hull is the one double description: no maximal cell runs
    # its own, and the one cell of an affine weight is read from it too,
    # here on a slanted segment whose midpoint is a lattice point.  A
    # seeded generic weight, so that no earlier test can have left its
    # lifted hull in the intern table, and an empty table for the segment,
    # so that its cell is read from the hull's rows and is not the segment
    # itself.  The height entry of the segment's lifted equation is
    # negative.
    support = _data_pipe("simplex3").nef.sum_polar
    weight = WeightFunction.from_pairs(
        support, generic_weight(support.lattice_points(), seed=33))
    segment = convex_hull([(-2, -1), (2, 1)], ROLE_M)
    affine = WeightFunction(segment, {pt: Fraction(5 * pt[0], 7)
                                      for pt in segment.lattice_points()})
    calls = []
    real = polytope.cone_rays

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope, "cone_rays", spy)
    subdivision = lower_hull_subdivision(support, weight)
    assert len(calls) == 1
    assert len(subdivision.maximal_cells) > 1
    calls.clear()
    with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
        trivial = lower_hull_subdivision(segment, affine)
    assert len(calls) == 1
    (cell,) = trivial.maximal_cells
    assert cell == segment and cell is not segment
    assert trivial.marked[cell] == ((-2, -1), (0, 0), (2, 1))
    monkeypatch.undo()
    assert_cells_are_the_hulls_of_their_points(trivial)


def test_building_the_prism_boundary_reads_no_face_rows():
    # Building the prism's S boundary subdivision reads the H-representation
    # of its maximal cells (their face lattices need it) and of no face
    # below them.  A fresh process, so no face comes read from the intern
    # table.
    script = (
        "import sys\n"
        "from nefsphere import Pipeline\n"
        "from nefsphere.cli import load_input\n"
        "nef, omega, nu = load_input(sys.argv[1])\n"
        "boundary = Pipeline(nef, omega_spec=omega, nu_spec=nu).s_boundary()\n"
        "faces = [c for c in boundary.cells\n"
        "         if c not in boundary.maximal_cells]\n"
        "print(len(faces), sum(c._rows is not None for c in faces))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, path("prism_pair_5d.json")],
        capture_output=True, text=True, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr
    faces, unread = map(int, proc.stdout.split())
    assert faces > 0 and unread == faces
