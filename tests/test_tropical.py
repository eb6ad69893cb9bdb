from fractions import Fraction

import pytest

from nefsphere.linalg import clear_denominators
from nefsphere.polytope import (ROLE_M, GeometryError, Polyhedron, convex_hull,
                                opposite_role)
from nefsphere.sphere import containment_order
from nefsphere.subdivision import WeightFunction, lower_hull_subdivision
from nefsphere.tropical import (
    TropicalCells,
    amoeba,
    bounded_amoeba_matches_zero_cell,
    tropical_zero_cell,
)
from test_monodromy import DATA_NAMES, _data_pipe
from test_sphere import DATA_INPUTS, _data_pipeline


def lattice_point_tropical_cell(cone_cell, weight, support):
    """Oracle: the locus where all vertices of the cell realize the tropical
    maximum, as the H->V solution of one inequality per lattice point of
    the support (the route the duality reading replaced)."""
    verts = cone_cell.vertices
    m0 = verts[0]
    eqs = []
    for m in verts[1:]:
        u = tuple(a - b for a, b in zip(m, m0))
        c = weight(m0) - weight(m)
        eqs.append(clear_denominators((c,) + u))
    ineqs = []
    for mpp in support.lattice_points():
        u = tuple(a - b for a, b in zip(m0, mpp))
        c = weight(mpp) - weight(m0)
        row = clear_denominators((c,) + u)
        if any(row):
            ineqs.append(row)
    poly = Polyhedron.from_hrep(eqs, ineqs, opposite_role(support.role),
                                support.ambient)
    if poly is None:
        raise GeometryError("not a lower-hull cell for these weights")
    return poly


def _oracle_failures(subdivision):
    """Cells whose duality reading differs from the lattice-point oracle:
    the star rows must cut out the oracle's polyhedron, and the cell read
    by duality must equal it in key, boundedness, dimension and
    membership."""
    memo = TropicalCells()
    support, weight = subdivision.support, subdivision.weight
    bad = []
    for cell in subdivision.cells():
        want = lattice_point_tropical_cell(cell, weight, support)
        eqs, ineqs = memo.rows(subdivision, cell)
        by_rows = Polyhedron.from_hrep(eqs, ineqs, want.role, want.ambient)
        if by_rows is None or by_rows.key() != want.key():
            bad.append(("rows", cell.key()))
        got = memo(subdivision, cell).poly
        if (got.key() != want.key() or got.is_bounded() != want.is_bounded()
                or got.dim() != want.dim()
                or not all(got.contains(v) for v in want.vertices)):
            bad.append(("generators", cell.key()))
    return bad


def test_tropical_cell_1d():
    # P = [-1, 1], w = all ones.  Hand oracle over the three lattice points:
    # the coned cell [0, 1] is dual to the single point {1}, while the
    # boundary vertex {1} is dual to the ray {y >= 1}.
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    w = WeightFunction.all_ones(seg)
    sub = lower_hull_subdivision(seg, w)
    cells = TropicalCells()
    coned = convex_hull([(0,), (1,)], ROLE_M)
    t = cells(sub, coned)
    assert t.poly.vertices == ((Fraction(1),),)
    assert t.bounded and t.dim() == 0
    vertex_cell = convex_hull([(1,)], ROLE_M)
    t2 = cells(sub, vertex_cell)
    assert t2.poly.vertices == ((Fraction(1),),)
    assert t2.poly.rays == ((1,),)
    assert not t2.bounded


def test_tropical_cell_of_maximal_cone_is_vertex():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    w = WeightFunction.all_ones(seg)
    sub = lower_hull_subdivision(seg, w)
    cells = TropicalCells()
    for cell in sub.maximal_cells:
        t = cells(sub, cell)
        assert t.bounded and t.dim() == 0


def test_amoeba_1d_two_points():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    sub = lower_hull_subdivision(seg, WeightFunction.all_ones(seg))
    cells = amoeba(sub, TropicalCells())
    bounded_pts = sorted(t.poly.vertices[0] for t in cells if t.bounded)
    assert bounded_pts == [(-1,), (1,)]


def test_amoeba_triangle_trivalent_star():
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    sub = lower_hull_subdivision(tri, WeightFunction.all_ones(tri))
    cells = amoeba(sub, TropicalCells())
    unbounded = [t for t in cells if not t.bounded]
    bounded = [t for t in cells if t.bounded]
    # Hand oracle over 4 lattice points: three rays and the boundary of the
    # hexagon-like cycle around the origin cell.
    assert len(unbounded) == 3
    rays = sorted(t.poly.rays[0] for t in unbounded if t.poly.rays)
    assert rays == [(-1, -1), (-1, 2), (2, -1)] or len(rays) == 3
    assert len(bounded) == 6  # 3 vertices + 3 edges of the zero-cell boundary


def test_zero_cell_is_polar_for_all_ones():
    # With unit weights the zero cell is the polar dual.
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    f0 = tropical_zero_cell(tri, WeightFunction.all_ones(tri))
    from nefsphere.polytope import polar_dual
    assert f0 == polar_dual(tri)


def test_bounded_amoeba_is_zero_cell_boundary():
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    w = WeightFunction.all_ones(tri)
    sub = lower_hull_subdivision(tri, w)
    report = bounded_amoeba_matches_zero_cell(
        amoeba(sub, TropicalCells()), tropical_zero_cell(tri, w))
    assert report["passed"]


def test_tropical_complex_r1_circle(triangle_pipe):
    cplx = triangle_pipe.tropical_complex()
    assert len(cplx) == len(triangle_pipe.p_poset())
    assert all(c.bounded for c in cplx)
    suite = triangle_pipe.tropical_suite()
    assert all(v["passed"] for v in suite.values())
    # r = 1: the complex support is the whole zero-cell boundary.
    zero = triangle_pipe.zero_cell()
    faces = {zero.face_polytope(fs) for fs, d in zero.faces().items()
             if d < zero.dim}
    cells = {convex_hull(c.poly.vertices, c.poly.role, c.poly.ambient)
             for c in cplx}
    assert cells == faces


def test_tropical_suites_2d(square_pipe, pentagon_pipe):
    for pipe in (square_pipe, pentagon_pipe):
        suite = pipe.tropical_suite()
        assert all(v["passed"] for v in suite.values()), suite


def test_tropical_suites_3d(simplex3_pipe):
    suite = simplex3_pipe.tropical_suite()
    assert all(v["passed"] for v in suite.values()), suite


def test_dimension_complement(simplex3_pipe):
    boundary = simplex3_pipe.s_boundary()
    cplx = simplex3_pipe.tropical_complex()
    d = simplex3_pipe.nef.ambient
    for e, t in zip(simplex3_pipe.p_poset().elements, cplx, strict=True):
        coned = boundary.coned(e.cell)
        assert t.dim() == d - coned.dim


def test_square_tropical_complex_is_point_set(square_pipe):
    # d - r = 0: the bounded complex is a finite set of points.
    assert [t.dim() for t in square_pipe.tropical_complex()] == [0, 0, 0, 0]


def test_tropical_cell_rejects_non_cell():
    # The whole segment is not a cell of the all-ones lower hull: no
    # maximal cell holds both its vertices, so it has no star.
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    w = WeightFunction.all_ones(seg)
    sub = lower_hull_subdivision(seg, w)
    with pytest.raises(GeometryError):
        TropicalCells()(sub, seg)
    with pytest.raises(GeometryError):
        TropicalCells().rows(sub, seg)
    with pytest.raises(GeometryError):
        lattice_point_tropical_cell(seg, w, seg)


def test_tropical_cells_built_once_per_support_and_cell(monkeypatch):
    # The amoeba, the bounded complex and both loops of bounded_cells_check
    # share one tropical cell per (support, cell), and its rows and each
    # maximal cell's tropical vertex are read once; with r = 1 the part
    # subdivision has the amoeba's support.
    from nefsphere import Pipeline, tropical
    from nefsphere.cli import load_input
    from test_cli import path
    calls = {"rows": [], "cell": [], "vertex": []}

    def counted(name, real):
        def wrapper(subdivision, cell, *args):
            calls[name].append((subdivision.support.key(), cell.key()))
            return real(subdivision, cell, *args)
        return wrapper

    monkeypatch.setattr(tropical, "star_rows",
                        counted("rows", tropical.star_rows))
    monkeypatch.setattr(tropical, "tropical_cell",
                        counted("cell", tropical.tropical_cell))
    monkeypatch.setattr(tropical, "tropical_vertex",
                        counted("vertex", tropical.tropical_vertex))
    nef, omega, nu = load_input(path("simplex3.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    assert all(v["passed"] for v in pipe.tropical_suite().values())
    for seen in calls.values():
        assert seen
        assert len(seen) == len(set(seen))
    assert set(calls["cell"]) <= set(calls["rows"])


def test_each_support_is_subdivided_once_per_run(monkeypatch):
    # With r = 1 the only part is the parts hull, whose lower hull s_coned
    # already holds: report --verify full --dual builds one subdivision of
    # each support, the role-swapped run reading this run's.
    from nefsphere import Pipeline, pipeline
    from nefsphere.cli import load_input
    from test_cli import path
    supports = []

    def counted(support, weight):
        supports.append(support.key())
        return lower_hull_subdivision(support, weight)

    monkeypatch.setattr(pipeline, "lower_hull_subdivision", counted)
    nef, omega, nu = load_input(path("simplex3.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    assert nef.r == 1
    assert pipe.report(verify="full", include_dual=True)["passed"]
    assert sorted(supports) == sorted({nef.parts_hull.key(),
                                       nef.sum_polar.key()})


def test_tropical_cells_memo_tells_supports_apart():
    # The edge [0, (1, 0)] is a cell of the triangle's fan (an interior
    # edge, bounded dual) and of a sub-triangle's trivial subdivision (a
    # boundary edge, unbounded dual): the memo must not confuse them.
    tri = convex_hull([(1, 0), (0, 1), (-1, -1)], ROLE_M)
    w = WeightFunction.all_ones(tri)
    part = convex_hull([(0, 0), (1, 0), (0, 1)], ROLE_M)
    edge = convex_hull([(0, 0), (1, 0)], ROLE_M)
    sub_tri = lower_hull_subdivision(tri, w)
    sub_part = lower_hull_subdivision(part, w.restrict(part))
    assert edge in sub_tri.cells() and edge in sub_part.cells()
    cells = TropicalCells()
    assert cells(sub_tri, edge).bounded
    assert not cells(sub_part, edge).bounded
    assert cells(sub_tri, edge) is cells(sub_tri, edge)


def test_tropical_containment_is_the_pairwise_route(simplex3_pipe,
                                                    pentagon_pipe):
    # The relation the order check reads is the vertex-by-vertex
    # containment test of every pair of bounded cells, and it is the
    # poset's order transposed.
    for pipe in (simplex3_pipe, pentagon_pipe):
        polys = [c.poly for c in pipe.tropical_complex()]
        containment = containment_order(polys)
        n = len(polys)
        assert containment == [
            sum(1 << i for i in range(n)
                if all(polys[i].contains(v) for v in polys[j].vertices))
            for j in range(n)]
        assert all(pipe.p_poset().leq(i, j) == bool(containment[j] >> i & 1)
                   for i in range(n) for j in range(n))


def test_flipped_containment_bit_fails_the_order_checks(simplex3_pipe):
    # One flipped bit of the stored relation fails the order check, and the
    # certificate is the first (i, j) in row order; a second flip later in
    # row order does not change it.
    from nefsphere.errors import FalsificationError
    from nefsphere.tropical import order_complex_check
    poset = simplex3_pipe.p_poset()
    containment = containment_order(
        [c.poly for c in simplex3_pipe.tropical_complex()])
    assert order_complex_check(poset, containment) is None
    n = len(containment)
    i, j = 2, n - 1
    containment[j] ^= 1 << i
    containment[0] ^= 1 << (n - 1)
    with pytest.raises(FalsificationError) as err:
        order_complex_check(poset, containment)
    assert err.value.claim == \
        "tropical face order is not opposite to the poset order"
    leq = poset.leq(i, j)
    assert err.value.certificate == {"i": i, "j": j, "poset_leq": leq,
                                     "geometric_containment": not leq}


def test_the_built_complex_runs_the_order_check(monkeypatch):
    # The complex's stage hands its cells' containment to the order check:
    # one flipped bit of it fails the stage with the check's claim.
    from nefsphere import Pipeline, tropical
    from nefsphere.cli import load_input
    from nefsphere.errors import FalsificationError
    from test_cli import path
    real = tropical.containment_order

    def flipped(polyhedra):
        containment = real(polyhedra)
        containment[-1] ^= 1 << 2
        return containment

    monkeypatch.setattr(tropical, "containment_order", flipped)
    nef, omega, nu = load_input(path("simplex3.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    with pytest.raises(FalsificationError) as err:
        pipe.tropical_complex()
    assert err.value.claim == \
        "tropical face order is not opposite to the poset order"


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_bounded_amoeba_keys_equal_hull_keys(name):
    # Oracle: the V->H hull of a bounded amoeba cell's vertices, on both
    # sides (the role-swapped run's amoeba is the T side's).
    pipe = _data_pipeline(name)
    for side in (pipe, pipe.dual_pipeline()):
        bounded = [t.poly for t in side.amoeba() if t.bounded]
        assert bounded
        for poly in bounded:
            assert (poly.role, poly.vertices) == convex_hull(
                poly.vertices, poly.role, poly.ambient).key()


def test_a_corrupted_coned_slice_fails_the_bounded_cells_check(simplex3_pipe):
    # One slice of a transversal cell shrunk to a vertex: its cone is still
    # a cell of the part's subdivision, but the meet of the part tropical
    # cells is no longer the complex cell.
    from types import SimpleNamespace
    from nefsphere.sphere import TransversalCell
    from nefsphere.tropical import bounded_cells_check
    pipe = simplex3_pipe
    poset = pipe.p_poset()
    elements = list(poset.elements)
    k = next(k for k, e in enumerate(elements)
             if len(e.slices[0].vertices) > 1)
    e = elements[k]
    elements[k] = TransversalCell(
        e.cell, (e.slices[0].face_polytope(1),) + e.slices[1:], e.minkowski)

    def check(p_poset):
        return bounded_cells_check(pipe.part_subdivisions(), pipe.s_boundary(),
                                   p_poset, pipe.tropical_complex(),
                                   pipe.tropical_cells())

    assert check(poset)["passed"]
    report = check(SimpleNamespace(elements=elements))
    assert report["sliced_cones_are_cells"]
    assert not report["cellwise_equal"] and not report["passed"]


def test_a_corrupted_slice_fails_the_mixed_subdivision_check(pentagon_pipe):
    # A two-vertex slice of a maximal boundary cell shrunk to a vertex: its
    # cell's slice sum is no longer full-dimensional.
    from types import SimpleNamespace
    from nefsphere.tropical import mixed_subdivision_check
    pipe = pentagon_pipe
    boundary, poset = pipe.s_boundary(), pipe.p_poset()
    delta = pipe.nef.sum_polytope
    slices = dict(poset.slices)
    cell = next(c for c in boundary.maximal_cells
                if any(s is not None and len(s.vertices) > 1
                       for s in slices[c]))
    slices[cell] = tuple(s if s is None else s.face_polytope(1)
                         for s in slices[cell])
    assert mixed_subdivision_check(boundary, poset, delta)["passed"]
    report = mixed_subdivision_check(boundary,
                                     SimpleNamespace(slices=slices), delta)
    assert not report["full_dimensional"] and not report["passed"]


def _oracle_subdivisions(pipe, swapped_coned=True):
    """The coned supports' and the parts' subdivisions of a run and of its
    role-swapped run."""
    out = []
    for side in (pipe, pipe.dual_pipeline()):
        if side is pipe or swapped_coned:
            out.append(side.s_coned())
        out.extend(side.part_subdivisions())
    return out


@pytest.mark.parametrize("name", DATA_NAMES)
def test_tropical_cells_by_duality_equal_the_lattice_point_oracle(name):
    # The oracle runs one double description per cell over every lattice
    # point of the support.  On the role-swapped coned supports of the P^6
    # and P^7 inputs (669-4 261 cells, 138-293 lattice points) that takes
    # 3.5-22 s each, so those five supports are left out; their parts and
    # the other side's are checked.
    swapped = not name.startswith(("simplex_p6", "simplex_p7"))
    for sub in _oracle_subdivisions(_data_pipe(name), swapped):
        assert _oracle_failures(sub) == []


# The r = 3 ray splits of seed 1's benchmark corpus besides the cube's
# (tests/data/cube_split_r3.json): the square's and the hexagon's.
RAY_SPLITS_R3 = {
    "square": [[(-1, 0), (-1, 1), (0, 0), (0, 1)], [(0, -1), (0, 0)],
               [(0, 0), (1, 0)]],
    "hexagon": [[(-1, 0), (0, 0)], [(0, 0), (1, -1)], [(0, 0), (0, 1)]],
}


@pytest.mark.parametrize("name", sorted(RAY_SPLITS_R3))
def test_tropical_cells_of_r3_splits_equal_the_lattice_point_oracle(name):
    from nefsphere import NefPartition, Pipeline
    pipe = Pipeline(NefPartition.from_vertex_lists(RAY_SPLITS_R3[name]))
    assert len(pipe.part_subdivisions()) == 3
    assert all(v["passed"] for v in pipe.tropical_suite().values())
    for sub in _oracle_subdivisions(pipe):
        assert _oracle_failures(sub) == []


def test_tropical_cells_with_a_generic_weight_equal_the_oracle():
    # ROADMAP's quadratic bump on simplex3: 0 at the origin and
    # 1 + q(m)/64 elsewhere, on both sides.
    from nefsphere import NefPartition, Pipeline
    nef = NefPartition.from_vertex_lists(
        [[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]])
    diag = [Fraction(3, 7), Fraction(5, 11), Fraction(7, 13)]
    cross = {(0, 1): Fraction(1, 23), (0, 2): Fraction(1, 29),
             (1, 2): Fraction(1, 41)}

    def bump(pt):
        q = sum(d * x * x for d, x in zip(diag, pt))
        q += sum(c * pt[i] * pt[j] for (i, j), c in cross.items())
        return 0 if not any(pt) else 1 + q / 64

    pipe = Pipeline(nef,
                    omega_spec=[(pt, bump(pt))
                                for pt in nef.parts_hull.lattice_points()],
                    nu_spec=[(pt, bump(pt))
                             for pt in nef.sum_polar.lattice_points()])
    assert all(v["passed"] for v in pipe.tropical_suite().values())
    # Unit weights subdivide the N side into the 4 cones over its facets.
    assert len(pipe.dual_pipeline().s_coned().maximal_cells) > 4
    for sub in _oracle_subdivisions(pipe):
        assert _oracle_failures(sub) == []


def test_an_overlapping_mixed_pair_fails_the_mixed_subdivision_check(
        pentagon_pipe):
    # Give one maximal boundary cell the slices of another: their slice
    # sums coincide, no facet row separates them, and the pair is
    # intersected and found to overlap.
    from types import SimpleNamespace
    from nefsphere.tropical import mixed_subdivision_check
    pipe = pentagon_pipe
    boundary, poset = pipe.s_boundary(), pipe.p_poset()
    delta = pipe.nef.sum_polytope
    slices = dict(poset.slices)
    first, second = boundary.maximal_cells[:2]
    slices[second] = slices[first]
    report = mixed_subdivision_check(boundary,
                                     SimpleNamespace(slices=slices), delta)
    assert report["full_dimensional"]
    assert not report["interiors_disjoint"] and not report["passed"]


@pytest.mark.parametrize("name", ["pentagon_pair", "simplex3", "cube_split_r3",
                                  "prism_pair_5d_kinked"])
def test_separated_mixed_pairs_meet_in_no_full_cell(name):
    # The separation certificate (a facet row of one cell <= 0 at every
    # vertex of the other) is checked against the intersection it skips.
    from nefsphere.linalg import dot
    from nefsphere.polytope import intersect, minkowski_sum_all, point_ray
    pipe = _data_pipeline(name)
    boundary, poset = pipe.s_boundary(), pipe.p_poset()
    cells = [minkowski_sum_all([boundary.coned(s)
                                for s in poset.slices[c] if s is not None])
             for c in boundary.maximal_cells]
    separated = 0
    for i, p in enumerate(cells):
        for q in cells[i + 1:]:
            if any(all(dot(f, point_ray(v)) <= 0 for v in b.vertices)
                   for a, b in ((p, q), (q, p)) for f in a.facets):
                separated += 1
                meet = intersect(p, q)
                assert meet is None or meet.dim < p.dim
    assert separated > 0


def test_a_refinement_cell_outside_the_complex_fails_the_check(simplex3_pipe):
    # Replace a complex cell that lies in no other by one of its faces: the
    # meet of part cells that equals the old cell now lies in no complex
    # cell.
    from nefsphere.tropical import bounded_cells_check
    pipe = simplex3_pipe
    cplx = pipe.tropical_complex()
    containment = containment_order([c.poly for c in cplx])
    k = next(k for k in range(len(cplx))
             if containment[k] == 1 << k and cplx[k].dim() > 0)
    face = next(c for j, c in enumerate(cplx)
                if j != k and containment[j] >> k & 1)
    doctored = [face if j == k else c for j, c in enumerate(cplx)]

    def check(complex_cells):
        return bounded_cells_check(pipe.part_subdivisions(), pipe.s_boundary(),
                                   pipe.p_poset(), complex_cells,
                                   pipe.tropical_cells())

    assert check(cplx)["passed"]
    report = check(doctored)
    assert not report["refinement_inside_complex"] and not report["passed"]
