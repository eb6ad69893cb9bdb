from fractions import Fraction
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from nefsphere.linalg import (
    det,
    dot,
    row_rank,
    saturated_span_basis,
    solve_rational,
)
from nefsphere.polytope import (
    GeometryError,
    ROLE_M,
    ROLE_N,
    Vector,
    bits,
    convex_hull,
    dilate,
    intersect,
    is_minkowski_sum,
    is_reflexive,
    minkowski_sum,
    minkowski_sum_all,
    pair,
    polar_dual,
)

from conftest import lattice_volume

TRI = [(1, 0), (0, 1), (-1, -1)]


def facet_vertex_sets(p):
    """The facets of p as vertex bitmasks, ascending."""
    return sorted(f for f, d in p.faces().items() if d == p.dim - 1)


def assert_valid(p):
    """Internal consistency of a polytope's V- and H-representations."""
    for v in p.vertices:
        hv = (1,) + v
        assert all(dot(e, hv) == 0 for e in p.equations), \
            "vertex violates an equation"
        assert all(dot(f, hv) >= 0 for f in p.facets), \
            "vertex violates a facet inequality"
    assert p.dim == p.ambient - len(p.equations), \
        "dimension does not match equation count"
    for f in p.facets:
        tight = [v for v in p.vertices if dot(f, (1,) + v) == 0]
        assert tight, "facet not tight anywhere"
        rows = [tuple(a - b for a, b in zip(v, tight[0])) for v in tight[1:]]
        assert row_rank(rows) == p.dim - 1, \
            "facet tight set has wrong dimension"


def brute_force_facets(points):
    """Oracle: hyperplanes through point subsets with everything on one side."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    d = len(points[0])
    facets = set()
    for sub in combinations(points, d):
        rows = [tuple(a - b for a, b in zip(p, sub[0])) for p in sub[1:]]
        if rows and row_rank(rows) != d - 1:
            continue
        # normal: kernel of the difference matrix, via cross-product-style solve
        from nefsphere.linalg import kernel_basis, clear_denominators
        intable = [clear_denominators(r) for r in rows] or [(0,) * d]
        k = kernel_basis([r for r in intable if any(r)], d)
        if len(k) != 1:
            continue
        normal = k[0]
        b = dot(normal, sub[0])
        vals = [dot(normal, p) - b for p in points]
        if all(v <= 0 for v in vals):
            facets.add((normal, b))
        elif all(v >= 0 for v in vals):
            facets.add((tuple(-x for x in normal), -b))
    return facets


def test_hull_triangle_absorbs_origin():
    p = convex_hull([(1, 0), (0, 1), (-1, -1), (0, 0)], ROLE_M)
    assert len(p.vertices) == 3
    assert p.dim == 2
    assert_valid(p)


def test_hull_single_point():
    p = convex_hull([(3, 4)], ROLE_M)
    assert p.dim == 0
    assert p.vertices == ((3, 4),)
    assert p.facets == ()


def test_hull_5d_prism():
    prism = [(0, -1, -1, 0, 0), (0, 2, -1, 0, 0), (0, -1, 2, 0, 0),
             (1, -1, -1, 0, 0), (1, 2, -1, 0, 0), (1, -1, 2, 0, 0)]
    p = convex_hull(prism, ROLE_M)
    # Oracle: rank of translated vertex differences (brute-force elimination).
    base = prism[0]
    rows = [tuple(a - b for a, b in zip(v, base)) for v in prism[1:]]
    assert row_rank(rows) == 3
    assert p.dim == 3
    assert len(p.vertices) == 6
    assert_valid(p)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=3, max_size=7))
@settings(max_examples=40, deadline=None)
def test_hull_matches_brute_force(points):
    from nefsphere.linalg import clear_denominators
    p = convex_hull(points, ROLE_M)
    if p.dim != 2:
        return
    want = {clear_denominators((b,) + tuple(-x for x in n))
            for n, b in brute_force_facets(points)}
    assert set(p.facets) == want


def test_polar_dual_triangle_oracle():
    # Oracle (spec): enumerate the <=1 inequalities from the primal vertices.
    p = convex_hull(TRI, ROLE_M)
    d = polar_dual(p)
    assert set(d.vertices) == {(-2, 1), (1, -2), (1, 1)}
    assert d.role == ROLE_N


def test_polar_involution():
    p = convex_hull(TRI, ROLE_M)
    assert polar_dual(polar_dual(p)) == p


def test_polar_segment_self_dual():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    assert polar_dual(seg).vertices == seg.vertices


def test_polar_requires_interior_origin():
    shifted = convex_hull([(1, 0), (2, 0), (1, 1)], ROLE_M)
    with pytest.raises(GeometryError):
        polar_dual(shifted)


def test_is_reflexive():
    assert is_reflexive(convex_hull(TRI, ROLE_M))
    assert not is_reflexive(convex_hull([(2, 0), (0, 2), (-2, -2)], ROLE_M))
    assert is_reflexive(convex_hull([(-1,), (1,)], ROLE_M))


def test_minkowski_examples():
    p = convex_hull(TRI, ROLE_M)
    origin = convex_hull([(0, 0)], ROLE_M)
    assert minkowski_sum(p, origin) == p
    seg1 = convex_hull([(-1, 0), (1, 0)], ROLE_M)
    seg2 = convex_hull([(0, -1), (0, 1)], ROLE_M)
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], ROLE_M)
    assert minkowski_sum(seg1, seg2) == square


def test_minkowski_role_mismatch():
    a = convex_hull([(0, 0), (1, 0)], ROLE_M)
    b = convex_hull([(0, 0), (1, 0)], ROLE_N)
    with pytest.raises(GeometryError):
        minkowski_sum(a, b)


def test_lattice_points():
    seg = convex_hull([(-1,), (1,)], ROLE_M)
    assert seg.lattice_points() == ((-1,), (0,), (1,))
    tri = convex_hull(TRI, ROLE_M)
    assert set(tri.lattice_points()) == {(1, 0), (0, 1), (-1, -1), (0, 0)}
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], ROLE_M)
    assert len(square.lattice_points()) == 9


def test_empty_hull_rejected():
    with pytest.raises(GeometryError):
        convex_hull([], ROLE_M)


def test_face_lattice_eulerian():
    # Alternating sum over proper faces equals the boundary sphere's.
    for pts, dim in [(TRI, 2),
                     ([(a, b, c) for a in (-1, 1) for b in (-1, 1)
                       for c in (-1, 1)], 3)]:
        p = convex_hull(pts, ROLE_M)
        counts = {}
        for d in p.faces().values():
            counts[d] = counts.get(d, 0) + 1
        total = sum((-1) ** k * counts.get(k, 0) for k in range(dim))
        assert total == 1 - (-1) ** dim


def test_double_description_agreement():
    # Vertices recovered from the facet system equal the declared vertices.
    from nefsphere.polytope import polytope_from_hrep
    p = convex_hull([(1, 0), (0, 1), (-1, -1), (0, 0)], ROLE_M)
    q = polytope_from_hrep(p.equations, p.facets, p.role, p.ambient)
    assert q == p


def test_polyhedron_with_a_lineality_line():
    from nefsphere.polytope import Polyhedron
    # The strip 0 <= x <= 1 contains every vertical line; its points of
    # height zero represent its two minimal faces.
    strip = Polyhedron.from_hrep([], [(0, 1, 0), (1, -1, 0)], ROLE_M, 2)
    assert strip.vertices == ((0, 0), (1, 0))
    assert strip.rays == ()
    assert strip.lineality == ((0, 1),)
    # x >= 1 and x <= 0 share that lineality line but have no point.
    assert Polyhedron.from_hrep([], [(-1, 1, 0), (0, -1, 0)], ROLE_M, 2) \
        is None
    # The same in the plane z = 2 of R^3, with the equation solved first.
    slab = Polyhedron.from_hrep([(-2, 0, 0, 1)], [(0, 1, 0, 0), (1, -1, 0, 0)],
                                ROLE_M, 3)
    assert slab.vertices == ((0, 0, 2), (1, 0, 2))
    assert slab.lineality == ((0, 1, 0),)
    assert Polyhedron.from_hrep([(-2, 0, 0, 1)],
                                [(-1, 1, 0, 0), (0, -1, 0, 0)], ROLE_M, 3) \
        is None


def test_intersection():
    tri = convex_hull(TRI, ROLE_M)
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], ROLE_M)
    meet = intersect(tri, square)
    assert meet is not None
    assert meet.contains((0, 0))
    far = convex_hull([(5, 5), (6, 5), (5, 6)], ROLE_M)
    assert intersect(tri, far) is None


def test_dilate_volume():
    tri = convex_hull(TRI, ROLE_M)
    assert lattice_volume(dilate(tri, 2)) == 4 * lattice_volume(tri)
    assert lattice_volume(tri) == Fraction(3, 2)


def test_pair_role_checked():
    m = Vector((1, 2), ROLE_M)
    n = Vector((3, 4), ROLE_N)
    assert pair(m, n) == 11
    with pytest.raises(ValueError):
        pair(m, m)


def test_vector_is_an_immutable_value():
    v = Vector((1, Fraction(4, 2), "1/3"), ROLE_M)
    assert v.coords == (1, 2, Fraction(1, 3))
    assert [type(x) for x in v.coords] == [int, int, Fraction]
    assert len(v) == 3 and v[2] == Fraction(1, 3) and list(v) == list(v.coords)
    same = Vector((Fraction(1), 2, Fraction(2, 6)), ROLE_M)
    assert v == same and hash(v) == hash(same)
    assert len({v, same}) == 1
    assert v != Vector(v.coords, ROLE_N)
    assert v != Vector((1, 2, 0), ROLE_M)
    assert v != v.coords
    for field in ("coords", "role", "other"):
        with pytest.raises(AttributeError):
            setattr(v, field, ())
    assert v.coords == (1, 2, Fraction(1, 3)) and v.role == ROLE_M


def test_hull_idempotent_on_vertices():
    import random
    rng = random.Random(7)
    for _ in range(30):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(2, 9))]
        p = convex_hull(pts, ROLE_M)
        assert convex_hull(p.vertices, ROLE_M) == p


def test_hull_is_interned():
    # One live object per hull: permuted, repeated and non-vertex points
    # (centroid, edge midpoints, a rational interior point) all give it back.
    import random
    rng = random.Random(11)
    cube = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    hull = convex_hull(cube, ROLE_M)
    padding = [(0, 0, 0), (1, 0, 1), (-1, 1, 0), (Fraction(1, 2), 0, 0)]
    for _ in range(10):
        pts = cube + rng.sample(cube, 3) + rng.sample(padding, 2)
        rng.shuffle(pts)
        assert convex_hull(pts, ROLE_M) is hull
        assert convex_hull(pts, ROLE_M, 3) is hull
    assert convex_hull(cube, ROLE_N) is not hull
    # Lower-dimensional hulls too: a square face padded with its centre.
    face = [(1, b, c) for b in (-1, 1) for c in (-1, 1)]
    assert convex_hull(face + [(1, 0, 0)], ROLE_M) is \
        convex_hull(list(reversed(face)), ROLE_M)
    for fs in facet_vertex_sets(hull):
        verts = [hull.vertices[i] for i in reversed(bits(fs))]
        assert hull.face_polytope(fs) is convex_hull(verts, ROLE_M)
    # Hulls reached through other constructions are the same object.
    assert intersect(hull, hull) is hull
    assert minkowski_sum(convex_hull([(0, 0, 0)], ROLE_M), hull) is hull


def test_interned_hull_leaves_table_when_dead():
    import gc
    from nefsphere import polytope
    pts = [(0, 0, 0, 0, 7), (5, 0, 0, 0, 7), (0, 5, 0, 0, 7), (1, 1, 0, 0, 7)]
    hull = convex_hull(pts, ROLE_N)
    keys = [k for k, v in polytope._HULLS.items() if v is hull]
    assert len(keys) == 2  # the input points and the vertices
    del hull
    gc.collect()
    assert all(k not in polytope._HULLS for k in keys)


def test_hrep_vrep_roundtrip_3d():
    import random
    from nefsphere.polytope import polytope_from_hrep
    rng = random.Random(11)
    for _ in range(25):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(4, 10))]
        p = convex_hull(pts, ROLE_M)
        q = polytope_from_hrep(p.equations, p.facets, p.role, p.ambient)
        assert q == p
        assert_valid(p)


def test_lattice_points_against_naive_scan():
    import random
    from math import ceil, floor
    rng = random.Random(13)
    for _ in range(20):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(3, 8))]
        p = convex_hull(pts, ROLE_M)
        xs = [v[0] for v in p.vertices]
        ys = [v[1] for v in p.vertices]
        naive = []
        for x in range(ceil(min(xs)), floor(max(xs)) + 1):
            for y in range(ceil(min(ys)), floor(max(ys)) + 1):
                # containment via the facet system only
                if p.contains((x, y)):
                    naive.append((x, y))
        assert list(p.lattice_points()) == naive


def test_volume_additivity_under_stellar_split():
    # Splitting a polytope at an interior point preserves total volume.
    p = convex_hull([(2, 0), (0, 2), (-2, -1), (1, -2)], ROLE_M)
    total = p.volume_in(p)
    pieces = []
    for fs in facet_vertex_sets(p):
        piece = convex_hull([p.vertices[i] for i in bits(fs)] + [(0, 0)],
                            ROLE_M)
        pieces.append(piece.volume_in(p))
    assert sum(pieces) == total


def _gram_lattice_volume(simplex, basis):
    """Oracle: a simplex's lattice volume from the coordinates of its edges
    in the lattice basis, each solved from (B B^T) t = B e in Fractions."""
    gram = [[dot(a, b) for b in basis] for a in basis]
    base = simplex.vertices[0]
    rows = [solve_rational(gram, [dot([x - y for x, y in zip(v, base)], b)
                                  for b in basis])
            for v in simplex.vertices[1:]]
    return Fraction(abs(det(rows)), factorial(len(basis)))


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_free_coordinates_scale_every_volume_by_one_factor(k, seed):
    # A k-dimensional polytope with rational vertices inside Q^4: it has k
    # free coordinates, which project its vertices one to one, and volume_in
    # is one multiple of the lattice volume on it and on a simplex of its
    # triangulation, whose lattice volume the Gram route gives as well.
    import random
    rng = random.Random(seed)
    d = 4
    anchor = tuple(Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                   for _ in range(d))
    dirs = [tuple(rng.randrange(-3, 4) for _ in range(d)) for _ in range(k)]
    if row_rank([v for v in dirs if any(v)] or [(0,) * d]) != k:
        return
    pts = [anchor]
    for _ in range(k + 2):
        cs = [Fraction(rng.randrange(0, 4), 2) for _ in dirs]
        pts.append(tuple(a + sum(c * v[j] for c, v in zip(cs, dirs))
                         for j, a in enumerate(anchor)))
    poly = convex_hull(pts, ROLE_M)
    if poly.dim != k:
        return
    free = poly.free_coordinates()
    assert len(free) == k
    assert len({tuple(v[i] for i in free) for v in poly.vertices}) == \
        len(poly.vertices)
    # One to one on the affine hull: the equations solve for the others.
    pivots = [i for i in range(d) if i not in free]
    if pivots:
        assert row_rank([[e[1 + i] for i in pivots]
                         for e in poly.equations]) == len(pivots)
    simplex = convex_hull([poly.vertices[i] for i in poly.triangulation()[0]],
                          ROLE_M)
    assert simplex.dim == k
    factor = poly.volume_in(poly) / lattice_volume(poly)
    assert factor > 0
    assert simplex.volume_in(poly) == factor * lattice_volume(simplex)
    basis = saturated_span_basis(dirs, d)
    assert lattice_volume(simplex) == _gram_lattice_volume(simplex, basis)


def test_volume_in_a_point_and_a_segment():
    point = convex_hull([(Fraction(1, 2), 3)], ROLE_M)
    assert point.free_coordinates() == ()
    assert point.volume_in(point) == 1
    seg = convex_hull([(0, 0), (4, 6)], ROLE_M)
    assert len(seg.free_coordinates()) == 1
    assert lattice_volume(seg) == 2
    half = convex_hull([(2, 3), (4, 6)], ROLE_M)
    assert 2 * half.volume_in(seg) == seg.volume_in(seg)
    assert convex_hull([(1, Fraction(3, 2))], ROLE_M).volume_in(seg) == 0


def test_volume_in_refuses_a_polytope_off_the_region():
    # Projected volumes compare only inside one affine hull.
    seg = convex_hull([(0, 0), (4, 6)], ROLE_M)
    for off in ([(0, 0), (1, 0)], [(1, 1), (5, 7)], [(Fraction(1, 2), 3)]):
        with pytest.raises(GeometryError):
            convex_hull(off, ROLE_M).volume_in(seg)
    square = convex_hull([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], ROLE_M)
    with pytest.raises(GeometryError):
        convex_hull([(0, 0, 0), (1, 0, 1), (0, 1, 1)], ROLE_M).volume_in(
            square)


def _affine_rank(points):
    """Oracle: the dimension of the affine hull of exact points."""
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    rows = [r for r in rows if any(r)]
    return row_rank(rows) if rows else 0


@st.composite
def lattice_point_sets(draw):
    d = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                         max_size=d + 4))


@settings(max_examples=100, deadline=None)
@given(lattice_point_sets())
def test_faces_from_the_h_representation_match_hulls(points):
    # Every face built from the parent's H-representation is the hull of
    # its vertices field for field, whether its rows are read at once or,
    # given its grade as dimension, on first use; the parent and each route
    # are built in their own empty table, so none can hand back another's
    # object, nor one that an earlier test left in the shared table.
    from unittest import mock
    from weakref import WeakValueDictionary
    from nefsphere import polytope
    with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
        p = convex_hull(points, ROLE_M)
    for fs, dim in p.faces().items():
        verts = [p.vertices[i] for i in bits(fs)]
        assert dim == _affine_rank(verts)
        with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
            face = p.face_polytope(fs)
        with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
            deferred = p.face_polytope(fs, dim)
        with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
            hull = convex_hull(verts, ROLE_M, p.ambient)
        assert deferred._rows is not None
        for got in (face, deferred):
            assert got is not hull
            assert got.key() == hull.key()
            assert got.equations == hull.equations
            assert got.facets == hull.facets
            assert got.dim == hull.dim == dim == p.ambient - len(got.equations)


def deferred_membership_failures(parent):
    """The faces of `parent` whose membership read from the parent's rows
    differs from the one under their own H-representation.

    Each face is built with its grade as dimension, in an empty table, so
    its rows are unread; it answers first from the parent's rows, then
    from its own, which it reads in between.  The test rays are the
    parent's vertices, an interior point b of the face (the sum of its
    vertex rays), b plus each parent vertex, and b plus and minus each
    unit vector: a step off a flat parent's affine hull along an
    equation's pivot column keeps every facet row's value.
    """
    from unittest import mock
    from weakref import WeakValueDictionary
    from nefsphere import polytope
    from nefsphere.polytope import point_ray
    failures = []
    vrays = [point_ray(v) for v in parent.vertices]
    for fs, dim in parent.faces().items():
        with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
            face = parent.face_polytope(fs, dim)
        assert face._rows is not None
        inner = tuple(map(sum, zip(*(vrays[i] for i in bits(fs)))))
        rays = vrays + [inner]
        rays += [tuple(map(sum, zip(inner, w))) for w in vrays]
        for k in range(1, len(inner)):
            for step in (inner[0], -inner[0]):
                rays.append(tuple(x + step * (t == k)
                                  for t, x in enumerate(inner)))
        by_parent = [face.contains_ray(r) for r in rays]
        assert face.equations is not None and face._rows is None
        if [face.contains_ray(r) for r in rays] != by_parent:
            failures.append(bits(fs))
    return failures


@st.composite
def flat_or_full_point_sets(draw):
    """A lattice point set, often flat: points of Z^k lifted into
    Z^(k+1) by a last coordinate a.x + c, so that their hull has an
    equation."""
    points = draw(lattice_point_sets())
    if not draw(st.booleans()):
        return points
    k = len(points[0])
    a = draw(st.tuples(*[st.integers(-2, 2)] * k))
    c = draw(st.integers(-2, 2))
    return [p + (dot(a, p) + c,) for p in points]


@settings(max_examples=100, deadline=None)
@given(flat_or_full_point_sets())
def test_deferred_faces_read_membership_from_the_parent_rows(points):
    # A face whose rows are unread decides membership from its parent's
    # equations, its facet rows and their tight masks; the answers are
    # those of its own H-representation, on full and flat parents alike.
    assert deferred_membership_failures(convex_hull(points, ROLE_M)) == []


@st.composite
def bounded_h_systems(draw):
    """(equations, inequalities, ambient) of a nonempty bounded polytope.

    A box of rational half-width bounds it; the other rows keep the origin
    feasible.  Some rows are repeated or rescaled by a rational factor,
    some come with their opposite row (an implicit equality), and a wider
    box is added as redundant rows.
    """
    d = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    width = draw(st.sampled_from([1, 2, Fraction(3, 2), Fraction(5, 2)]))
    rows = []
    for i in range(d):
        for sign in (1, -1):
            rows.append((width,) + tuple(sign * int(i == j) for j in range(d)))
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(4, 3)]))
        u = draw(st.tuples(*[coord] * d))
        rows.append((c,) + u)
        kind = draw(st.sampled_from(["plain", "repeat", "rescale",
                                     "opposite"]))
        if kind == "repeat":
            rows.append((c,) + u)
        elif kind == "rescale":
            q = draw(st.sampled_from([2, Fraction(1, 3), Fraction(5, 2)]))
            rows.append(tuple(q * x for x in (c,) + u))
        elif kind == "opposite":
            rows[-1] = (0,) + u
            rows.append((0,) + tuple(-x for x in u))
    if draw(st.booleans()):
        rows.extend((width + 1,) + r[1:] for r in rows[:2 * d])
    eqs = []
    if draw(st.booleans()):
        eqs.append((0,) + draw(st.tuples(*[coord] * d)))
    order = draw(st.permutations(range(len(rows))))
    return eqs, [rows[k] for k in order], d


@settings(max_examples=150, deadline=None)
@given(bounded_h_systems())
def test_polytope_from_hrep_matches_the_hull_of_its_vertices(system):
    # The H->V result read from its own rows is the V->H hull of its
    # vertices field for field; each route runs in its own empty table, so
    # neither can hand back the other's object.
    from unittest import mock
    from weakref import WeakValueDictionary
    from nefsphere import polytope
    from nefsphere.polytope import polytope_from_hrep
    eqs, ineqs, d = system
    with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
        got = polytope_from_hrep(eqs, ineqs, ROLE_M, d)
    assert got is not None  # the origin is feasible
    with mock.patch.object(polytope, "_HULLS", WeakValueDictionary()):
        hull = convex_hull(got.vertices, ROLE_M, d)
    assert got is not hull
    assert got.vertices == hull.vertices
    assert got.equations == hull.equations
    assert got.facets == hull.facets
    assert got.dim == hull.dim
    assert_valid(got)


def test_face_polytope_rejects_a_vertex_set_that_is_not_a_face():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], ROLE_M)
    diagonal = sum(1 << square.vertices.index(v) for v in ((0, 0), (1, 1)))
    assert not square.is_face(diagonal) and not square.is_face(0)
    with pytest.raises(GeometryError, match="not a face"):
        square.face_polytope(diagonal)


def test_face_lattice_grade_must_match_the_dimension():
    from nefsphere.polytope import Polytope
    tri = convex_hull(TRI, ROLE_M)
    wrong = Polytope(tri.ambient, tri.role, tri.vertices, tri.equations,
                     tri.facets, tri.dim + 1)
    with pytest.raises(GeometryError, match="grade"):
        wrong.faces()



@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_is_minkowski_sum_agrees_with_the_hull_of_the_sums(d, k, data):
    # Oracle: minkowski_sum_all, the V->H hull of every sum of vertices.
    point = st.tuples(*[st.integers(-2, 2)] * d)
    summands = [convex_hull(data.draw(st.lists(point, min_size=1,
                                               max_size=4)), ROLE_M)
                for _ in range(k)]
    total = minkowski_sum_all(summands)

    def agrees(p, parts):
        got = is_minkowski_sum(p, parts)
        assert got == (p == minkowski_sum_all(parts))
        return got

    assert agrees(total, summands)
    # p with a vertex dropped.
    if len(total.vertices) > 1:
        drop = data.draw(st.integers(0, len(total.vertices) - 1))
        rest = total.vertices[:drop] + total.vertices[drop + 1:]
        assert not agrees(convex_hull(rest, ROLE_M, d), summands)
    # One summand shifted by a nonzero lattice vector.
    shift = data.draw(point.filter(any))
    j = data.draw(st.integers(0, k - 1))
    moved = list(summands)
    moved[j] = convex_hull([tuple(a + b for a, b in zip(v, shift))
                            for v in summands[j].vertices], ROLE_M)
    assert not agrees(total, moved)
    # One summand grown by a point or shrunk to one of its vertices: p is
    # then strictly larger or smaller than the sum.
    extra = data.draw(point)
    grown = list(summands)
    grown[j] = convex_hull(summands[j].vertices + (extra,), ROLE_M)
    agrees(total, grown)
    shrunk = list(summands)
    shrunk[j] = summands[j].face_polytope(1)
    agrees(total, shrunk)
    # p the hull of a proper subset of the sums.
    sums = sorted({tuple(map(sum, zip(*vs)))
                   for vs in product(*(q.vertices for q in summands))})
    if len(sums) > 1:
        subset = data.draw(st.lists(st.sampled_from(sums), min_size=1,
                                    max_size=len(sums) - 1, unique=True))
        agrees(convex_hull(subset, ROLE_M, d), summands)


def test_is_minkowski_sum_rejects_other_roles():
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], ROLE_M)
    seg = convex_hull([(0, 0), (1, 0)], ROLE_N)
    with pytest.raises(GeometryError, match="incompatible"):
        is_minkowski_sum(square, [seg, seg])
