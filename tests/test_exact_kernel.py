"""The int-first exact kernel: integer elimination agrees with Fraction
elimination, the double description and the vertex test agree with
brute-force oracles, and computed coordinates are canonical exact
rationals."""

import os
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, example, given, settings, strategies as st

from nefsphere import Pipeline
from nefsphere.cli import load_input
from nefsphere.dd import _inverse_columns, cone_rays
from nefsphere.linalg import (
    clear_denominators,
    det,
    dot,
    echelon,
    exact,
    hermite_normal_form,
    kernel_basis,
    primitive,
    reduce_row,
    reduced_echelon,
    row_rank,
    saturated_perp_basis,
    solve_rational,
)
from nefsphere.polytope import (
    Polyhedron,
    _canonical_facets,
    _extreme_points,
    _reduce_mod_equations,
    as_fractions,
    convex_hull,
    point_ray,
    polyhedron_generators,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def reference_rank(rows):
    """Textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_det(rows):
    """Product of the pivots of Fraction elimination, with the swap sign."""
    m = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return out


def reference_solve(a_rows, b):
    """Gauss-Jordan over Fraction; free variables zero, None if inconsistent."""
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a_rows, b)]
    ncols = len(a_rows[0]) if a_rows else 0
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * c for a, c in zip(m[i], m[row])]
        pivots.append(col)
    if any(m[i][ncols] for i in range(len(pivots), len(m))):
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return tuple(x)


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7))


@st.composite
def rational_matrices(draw, square=False):
    ncols = draw(st.integers(1, 5))
    nbase = ncols if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nbase)]
    if not square:
        # Dependent rows (rational combinations of earlier ones) and zero
        # rows, in mixed int/Fraction form.
        for _ in range(draw(st.integers(0, 3))):
            if rows and draw(st.booleans()):
                a, b = draw(entries), draw(entries)
                i = draw(st.integers(0, len(rows) - 1))
                j = draw(st.integers(0, len(rows) - 1))
                combo = [exact(a * x + b * y) for x, y in zip(rows[i], rows[j])]
            else:
                combo = [draw(st.sampled_from([0, Fraction(0)]))
                         for _ in range(ncols)]
            rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_row_rank_matches_fraction_elimination(rows):
    assert row_rank(rows) == reference_rank(rows)


@given(rational_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_rational_bareiss_det_matches_fraction_elimination(rows):
    d = det(rows)
    assert d == reference_det(rows)
    assert d == exact(d)


@given(rational_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_fraction_free_solve_matches_fraction_elimination(rows, data):
    b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = solve_rational(rows, b)
    assert x == reference_solve(rows, b)
    if x is not None:
        assert all(type(c) is int or c.denominator > 1 for c in x)


def reference_rref(rows):
    """Reduced row echelon form over Fraction: (pivot columns, rows)."""
    m = [[Fraction(x) for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return pivots, m[:len(pivots)]


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_echelon_pivots_and_taken_rows(rows):
    rows = [clear_denominators(r) for r in rows]
    pairs, taken = echelon(rows)
    pivots, rref = reference_rref(rows)
    assert sorted(c for c, _ in pairs) == pivots
    # The taken rows are the first rows that raise the rank.
    want = [i for i in range(len(rows))
            if reference_rank(rows[:i + 1]) > reference_rank(rows[:i])]
    assert taken == want
    # After the back pass each row is a multiple of its RREF row.
    by_pivot = dict(zip(pivots, rref))
    for c, e in reduced_echelon(rows):
        assert [Fraction(x, e[c]) for x in e] == by_pivot[c]


@given(rational_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_inverse_columns_are_positive_multiples(rows):
    base = [clear_denominators(r) for r in rows]
    assume(reference_rank(base) == len(base))
    n = len(base)
    _, inv = reference_rref([tuple(r) + tuple(int(i == j) for j in range(n))
                             for i, r in enumerate(base)])
    for j, v in enumerate(_inverse_columns(base)):
        col = [inv[i][n + j] for i in range(n)]
        c = next(i for i, x in enumerate(col) if x)
        t = Fraction(v[c]) / col[c]
        assert t > 0 and all(x == t * y for x, y in zip(v, col))


def reference_reduce_mod_equations(row, eqs):
    """Clear each HNF pivot column of the row over Fraction, then scale to
    a primitive integer row by a positive factor."""
    w = [Fraction(x) for x in row]
    for e in eqs:
        c = next(j for j, x in enumerate(e) if x)
        f = w[c] / e[c]
        w = [a - f * b for a, b in zip(w, e)]
    return clear_denominators(w)


@given(st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_mod_equations_matches_fraction_reduction(n, data):
    small = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    raw = data.draw(st.lists(small, max_size=n))
    eqs = hermite_normal_form(raw)
    row = tuple(data.draw(small))
    got = _reduce_mod_equations(row, eqs)
    assert got == reference_reduce_mod_equations(row, eqs)
    # On the solutions of the equations a reduced row is a positive multiple
    # of the row, also against the echelon of the raw rows, whose pivots
    # can be negative: it keeps the row's side.
    kernel = kernel_basis(eqs, n)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(kernel),
                                max_size=len(kernel)))
    x = [sum(a * k[j] for a, k in zip(coeffs, kernel)) for j in range(n)]
    for w in (got, reduce_row(row, echelon(raw)[0])):
        assert _sign(dot(w, x)) == _sign(dot(row, x))


def _sign(v):
    return (v > 0) - (v < 0)


def test_exact_normaliser():
    assert exact(3) == 3 and type(exact(3)) is int
    assert type(exact(Fraction(6, 2))) is int
    assert exact(Fraction(3, 2)) == Fraction(3, 2)
    assert type(exact("4/2")) is int
    assert exact(-0) == 0


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _cell_vertices(pipe):
    """Vertices of every cell of S, T and Sigma, plus the bounded tropical
    cells, whose vertices are non-integral under a non-integral weight."""
    s, t, sigma = pipe.s_boundary(), pipe.t_boundary(), pipe.sigma()
    cells = list(s.cells) + list(t.cells)
    for i, j in sigma.pairs:
        cells.append(sigma.p_poset.elements[i].minkowski)
        cells.append(sigma.q_poset.elements[j].minkowski)
    cells.extend(c.poly for c in pipe.tropical_complex())
    return [v for c in cells for v in c.vertices]


def test_cell_coordinates_are_int_or_proper_fraction():
    # An int / int that silently became a float, or a Fraction(n, 1) that
    # escaped normalisation, would show up here.
    seen_fraction = False
    for name in ("simplex3", "segment_weighted"):
        nef, omega, nu = load_input(os.path.join(DATA, f"{name}.json"))
        pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
        vertices = _cell_vertices(pipe)
        assert vertices
        bad = [v for v in vertices if not all(_canonical(x) for x in v)]
        assert not bad, (name, bad[:3])
        seen_fraction |= any(type(x) is Fraction for v in vertices for x in v)
    assert seen_fraction


# -- double description ------------------------------------------------------


def reference_kernel_line(rows, ncols):
    """The primitive integer generator of a one-dimensional kernel (Fraction
    reduced row echelon form), or None when the kernel is not a line."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    free = [j for j in range(ncols) if j not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * ncols
    v[free[0]] = Fraction(1)
    for row, col in enumerate(pivots):
        v[col] = -m[row][free[0]]
    return clear_denominators(v)


def reference_cone_rays(ineqs, dim):
    """Extreme rays of {x : a.x >= 0} modulo lineality, by enumeration.

    The lineality space is quotiented out as ``cone_rays`` does (to the
    coordinates off the pivot columns of its HNF basis).  There, every
    (n-1)-subset of the rows with a one-dimensional kernel gives two
    candidate directions; the feasible ones are the extreme rays.
    """
    rows = [tuple(r) for r in ineqs if any(r)]
    lineality = kernel_basis(rows, dim)
    pivots = [next(j for j, x in enumerate(l) if x) for l in lineality]
    free = [j for j in range(dim) if j not in pivots]
    qrows = [tuple(r[j] for j in free) for r in rows]
    n = len(free)
    if n == 0:
        return lineality, ()
    found = set()
    for subset in combinations(qrows, n - 1):
        line = reference_kernel_line(subset, n) if n > 1 else (1,)
        if line is None:
            continue
        for v in (line, tuple(-x for x in line)):
            if all(dot(r, v) >= 0 for r in qrows):
                lift = [0] * dim
                for j, t in zip(free, primitive(v)):
                    lift[j] = t
                found.add(tuple(lift))
    return lineality, tuple(sorted(found))


@st.composite
def cone_systems(draw):
    """Small integer inequality systems with duplicate rows, redundant rows
    (positive combinations of others) and, optionally, a lineality line."""
    dim = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    rows = [tuple(draw(st.lists(small, min_size=dim, max_size=dim)))
            for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows.append(rows[i])
        else:
            j = draw(st.integers(0, len(rows) - 1))
            a, b = draw(st.integers(1, 3)), draw(st.integers(0, 3))
            rows.append(tuple(a * x + b * y for x, y in zip(rows[i], rows[j])))
    line = tuple(draw(st.lists(small, min_size=dim, max_size=dim)))
    if draw(st.booleans()) and any(line):
        # Project every row orthogonally to the line (scaled to integers),
        # so the line lies in the lineality space.
        ll = dot(line, line)
        rows = [tuple(ll * x - dot(r, line) * y for x, y in zip(r, line))
                for r in rows]
    return draw(st.permutations(rows)), dim


@given(cone_systems())
@settings(max_examples=300, deadline=None)
def test_cone_rays_match_enumeration_oracle(system):
    rows, dim = system
    lineality, rays = cone_rays(rows, dim)
    want_lineality, want_rays = reference_cone_rays(rows, dim)
    assert lineality == want_lineality
    assert rays == want_rays


def _through(apex, u):
    """u projected orthogonally to apex and scaled to integers: a row tight
    at the ray apex."""
    aa = dot(apex, apex)
    return tuple(aa * x - dot(u, apex) * y for x, y in zip(u, apex))


@st.composite
def degenerate_cone_systems(draw):
    """Inequality systems in dimension 5-6 where many rows are tight at one
    or two rays: dim or dim + 1 rows through a drawn apex ray, or dim rows
    through each of two, one or two rows positive at the first apex, and
    sometimes a redundant row.  Pairs of rays then share many tight rows,
    so the adjacency pre-filter's count (at least dim - 2 common tight
    rows) falls on both sides of its line."""
    dim = draw(st.integers(5, 6))

    def vec():
        v = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        return tuple(v) if any(v) else (1,) + (0,) * (dim - 1)

    apexes = [vec()]
    if draw(st.booleans()):
        apexes.append(vec())
    rows = []
    for apex in apexes:
        for _ in range(draw(st.integers(dim, dim + 2 - len(apexes)))):
            rows.append(_through(apex, vec()))
    apex = apexes[0]
    for _ in range(draw(st.integers(1, 2))):
        u = vec()
        shift = max(0, -dot(u, apex) // dot(apex, apex) + 1)
        rows.append(tuple(x + shift * y for x, y in zip(u, apex)))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), \
            draw(st.integers(0, len(rows) - 1))
        rows.append(tuple(x + 2 * y for x, y in zip(rows[i], rows[j])))
    return draw(st.permutations(rows)), dim


@given(degenerate_cone_systems())
@settings(max_examples=30, deadline=None)
def test_cone_rays_match_enumeration_oracle_degenerate(system):
    rows, dim = system
    # Repeated rows change neither cone; the oracle enumerates subsets.
    assert cone_rays(rows, dim) == reference_cone_rays(set(rows), dim)


# -- H-systems with equations ------------------------------------------------


def reference_polyhedron_generators(eq_rows, ineq_rows, ambient):
    """The unreduced route: each equation enters the double description as
    the two inequalities +e and -e, in all ambient + 1 coordinates."""
    rows = [(1,) + (0,) * ambient]
    rows.extend(clear_denominators(r) for r in ineq_rows)
    for e in eq_rows:
        e = clear_denominators(e)
        rows.append(e)
        rows.append(tuple(-x for x in e))
    lin, rays = cone_rays(rows, ambient + 1)
    vertices = sorted(tuple(exact(Fraction(x, r[0])) for x in r[1:])
                      for r in rays if r[0] > 0)
    rec = sorted(primitive(r[1:]) for r in rays if r[0] == 0)
    return tuple(vertices), tuple(rec), tuple(l[1:] for l in lin)


@st.composite
def h_systems(draw):
    """Homogeneous H-systems (c, u) in ambient dimension 1-4: equation rank
    0 to ambient + 1, rational rows, optionally a lineality line or plane
    (every row annihilates it), and optionally a contradictory pair of
    inequalities.  Most systems are made feasible by passing every row
    through (or past) one drawn point; few inequalities leave most of them
    unbounded."""
    ambient = draw(st.integers(1, 4))
    n = ambient + 1
    lin_dim = draw(st.integers(0, min(2, ambient)))
    dirs = [(0,) + tuple(draw(st.lists(st.integers(-3, 3), min_size=ambient,
                                       max_size=ambient)))
            for _ in range(lin_dim)]
    # Rows are integer combinations of a basis of the annihilator of dirs;
    # dirs have height 0, so the constant term can be chosen freely.
    span = saturated_perp_basis(dirs, n)
    den = st.sampled_from([1, 1, 1, 2, 3])
    point = tuple(Fraction(draw(st.integers(-2, 2)), draw(den))
                  for _ in range(ambient))
    anchored = draw(st.integers(0, 3)) > 0

    def row(slack):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(span),
                               max_size=len(span)))
        d = draw(den)
        r = [Fraction(sum(c * b[j] for c, b in zip(coeffs, span)), d)
             for j in range(n)]
        if anchored:
            r[0] = slack - dot(r[1:], point)
        return tuple(r)

    eqs = [row(0) for _ in range(draw(st.integers(0, n)))]
    if eqs and draw(st.booleans()):
        # A dependent equation: a combination of two drawn ones.
        a, b = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
        eqs.append(tuple(x + 2 * y for x, y in zip(a, b)))
    ineqs = [row(draw(st.integers(0, 2))) for _ in range(draw(st.integers(0, 5)))]
    if ineqs and draw(st.integers(0, 3)) == 0:
        # c + u.x >= 0 and -c - 1 - u.x >= 0 have no common solution.
        c, *u = draw(st.sampled_from(ineqs))
        ineqs.append((-c - 1,) + tuple(-x for x in u))
    return ambient, draw(st.permutations(eqs)), draw(st.permutations(ineqs))


@given(h_systems())
# Lifting rays by the kernel lattice: a system whose reduced lift is not
# primitive, and one whose lifted lineality basis is not yet in HNF.
@example((4, [(2, -1, 2, -4, 4)],
          [(-2, 3, 3, -2, 0), (2, 3, 2, 2, -5), (-3, 0, 1, 0, -1)]))
@example((4, [(0, -3, 3, -18, -9), (-1, 0, 0, 0, 0)],
          [(2, 2, -3, 15, 9), (2, -3, 3, -18, -9), (-2, 1, 3, -6, -9),
           (-3, 1, -2, 9, 6)]))
@settings(max_examples=400, deadline=None)
def test_polyhedron_generators_match_unreduced_route(system):
    ambient, eqs, ineqs = system
    got = polyhedron_generators(eqs, ineqs, ambient)
    assert got == reference_polyhedron_generators(eqs, ineqs, ambient)
    for v in got[0]:
        assert as_fractions(v) == v
        hv = (1,) + v
        assert all(dot(e, hv) == 0 for e in eqs)
        assert all(dot(f, hv) >= 0 for f in ineqs)


def test_polyhedron_generators_edge_cases():
    # Equations of full rank d + 1: only 0 solves the cone, so no point.
    assert polyhedron_generators([(1, 0), (0, 1)], [], 1) == ((), (), ())
    # A point, cut out by d independent equations.
    assert polyhedron_generators([(-1, 2, 0), (Fraction(-1, 3), 0, 1)], [],
                                 2) == (((Fraction(1, 2), Fraction(1, 3)),),
                                        (), ())
    # The line x = y: lineality (1, 1), and one representative point with
    # zero on the lineality's pivot column.
    assert polyhedron_generators([(0, 1, -1)], [], 2) == \
        (((0, 0),), (), ((1, 1),))
    # A half-line on x = y, bounded below at x = 1.
    assert polyhedron_generators([(0, 1, -1)], [(-1, 1, 0)], 2) == \
        (((1, 1),), ((1, 1),), ())
    # Equations with no solution: the line x = 1 meets x = 2 nowhere.
    assert polyhedron_generators([(-1, 1, 0), (-2, 1, 0)], [], 2) == \
        ((), (), ((0, 1),))


# -- membership by integer rays ------------------------------------------------


def contains_by_fractions(equations, inequalities, point):
    """Membership of a rational point, in Fraction arithmetic on (1, x):
    the route the integer rays replaced."""
    hx = (Fraction(1),) + tuple(Fraction(x) for x in point)
    return (all(dot(e, hx) == 0 for e in equations)
            and all(dot(f, hx) >= 0 for f in inequalities))


@st.composite
def membership_probes(draw):
    """A lattice polytope in dimension 1-4, flat (on a drawn hyperplane)
    or not, and rational points: one on a facet (a positive combination of
    the facet's vertices), and the same point moved off that facet, or off
    the affine hull, so that the row reads +1/q or -1/q there."""
    ambient = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    flat = ambient > 1 and draw(st.booleans())
    pts = []
    for _ in range(draw(st.integers(2, 7))):
        p = draw(st.lists(coord, min_size=ambient, max_size=ambient))
        if flat:
            # The last coordinate is fixed by the others: x_d = x_1 + 1.
            p[-1] = p[0] + 1
        pts.append(tuple(p))
    poly = convex_hull(pts, "M")
    rows = list(poly.facets) + list(poly.equations)
    row = draw(st.sampled_from(rows)) if rows else None
    tight = [v for v in poly.vertices
             if row is None or dot(row, (1,) + v) == 0]
    weights = [draw(st.integers(1, 4)) for _ in tight]
    on = tuple(Fraction(sum(w * v[k] for w, v in zip(weights, tight)),
                        sum(weights))
               for k in range(ambient))
    probes = [on]
    if row is not None:
        k = draw(st.sampled_from([k for k in range(ambient) if row[1 + k]]))
        q = draw(st.integers(1, 7))
        for sign in (1, -1):
            step = Fraction(sign, q * row[1 + k])
            probes.append(tuple(x + step * (i == k)
                                for i, x in enumerate(on)))
    return poly, probes


@given(membership_probes())
@settings(max_examples=300, deadline=None)
def test_contains_matches_fraction_oracle(probe):
    poly, points = probe
    hpoly = Polyhedron.from_hrep(poly.equations, poly.facets, poly.role,
                                 poly.ambient)
    assert poly.contains(points[0])
    for x in points:
        want = contains_by_fractions(poly.equations, poly.facets, x)
        assert poly.contains(x) == want
        assert hpoly.contains(x) == want
        assert poly.contains_ray(point_ray(x)) == want
    if len(points) > 1:
        # One side of a facet gains 1/q, the other loses it; on an equation
        # both sides leave the affine hull.
        assert not all(poly.contains(x) for x in points[1:])


def interior_by_fractions(equations, inequalities, point):
    """Relative-interior membership of a rational point, in Fraction
    arithmetic on (1, x): the route the integer rays replaced."""
    hx = (Fraction(1),) + tuple(Fraction(x) for x in point)
    return (all(dot(e, hx) == 0 for e in equations)
            and all(dot(f, hx) > 0 for f in inequalities))


@given(membership_probes())
@settings(max_examples=300, deadline=None)
def test_interior_contains_matches_fraction_oracle(probe):
    # The probes lie on a facet (or in the relative interior, when the drawn
    # row is an equation) and 1/q off it; the vertex barycentre is always
    # in the relative interior, flat polytopes and points included.
    poly, points = probe
    n = len(poly.vertices)
    centre = tuple(Fraction(sum(v[k] for v in poly.vertices), n)
                   for k in range(poly.ambient))
    assert poly.interior_contains(centre)
    for x in [centre] + points:
        assert poly.interior_contains(x) == interior_by_fractions(
            poly.equations, poly.facets, x)
    on_facet = any(dot(f, (1,) + points[0]) == 0 for f in poly.facets)
    assert poly.interior_contains(points[0]) == (not on_facet)


# -- vertices of a hull --------------------------------------------------------


def reference_extreme_points(pts, facets, eqs):
    """The rank criterion: a point is a vertex iff its tight facets and the
    equations span the whole space."""
    verts = []
    for p in pts:
        hp = (1,) + p
        rows = [f[1:] for f in facets if dot(f, hp) == 0]
        rows += [e[1:] for e in eqs]
        rows = [r for r in rows if any(r)]
        if (row_rank(rows) if rows else 0) == len(p):
            verts.append(p)
    return tuple(verts)


@st.composite
def point_clouds(draw):
    """A few lattice points with interior points, edge midpoints and points
    collinear with two others mixed in (rational where they fall so)."""
    ambient = draw(st.integers(1, 3))
    coord = st.integers(-3, 3)
    base = [tuple(draw(st.lists(coord, min_size=ambient, max_size=ambient)))
            for _ in range(draw(st.integers(1, 5)))]
    pts = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["centroid", "midpoint", "collinear"]))
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        if kind == "centroid":
            pts.append(tuple(Fraction(sum(c), len(base)) for c in zip(*base)))
        elif kind == "midpoint":
            pts.append(tuple(Fraction(x + y, 2) for x, y in zip(a, b)))
        else:
            t = draw(st.sampled_from([Fraction(1, 3), 2, -1]))
            pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    return ambient, pts


@given(point_clouds())
@settings(max_examples=300, deadline=None)
def test_incidence_mask_vertices_match_rank_criterion(cloud):
    ambient, points = cloud
    pts = sorted({as_fractions(p) for p in points})
    gens = [clear_denominators((1,) + p) for p in pts]
    eqs, rays = cone_rays(gens, ambient + 1)
    facets = _canonical_facets(rays, eqs, gens)
    got = tuple(pts[i] for i in _extreme_points(gens, facets))
    assert got == reference_extreme_points(pts, facets, eqs)
    assert got == convex_hull(points, "M").vertices


# -- face checks without face hulls --------------------------------------------


def test_face_keys_match_face_polytopes():
    checked = 0
    for name in ("simplex3", "segment_weighted"):
        nef, omega, nu = load_input(os.path.join(DATA, f"{name}.json"))
        pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
        cells = list(pipe.s_boundary().cells) + list(pipe.t_boundary().cells)
        for poset in (pipe.p_poset(), pipe.q_poset()):
            cells.extend(e.minkowski for e in poset.elements)
        cells.append(pipe.zero_cell())
        for cell in cells:
            faces = cell.faces()
            assert cell.face_keys() == {cell.face_polytope(fs).key()
                                        for fs in faces}
            assert cell.face_keys() - {cell.key()} == {
                cell.face_polytope(fs).key()
                for fs, d in faces.items() if d < cell.dim}
            checked += 1
    assert checked > 20
