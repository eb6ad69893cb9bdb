"""Exact rational polytopes in both vertex and facet representation.

Coordinates are exact rationals in canonical form (:func:`linalg.exact`): an
int when integral, a Fraction only when not, never a float.  On lattice
input nearly all arithmetic therefore stays in Python ints.

Hulls are interned: while a polytope is alive, :func:`convex_hull` returns
that one canonical object for every point list with the same role, ambient
space and hull, so its lazily built face lattice, chart, lattice points and
triangulation are computed once per run.

Polytopes carry a role tag:  'M' for the functional side (where the partition
parts Delta^(i) live) and 'N' for the vector side (the nabla side).  Pairings
are only defined across roles.  All hyperplane data is stored in homogeneous
integer form: a row (c, u_1, ..., u_d) means c + u.x >= 0 (inequality) or
c + u.x = 0 (equation).

Both conversions run on :func:`dd.cone_rays`.  V->H homogenizes the points;
H->V (:func:`polyhedron_generators`) first solves the equations over the
integers and runs the double description on the inequalities restricted to
the saturated kernel lattice of the equation rows, so a low-dimensional
slice or intersection is computed in its own dimension.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor
from itertools import chain, product
from weakref import WeakValueDictionary

from .dd import cone_rays
from .linalg import (
    clear_denominators,
    denominator_lcm,
    det,
    dot,
    exact,
    from_numerators,
    hermite_normal_form,
    kernel_basis,
    lattice_left_inverse,
    primitive,
    row_rank,
    saturated_span_basis,
    to_numerators,
)

ROLE_M = "M"
ROLE_N = "N"


def opposite_role(role):
    return ROLE_N if role == ROLE_M else ROLE_M


@dataclass(frozen=True)
class Vector:
    """A point of (R^d)* (role M) or R^d (role N)."""

    coords: tuple
    role: str

    def __post_init__(self):
        object.__setattr__(self, "coords", as_fractions(self.coords))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def pair(m, n):
    """The pairing <m, n> between an M-vector and an N-vector."""
    if isinstance(m, Vector) and isinstance(n, Vector):
        if {m.role, n.role} != {ROLE_M, ROLE_N}:
            raise ValueError("pairing requires one M-vector and one N-vector")
        return dot(m.coords, n.coords)
    return dot(m, n)


def as_fractions(point):
    """The point with every coordinate in canonical exact form."""
    return tuple(exact(x) for x in point)


def is_integral(point):
    return all(type(x) is int for x in as_fractions(point))


class GeometryError(ValueError):
    pass


class Polytope:
    """Bounded convex polytope with canonical V- and H-representations.

    Values are immutable after construction (face lattices and charts are
    cached lazily but idempotently), so independent computations can safely
    share polytopes; :func:`convex_hull` hands out one live object per hull.
    """

    __slots__ = ("ambient", "role", "vertices", "equations", "facets", "dim",
                 "_faces", "_chart", "_lattice_points", "_triangulation",
                 "__weakref__")

    def __init__(self, ambient, role, vertices, equations, facets, dim):
        self.ambient = ambient
        self.role = role
        self.vertices = vertices
        self.equations = equations
        self.facets = facets
        self.dim = dim
        self._faces = None
        self._chart = None
        self._lattice_points = None
        self._triangulation = None

    # -- canonical identity ------------------------------------------------

    def key(self):
        return (self.role, self.vertices)

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, role={self.role})"

    # -- membership ---------------------------------------------------------

    def contains(self, point):
        hx = (1,) + as_fractions(point)
        return (all(dot(e, hx) == 0 for e in self.equations)
                and all(dot(f, hx) >= 0 for f in self.facets))

    def interior_contains(self, point):
        """Relative-interior membership."""
        hx = (1,) + as_fractions(point)
        return (all(dot(e, hx) == 0 for e in self.equations)
                and all(dot(f, hx) > 0 for f in self.facets))

    # -- faces ---------------------------------------------------------------

    def face_sets(self):
        """All nonempty faces as frozensets of vertex indices, with dims.

        Returns a dict face -> dimension.  Faces are generated by closing the
        facet incidence sets under intersection, which is exact for polytopes.
        """
        if self._faces is not None:
            return self._faces
        nv = len(self.vertices)
        full = frozenset(range(nv))
        hverts = [(1,) + v for v in self.vertices]
        facet_sets = []
        for f in self.facets:
            facet_sets.append(frozenset(i for i, hv in enumerate(hverts)
                                        if dot(f, hv) == 0))
        faces = {full: self.dim}
        frontier = [full]
        while frontier:
            new = []
            for g in frontier:
                for s in facet_sets:
                    h = g & s
                    if h and h != g and h not in faces:
                        faces[h] = self._affine_dim(h)
                        new.append(h)
            frontier = new
        self._faces = faces
        return faces

    def _affine_dim(self, vset):
        idx = sorted(vset)
        if len(idx) == 1:
            return 0
        base = self.vertices[idx[0]]
        rows = [clear_denominators(tuple(a - b for a, b in
                                         zip(self.vertices[i], base)))
                for i in idx[1:]]
        rows = [r for r in rows if any(r)]
        if not rows:
            return 0
        return row_rank(rows)

    def faces_of_dim(self, k):
        return sorted(f for f, d in self.face_sets().items() if d == k)

    def facet_vertex_sets(self):
        return self.faces_of_dim(self.dim - 1) if self.dim > 0 else []

    def face_polytope(self, vset):
        """Canonical sub-polytope spanned by a face's vertices."""
        pts = [self.vertices[i] for i in sorted(vset)]
        return convex_hull(pts, self.role, self.ambient)

    def face_keys(self, proper=False):
        """The set of ``face_polytope(fs).key()`` over all faces (only the
        proper ones when `proper`), without building a hull: a face's
        vertices are exactly the polytope's vertices it contains."""
        return {(self.role, tuple(self.vertices[i] for i in sorted(fs)))
                for fs, d in self.face_sets().items()
                if not proper or d < self.dim}

    def proper_face_polytopes(self):
        out = []
        for vset, d in sorted(self.face_sets().items(),
                              key=lambda t: (t[1], sorted(t[0]))):
            if d < self.dim:
                out.append(self.face_polytope(vset))
        return out

    # -- lattice ---------------------------------------------------------------

    def lattice_points(self):
        """All integer points, in lexicographic order (bounding-box scan)."""
        if self._lattice_points is not None:
            return self._lattice_points
        lo = [min(v[i] for v in self.vertices) for i in range(self.ambient)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.ambient)]
        ranges = [range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]
        pts = []
        for cand in product(*ranges):
            hx = (1,) + cand
            if all(dot(e, hx) == 0 for e in self.equations) and \
               all(dot(f, hx) >= 0 for f in self.facets):
                pts.append(cand)
        self._lattice_points = tuple(pts)
        return self._lattice_points

    def is_lattice_polytope(self):
        return all(is_integral(v) for v in self.vertices)

    # -- charts and volume ------------------------------------------------------

    def chart(self):
        """Integer lattice chart of the affine hull."""
        if self._chart is None:
            self._chart = LatticeChart(self.vertices[0],
                                       self.directions_basis(),
                                       self.equations)
        return self._chart

    def directions_basis(self):
        base = self.vertices[0]
        dirs = [clear_denominators(tuple(a - b for a, b in zip(v, base)))
                for v in self.vertices[1:]]
        dirs = [d for d in dirs if any(d)]
        if not dirs:
            return ()
        return saturated_span_basis(dirs, self.ambient)

    def triangulation(self):
        """Pulling triangulation; simplices as tuples of vertex indices."""
        if self._triangulation is not None:
            return self._triangulation
        faces = self.face_sets()
        memo = {}

        def tri(face):
            if face in memo:
                return memo[face]
            if len(face) == 1:
                memo[face] = (tuple(face),)
                return memo[face]
            apex = min(face)
            dim = faces[face]
            subs = [g for g, dg in faces.items()
                    if dg == dim - 1 and g < face and apex not in g]
            out = []
            for g in sorted(subs, key=sorted):
                for s in tri(g):
                    out.append(s + (apex,))
            memo[face] = tuple(out)
            return memo[face]

        full = frozenset(range(len(self.vertices)))
        self._triangulation = tri(full)
        return self._triangulation

    def volume_in_chart(self, chart):
        """Exact dim-volume measured in the given chart's lattice basis."""
        if self.dim == 0:
            return Fraction(0)
        # Integer coordinates scaled by q: each simplex determinant is
        # q^dim times the one in the chart's own coordinates.
        coords, q = chart.scaled_coordinates(self.vertices)
        total = 0
        for simplex in self.triangulation():
            base = coords[simplex[0]]
            total += abs(det([tuple(a - b for a, b in zip(coords[i], base))
                              for i in simplex[1:]]))
        return Fraction(total, q ** self.dim * factorial(self.dim))

    def lattice_volume(self):
        """Volume normalized so a unimodular simplex has volume 1/dim!."""
        return self.volume_in_chart(self.chart())

    def validate(self):
        """Internal consistency: raises GeometryError on violation."""
        for v in self.vertices:
            hv = (1,) + v
            if any(dot(e, hv) != 0 for e in self.equations):
                raise GeometryError("vertex violates an equation")
            if any(dot(f, hv) < 0 for f in self.facets):
                raise GeometryError("vertex violates a facet inequality")
        if self.dim != self.ambient - len(self.equations):
            raise GeometryError("dimension does not match equation count")
        for f in self.facets:
            tight = [v for v in self.vertices if dot(f, (1,) + v) == 0]
            if not tight:
                raise GeometryError("facet not tight anywhere")
            rows = [clear_denominators(tuple(a - b for a, b in zip(v, tight[0])))
                    for v in tight[1:]]
            rows = [r for r in rows if any(r)]
            got = row_rank(rows) if rows else 0
            if got != self.dim - 1:
                raise GeometryError("facet tight set has wrong dimension")


class LatticeChart:
    """Integer coordinates on an affine subspace, adapted to its lattice.

    A point p of the subspace has the coordinates L (p - anchor) in the
    saturated lattice basis B of the subspace's directions, where L is the
    integer left inverse of B (L B^T = I).  A point is on the chart when
    it satisfies the homogeneous equation rows (c, u): c + u.p = 0.
    """

    __slots__ = ("anchor", "basis", "equations", "inverse")

    def __init__(self, anchor, basis, equations):
        self.anchor = as_fractions(anchor)
        self.basis = tuple(tuple(b) for b in basis)
        self.equations = tuple(equations)
        self.inverse = lattice_left_inverse(self.basis, len(self.anchor)) \
            if self.basis else ()

    @property
    def dim(self):
        return len(self.basis)

    def scaled_coordinates(self, points):
        """(rows, q): q > 0 is the lcm of the denominators of the points and
        the anchor, and each row is q times a point's chart coordinates, in
        integers.  Raises GeometryError for a point off the chart."""
        points = [as_fractions(p) for p in points]
        q = denominator_lcm(chain(self.anchor, *points))
        anchor = to_numerators(self.anchor, q)
        rows = []
        for p in points:
            hp = (q,) + to_numerators(p, q)
            if any(dot(e, hp) for e in self.equations):
                raise GeometryError("point is off the chart")
            diff = tuple(a - b for a, b in zip(hp[1:], anchor))
            rows.append(tuple(dot(row, diff) for row in self.inverse))
        return rows, q

    def to_chart(self, point):
        (row,), q = self.scaled_coordinates([point])
        return from_numerators(row, q)


# -- constructions ------------------------------------------------------------


# (role, ambient, points) -> the live hull of those points, under both the
# sorted distinct input points and the hull's own vertices.  Every field of a
# hull is a function of its vertices (equations are HNF-canonical, facets
# primitive and sorted), so any two hulls with one key are interchangeable.
# The table is weak: it holds only hulls that are alive anyway.
_HULLS = WeakValueDictionary()


def convex_hull(points, role, ambient=None):
    """Canonical hull of a nonempty point set (exact, any dimension).

    Returns the one live :class:`Polytope` for this hull: permuting,
    repeating or adding non-vertex points gives back the same object.
    """
    pts = tuple(sorted({as_fractions(p) for p in points}))
    if not pts:
        raise GeometryError("empty point set")
    if ambient is None:
        ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise GeometryError("points of mixed dimension")
    key = (role, ambient, pts)
    hull = _HULLS.get(key)
    if hull is None:
        gens = [clear_denominators((1,) + p) for p in pts]
        eqs, rays = cone_rays(gens, ambient + 1)
        facets = _canonical_facets(rays, eqs, gens)
        vertices = _extreme_points(pts, facets)
        hull = _HULLS.setdefault(
            (role, ambient, vertices),
            Polytope(ambient, role, vertices, eqs, facets, ambient - len(eqs)))
        _HULLS[key] = hull
    return hull


def _canonical_facets(rays, eqs, gens):
    # An extreme ray of the dual cone is a genuine facet exactly when it is
    # tight on some generator; otherwise it cuts out the empty face.
    out = set()
    for r in rays:
        if any(dot(r, g) == 0 for g in gens):
            out.add(_reduce_mod_equations(r, eqs))
    return tuple(sorted(out))


def _reduce_mod_equations(row, eqs):
    """Reduce a homogeneous row modulo the equation rows; positive primitive."""
    if not eqs:
        return primitive(row)
    work = list(row)
    for e in eqs:
        piv = next(j for j, x in enumerate(e) if x)
        f = work[piv]
        if f:
            # work - (f / p) e, scaled by |p| > 0 so the side is kept.
            p = e[piv]
            if p < 0:
                p, f = -p, -f
            work = [p * w - f * x for w, x in zip(work, e)]
    return primitive(work)


def _extreme_points(pts, facets):
    """The vertices among the distinct sorted points of a hull with these
    facets.

    A point is a vertex iff no other point is tight on every facet it is
    tight on: otherwise the smallest face containing it has positive
    dimension and so holds a second point.
    """
    masks = []
    for p in pts:
        hp = (1,) + p
        masks.append(sum(1 << k for k, f in enumerate(facets)
                         if dot(f, hp) == 0))
    return tuple(p for i, (p, m) in enumerate(zip(pts, masks))
                 if not any(o & m == m for k, o in enumerate(masks) if k != i))


def polyhedron_generators(eq_rows, ineq_rows, ambient):
    """Solve a homogeneous H-system: returns (vertices, rays, lineality).

    The equations are solved before the double description: with K the
    saturated integer kernel basis of the equation rows, every solution is
    y K, the inequality rows restrict to rows a K^T on y, and the cone is
    computed in those len(K) coordinates.  Rays are lifted by K and reduced
    modulo the lifted lineality to the representative that vanishes on its
    HNF pivot columns.  An empty K means that only 0 solves the equations.
    """
    rows = [(1,) + (0,) * ambient]
    rows.extend(clear_denominators(r) for r in ineq_rows)
    eqs = [e for e in (clear_denominators(e) for e in eq_rows) if any(e)]
    if eqs:
        basis = kernel_basis(eqs, ambient + 1)
        if not basis:
            return (), (), ()
        cols = tuple(zip(*basis))
        lin, qrays = cone_rays([tuple(dot(r, b) for b in basis) for r in rows],
                               len(basis))
        lin = hermite_normal_form([tuple(dot(l, c) for c in cols)
                                   for l in lin])
        # The lift of a primitive ray by a saturated basis is primitive; the
        # reduction rescales it and makes it primitive again.
        rays = [_reduce_mod_equations(tuple(dot(q, c) for c in cols), lin)
                for q in qrays]
    else:
        lin, rays = cone_rays(rows, ambient + 1)
    vertices = []
    rec = []
    for r in rays:
        if r[0] > 0:
            vertices.append(from_numerators(r[1:], r[0]))
        elif r[0] == 0:
            rec.append(r[1:])
        else:
            raise GeometryError("homogenization produced a negative-height ray")
    lineality = tuple(l[1:] for l in lin)
    return tuple(sorted(vertices)), tuple(sorted(rec)), lineality


def polytope_from_hrep(eq_rows, ineq_rows, role, ambient):
    """Bounded polytope from a homogeneous H-description (may be redundant)."""
    vertices, rays, lineality = polyhedron_generators(eq_rows, ineq_rows, ambient)
    if rays or any(any(l) for l in lineality):
        raise GeometryError("H-description is unbounded")
    if not vertices:
        return None
    return convex_hull(vertices, role, ambient)


def intersect(p, q):
    """Intersection of two polytopes (None when empty)."""
    if p.ambient != q.ambient or p.role != q.role:
        raise GeometryError("incompatible polytopes")
    eqs = list(p.equations) + list(q.equations)
    ineqs = list(p.facets) + list(q.facets)
    return polytope_from_hrep(eqs, ineqs, p.role, p.ambient)


def polar_dual(p):
    """The polar {y : <x,y> <= 1 for all x in P}; requires 0 interior."""
    if p.equations:
        raise GeometryError("polar undefined")
    if any(f[0] <= 0 for f in p.facets):
        raise GeometryError("polar undefined")
    vertices = sorted(tuple(exact(Fraction(-u, f[0])) for u in f[1:])
                      for f in p.facets)
    facets = tuple(sorted(clear_denominators((1,) + tuple(-x for x in v))
                          for v in p.vertices))
    return Polytope(p.ambient, opposite_role(p.role), tuple(vertices), (),
                    facets, p.ambient)


def is_reflexive(p):
    """Lattice polytope with 0 interior whose polar is again a lattice polytope."""
    if p.equations or not p.contains((0,) * p.ambient):
        return False
    if not p.interior_contains((0,) * p.ambient):
        return False
    if not p.is_lattice_polytope():
        return False
    return polar_dual(p).is_lattice_polytope()


def minkowski_sum(p, q):
    if p.ambient != q.ambient:
        raise GeometryError("ambient dimension mismatch")
    if p.role != q.role:
        raise GeometryError("role mismatch")
    sums = {tuple(a + b for a, b in zip(v, w))
            for v in p.vertices for w in q.vertices}
    return convex_hull(sums, p.role, p.ambient)


def minkowski_sum_all(polys):
    out = polys[0]
    for q in polys[1:]:
        out = minkowski_sum(out, q)
    return out


def dilate(p, k):
    """Scale by a positive rational factor."""
    k = Fraction(k)
    if k <= 0:
        raise GeometryError("dilation factor must be positive")
    verts = tuple(sorted(as_fractions(k * x for x in v) for v in p.vertices))
    eqs = tuple(sorted(clear_denominators((k * e[0],) + e[1:])
                       for e in p.equations))
    facets = tuple(sorted(clear_denominators((k * f[0],) + f[1:])
                          for f in p.facets))
    return Polytope(p.ambient, p.role, verts, eqs, facets, p.dim)


class Polyhedron:
    """Possibly unbounded polyhedron kept as generators plus its H-system."""

    __slots__ = ("ambient", "role", "vertices", "rays", "lineality",
                 "eq_rows", "ineq_rows")

    def __init__(self, ambient, role, vertices, rays, lineality,
                 eq_rows, ineq_rows):
        self.ambient = ambient
        self.role = role
        self.vertices = vertices
        self.rays = rays
        self.lineality = lineality
        self.eq_rows = eq_rows
        self.ineq_rows = ineq_rows

    @classmethod
    def from_hrep(cls, eq_rows, ineq_rows, role, ambient):
        vertices, rays, lineality = polyhedron_generators(eq_rows, ineq_rows,
                                                          ambient)
        # Row (1, 0, ..., 0) keeps the lineality in x_0 = 0, so a nonempty
        # polyhedron always has a generator of positive height.
        if not vertices:
            return None
        return cls(ambient, role, vertices, rays, lineality,
                   tuple(tuple(e) for e in eq_rows),
                   tuple(tuple(r) for r in ineq_rows))

    def key(self):
        return (self.role, self.vertices, self.rays, self.lineality)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"Polyhedron(dim={self.dim()}, verts={len(self.vertices)}, "
                f"rays={len(self.rays)}, lin={len(self.lineality)})")

    def is_bounded(self):
        return not self.rays and not self.lineality

    def dim(self):
        base = self.vertices[0]
        rows = [clear_denominators(tuple(a - b for a, b in zip(v, base)))
                for v in self.vertices[1:]]
        rows += [tuple(r) for r in self.rays]
        rows += [tuple(l) for l in self.lineality]
        rows = [r for r in rows if any(r)]
        return row_rank(rows) if rows else 0

    def contains(self, point):
        hx = (1,) + as_fractions(point)
        return (all(dot(e, hx) == 0 for e in self.eq_rows)
                and all(dot(f, hx) >= 0 for f in self.ineq_rows))

