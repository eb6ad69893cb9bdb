"""Exact rational polytopes in both vertex and facet representation.

Coordinates are exact rationals in canonical form (:func:`linalg.exact`): an
int when integral, a Fraction only when not, never a float.  On lattice
input nearly all arithmetic therefore stays in Python ints.

Hulls are interned: while a polytope is alive, :func:`convex_hull` returns
that one canonical object for every point list with the same role, ambient
space and hull, so its lazily built face lattice, lattice points,
triangulation and, for a face, H-representation are computed once per run.
:func:`polar_dual` returns through the same table.

Polytopes carry a role tag:  'M' for the functional side (where the partition
parts Delta^(i) live) and 'N' for the vector side (the nabla side).  Pairings
are only defined across roles.  All hyperplane data is stored in homogeneous
integer form: a row (c, u_1, ..., u_d) means c + u.x >= 0 (inequality) or
c + u.x = 0 (equation).

Each polytope costs at most one double description (:func:`dd.cone_rays`).
V->H (:func:`convex_hull`) homogenizes the points.  H->V
(:func:`polyhedron_generators`) first solves the equations over the integers
and runs the double description on the inequalities restricted to the
saturated kernel lattice of the equation rows, so a low-dimensional slice or
intersection is computed in its own dimension.  A bounded H->V result
(:func:`polytope_from_hrep`) then reads its facets from its own input rows,
with no V->H hull of the vertices it has just computed.

Faces of a known polytope take neither route.  Every method names a face
by its vertex bitmask, bit i for vertex i.  The face lattice is the
closure of the facet incidence masks under intersection, and a face's
dimension is its grade in that lattice (0 for a vertex, else one more than
its largest strict subface), so no rank is computed.  A face's polytope
(:meth:`Polytope.face_polytope`) is cut from the parent's facet rows.

Both shortcuts share one rule (:func:`_hrep_from_rows`): the equations are
the saturated kernel of the homogenized vertices, and the facets are the
given rows whose tight sets are the inclusion-maximal proper ones, one row
per facet, reduced modulo those equations.  That is field for field the
polytope :func:`convex_hull` would build, and it is interned under the same
key.  A face whose dimension is already known (its grade, or a cell's
dimension plus one for a cone over it) keeps its vertices, the parent's
equations, the parent's facet rows and their tight masks on the face, and
runs the rule the first time ``equations`` or ``facets`` is read.  Until
then it reads membership from those rows: a face F of P is the meet of P
with the facets of P that hold F, so x lies in F iff it lies in P and every
parent row tight on all of F vanishes at x.  A face never asked for its
H-representation costs no kernel.  Any other polytope runs it at once.

A Minkowski sum is built by :func:`minkowski_sum` as the V->H hull of every
sum of vertices, but a claimed sum p is checked with no hull at all
(:func:`is_minkowski_sum`).  The support function of a sum is the sum of
the summands' support functions, so the sum lies in p iff p's equations
hold at the summed minima and maxima and its facet rows at the summed
minima; and p lies in the sum iff, for each vertex w, the summed minima of
g_w (the sum of the normals of the facets tight at w, which p attains only
at w) equal g_w.w.

Volumes are compared, never reported, so they are measured with no lattice
basis.  A polytope's free coordinates are those that are not pivots of an
echelon of its equation rows' direction parts; projecting onto them is one
to one on its affine hull, an affine bijection, so it scales every volume
inside that hull by one common factor (:meth:`Polytope.volume_in`).
"""

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
    echelon,
    exact,
    from_numerators,
    hermite_normal_form,
    kernel_basis,
    leading_column,
    reduce_row,
    row_rank,
    to_numerators,
)

ROLE_M = "M"
ROLE_N = "N"


def opposite_role(role):
    return ROLE_N if role == ROLE_M else ROLE_M


class Vector:
    """A point of (R^d)* (role M) or R^d (role N): an immutable value, equal
    to a Vector with the same coordinates and role."""

    __slots__ = ("coords", "role")

    def __init__(self, coords, role):
        object.__setattr__(self, "coords", as_fractions(coords))
        object.__setattr__(self, "role", role)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and self.role == other.role

    def __hash__(self):
        return hash((self.coords, self.role))

    def __repr__(self):
        return f"Vector(coords={self.coords!r}, role={self.role!r})"

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


def point_ray(point):
    """The point x as the primitive integer ray of (1, x).

    The ray is a positive multiple of (1, x), so every homogeneous row has
    the same sign on both: membership is read from integer dot products
    with the integer rows (:func:`_satisfies`), with no Fraction.
    """
    return clear_denominators((1,) + as_fractions(point))


def _satisfies(equations, inequalities, ray, least=0):
    """Whether a homogeneous ray is tight on every equation row and at
    least `least` on every inequality row: the one membership test of
    :class:`Polytope` and :class:`Polyhedron`.  On an integer ray and
    integer rows, ``least=1`` is the strict test of the relative
    interior."""
    return (all(dot(e, ray) == 0 for e in equations)
            and all(dot(f, ray) >= least for f in inequalities))


def is_integral(point):
    return all(type(x) is int for x in as_fractions(point))


class GeometryError(ValueError):
    pass


def bits(mask):
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Polytope:
    """Bounded convex polytope with canonical V- and H-representations.

    Values are immutable after construction (face lattices, lattice points,
    triangulations and a face's H-representation are cached lazily but
    idempotently), so independent computations can safely share polytopes;
    :func:`convex_hull` hands out one live object per hull.  Given `rows`,
    the homogenized vertices, equation rows, inequality rows, tight masks
    and full mask of :func:`_polytope_from_rows`, ``equations`` and
    ``facets`` are left unset until first read.
    """

    __slots__ = ("ambient", "role", "vertices", "equations", "facets", "dim",
                 "_rows", "_hverts", "_faces", "_tight", "_lattice_points",
                 "_triangulation", "__weakref__")

    def __init__(self, ambient, role, vertices, equations, facets, dim,
                 rows=None):
        self.ambient = ambient
        self.role = role
        self.vertices = vertices
        if rows is None:
            self.equations = equations
            self.facets = facets
        self._rows = rows
        self._hverts = None if rows is None else rows[0]
        self.dim = dim
        self._faces = None
        self._tight = None
        self._lattice_points = None
        self._triangulation = None

    def __getattr__(self, name):
        # Reached only for unset slots: a face built with its dimension
        # known reads its H-representation from `_rows` on first use.
        if name not in ("equations", "facets") or self._rows is None:
            raise AttributeError(name)
        hverts, _, rows, meets, full = self._rows
        self.equations, self.facets = _hrep_from_rows(self.ambient, hverts,
                                                      rows, meets, full)
        self._rows = None
        return getattr(self, name)

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
        return self.contains_ray(point_ray(point))

    def contains_ray(self, ray):
        """Membership of the point whose :func:`point_ray` is `ray`.

        A face whose rows are not yet read answers from its parent's rows:
        a face F of P is the meet of P with the facets of P that hold F, so
        x lies in F iff it lies in P and every parent facet row tight on
        all of F vanishes at x.
        """
        if self._rows is None:
            return _satisfies(self.equations, self.facets, ray)
        _, eqs, rows, meets, full = self._rows
        return _satisfies(
            chain(eqs, (f for f, m in zip(rows, meets) if m == full)),
            rows, ray)

    def interior_contains(self, point):
        """Relative-interior membership: every facet row is positive, so at
        least 1, on the point's integer ray."""
        return _satisfies(self.equations, self.facets, point_ray(point), 1)

    # -- faces ---------------------------------------------------------------

    def faces(self):
        """All nonempty faces as vertex bitmasks, with dims: {mask: dim}.

        Faces are generated by closing the facet incidence masks under
        intersection, which is exact for polytopes.  Dimensions are read off
        the grading of the lattice: a vertex has dimension 0, and any other
        face is one more than its largest strict subface.  The facets of a
        face g are among its meets g & s with the facet masks s, so that
        maximum runs over those meets.
        """
        if self._faces is not None:
            return self._faces
        tight = self.facet_masks()
        full = (1 << len(self.vertices)) - 1
        faces, seen = [full], {full}
        for g in faces:  # breadth-first: the list grows while it is read
            for s in tight:
                h = g & s
                if h and h not in seen:
                    seen.add(h)
                    faces.append(h)
        dims = {}
        # Every strict subface has fewer vertices, so it is graded first.
        for g in sorted(faces, key=int.bit_count):
            dims[g] = 1 + max((dims[g & s] for s in tight
                               if g & s and g & s != g), default=-1)
        if dims[full] != self.dim:
            raise GeometryError("face lattice grade differs from the dimension")
        self._faces = dims
        return dims

    def homogenized_vertices(self):
        """The vertices' :func:`point_ray` rows, in vertex order, computed
        once: a face slices them (:meth:`face_polytope`)."""
        if self._hverts is None:
            self._hverts = tuple(clear_denominators((1,) + v)
                                 for v in self.vertices)
        return self._hverts

    def facet_masks(self):
        """Per facet row, the bitmask of the vertices tight on it."""
        if self._tight is None:
            hverts = self.homogenized_vertices()
            self._tight = tuple(
                sum(1 << i for i, hv in enumerate(hverts) if dot(f, hv) == 0)
                for f in self.facets)
        return self._tight

    def is_face(self, mask):
        """Whether the vertex bitmask `mask` is a face: nonzero and equal to
        the meet of the facet masks containing it."""
        closure = (1 << len(self.vertices)) - 1
        for m in self.facet_masks():
            if m & mask == mask:
                closure &= m
        return mask != 0 and closure == mask

    def face_polytope(self, mask, dim=None):
        """Canonical sub-polytope of the face with vertex bitmask `mask`.

        Read from this polytope's facet rows, with no double description
        (:func:`_polytope_from_rows`): every facet of a face F is a face
        F & G of the parent, so it is the meet of F with a parent facet
        row.  Given the face's dimension `dim`, the rows are read on first
        use of its H-representation.  Raises GeometryError when `mask` is
        not a face (:meth:`is_face`).
        """
        verts = tuple(self.vertices[i] for i in bits(mask))
        key = (self.role, self.ambient, verts)
        face = _HULLS.get(key)
        if face is not None:
            return face
        if not self.is_face(mask):
            raise GeometryError("vertex set is not a face")
        hverts = self.homogenized_vertices()
        return _polytope_from_rows(
            self.role, self.ambient, verts, [hverts[i] for i in bits(mask)],
            self.equations, self.facets,
            [m & mask for m in self.facet_masks()], mask, dim)

    def face_keys(self):
        """The keys ``face_polytope(mask).key()`` of all faces, read with no
        hull: a face's vertices are the polytope's vertices it contains."""
        return {(self.role, tuple(self.vertices[i] for i in bits(g)))
                for g in self.faces()}

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

    def triangulation(self):
        """Pulling triangulation; simplices as tuples of vertex indices.
        A face is coned from its lowest vertex over its facets missing it,
        taken in the order of their ascending vertex lists."""
        if self._triangulation is not None:
            return self._triangulation
        faces = self.faces()
        memo = {}

        def tri(face):
            if face not in memo:
                low = face & -face
                dim = faces[face]
                subs = sorted((g for g, dg in faces.items() if dg == dim - 1
                               and g & face == g and not g & low), key=bits)
                apex = (low.bit_length() - 1,)
                memo[face] = tuple(s + apex for g in subs
                                   for s in tri(g)) or (apex,)
            return memo[face]

        self._triangulation = tri((1 << len(self.vertices)) - 1)
        return self._triangulation

    # -- volume ----------------------------------------------------------------

    def free_coordinates(self):
        """The coordinates that are not pivots of an echelon of the
        equation rows' direction parts (:func:`linalg.echelon`), ascending.
        On the affine hull the pivot coordinates are affine functions of
        these ``dim`` free ones, so projecting onto them is one to one there
        and scales every volume inside the hull by one common factor."""
        pivots = {c for c, _ in echelon([e[1:] for e in self.equations])[0]}
        return tuple(i for i in range(self.ambient) if i not in pivots)

    def volume_in(self, region):
        """Exact volume of the projection onto the free coordinates of
        `region` (:meth:`free_coordinates`).  Volumes of polytopes inside one
        region so compare as their lattice volumes do; a polytope of lower
        dimension than the region has volume 0.  Raises GeometryError for a
        vertex off the region's affine hull."""
        if any(dot(e, hv) for e in region.equations
               for hv in self.homogenized_vertices()):
            raise GeometryError("vertex off the region's affine hull")
        free = region.free_coordinates()
        if self.dim < len(free):
            return Fraction(0)
        # Integer coordinates scaled by q: each simplex determinant is
        # q^dim times the one of the projected vertices.
        q = denominator_lcm(chain(*self.vertices))
        coords = [to_numerators([v[i] for i in free], q)
                  for v in self.vertices]
        total = 0
        for simplex in self.triangulation():
            base = coords[simplex[0]]
            total += abs(det([tuple(a - b for a, b in zip(coords[i], base))
                              for i in simplex[1:]]))
        return Fraction(total, q ** self.dim * factorial(self.dim))


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
        vertices = tuple(pts[i] for i in _extreme_points(gens, facets))
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
    """Reduce a homogeneous row modulo the HNF equation rows, as a primitive
    row on the same side of every hyperplane (:func:`linalg.reduce_row`)."""
    return reduce_row(row, [(leading_column(e), e) for e in eqs])


def _extreme_points(rays, facets):
    """The indices of the vertices among the homogenized integer rays
    (:func:`point_ray`) of the distinct points of a hull with these facets.

    A point is a vertex iff no other point is tight on every facet it is
    tight on: otherwise the smallest face containing it has positive
    dimension and so holds a second point.
    """
    masks = [sum(1 << k for k, f in enumerate(facets) if dot(f, r) == 0)
             for r in rays]
    return [i for i, m in enumerate(masks)
            if not any(o & m == m for k, o in enumerate(masks) if k != i)]


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
    """Bounded polytope from a homogeneous H-description (may be redundant).

    The vertices come from :func:`polyhedron_generators`; the rest is read
    from the input's own inequality rows (:func:`_polytope_from_rows`), so
    no second double description runs.  Every facet of {E x = 0, A x >= 0}
    is the tight set of some row of A.
    """
    vertices, rays, lineality = polyhedron_generators(eq_rows, ineq_rows, ambient)
    if rays or any(any(l) for l in lineality):
        raise GeometryError("H-description is unbounded")
    if not vertices:
        return None
    hull = _HULLS.get((role, ambient, vertices))
    if hull is not None:
        return hull
    rows = [clear_denominators(r) for r in ineq_rows]
    hverts = [clear_denominators((1,) + v) for v in vertices]
    meets = [sum(1 << i for i, hv in enumerate(hverts) if dot(r, hv) == 0)
             for r in rows]
    return _polytope_from_rows(role, ambient, vertices, hverts, eq_rows, rows,
                               meets, (1 << len(vertices)) - 1)


def _polytope_from_rows(role, ambient, verts, hverts, eqs, rows, meets, full,
                        dim=None):
    """The canonical polytope on the vertices `verts` (homogenized and made
    primitive in `hverts`) whose facets are among the integer inequality
    `rows`, interned like :func:`convex_hull`.

    `eqs` are equation rows that hold on the polytope (for a face, the
    parent's), `meets` holds per inequality row the bitmask of the vertices
    tight on it and `full` the mask of all of them: the polytope is the
    solution set of `eqs`, `rows`, and the rows tight at every vertex as
    equations.  With `dim` given, all of them are kept, membership is read
    from them (:meth:`Polytope.contains_ray`), and :func:`_hrep_from_rows`
    reads them on first use of ``equations`` or ``facets``.  Otherwise it
    reads them now, and the dimension is the ambient one minus the number
    of equations.
    """
    if dim is None:
        equations, facets = _hrep_from_rows(ambient, hverts, rows, meets, full)
        poly = Polytope(ambient, role, verts, equations, facets,
                        ambient - len(equations))
    else:
        poly = Polytope(ambient, role, verts, None, None, dim,
                        (hverts, eqs, rows, meets, full))
    return _HULLS.setdefault((role, ambient, verts), poly)


def _hrep_from_rows(ambient, hverts, rows, meets, full):
    """(equations, facets) of :func:`_polytope_from_rows`' polytope.

    The equations are the saturated integer kernel of the homogenized
    vertices (the HNF lineality :func:`convex_hull` gets from
    :func:`dd.cone_rays`).  A row's tight set is a face; the facets are the
    inclusion-maximal proper ones, and the rows tight on one facet agree on
    the affine hull up to a positive factor, so one row per facet, reduced
    modulo the equations, gives the row the hull of the vertices has.
    """
    meets_set = set(meets) - {0, full}
    facet_meets = {h for h in meets_set
                   if not any(h != o and h & o == h for o in meets_set)}
    on_facet = {m: f for f, m in zip(rows, meets) if m in facet_meets}
    eqs = kernel_basis(hverts, ambient + 1)
    return eqs, tuple(sorted(_reduce_mod_equations(f, eqs)
                             for f in on_facet.values()))


def intersect(p, q):
    """Intersection of two polytopes (None when empty)."""
    if p.ambient != q.ambient or p.role != q.role:
        raise GeometryError("incompatible polytopes")
    eqs = list(p.equations) + list(q.equations)
    ineqs = list(p.facets) + list(q.facets)
    return polytope_from_hrep(eqs, ineqs, p.role, p.ambient)


def polar_dual(p):
    """The polar {y : <x,y> <= 1 for all x in P}; requires 0 interior.

    Interned like :func:`convex_hull`: the polar is full-dimensional with no
    equations, and its facets, one primitive row per vertex of P, are
    sorted, so it is field for field the hull of its vertices.
    """
    if p.equations:
        raise GeometryError("polar undefined")
    if any(f[0] <= 0 for f in p.facets):
        raise GeometryError("polar undefined")
    vertices = tuple(sorted(tuple(exact(Fraction(-u, f[0])) for u in f[1:])
                            for f in p.facets))
    facets = tuple(sorted(clear_denominators((1,) + tuple(-x for x in v))
                          for v in p.vertices))
    role = opposite_role(p.role)
    return _HULLS.setdefault(
        (role, p.ambient, vertices),
        Polytope(p.ambient, role, vertices, (), facets, p.ambient))


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


def is_minkowski_sum(p, summands):
    """Whether p is the Minkowski sum S of the polytopes `summands`, decided
    from support functions, with no hull of the sums.

    The minimum of a linear form g over S is the sum of its minima over the
    summands, attained at the sum of their minimizers.  S lies in p iff at
    those summed minima and maxima every equation of p holds with equality
    and at the summed minima every facet row of p holds.  Then p lies in S
    iff every vertex w of p does: with g_w the sum of the normals of the
    facets tight at w, w is the unique minimizer of g_w over p (it is the
    face where all those facets are tight), so S, inside p, reaches the
    value g_w.w only at w.
    """
    for q in summands:
        if q.ambient != p.ambient or q.role != p.role:
            raise GeometryError("incompatible polytopes")

    def summed_min(u):
        return sum(min(dot(u, v) for v in q.vertices) for q in summands)

    def summed_max(u):
        return sum(max(dot(u, v) for v in q.vertices) for q in summands)

    for e in p.equations:
        u = e[1:]
        if e[0] + summed_min(u) != 0 or e[0] + summed_max(u) != 0:
            return False
    if any(f[0] + summed_min(f[1:]) < 0 for f in p.facets):
        return False
    masks = p.facet_masks()
    for k, w in enumerate(p.vertices):
        g = [0] * p.ambient
        for f, m in zip(p.facets, masks):
            if m >> k & 1:
                g = [a + b for a, b in zip(g, f[1:])]
        if summed_min(g) != dot(g, w):
            return False
    return True


def dilate(p, k):
    """Scale by a positive rational factor."""
    k = exact(k)
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
        # Bounded, its first two entries are its vertices' Polytope.key.
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
        rows = [tuple(a - b for a, b in zip(v, base)) for v in self.vertices[1:]]
        return row_rank(rows + list(self.rays) + list(self.lineality))

    def contains(self, point):
        return self.contains_ray(point_ray(point))

    def contains_ray(self, ray):
        """Membership of the point whose :func:`point_ray` is `ray`."""
        return _satisfies(self.eq_rows, self.ineq_rows, ray)

