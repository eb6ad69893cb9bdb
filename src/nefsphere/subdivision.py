"""Regular central subdivisions induced by weight functions.

Lifting the lattice points of a polytope by a weight and projecting the lower
hull gives a regular subdivision.  The points are lifted from the polytope's
free coordinates, since any affine bijection of its affine hull gives the
same subdivision.  For the weights used here every maximal cell must contain
the origin (centrality) and in fact be a pyramid with apex 0 over a unique
boundary face; the boundary faces and all their faces form the boundary
subdivision (side tag S or T).
"""

from fractions import Fraction

from .linalg import clear_denominators, dot, exact
from .polytope import (
    GeometryError,
    _polytope_from_rows,
    as_fractions,
    bits,
    convex_hull,
    is_integral,
    point_ray,
)


class WeightFunction:
    """Rational weights on the lattice points of a support polytope.

    Values are normalized so the origin gets weight 0 (a global constant
    shift changes nothing downstream).
    """

    def __init__(self, support, table, preset=None):
        self.support = support
        origin = (0,) * support.ambient
        table = {as_fractions(pt): Fraction(val) for pt, val in table.items()}
        off = next((pt for pt in table if not is_integral(pt)), None)
        if off is not None:
            raise GeometryError(f"weight table point {_point_str(off)} "
                                "is not a lattice point")
        missing = [pt for pt in support.lattice_points() if pt not in table]
        if missing:
            raise GeometryError(
                f"weight function undefined on {len(missing)} lattice points")
        shift = table.get(origin, Fraction(0))
        self.values = {pt: exact(val - shift) for pt, val in table.items()}
        self.preset = preset

    @classmethod
    def all_ones(cls, support):
        origin = (0,) * support.ambient
        table = {pt: Fraction(0 if pt == origin else 1)
                 for pt in support.lattice_points()}
        return cls(support, table, preset="all_ones")

    @classmethod
    def from_pairs(cls, support, pairs):
        table = {}
        for pt, v in pairs:
            pt = as_fractions(pt)
            if pt in table:
                raise GeometryError(
                    f"weight table lists the point {_point_str(pt)} twice")
            table[pt] = Fraction(v)
        return cls(support, table)

    def __call__(self, point):
        return self.values[as_fractions(point)]

    def restrict(self, subsupport):
        """The same weights on a subpolytope's lattice points."""
        table = {pt: self.values[pt] for pt in subsupport.lattice_points()}
        return WeightFunction(subsupport, table, preset=self.preset)


def _point_str(pt):
    return "[" + ", ".join(str(c) for c in pt) + "]"


class ConedSubdivision:
    """The regular subdivision of a support polytope by a weight function."""

    def __init__(self, support, weight, maximal_cells, marked):
        self.support = support
        self.weight = weight
        self.maximal_cells = tuple(sorted(maximal_cells))
        self.marked = marked  # cell -> tuple of lattice points on the lower hull
        self._cells = None
        self._holders = {}  # vertex -> mask of the maximal cells holding it
        for k, d in enumerate(self.maximal_cells):
            for v in d.vertices:
                self._holders[v] = self._holders.get(v, 0) | 1 << k

    def cells(self):
        """All cells (faces of maximal cells), sorted by key."""
        if self._cells is None:
            self._cells = _face_closure(self.maximal_cells)[0]
        return self._cells

    def star(self, cell):
        """The bitmask over `maximal_cells` of the maximal cells holding
        the cell, the AND of its vertices' holder masks; GeometryError when
        it is 0."""
        star = -1
        for v in cell.vertices:
            star &= self._holders.get(v, 0)
        if not star:
            raise GeometryError("not a cell of the subdivision")
        return star

    def is_central(self):
        origin = (0,) * self.support.ambient
        return all(c.contains(origin) for c in self.maximal_cells)


def _face_closure(maximal_cells):
    """(cells, masks): the cells and all their faces, sorted by key, and
    their vertex-id masks.  A vertex is numbered when the walk over the
    maximal cells' faces first meets it; a face is keyed by its mask, and
    built only the first time that mask appears."""
    ids = {}
    by_mask = {}
    for c in maximal_cells:
        bit = [1 << ids.setdefault(v, len(ids)) for v in c.vertices]
        for g, d in c.faces().items():
            mask = sum(bit[i] for i in bits(g))
            if mask not in by_mask:
                by_mask[mask] = c if d == c.dim else c.face_polytope(g, d)
    order = sorted(by_mask, key=lambda mask: by_mask[mask].key())
    return tuple(by_mask[mask] for mask in order), tuple(order)


def lower_hull_subdivision(support, weight):
    """Project the lower hull of the lifted lattice points of the support.

    Works for supports of any dimension k: each point is lifted as its
    projection onto the support's free coordinates
    (:meth:`polytope.Polytope.free_coordinates`), one to one on the affine
    hull, and its weight, so the lifted hull has dimension k + 1 (k for an
    affine weight), and cells come back in ambient coordinates with their
    marked lattice points, read on the lifts' integer rays.  An affine
    bijection of the affine hull leaves the regular subdivision as it is
    (De Loera-Rambau-Santos, Triangulations, 2010, 2.3).  That hull is the
    one double description; each maximal cell is read from it.  A lower
    facet F (height coefficient f_h > 0) projects one to one onto the cell,
    whose vertices are the points whose lifts are hull vertices on F.
    Every facet of the cell is the projection of a ridge F & G, G another
    hull facet, so G holds at least k vertices of F.  On F the height is
    -(f_0 + f_u.t) / f_h, so the row f_h G - g_h F has no height term, is
    f_h times G on the cell, hence valid there, and is tight exactly on the
    projection of F & G.  An affine weight lifts to a hull of dimension k,
    the one cell: its equation, oriented so its height entry is positive,
    takes F's place.  A row on the free coordinates holds on the support's
    affine hull as the ambient row with 0 on the other coordinates, and the
    cell is read from those rows (:func:`polytope._polytope_from_rows`),
    field for field the hull of its vertices.
    """
    pts = support.lattice_points()
    if not pts:
        raise GeometryError("support has no lattice points")
    free = support.free_coordinates()
    k = len(free)
    point_of = {tuple(pt[i] for i in free) + (weight(pt),): pt for pt in pts}
    hull = convex_hull(point_of, support.role, k + 1)
    masks = hull.facet_masks()
    if hull.equations:  # an affine weight: the trivial subdivision
        (e,) = hull.equations
        lower = [(e if e[-1] > 0 else tuple(-a for a in e),
                  (1 << len(hull.vertices)) - 1)]
    else:
        lower = [(f, m) for f, m in zip(hull.facets, masks) if f[-1] > 0]
    rows = [_ambient_row(g, free, support.ambient) for g in hull.facets]
    lifts = [(point_ray(lp), pt) for lp, pt in point_of.items()]
    maximal = []
    marked = {}
    for f, mask in lower:
        row = _ambient_row(f, free, support.ambient)
        on = sorted((point_of[hull.vertices[i]], i) for i in bits(mask))
        verts = tuple(pt for pt, _ in on)
        bit = {i: 1 << n for n, (_, i) in enumerate(on)}
        cuts, meets = [], []
        for other, g_mask in zip(rows, masks):
            common = g_mask & mask
            if common != mask and common.bit_count() >= k:
                cuts.append(tuple(row[-1] * a - other[-1] * b
                                  for a, b in zip(other[:-1], row[:-1])))
                meets.append(sum(bit[i] for i in bits(common)))
        cell = _polytope_from_rows(
            support.role, support.ambient, verts,
            [clear_denominators((1,) + v) for v in verts], support.equations,
            cuts, meets, (1 << len(verts)) - 1, k)
        maximal.append(cell)
        marked[cell] = tuple(sorted(pt for ray, pt in lifts
                                    if dot(f, ray) == 0))
    return ConedSubdivision(support, weight, maximal, marked)


def _ambient_row(row, free, ambient):
    """A row (c, u, h) on the free coordinates and a height as a row on
    ambient points and the height, 0 on the other coordinates."""
    u = [0] * ambient
    for i, a in zip(free, row[1:-1]):
        u[i] = a
    return (row[0],) + tuple(u) + (row[-1],)


class BoundarySubdivision:
    """The induced subdivision of the boundary of a central support:
    `cells` sorted by key, and their `vertex_masks` over one numbering of
    the complex's vertices (:func:`_face_closure`)."""

    def __init__(self, parent, side, maximal_cells):
        self.parent = parent
        self.side = side
        self.maximal_cells = tuple(sorted(maximal_cells))
        self.cells, self.vertex_masks = _face_closure(self.maximal_cells)
        self._coned = {}

    def coned(self, cell):
        """The cell F joined with the origin, read as a face of the lowest
        maximal coned cell holding F (:meth:`ConedSubdivision.star`): that
        is the pyramid with apex 0 over a boundary cell B, F is a face of
        B, so conv(0, F) is a pyramid face.  The apex lies off the affine
        hull of B, so the face has dimension dim F + 1."""
        if cell not in self._coned:
            parent = self.parent
            star = parent.star(cell)
            pyramid = parent.maximal_cells[(star & -star).bit_length() - 1]
            verts = set(cell.vertices) | {(0,) * cell.ambient}
            self._coned[cell] = pyramid.face_polytope(
                sum(1 << k for k, v in enumerate(pyramid.vertices)
                    if v in verts), cell.dim + 1)
        return self._coned[cell]

    def f_vector(self):
        counts = {}
        for c in self.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        return tuple(counts.get(k, 0) for k in range(max(counts) + 1))


def boundary_subdivision(subdivision):
    """Extract the boundary subdivision from a central coned subdivision.

    Every maximal cell must be central and in fact a pyramid with apex 0
    over a single boundary face; otherwise the weight function (omega on
    side S, nu on side T) is rejected.
    """
    support = subdivision.support
    side = "S" if support.role == "M" else "T"
    weight = "omega" if side == "S" else "nu"
    if not subdivision.is_central():
        raise GeometryError(f"subdivision not central ({weight})")
    origin = (0,) * support.ambient
    boundary_cells = []
    for c in subdivision.maximal_cells:
        # A cell with the origin as a vertex whose other vertices form a
        # face B is the pyramid conv(B, 0): B misses 0, so dim B < dim c,
        # and c = conv(B + {0}) gives dim c <= dim B + 1.
        base = sum(1 << i for i, v in enumerate(c.vertices) if v != origin)
        if base == (1 << len(c.vertices)) - 1 or not c.is_face(base):
            raise GeometryError("subdivision is not a cone with apex 0 over "
                                f"the boundary ({weight})")
        boundary_cells.append(c.face_polytope(base))
    return BoundarySubdivision(subdivision, side, boundary_cells)
