"""The sphere complex: transversal cells, adjoint pairs, and homology.

Cells of the boundary subdivision are sliced by the partition parts; the
transversal ones (every slice nonempty) form an upper set P.  Their
Minkowski cells tile part of the boundary of the sum polytope, and products
of adjoint pairs of cells assemble into the sphere complex Sigma.

Every order is kept as bitmasks: cells carry masks over one numbering of
their complex's vertices, so faces are subset tests, and the posets and
Sigma store the masks of the elements above and below each element.
Sigma's facet lists are read from those masks once, and its topology from
them, on its own cells, not from the chains of its barycentric subdivision:
one pass signs every facet (:func:`homology.facet_signs`), the homology of
Sigma and of a subcomplex (the smooth cells, say) is cellular at those
signs (:meth:`SigmaComplex.homology`), and for a face poset graded by
dimension the pseudomanifold conditions on the order complex are conditions
on cells and their facets, the in-cell ones certified by that pass
(:func:`is_closed_pseudomanifold`).

Slices are read as faces, with no intersection.  Let psi_j be the support
function of the other side's part j, psi_j(v) = max <v, x> over that part,
and delta_ij the Kronecker delta.  The slice lemma: if

  (i)   psi_j(a) <= delta_ij at every vertex a of part i, and 0 lies in
        every part of both sides (so psi_j >= 0);
  (ii)  sum_j psi_j(v) = 1 at every vertex v of the cell;
  (iii) for each j one vertex of other-side part j attains psi_j at every
        vertex of the cell, so psi_j is affine on the cell;
  (iv)  every cell vertex v with psi_i(v) = 1 lies in part i;

then the cell's slice by part i is the face on the vertices v with
psi_i(v) = 1, and is empty when there are none.  Proof: take x in
cell & part_i, x = sum lambda_v v.  By (iii) psi_j(x) = sum lambda_v
psi_j(v); by (i) and convexity psi_j(x) <= 0 for j != i.  As psi_j >= 0,
every v with lambda_v > 0 has psi_j(v) = 0 for all j != i, hence
psi_i(v) = 1 by (ii).  Conversely psi_i <= 1 on the cell by (ii) and
(iii), so {psi_i = 1} is a face of the cell, and by (iv) it lies in
part_i.  All four conditions are checked on every run
(:func:`compute_slices`), and so is that the other side's parts are
lattice polytopes.

Corollary (unit psi): every cell vertex lies in exactly one slice, and for
every index set I the I-slices span a face of the cell at lattice distance
one from the other slices.  Cell vertices are lattice points (the
subdivisions are read from lattice points) and so are the other side's
vertices, so psi(v) is an integer vector; its entries are >= 0 by (i) and
sum to 1 by (ii), so it is a unit vector.  By (iii) sum_{i in I} psi_i is
affine on the cell; it is <= 1 there and equals 1 exactly on the vertices
of the I-slices, which are therefore a face, and 0 on the other slices.

Coned form: conv(0, cell) meets part_i in conv(0, S_i), S_i the slice, or
in {0} when S_i is empty.  By (iii) psi_j is linear on the cone, so for
x = t*c in part_i (c in the cell, t > 0) (i) gives psi_j(c) = 0 for j != i,
and c lies in S_i as above; conversely 0 and S_i lie in part_i.

Upper set: a cell is transversal iff each psi_i is 1 at one of its
vertices, and a cell above another has all of its vertices, so the
transversal cells form an upper set with no check.  So the inclusion order
among them alone holds every cell above each of them, and each poset's
order is computed once, over its own cells (:func:`transversal_poset`).

Cayley lemma: for a transversal cell C whose vertices the slices S_i
partition, r*C & delta is the sum of the slices.  By (ii) and (iii) each
psi_j is linear on the cone over C, so sum_j psi_j = r on r*C.  A point
x = sum_i x_i of delta, x_i in part_i, has psi_j(x) <= sum_i psi_j(x_i)
<= 1 by sublinearity and (i).  So x in r*C & delta has every psi_j(x) = 1.
Write x = r * sum lambda_v v over C's vertices; by the unit-psi corollary
psi_j(x) = r * sum lambda_v over the vertices of S_j, so each of those
partial sums is 1/r and x is a sum of one point of each S_j.  Conversely
S_i lies in C & part_i, so the sum lies in r*C and in delta.  The run builds M(C) of each maximal transversal cell C
as that sum, with no double description: it checks the partition (the
lemma's one hypothesis not checked before), reads M(C) from the sums of
slice vertices and the facet rows of r*C (:func:`_sum_of_slices`), and
certifies it to be the sum by support functions
(:func:`polytope.is_minkowski_sum`).  Only a failure runs the H->V
intersection, for its certificate.

Every other transversal cell C' is checked to be a face of the lowest-index
maximal C above it, so it is C cut by the facet rows (f0, u) of C tight on
C'.  M(C') is the face of M(C) on its vertices w with r*f0 + u.w = 0 for all
those rows, and it inherits both formulas.  Each row is valid on M(C), in
r*C, so the face is M(C) & r*C' = r*C' & delta.  For w = sum s_i, s_i in
S_i(C), r*f0 + u.w = sum (f0 + u.s_i) is a sum of terms >= 0, so it is 0 on
every row iff every s_i lies in C' & part_i = S_i(C') (the slice lemma on
C'); and S_i(C') lies in S_i(C) & C'.  The part of delta on each facet of r
times the parts hull is a face of delta (:func:`facet_region`).

M(C') is built knowing its dimension, its grade in the face lattice of
M(C), so it reads membership from M(C)'s rows and never its own
H-representation (:meth:`polytope.Polytope.contains_ray`).  Its faces are
read from M(C)'s face lattice too: the faces of a face G of a polytope M
are the faces of M inside G (Ziegler, Lectures on Polytopes, Prop. 2.3).
A face of M inside G is cut from M, so from G, by a hyperplane valid on M.
Conversely let G = M & {a.x = a0} with a.x <= a0 on M, and H = G &
{c.x = c0} with c.x <= c0 on G.  For large t, (c + t a).x <= c0 + t a0
holds at every vertex of M (with equality exactly at those of H: a vertex
off G has a.x < a0), so it holds on M and cuts out H.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from .errors import FalsificationError
from .homology import chain_homology, facet_signs
from .linalg import dot, smith_normal_form
from .polytope import (
    _extreme_points,
    _polytope_from_rows,
    as_fractions,
    bits,
    dilate,
    intersect,
    is_minkowski_sum,
    minkowski_sum_all,
    point_ray,
)
from .polytope import convex_hull as convex_hull  # for the bench tracer


class TransversalCell:
    """A subdivision cell together with its part slices and Minkowski cell."""

    __slots__ = ("cell", "slices", "minkowski", "_points")

    def __init__(self, cell, slices, minkowski):
        self.cell = cell
        self.slices = slices
        self.minkowski = minkowski
        self._points = None

    def slice_points(self):
        """The single vertex of each slice (minimal transversal cells only),
        read on first use.  Each must be a lattice point: the chart maps and
        lattices are built from them."""
        points = self._points
        if points is None:
            points = self._points = tuple(
                _lattice_slice_point(self, j) for j in range(len(self.slices)))
        return points


def _lattice_slice_point(tcell, j):
    verts = tcell.slices[j].vertices
    if len(verts) != 1:
        raise ValueError("slice is not a point")
    v = verts[0]
    if any(type(x) is not int for x in v):
        raise FalsificationError(
            "slice point of a minimal transversal cell is not integral",
            {"cell": _cell_key(tcell.cell), "slice": j,
             "point": _point_key(v)})
    return v


class TransversalPoset:
    """The transversal cells of a boundary subdivision, ordered by inclusion.

    `slices` maps every cell of the subdivision, transversal or not, to its
    part slices (:func:`compute_slices`), for the checks that need them all.
    `masks` are the elements' masks in the subdivision's vertex numbering,
    and `above` and `below` the inclusion masks among them alone
    (:func:`_inclusion_masks`).  As the transversal cells form an upper set
    (module docstring), every cell above an element is an element.

    Order invariant: the elements' ``cell.key()`` strictly increase, as
    :func:`transversal_poset` takes them in the order of the subdivision's
    cells, which are sorted by key.  So index order is cell-key order.
    """

    def __init__(self, parts, elements, slices, masks, above, below):
        self.parts = parts
        self.elements = tuple(elements)
        self.slices = slices
        self.masks = tuple(masks)
        self._above, self._below = above, below
        self.minimal = tuple(i for i, mask in enumerate(below)
                             if mask == 1 << i)
        self._minimal_mask = sum(1 << i for i in self.minimal)

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return (self._above[i] >> j) & 1 == 1

    def below(self, i):
        return bits(self._below[i])

    def above(self, i):
        return bits(self._above[i])

    def minimal_below(self, i):
        """The minimal elements below element i, ascending."""
        return bits(self._below[i] & self._minimal_mask)


def _inclusion_masks(vertex_masks, holding):
    """(above, below) bitmasks of inclusion of the nonempty vertex sets
    `vertex_masks` in the sets `holding`, over one vertex numbering.

    Bit j of above[i] (and bit i of below[j]) is set iff vertex set i is a
    subset of set j of `holding`: above[i] is the AND, over the vertices of
    set i, of the mask of the sets of `holding` that hold that vertex.
    """
    holders = {}
    for j, vm in enumerate(holding):
        for v in bits(vm):
            holders[v] = holders.get(v, 0) | 1 << j
    above = []
    below = [0] * len(holding)
    for i, vm in enumerate(vertex_masks):
        mask = -1
        for v in bits(vm):
            mask &= holders.get(v, 0)
        above.append(mask)
        for j in bits(mask):
            below[j] |= 1 << i
    return above, below


def compute_slices(subdivision, parts, other_parts):
    """cell -> tuple of (slice polytope or None) for every subdivision cell.

    Each slice is read as a face of its cell, certified by the slice lemma
    (module docstring): :class:`_Supports` checks its conditions (i), (ii)
    and (iv), and :func:`_cell_slices` checks (iii) per cell.
    """
    supports = _Supports(parts, other_parts)
    return {c: _cell_slices(c, supports) for c in subdivision.cells}


class _Supports:
    """The support functions psi_j(v) = max <v, x> over the other side's
    part j, with the slice lemma's conditions (i), (ii) and (iv).  The
    other side's parts must be lattice polytopes, so that psi is integral
    at the cell vertices (the unit-psi corollary).

    Values and argmax masks (over part j's vertices) are memoized once per
    distinct cell vertex, and (ii) and (iv) are checked there.
    """

    def __init__(self, parts, other_parts):
        self.parts = parts
        self.others = [q.vertices for q in other_parts]
        self._memo = {}
        for j, q in enumerate(other_parts):
            if not q.is_lattice_polytope():
                raise FalsificationError(
                    "slice lemma: an other-side part is not a lattice "
                    "polytope", {"other_part": j,
                                 "vertices": _cell_key(q)})
        origin = (0,) * parts[0].ambient
        for name, side in (("part", parts), ("other_part", other_parts)):
            for j, q in enumerate(side):
                if not q.contains(origin):
                    raise FalsificationError(
                        "slice lemma (i): a part misses the origin", {name: j})
        for i, part in enumerate(parts):
            for a in part.vertices:
                values, _ = self._psi(a)
                for j, value in enumerate(values):
                    if value > (1 if i == j else 0):
                        raise FalsificationError(
                            "slice lemma (i): psi_j exceeds delta_ij on "
                            "part i",
                            {"part": i, "other_part": j,
                             "vertex": _point_key(a), "psi": str(value)})

    def _psi(self, v):
        values = []
        argmax = []
        for verts in self.others:
            pairings = [dot(v, x) for x in verts]
            top = max(pairings)
            values.append(top)
            argmax.append(sum(1 << k for k, p in enumerate(pairings)
                              if p == top))
        return tuple(values), tuple(argmax)

    def at(self, v):
        """(psi values, argmax masks) at a cell vertex."""
        got = self._memo.get(v)
        if got is None:
            got = self._psi(v)
            values = got[0]
            if sum(values) != 1:
                raise FalsificationError(
                    "slice lemma (ii): the other-side supports do not sum "
                    "to one at a cell vertex",
                    {"vertex": _point_key(v),
                     "psi": _point_key(values)})
            for i, value in enumerate(values):
                if value == 1 and not self.parts[i].contains(v):
                    raise FalsificationError(
                        "slice lemma (iv): a cell vertex with psi_i = 1 "
                        "lies outside part i",
                        {"part": i, "vertex": _point_key(v)})
            self._memo[v] = got
        return got


def _cell_slices(cell, supports):
    """The cell's slices by the parts, as faces, after checking (iii): for
    each j one vertex of other-side part j attains psi_j at every vertex of
    the cell, so psi_j is the affine pairing with it on the cell.  Each
    vertex lies in the one slice i with psi_i = 1 (the unit-psi corollary)."""
    at = [supports.at(v) for v in cell.vertices]
    for j in range(len(supports.others)):
        common = -1
        for _, argmax in at:
            common &= argmax[j]
        if not common:
            raise FalsificationError(
                "slice lemma (iii): psi_j is not affine on a cell",
                {"cell": _cell_key(cell), "other_part": j})
    faces = [0] * len(supports.parts)
    for k, (values, _) in enumerate(at):
        faces[values.index(1)] |= 1 << k
    return tuple(cell.face_polytope(f) if f else None for f in faces)


def transversal_poset(subdivision, parts, other_parts, delta):
    """All transversal cells with their Minkowski cells, as a poset.

    `other_parts` are the other side's parts, whose support functions
    certify the slices (:func:`compute_slices`).  The Minkowski cells,
    r*cell intersected with the sum polytope `delta`, are the sums of the
    slices (:func:`_minkowski_cells`).
    """
    slices_by_cell = compute_slices(subdivision, parts, other_parts)
    keep = [k for k, c in enumerate(subdivision.cells)
            if all(s is not None for s in slices_by_cell[c])]
    cells = [subdivision.cells[k] for k in keep]
    masks = [subdivision.vertex_masks[k] for k in keep]
    above, below = _inclusion_masks(masks, masks)
    minkowski = _minkowski_cells(cells, slices_by_cell, above, len(parts),
                                 delta)
    elements = [TransversalCell(c, slices_by_cell[c], m)
                for c, m in zip(cells, minkowski)]
    return TransversalPoset(parts, elements, slices_by_cell, masks, above,
                            below)


def _minkowski_cells(cells, slices_by_cell, above, r, delta):
    """The Minkowski cells r*cell & delta of the transversal `cells`, in
    their order.  `above` holds their inclusion masks among themselves,
    which hold every cell above each, as the transversal cells form an upper
    set (module docstring).

    The Minkowski cell of a maximal transversal cell C is the sum of its
    slices, by the Cayley lemma (module docstring).  Every other
    transversal cell C' is a face of the lowest-index maximal C above it,
    and its Minkowski cell is a face of C's, which inherits both formulas
    (module docstring).
    """
    maximal_mask = sum(1 << k for k, mask in enumerate(above)
                       if mask == 1 << k)
    out = [None] * len(cells)
    # Per maximal cell: its vertices' bits and, per facet row of C, the
    # mask of the vertices of M(C) tight on that row at scale r.
    cut = {}
    for k in bits(maximal_mask):
        cell = cells[k]
        out[k], rows = _sum_of_slices(cell, slices_by_cell[cell], r, delta)
        cut[k] = ({v: 1 << i for i, v in enumerate(cell.vertices)}, rows)
    for k, sub in enumerate(cells):
        if maximal_mask >> k & 1:
            continue
        over = above[k] & maximal_mask
        m = (over & -over).bit_length() - 1
        cell = cells[m]
        bit, rows = cut[m]
        face = sum(bit[v] for v in sub.vertices)
        if not cell.is_face(face):
            raise FalsificationError(
                "transversal cell is not a face of the maximal transversal "
                "cell above it",
                {"cell": _cell_key(sub), "maximal_cell": _cell_key(cell)})
        keep = (1 << len(out[m].vertices)) - 1
        for f_mask, row in zip(cell.facet_masks(), rows):
            if f_mask & face == face:
                keep &= row
        out[k] = out[m].face_polytope(keep, out[m].faces()[keep])
    return out


def _sum_of_slices(cell, slices, r, delta):
    """(M(C), masks): the Minkowski cell of a maximal transversal cell C as
    the sum of its slices, and per facet row of C the mask of M(C)'s
    vertices tight on it at scale r.

    The slices' vertex sets must partition C's, the one hypothesis of the
    Cayley lemma not checked before.  The vertices are the sums of slice
    vertices that are extreme against the facet rows of r*C
    (:func:`polytope._extreme_points`).  A sum w = sum s_i is tight on a
    row iff every s_i is, so the rows tight at w cut out the smallest face
    C' of C holding the s_i, and M(C') = sum S_i(C') from M(C).  If w is a
    vertex, some form g is least on each S_i at s_i alone; g - sum_i
    (min g over S_i) psi_i is affine on C, >= 0 at its vertices and 0
    exactly at the s_i, so C' is conv(s_i) and no other sum is tight on
    all of w's rows.  If w is no vertex, M(C') is more than w, so some
    S_i(C') has a second vertex, which gives another such sum.  Every
    point of r*C with all psi_i = 1 is a sum of slice points (module
    docstring), so M(C) = r*C & aff M(C), and its facets are among those
    rows (:func:`polytope._polytope_from_rows`).  The result is certified
    to be the sum by support functions (:func:`polytope.is_minkowski_sum`);
    only a failure runs the H->V intersection r*C & delta, for the
    certificate.
    """
    if sorted(v for s in slices for v in s.vertices) != list(cell.vertices):
        _refute_minkowski(cell, slices, r, delta)
    scaled = [(r * f[0],) + f[1:] for f in cell.facets]
    sums = sorted({as_fractions(map(sum, zip(*vs)))
                   for vs in product(*(s.vertices for s in slices))})
    rays = [point_ray(w) for w in sums]
    keep = _extreme_points(rays, scaled)
    verts = tuple(sums[i] for i in keep)
    hverts = [rays[i] for i in keep]
    meets = [sum(1 << i for i, hw in enumerate(hverts) if dot(f, hw) == 0)
             for f in scaled]
    mink = _polytope_from_rows(
        cell.role, cell.ambient, verts, hverts,
        [(r * e[0],) + e[1:] for e in cell.equations], scaled, meets,
        (1 << len(verts)) - 1)
    if not is_minkowski_sum(mink, slices):
        _refute_minkowski(cell, slices, r, delta)
    return mink, meets


def _refute_minkowski(cell, slices, r, delta):
    """Raise the falsification of M(cell) = sum of the slices, with
    r*cell & delta read by H->V for its certificate."""
    mink = intersect(dilate(cell, r), delta)
    raise FalsificationError(
        "Minkowski cell differs from r*cell intersected with the sum",
        {"cell": _cell_key(cell),
         "sum_of_slices": _cell_key(minkowski_sum_all(list(slices))),
         "dilated_intersection": _cell_key(mink) if mink else None})


def _cell_key(poly):
    return [_point_key(v) for v in poly.vertices]


def _point_key(point):
    return [str(x) for x in point]


def minkowski_complex(poset, delta, r, parts_hull):
    """Verify the complex of the poset's Minkowski cells and return the
    report {"passed", "checks"}.

    Checks: the map cell -> Minkowski cell is injective and an order
    isomorphism onto a face-closed complex, and the support equals the
    intersection of delta with the boundary of the r-fold dilation of
    nabla_vee (by exact volume bookkeeping facet by facet, on the regions
    of :func:`facet_region`).  A cell's faces are read from the face
    lattice of the lowest maximal cell above it, as the faces of that cell
    inside it (module docstring), and are not stored: the sorted vertex
    masks over the top of the cells below must be its sorted faces inside
    the cell's own mask, so a vertex off the top fails, as does a repeated
    cell.  Each distinct vertex is read once, as its integer ray and the
    mask of the facets of r*nabla_vee it lies on; a cell lies on the AND
    of its vertices' masks, and the order test tests only the vertices
    whose masks hold that AND (:func:`containment_order`).
    """
    checks = {}
    cells = [e.minkowski for e in poset.elements]
    n = len(cells)
    checks["injective"] = len(set(cells)) == n
    scaled = dilate(parts_hull, r)
    marks = {}
    for mk in cells:
        for v in mk.vertices:
            if v not in marks:
                ray = point_ray(v)
                marks[v] = ray, sum(1 << t for t, f in enumerate(scaled.facets)
                                    if dot(f, ray) == 0)
    order_ok = containment_order(cells, marks) == poset._above
    maximal = sum(1 << j for j in range(n) if poset._above[j] == 1 << j)
    face_ok = True
    for j in range(n):
        over = poset._above[j] & maximal
        top = cells[(over & -over).bit_length() - 1]
        bit = {v: 1 << k for k, v in enumerate(top.vertices)}
        below = [cells[i].vertices for i in poset.below(j)]
        if any(v not in bit for vs in below for v in vs):
            face_ok = False  # a vertex off the top cell
            continue
        masks = sorted(sum(map(bit.__getitem__, vs)) for vs in below)
        mine = sum(map(bit.__getitem__, cells[j].vertices))
        if masks != sorted(g for g in top.faces() if g & mine == g):
            face_ok = False
    checks["order_isomorphism"] = order_ok
    checks["face_lattices_match"] = face_ok
    # Support: every Minkowski cell lies on the boundary of r*nabla_vee ...
    # tight[c] is the mask of the facets of r*nabla_vee that cell c lies on.
    tight = [_common_mask(mk, marks) for mk in cells]
    checks["cells_on_dilated_boundary"] = all(tight) and all(
        delta.contains_ray(ray) for ray, _ in marks.values())
    # ... and the cells cover it: per facet of r*nabla_vee, exact volumes.
    cover_ok = True
    for t, f in enumerate(scaled.facets):
        region = facet_region(f, delta)
        on_facet = [mk for mk, m in zip(cells, tight) if m >> t & 1]
        if region is None:
            if on_facet:
                cover_ok = False
            continue
        members = [mk for mk in on_facet if mk.dim == region.dim]
        if region.dim == 0:
            if region not in members:
                cover_ok = False
            continue
        total = sum((mk.volume_in(region) for mk in members), Fraction(0))
        if total != region.volume_in(region):
            cover_ok = False
    checks["support_covers_dilated_boundary"] = cover_ok
    return {"passed": all(checks.values()), "checks": checks}


def containment_order(cells, marks=None):
    """Bitmasks of inclusion among polytopes or polyhedra: bit j of entry
    i is set iff every vertex of cells[i] lies in cells[j].

    The distinct vertices of all cells are numbered, each is read once as
    its integer ray (:func:`polytope.point_ray`), and each cell gets the
    mask of the vertices in it by the membership test both classes share
    (``contains_ray``), read as sets by :func:`_inclusion_masks`.

    `marks`, when given, maps each vertex to its ray and the mask of some
    homogeneous rows that vanish at it.  A row that vanishes at every
    vertex of a cell vanishes on all of the cell, by linearity, so only
    the vertices on every row of the AND of the cell's vertex masks are
    tested: the AND, over that AND's bits, of the per-row masks of the
    vertices on the row.
    """
    ids = {}
    vmask = [sum(1 << ids.setdefault(v, len(ids)) for v in c.vertices)
             for c in cells]
    if marks is None:
        marks = {v: (point_ray(v), 0) for v in ids}
    rays = [marks[v][0] for v in ids]
    on_row = {}
    for t, v in enumerate(ids):
        for b in bits(marks[v][1]):
            on_row[b] = on_row.get(b, 0) | 1 << t
    inside = []
    for c in cells:
        candidates = (1 << len(rays)) - 1
        for b in bits(_common_mask(c, marks)):
            candidates &= on_row[b]
        inside.append(sum(1 << t for t in bits(candidates)
                          if c.contains_ray(rays[t])))
    return _inclusion_masks(vmask, inside)[0]


def _common_mask(cell, marks):
    """The AND of the masks that `marks` gives the cell's vertices."""
    mask = -1
    for v in cell.vertices:
        mask &= marks[v][1]
    return mask


def facet_region(f, delta):
    """delta & {f = 0} for a facet row f of r times the parts hull: the face
    of delta on its vertices w with f.(1, w) = 0, or None.  A row negative
    on delta is refused, so delta lies on the row's valid side and this
    face is delta's meet with the facet."""
    tight = 0
    for k, w in enumerate(delta.vertices):
        value = dot(f, (1,) + w)
        if value < 0:
            raise FalsificationError(
                "the sum polytope leaves r times the parts hull",
                {"facet": _point_key(f), "vertex": _point_key(w)})
        if value == 0:
            tight |= 1 << k
    return delta.face_polytope(tight) if tight else None


def adjoint_pairs(p_poset, q_poset):
    """All (i, j) with <slice_a, slice_b> = delta_ab on every vertex pair.

    The distinct (part b, vertex x) of the Q-slices are numbered, and each
    Q-cell j gets the mask of its own.  For every (part a, vertex m) of a
    P-slice the mask of the (b, x) with <m, x> = delta_ab is built once;
    ANDed over P-cell i's (a, m) it holds exactly the (b, x) adjoint to all
    of i, so (i, j) is adjoint iff it contains j's mask.
    """
    q_ids = {}
    q_masks = []
    for e in q_poset.elements:
        mask = 0
        for b, s in enumerate(e.slices):
            for x in s.vertices:
                mask |= 1 << q_ids.setdefault((b, x), len(q_ids))
        q_masks.append(mask)
    good = {}
    pairs = []
    for i, e in enumerate(p_poset.elements):
        mask = -1
        for a, s in enumerate(e.slices):
            for m in s.vertices:
                if (a, m) not in good:
                    good[a, m] = sum(
                        1 << t for (b, x), t in q_ids.items()
                        if dot(m, x) == (1 if a == b else 0))
                mask &= good[a, m]
        pairs.extend((i, j) for j, qm in enumerate(q_masks)
                     if qm & mask == qm)
    return pairs


class SigmaComplex:
    """The polytopal complex of products over adjoint pairs.

    The pairs are :func:`adjoint_pairs` of the two posets.  Three facts
    about a cell M x N, M the Minkowski cell of P-element i and N that of
    Q-element j, follow from certificates raised earlier or from how the
    pairs are found, and are not checked here:

    - face closure: every (i2, j2) with i2 <= i and j2 <= j is a cell.
      Slice a of i2 is the face of its cell on the vertices with psi_a = 1
      (:func:`_cell_slices`), and the vertices of i2 are vertices of i, so
      the vertices of slice a of i2 are vertices of slice a of i; the same
      holds on the Q side.  :func:`adjoint_pairs` tests every vertex pair,
      so the pairs of (i2, j2) are among those of (i, j) and it is adjoint;
    - pairing level: <m, n> = r on M x N.  Each Minkowski cell is the sum
      of its slices (:func:`_minkowski_cells`), so m is a sum of vertices
      m_a of the P-slices and n one of vertices n_b of the Q-slices, and
      adjointness gives <m_a, n_b> = delta_ab, hence
      <m, n> = sum_{a,b} delta_ab = r;
    - dimension: dim M + dim N <= d - r.  A direction of M is a sum of
      differences of two points of one P-slice, each pairing to 0 with
      every vertex of every Q-slice, so it is orthogonal to span(U_b N_b)
      for the Q-slices N_b.  That span is the directions of N plus one
      vertex n_b per slice, and the n_b are independent modulo those
      directions (a vertex m_a pairs to delta_ab with them and to 0 with
      the directions), so it has dimension dim N + r.
    """

    def __init__(self, p_poset, q_poset):
        self.p_poset = p_poset
        self.q_poset = q_poset
        self.r = len(p_poset.parts)
        self.pairs = tuple(sorted(
            adjoint_pairs(p_poset, q_poset),
            key=lambda ij: (p_poset.elements[ij[0]].minkowski.key(),
                            q_poset.elements[ij[1]].minkowski.key())))
        self.dims = tuple(
            p_poset.elements[i].minkowski.dim + q_poset.elements[j].minkowski.dim
            for i, j in self.pairs)
        self._product_order()
        self.facets = list(map(bits, _facet_masks(self.dims, self._below)))
        self._negative = None

    def _product_order(self):
        """_above[k] and _below[k]: bitmasks of the cells >= and <= cell k
        in the product order.

        p_up[i] is the union of the pair rows (i2, *) over i2 >= i, q_up[j]
        the same for the Q side; (i, j) <= (i2, j2) iff both factors are.
        Both are kept: p_up[i] & q_up[j] is the set of cells above the
        pair (i, j) whether or not that pair is a cell.
        """
        p_row = [0] * len(self.p_poset)
        q_row = [0] * len(self.q_poset)
        for k, (i, j) in enumerate(self.pairs):
            p_row[i] |= 1 << k
            q_row[j] |= 1 << k
        self.p_up = [_or_all(map(p_row.__getitem__, self.p_poset.above(i)))
                     for i in range(len(p_row))]
        self.q_up = [_or_all(map(q_row.__getitem__, self.q_poset.above(j)))
                     for j in range(len(q_row))]
        p_down = [_or_all(map(p_row.__getitem__, self.p_poset.below(i)))
                  for i in range(len(p_row))]
        q_down = [_or_all(map(q_row.__getitem__, self.q_poset.below(j)))
                  for j in range(len(q_row))]
        self._above = [self.p_up[i] & self.q_up[j] for i, j in self.pairs]
        self._below = [p_down[i] & q_down[j] for i, j in self.pairs]

    def __len__(self):
        return len(self.pairs)

    def dim(self):
        return max(self.dims) if self.dims else -1

    def euler_characteristic(self):
        return sum((-1) ** d for d in self.dims)

    def homology(self, cells=None):
        """Integral homology of Sigma, or of its subcomplex on the cells of
        the mask `cells` (closed under faces), computed cellularly on its
        own cells.

        Sigma is a polytopal, hence regular CW, complex, and the cellular
        homology of a regular CW complex equals the homology of the order
        complex of its face poset (Bjorner, "Posets, regular CW complexes
        and Bruhat order", Europ. J. Combin. 1984), i.e. of the barycentric
        subdivision, which is therefore not built here.

        Sigma is oriented once, on first use (:meth:`_orient`).  A
        subcomplex closed under faces keeps its cells' incidences.
        """
        negative = self._orient()
        keep = range(len(self.dims)) if cells is None else bits(cells)
        if not keep:
            return []
        pos = {k: t for t, k in enumerate(keep)}
        return chain_homology(
            [self.dims[k] for k in keep],
            [{pos[f]: -1 if negative[k] >> t & 1 else 1
              for t, f in enumerate(self.facets[k])} for k in keep])

    def _orient(self):
        """Sigma's orientation, fixed on first use by :func:`facet_signs`,
        whose certificates name Sigma's own cells: bit t of _negative[k]
        marks facets[k][t] at incidence -1."""
        if self._negative is None:
            self._negative = facet_signs(self.dims, self.facets)
        return self._negative

    def is_closed_pseudomanifold(self):
        """Sigma is oriented first, which certifies its in-cell thinness
        or raises; :func:`is_closed_pseudomanifold` checks the rest."""
        self._orient()
        return is_closed_pseudomanifold(self.dims, self._below, self.facets)


def _facet_masks(dims, below):
    """For each cell, the mask of the cells one dimension lower below it."""
    by_dim = {}
    for k, d in enumerate(dims):
        by_dim[d] = by_dim.get(d, 0) | 1 << k
    return [below[k] & by_dim.get(d - 1, 0) for k, d in enumerate(dims)]


def is_closed_pseudomanifold(dims, below, facets):
    """Whether the order complex of an oriented cell poset is a closed
    pseudomanifold.

    `below[k]` is the bitmask of the cells <= cell k (k itself included),
    `dims[k]` its dimension and `facets[k]` the cells of dimension
    dims[k] - 1 below it.  The test is made on the cells, not on the chains
    of the barycentric subdivision, and the cells must have passed
    :func:`homology.facet_signs` on the same facets, which certifies the
    in-cell half of thinness: each edge has two vertices and each ridge
    (codim-2 face) of a cell lies in exactly two of its facets.  Checked
    here:

    - graded: every cell of dim > 0 has facets and each of its strict
      faces lies under one of them; a cell of dim 0 has no strict face;
    - pure: every cell lies under a cell of top dimension D;
    - thin across top cells: each (D-1)-cell lies in exactly two D-cells.

    For a graded poset these are the conditions on the order complex.  Its
    maximal chains are the flags c_0 < ... < c_D with dim c_i = i, and every
    chain extends to a flag iff its top cell lies under a D-cell (purity).
    A flag minus c_i lies in as many flags as there are i-cells strictly
    between c_{i-1} and c_{i+1}: the vertices of the edge c_1 (i = 0), the
    facets of c_{i+1} over c_{i-1}, or the D-cells over c_{D-1} (i = D).
    """
    if not dims:
        return True
    for k, d in enumerate(dims):
        covered = _or_all(map(below.__getitem__, facets[k])) | 1 << k
        if (d > 0 and not facets[k]) or below[k] & ~covered:
            return False
    top = max(dims)
    tops = [k for k, d in enumerate(dims) if d == top]
    if _or_all(map(below.__getitem__, tops)) != (1 << len(dims)) - 1:
        return False
    ridge_count = Counter(f for k in tops for f in facets[k])
    return all(ridge_count[k] == 2 for k, d in enumerate(dims) if d == top - 1)


def _or_all(masks):
    """The union of bitmasks."""
    out = 0
    for mask in masks:
        out |= mask
    return out


def projection_images(sigma):
    """Check that both projections hit every Minkowski cell on their side
    (a cell M x N projects to M and N by construction)."""
    hit_p = {i for i, _ in sigma.pairs}
    hit_q = {j for _, j in sigma.pairs}
    report = {
        "p1_surjective": len(hit_p) == len(sigma.p_poset),
        "p2_surjective": len(hit_q) == len(sigma.q_poset),
    }
    report["passed"] = report["p1_surjective"] and report["p2_surjective"]
    return report


def minimal_cells_unimodular(poset):
    """Minimal transversal cells must be unimodular (r-1)-simplices."""
    failures = []
    r = len(poset.parts)
    for i in poset.minimal:
        e = poset.elements[i]
        verts = e.cell.vertices
        ok = len(verts) == r and all(len(s.vertices) == 1 for s in e.slices)
        if ok and r > 1:
            base = verts[0]
            rows = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
            divs, rank = smith_normal_form(rows)
            ok = rank == r - 1 and all(d == 1 for d in divs)
        if not ok:
            failures.append({"check": "minimal_cell_unimodular_simplex",
                             "cell": _cell_key(e.cell)})
    return failures
