"""Tropical cells, amoebas, and the bounded tropical complex.

A cell of the lifted lower hull determines the locus where its lattice
points simultaneously realize the maximum of <m, y> - w(m); cells of
positive dimension assemble into the amoeba.  The bounded subcomplex indexed
by the coned transversal cells is the tropical model of the dual sphere.
A sliced cone is read as the cone over the poset's slice (the coned slice
lemma of :mod:`nefsphere.sphere`), with no intersection.
"""

from fractions import Fraction

from .errors import FalsificationError
from .linalg import clear_denominators
from .polytope import (
    GeometryError,
    Polyhedron,
    intersect,
    minkowski_sum_all,
    opposite_role,
    point_ray,
    polytope_from_hrep,
)
from .polytope import convex_hull as convex_hull  # for the bench tracer
from .sphere import _cell_key, _point_key, containment_order
from .subdivision import lower_hull_subdivision


class TropicalCell:
    """The dual cell of a lower-hull cell, as an explicit polyhedron."""

    __slots__ = ("generator", "poly")

    def __init__(self, generator, poly):
        self.generator = generator
        self.poly = poly

    @property
    def bounded(self):
        return self.poly.is_bounded()

    def dim(self):
        return self.poly.dim()

    def key(self):
        return self.poly.key()


def tropical_cell(cone_cell, weight, support):
    """The locus where all vertices of the cell realize the tropical maximum."""
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
    return TropicalCell(cone_cell, poly)


class TropicalCells:
    """:func:`tropical_cell` of subdivision cells, built once per
    (support, cell).

    Every subdivision passed to one memo must carry a restriction of one
    weight function (a run's omega on its support and on the parts), so
    the support and the cell fix the tropical cell.
    """

    def __init__(self):
        self._memo = {}

    def __call__(self, subdivision, cell):
        key = (subdivision.support, cell)
        if key not in self._memo:
            self._memo[key] = tropical_cell(cell, subdivision.weight,
                                            subdivision.support)
        return self._memo[key]


def amoeba(subdivision, tropical_cells):
    """All dual cells of positive-dimension subdivision cells.

    The subdivision is a coned (lower-hull) subdivision of its support; the
    support's weight function supplies the heights.  `tropical_cells` is
    the :class:`TropicalCells` memo of the run.
    """
    out = []
    for cell in subdivision.cells():
        if cell.dim > 0:
            out.append(tropical_cells(subdivision, cell))
    out.sort(key=lambda t: t.generator.key())
    return out


def tropical_zero_cell(support, weight):
    """{y : <m, y> <= w(m) for every lattice point m of the support}."""
    rows = []
    for m in support.lattice_points():
        row = clear_denominators((weight(m),) + tuple(-x for x in m))
        rows.append(row)
    return polytope_from_hrep([], rows, opposite_role(support.role),
                              support.ambient)


class TropicalComplex:
    """The bounded cells dual to coned transversal cells (one per poset element).

    `containment` is their inclusion relation (:func:`containment_order`):
    bit i of entry j is set iff cell j lies in cell i.
    """

    def __init__(self, poset, cells):
        self.poset = poset
        self.cells = cells  # list parallel to poset.elements
        self.containment = containment_order([c.poly for c in cells])

    def __len__(self):
        return len(self.cells)


def bounded_tropical_complex(p_poset, boundary, ambient_dim, tropical_cells):
    """Build the bounded tropical complex over the transversal poset.

    Verifies that every cell is bounded, that dimensions are complementary,
    and that the face relation is opposite to the poset order.
    `tropical_cells` is the :class:`TropicalCells` memo of the run.
    """
    cells = []
    for e in p_poset.elements:
        coned = boundary.coned(e.cell)
        tc = tropical_cells(boundary.parent, coned)
        if not tc.bounded:
            raise FalsificationError(
                "tropical cell of a transversal cell is unbounded",
                {"cell": _cell_key(e.cell),
                 "rays": [list(r) for r in tc.poly.rays],
                 "lineality": [list(l) for l in tc.poly.lineality]})
        if tc.dim() != ambient_dim - coned.dim:
            raise FalsificationError(
                "tropical cell dimension is not complementary",
                {"cell_dim": coned.dim, "dual_dim": tc.dim()})
        cells.append(tc)
    complex_ = TropicalComplex(p_poset, cells)
    _verify_opposite_order(complex_)
    return complex_


def _verify_opposite_order(complex_):
    """Cell j lies in cell i iff i <= j: the containment relation is the
    poset's transposed order.  The certificate is the first (i, j) in row
    order where they differ."""
    poset = complex_.poset
    diff = [c ^ b for c, b in zip(complex_.containment, poset._below)]
    if not any(diff):
        return
    i = min((d & -d).bit_length() - 1 for d in diff if d)
    j = next(j for j, d in enumerate(diff) if d >> i & 1)
    raise FalsificationError(
        "tropical face order is not opposite to the poset order",
        {"i": i, "j": j, "poset_leq": poset.leq(i, j),
         "geometric_containment": complex_.containment[j] >> i & 1 == 1})


def order_complex_check(complex_):
    """The barycenter map is an order anti-isomorphism onto the poset."""
    poset = complex_.poset
    keys = [c.key() for c in complex_.cells]
    report = {"injective": len(set(keys)) == len(poset),
              "anti_isomorphism": complex_.containment == poset._below}
    report["passed"] = report["injective"] and report["anti_isomorphism"]
    return report


def bounded_amoeba_matches_zero_cell(amoeba_cells, f0):
    """Bounded amoeba cells coincide with the proper faces of the zero cell.

    A bounded cell's vertices are its extreme points, so its key starts
    with the key of the polytope on them (:meth:`Polyhedron.key`)."""
    bounded = {t.poly.key()[:2] for t in amoeba_cells if t.bounded}
    faces = f0.face_keys(proper=True)
    return {
        "bounded_cells": len(bounded),
        "proper_zero_cell_faces": len(faces),
        "passed": bounded == faces,
    }


def bounded_cells_check(part_subdivisions, boundary, p_poset,
                        tropical_cplx, tropical_cells):
    """The bounded common refinement of the part amoebas equals the complex.

    Checks cell-wise F_cone = intersection of the per-part tropical cells of
    the sliced cones, and that every bounded refinement cell lands inside a
    single complex cell.  `tropical_cells` is the :class:`TropicalCells`
    memo of the run.
    """
    ambient = boundary.parent.support.ambient
    report = {"cellwise_equal": True, "refinement_inside_complex": True,
              "complex_cells_realized": True, "sliced_cones_are_cells": True}
    part_cells = [set(sub.cells()) for sub in part_subdivisions]
    # Cell-wise equality over transversal cells.
    for k, e in enumerate(p_poset.elements):
        sliced = [boundary.coned(s) for s in e.slices]
        if any(c not in cells for c, cells in zip(sliced, part_cells)):
            report["sliced_cones_are_cells"] = False
            continue
        pieces = [tropical_cells(sub, c)
                  for sub, c in zip(part_subdivisions, sliced)]
        eqs = [row for t in pieces for row in t.poly.eq_rows]
        ineqs = [row for t in pieces for row in t.poly.ineq_rows]
        meet = Polyhedron.from_hrep(eqs, ineqs, pieces[0].poly.role, ambient)
        if meet is None or meet.key() != tropical_cplx.cells[k].poly.key():
            report["cellwise_equal"] = False
    # Refinement side: every bounded intersection of positive-dimension part
    # cells lies inside some complex cell.
    tropical_by_part = [[tropical_cells(sub, c) for c in sub.cells()
                         if c.dim > 0] for sub in part_subdivisions]
    tuples = [()]
    for cells_i in tropical_by_part:
        tuples = [t + (c,) for t in tuples for c in cells_i]
    realized = set()
    complex_keys = {c.poly.key(): idx
                    for idx, c in enumerate(tropical_cplx.cells)}
    for combo in tuples:
        eqs = [row for t in combo for row in t.poly.eq_rows]
        ineqs = [row for t in combo for row in t.poly.ineq_rows]
        meet = Polyhedron.from_hrep(eqs, ineqs, combo[0].poly.role, ambient)
        if meet is None or not meet.is_bounded():
            continue
        if meet.key() in complex_keys:
            realized.add(complex_keys[meet.key()])
        rays = [point_ray(v) for v in meet.vertices]
        if not any(all(c.poly.contains_ray(ray) for ray in rays)
                   for c in tropical_cplx.cells):
            report["refinement_inside_complex"] = False
    if len(realized) != len(tropical_cplx.cells):
        report["complex_cells_realized"] = False
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


def mixed_subdivision_check(boundary, poset, delta):
    """The per-cell slice sums tile the sum polytope (exact volumes); the
    cells are the cones over the boundary's maximal cells, whose empty
    slices add only the origin."""
    report = {"full_dimensional": True, "volume_matches": True,
              "interiors_disjoint": True}
    chart = delta.chart()
    total = Fraction(0)
    mixed = []
    for cell in boundary.maximal_cells:
        cell_sum = minkowski_sum_all([boundary.coned(s)
                                      for s in poset.slices[cell]
                                      if s is not None])
        if cell_sum.dim != delta.dim:
            report["full_dimensional"] = False
            continue
        mixed.append(cell_sum)
        total += cell_sum.volume_in_chart(chart)
    if total != delta.volume_in_chart(chart):
        report["volume_matches"] = False
    for i in range(len(mixed)):
        for j in range(i + 1, len(mixed)):
            meet = intersect(mixed[i], mixed[j])
            if meet is not None and meet.dim == delta.dim:
                report["interiors_disjoint"] = False
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


def part_subdivision(part, weight):
    """The lower-hull subdivision induced on a part by restricting the weight."""
    return lower_hull_subdivision(part, weight.restrict(part))


def scene_export(cells, project=None):
    """JSON-ready cell list (vertices, rays, dim, generator), optionally
    projected to chosen coordinate indices."""
    def proj(vec):
        if project is None:
            return _point_key(vec)
        return [str(vec[i]) for i in project]

    out = []
    for t in sorted(cells, key=lambda c: c.generator.key()):
        out.append({
            "generator": _cell_key(t.generator),
            "vertices": [proj(v) for v in t.poly.vertices],
            "rays": [proj(r) for r in t.poly.rays],
            "lineality": [proj(l) for l in t.poly.lineality],
            "dim": t.dim(),
            "bounded": t.bounded,
        })
    return out
