"""Tropical cells, amoebas, and the bounded tropical complex.

A cell C of the lifted lower hull is dual to the locus T(C) where all its
vertices attain the maximum of <m, y> - w(m) over the support's lattice
points; cells of positive dimension assemble into the amoeba.  The bounded
cells dual to the coned transversal cells are the tropical model of the
dual sphere.  A sliced cone is read as the cone over the poset's slice (the
coned slice lemma of :mod:`nefsphere.sphere`), with no intersection.

T(C) is read by duality (Maclagan-Sturmfels, *Introduction to Tropical
Geometry*, 3.1), with no double description.  Star lemma: C's equations
and one inequality per vertex of its star, the maximal cells holding C,
cut out T(C).  Proof: let g be the convex lower envelope of the lifted
points and H = <m, y> - h the affine function equal to w at C's vertices.
g - H vanishes on C and is >= 0 on each star cell D, where g is affine and
equal to w at the vertices.  The star is a neighbourhood of relint C, so
the convex g - H is >= 0 along every segment from relint C: H <= g <= w at
every lattice point.  T(C) has as vertices the tropical vertices y_D of
its star (<m, y_D> - w(m) constant on D), as rays the outer normals of the
support's facets holding C, and as lineality the normals of the support's
equations.  With two or more parts the refinement only intersects part
cells, so it reads their rows and no generators.  The zero cell stays a
double description, an independent check of the duality reading.

The refinement of the part amoebas is built depth-first (Huber-Sturmfels,
*Math. Comp.* 64, 1995): a prefix with an empty meet is dropped with its
extensions.  Two mixed cells are not intersected when a facet row of one
is <= 0 at every vertex of the other: the row separates them, so their
interiors are disjoint.

The bounded complex is the list of its cells, parallel to the transversal
poset's elements.  Its face order is checked as it is built, and a failure
raises (:func:`order_complex_check`), so no report key holds it.
"""

from fractions import Fraction

from .errors import FalsificationError
from .linalg import (
    clear_denominators,
    dot,
    from_numerators,
    hermite_normal_form,
    solve_rational,
)
from .polytope import (
    Polyhedron,
    _reduce_mod_equations,
    bits,
    intersect,
    minkowski_sum_all,
    opposite_role,
    point_ray,
    polytope_from_hrep,
)
from .polytope import convex_hull as convex_hull  # for the bench tracer
from .sphere import _cell_key, _point_key, containment_order


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


def star_rows(subdivision, cell):
    """T(C)'s rows: <m0, y> - w(m0) = <m, y> - w(m) at C's vertices m, and
    >= at the vertices of its star (star lemma)."""
    w = subdivision.weight.values  # keyed by lattice points, as vertices are
    m0 = cell.vertices[0]
    w0 = w[m0]

    def row(m):
        return clear_denominators((w[m] - w0,)
                                  + tuple(a - b for a, b in zip(m0, m)))

    verts = sorted({m for k in bits(subdivision.star(cell))
                    for m in subdivision.maximal_cells[k].vertices})
    return (tuple(row(m) for m in cell.vertices[1:]),
            tuple(r for r in map(row, verts) if any(r)))


def tropical_vertex(subdivision, maximal_cell):
    """y_D: <m, y_D> - w(m) takes one value at the vertices m of D."""
    w = subdivision.weight
    m0, *rest = maximal_cell.vertices
    return solve_rational([tuple(a - b for a, b in zip(m, m0)) for m in rest],
                          [w(m) - w(m0) for m in rest])


def tropical_cell(subdivision, cell, rows, vertices):
    """T(C) read by duality from the tropical vertices of its star and the
    outer normals of the support's facets holding C, reduced modulo the
    lineality (the normals of the support's equations) as H->V reduces."""
    support = subdivision.support
    lin = hermite_normal_form([(0,) + e[1:] for e in support.equations])
    verts = [_reduce_mod_equations(clear_denominators((1,) + y), lin)
             for y in vertices]
    rays = [_reduce_mod_equations((0,) + tuple(-u for u in f[1:]), lin)[1:]
            for f in support.facets
            if all(dot(f, (1,) + v) == 0 for v in cell.vertices)]
    return TropicalCell(cell, Polyhedron(
        support.ambient, opposite_role(support.role),
        tuple(sorted({from_numerators(r[1:], r[0]) for r in verts})),
        tuple(sorted(rays)), tuple(l[1:] for l in lin), *rows))


class TropicalCells:
    """Tropical cells read once per (support, cell): :meth:`rows` gives the
    star rows, a call the cell with its generators.  Every subdivision
    passed to one memo carries a restriction of one weight function (a
    run's omega on its support and on the parts)."""

    def __init__(self):
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def rows(self, sub, cell):
        return self._get((sub.support, cell, "rows"),
                         lambda: star_rows(sub, cell))

    def __call__(self, sub, cell):
        return self._get((sub.support, cell), lambda: tropical_cell(
            sub, cell, self.rows(sub, cell),
            {self._get((sub.support, d, "vertex"),
                       lambda: tropical_vertex(sub, d))
             for d in map(sub.maximal_cells.__getitem__,
                          bits(sub.star(cell)))}))


def amoeba(subdivision, tropical_cells):
    """All dual cells of positive-dimension subdivision cells.

    The subdivision is a coned (lower-hull) subdivision of its support; the
    support's weight function supplies the heights.  `tropical_cells` is
    the :class:`TropicalCells` memo of the run.
    """
    return [tropical_cells(subdivision, cell)
            for cell in subdivision.cells() if cell.dim > 0]


def tropical_zero_cell(support, weight):
    """{y : <m, y> <= w(m) for every lattice point m of the support}."""
    rows = []
    for m in support.lattice_points():
        row = clear_denominators((weight(m),) + tuple(-x for x in m))
        rows.append(row)
    return polytope_from_hrep([], rows, opposite_role(support.role),
                              support.ambient)


def bounded_tropical_complex(p_poset, boundary, ambient_dim, tropical_cells):
    """The bounded tropical complex over the transversal poset: the bounded
    cells dual to the coned transversal cells, a list parallel to the
    poset's elements.

    Verifies that every cell is bounded, that dimensions are complementary,
    and that the face relation is opposite to the poset order
    (:func:`order_complex_check`).  `tropical_cells` is the
    :class:`TropicalCells` memo of the run.
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
    order_complex_check(p_poset, containment_order([c.poly for c in cells]))
    return cells


def order_complex_check(poset, containment):
    """Cell j lies in cell i iff i <= j: the barycenter map is an order
    anti-isomorphism onto the poset, hence injective.  `containment` is the
    cells' inclusion relation (:func:`containment_order`): bit i of entry j
    is set iff cell j lies in cell i.  The certificate is the first (i, j)
    in row order where the two relations differ."""
    diff = [c ^ b for c, b in zip(containment, poset._below)]
    if not any(diff):
        return
    i = min((d & -d).bit_length() - 1 for d in diff if d)
    j = next(j for j, d in enumerate(diff) if d >> i & 1)
    raise FalsificationError(
        "tropical face order is not opposite to the poset order",
        {"i": i, "j": j, "poset_leq": poset.leq(i, j),
         "geometric_containment": containment[j] >> i & 1 == 1})


def bounded_amoeba_matches_zero_cell(amoeba_cells, f0):
    """Bounded amoeba cells coincide with the proper faces of the zero cell.

    A bounded cell's vertices are its extreme points, so its key starts
    with the key of the polytope on them (:meth:`Polyhedron.key`)."""
    bounded = {t.poly.key()[:2] for t in amoeba_cells if t.bounded}
    faces = f0.face_keys() - {f0.key()}
    return {
        "bounded_cells": len(bounded),
        "proper_zero_cell_faces": len(faces),
        "passed": bounded == faces,
    }


def bounded_cells_check(part_subdivisions, boundary, p_poset,
                        complex_cells, tropical_cells):
    """The bounded common refinement of the part amoebas equals the complex.

    Checks cell-wise F_cone = intersection of the per-part tropical cells of
    the sliced cones, and that every bounded refinement cell lands inside a
    single complex cell, on the refinement built depth-first.
    `complex_cells` are the cells of :func:`bounded_tropical_complex` and
    `tropical_cells` is the :class:`TropicalCells` memo of the run.
    """
    ambient = boundary.parent.support.ambient
    role = opposite_role(boundary.parent.support.role)
    report = {"cellwise_equal": True, "refinement_inside_complex": True,
              "complex_cells_realized": True, "sliced_cones_are_cells": True}

    def meet(pieces):
        return Polyhedron.from_hrep([r for p in pieces for r in p[0]],
                                    [r for p in pieces for r in p[1]],
                                    role, ambient)

    part_cells = [set(sub.cells()) for sub in part_subdivisions]
    # Cell-wise equality over transversal cells.
    for k, e in enumerate(p_poset.elements):
        sliced = [boundary.coned(s) for s in e.slices]
        if any(c not in cells for c, cells in zip(sliced, part_cells)):
            report["sliced_cones_are_cells"] = False
            continue
        found = meet([tropical_cells.rows(sub, c)
                      for sub, c in zip(part_subdivisions, sliced)])
        if found is None or found.key() != complex_cells[k].poly.key():
            report["cellwise_equal"] = False
    # Refinement side: every bounded intersection of positive-dimension part
    # cells lies inside some complex cell.
    cells_by_part = [[(sub, c) for c in sub.cells() if c.dim > 0]
                     for sub in part_subdivisions]
    realized = set()
    complex_keys = {c.poly.key(): idx for idx, c in enumerate(complex_cells)}
    prefixes = [[]]  # depth-first: a prefix is extended by the next part
    while prefixes:
        prefix = prefixes.pop()
        for sub, c in cells_by_part[len(prefix)]:
            pieces = prefix + [tropical_cells.rows(sub, c)]
            last = len(pieces) == len(cells_by_part)
            if len(pieces) > 1:
                found = meet(pieces)
            else:  # one part's cell is its tropical cell, never empty
                found = tropical_cells(sub, c).poly if last else True
            if found is None:
                continue
            if not last:
                prefixes.append(pieces)
            elif found.key() in complex_keys:
                realized.add(complex_keys[found.key()])
            elif found.is_bounded():
                rays = [point_ray(v) for v in found.vertices]
                if not any(all(c.poly.contains_ray(ray) for ray in rays)
                           for c in complex_cells):
                    report["refinement_inside_complex"] = False
    if len(realized) != len(complex_cells):
        report["complex_cells_realized"] = False
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


def mixed_subdivision_check(boundary, poset, delta):
    """The per-cell slice sums tile the sum polytope (exact volumes); the
    cells are the cones over the boundary's maximal cells, whose empty
    slices add only the origin."""
    report = {"full_dimensional": True, "volume_matches": True,
              "interiors_disjoint": True}
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
        total += cell_sum.volume_in(delta)
    if total != delta.volume_in(delta):
        report["volume_matches"] = False
    rays = [[point_ray(v) for v in c.vertices] for c in mixed]
    for i in range(len(mixed)):
        for j in range(i + 1, len(mixed)):
            if any(all(dot(f, r) <= 0 for r in rays[b])
                   for a, b in ((i, j), (j, i)) for f in mixed[a].facets):
                continue
            meet = intersect(mixed[i], mixed[j])
            if meet is not None and meet.dim == delta.dim:
                report["interiors_disjoint"] = False
    report["passed"] = all(v for k, v in report.items() if k != "passed")
    return report


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
