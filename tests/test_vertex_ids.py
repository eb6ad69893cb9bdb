"""One vertex numbering per complex: the routes it replaced are oracles.

A boundary subdivision numbers its vertices once, while it walks the
maximal cells' face lattices (:func:`subdivision._face_closure`), and every
order among its cells, the transversal posets' and the Minkowski cells'
containment and face checks read vertex-id masks.  The routes those masks
replaced live here:

- the set of every maximal cell's faces, sorted, with a second pass that
  numbers the vertices of the sorted cells;
- containment as a pairwise test of every cell's vertex mask against every
  cell's mask of the vertices inside it;
- the face check as sets of vertex-tuple keys of the top cell's faces.

Each new route must give the old one's answer on every ``tests/data``
input, on both sides.
"""

import glob
import os
from itertools import combinations

import pytest

from nefsphere import Pipeline, sphere
from nefsphere.cli import load_input
from nefsphere.linalg import dot
from nefsphere.polytope import bits, convex_hull, dilate, point_ray
from nefsphere.subdivision import _face_closure
from test_cli import DATA, path
from test_sphere import _maximal_above

ALL_INPUTS = sorted(
    os.path.basename(f)[:-len(".json")]
    for f in glob.glob(os.path.join(DATA, "*.json"))
    if not f.endswith("malformed.json"))


def _pipeline(name):
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


# -- oracles: the routes the vertex ids replaced ------------------------------


def face_closure_by_sets(maximal_cells):
    """(cells, masks): the set of the maximal cells and all their faces,
    sorted, and each cell's mask in a numbering that gives a vertex its
    bit when first seen in that order."""
    cells = set(maximal_cells)
    cells.update(c.face_polytope(g, d) for c in maximal_cells
                 for g, d in c.faces().items() if d < c.dim)
    cells = tuple(sorted(cells))
    ids = {}
    masks = tuple(sum(1 << ids.setdefault(v, len(ids)) for v in c.vertices)
                  for c in cells)
    return cells, masks


def containment_order_pairwise(cells, marks=None):
    """Inclusion masks: each cell's mask of the vertices it holds, tested
    against every vertex whose marks hold the cell's common mask, and then
    i <= j iff vmask[i] & inside[j] == vmask[i], pair by pair."""
    ids = {}
    vmask = [sum(1 << ids.setdefault(v, len(ids)) for v in c.vertices)
             for c in cells]
    if marks is None:
        marks = {v: (point_ray(v), 0) for v in ids}
    rays = [marks[v] for v in ids]
    inside = []
    for c in cells:
        need = -1
        for v in c.vertices:
            need &= marks[v][1]
        inside.append(sum(1 << t for t, (ray, on) in enumerate(rays)
                          if on & need == need and c.contains_ray(ray)))
    return [sum(1 << j for j, ins in enumerate(inside) if vm & ins == vm)
            for vm in vmask]


def face_lattices_match_by_keys(poset):
    """The face check with faces as vertex-tuple keys: the keys of the
    faces of the lowest maximal cell above each cell, inside it, must be
    exactly the keys of the elements below it."""
    cells = [e.minkowski for e in poset.elements]
    maximal = sum(1 << j for j in range(len(cells))
                  if poset._above[j] == 1 << j)
    for j in range(len(cells)):
        below = poset.below(j)
        over = poset._above[j] & maximal
        top = cells[(over & -over).bit_length() - 1]
        inside = sum(1 << i for i, v in enumerate(top.vertices)
                     if v in set(cells[j].vertices))
        keys = {(top.role, tuple(top.vertices[i] for i in bits(g)))
                for g in top.faces() if g & inside == g}
        if len(keys) != len(below) or any(cells[i].key() not in keys
                                          for i in below):
            return False
    return True


def minkowski_marks(cells, hull, r):
    """Each vertex's ray and the mask of the facets of r * hull it lies on,
    as :func:`sphere.minkowski_complex` marks them."""
    rows = dilate(hull, r).facets
    marks = {}
    for c in cells:
        for v in c.vertices:
            if v not in marks:
                ray = point_ray(v)
                marks[v] = ray, sum(1 << t for t, f in enumerate(rows)
                                    if dot(f, ray) == 0)
    return marks


def vertex_ids(cells, masks):
    """The vertex numbering read off the 0-cells' one-bit masks."""
    return {c.vertices[0]: m.bit_length() - 1
            for c, m in zip(cells, masks) if c.dim == 0}


def inclusion(cells, masks):
    """The inclusion relation as pairs of cells, whatever the numbering."""
    above, _ = sphere._inclusion_masks(masks, masks)
    return {(cells[i], cells[j]) for i, mask in enumerate(above)
            for j in bits(mask)}


# -- the new routes against the oracles ---------------------------------------


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_vertex_id_routes_match_the_routes_they_replaced(name):
    pipe = _pipeline(name)
    nef = pipe.nef
    for boundary, poset, hull, check in (
            (pipe.s_boundary(), pipe.p_poset(), nef.parts_hull,
             pipe.p_minkowski_complex),
            (pipe.t_boundary(), pipe.q_poset(), nef.sum_polar,
             pipe.q_minkowski_complex)):
        # The same cells in the same order, each mask its vertex set in
        # one numbering, and the same inclusion as the old numbering's.
        cells, masks = face_closure_by_sets(boundary.maximal_cells)
        assert boundary.cells == cells
        assert boundary.cells == _face_closure(boundary.maximal_cells)[0]
        ids = vertex_ids(boundary.cells, boundary.vertex_masks)
        assert len(ids) == len({v for c in cells for v in c.vertices})
        assert list(boundary.vertex_masks) == [
            sum(1 << ids[v] for v in c.vertices) for c in cells]
        assert inclusion(cells, boundary.vertex_masks) == \
            inclusion(cells, masks)
        # The poset keeps its elements' slice of those masks.
        index = {c: k for k, c in enumerate(boundary.cells)}
        assert poset.masks == tuple(boundary.vertex_masks[index[e.cell]]
                                    for e in poset.elements)
        # The same containment, with and without the facet marks.
        minkowski = [e.minkowski for e in poset.elements]
        marks = minkowski_marks(minkowski, hull, nef.r)
        got = sphere.containment_order(minkowski, marks)
        assert got == containment_order_pairwise(minkowski, marks) \
            == poset._above
        assert sphere.containment_order(minkowski) == \
            containment_order_pairwise(minkowski)
        # The same face verdict.
        assert check()["checks"]["face_lattices_match"] is \
            face_lattices_match_by_keys(poset)
    tropical = [c.poly for c in pipe.tropical_complex()]
    assert sphere.containment_order(tropical) == \
        containment_order_pairwise(tropical)


def test_containment_reads_the_vertices_inside_a_cell_not_its_own():
    # Not a complex: a point and a segment inside a square, off its
    # vertices.  A cell may hold vertices that are not its own, so the
    # order is read from each cell's mask of the vertices inside it.
    square = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)], "M")
    center = convex_hull([(1, 1)], "M")
    segment = convex_hull([(1, 1), (2, 2)], "M")
    outside = convex_hull([(3, 3), (2, 2)], "M")
    cells = [square, center, segment, outside]
    want = [sum(1 << j for j, c in enumerate(cells)
                if all(c.contains(v) for v in ci.vertices)) for ci in cells]
    assert want == [0b0001, 0b0111, 0b0101, 0b1000]
    assert sphere.containment_order(cells) == want == \
        containment_order_pairwise(cells)


def test_the_face_verdicts_of_doctored_posets_match_the_key_route():
    # A cell swapped for a polytope with a vertex off its maximal cell, for
    # a diagonal of it, or a dropped minimal cell: both routes read false,
    # and on the poset as built both read true.
    pipe = _pipeline("prism_pair_5d")
    poset, nef = pipe.p_poset(), pipe.nef

    def verdict(p):
        return sphere.minkowski_complex(p, nef.sum_polytope, nef.r,
                                        nef.parts_hull)["checks"][
            "face_lattices_match"]

    j = next(j for j in range(len(poset)) if poset.above(j) != [j])
    top = poset.elements[_maximal_above(poset, j)[0]].minkowski
    w = top.vertices[0]
    diagonal = next(
        (a, b) for a, b in combinations(range(len(top.vertices)), 2)
        if not top.is_face(1 << a | 1 << b))
    doctored = []
    for fake in (convex_hull([w, tuple(2 * x for x in w)], top.role),
                 convex_hull([top.vertices[k] for k in diagonal], top.role)):
        elements = list(poset.elements)
        e = elements[j]
        elements[j] = sphere.TransversalCell(e.cell, e.slices, fake)
        doctored.append(sphere.TransversalPoset(
            poset.parts, elements, poset.slices, poset.masks, poset._above,
            poset._below))
    i = next(i for i in poset.minimal if poset.above(i) != [i])
    masks = [m for k, m in enumerate(poset.masks) if k != i]
    doctored.append(sphere.TransversalPoset(
        poset.parts, [e for k, e in enumerate(poset.elements) if k != i],
        poset.slices, masks, *sphere._inclusion_masks(masks, masks)))
    assert verdict(poset) is face_lattices_match_by_keys(poset) is True
    for p in doctored:
        assert verdict(p) is face_lattices_match_by_keys(p) is False


def test_a_repeated_cell_fails_the_face_check():
    # One cell's Minkowski cell repeated in place of another's below the
    # same top: the face check reads false, as the key route does, and so
    # does injectivity.
    pipe = _pipeline("simplex3")
    poset, nef = pipe.p_poset(), pipe.nef
    j = next(j for j in range(len(poset)) if len(poset.below(j)) > 2)
    a, b = [i for i in poset.below(j) if i != j][:2]
    elements = list(poset.elements)
    elements[b] = sphere.TransversalCell(elements[b].cell, elements[b].slices,
                                         elements[a].minkowski)
    doctored = sphere.TransversalPoset(poset.parts, elements, poset.slices,
                                       poset.masks, poset._above,
                                       poset._below)
    checks = sphere.minkowski_complex(doctored, nef.sum_polytope, nef.r,
                                      nef.parts_hull)["checks"]
    assert checks["face_lattices_match"] is False
    assert face_lattices_match_by_keys(doctored) is False
    assert checks["injective"] is False


# -- metamorphic: the numbering is arbitrary ----------------------------------


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked",
                                  "product_triangles_6d"])
def test_reversed_maximal_cells_give_the_same_cells_and_inclusion(name):
    # Walking the maximal cells in reverse order numbers the vertices
    # otherwise, and the cells, their order and their inclusion stay.
    pipe = _pipeline(name)
    for boundary in (pipe.s_boundary(), pipe.t_boundary()):
        cells, masks = _face_closure(boundary.maximal_cells)
        back, back_masks = _face_closure(boundary.maximal_cells[::-1])
        assert back == cells
        assert back_masks != masks
        assert inclusion(back, back_masks) == inclusion(cells, masks)
    assert _face_closure(()) == ((), ())
