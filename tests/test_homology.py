"""Integral homology of literal spaces, through both routes.

Each space is the simplicial complex spanned by a list of simplices.  Its
face poset feeds :func:`cellular_homology` (cells and their facets) and
:func:`order_complex_homology` (the chains, i.e. the barycentric
subdivision), and both must give the space's known groups.
"""

import pytest

from nefsphere.errors import FalsificationError
from nefsphere.homology import (
    cellular_homology,
    order_complex_homology,
    sparse_rank_and_divisors,
)
from nefsphere.sphere import is_closed_pseudomanifold

TORUS = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
         (3, 4, 6), (4, 6, 7), (4, 5, 7), (5, 7, 8), (3, 5, 8), (3, 6, 8),
         (0, 6, 7), (0, 1, 7), (1, 7, 8), (1, 2, 8), (2, 6, 8), (0, 2, 6)]
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2), (2, 3, 5),
       (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
CIRCLE = [(0, 1), (1, 2), (0, 2)]
S2 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
S3 = [tuple(sorted(set(range(5)) - {i})) for i in range(5)]


def face_poset(simplices):
    """(cells, dims, facets, below) of the face poset of the complex spanned
    by the simplices: cells in sorted order, facets[c] the codimension-one
    faces of cell c, below[c] the bitmask of its faces (c included)."""
    cells = set()
    for s in simplices:
        s = tuple(sorted(s))
        for mask in range(1, 1 << len(s)):
            cells.add(tuple(v for t, v in enumerate(s) if mask >> t & 1))
    cells = sorted(cells)
    index = {c: k for k, c in enumerate(cells)}
    dims = [len(c) - 1 for c in cells]
    facets = [[index[c[:i] + c[i + 1:]] for i in range(len(c))]
              if len(c) > 1 else [] for c in cells]
    below = [sum(1 << index[f] for f in cells if set(f) <= set(c))
             for c in cells]
    return cells, dims, facets, below


def successors(below, mask=None):
    """successors[t]: the cells strictly above the t-th cell, among the
    cells of `mask` (all cells by default), renumbered in order."""
    keep = [k for k in range(len(below)) if mask is None or mask >> k & 1]
    pos = {k: t for t, k in enumerate(keep)}
    return [[pos[j] for j in keep if j != k and below[j] >> k & 1]
            for k in keep]


def bsd(simplices):
    """The simplices of the barycentric subdivision: chains of faces."""
    _, dims, _, below = face_poset(simplices)
    succ = successors(below)
    chains, current = [], [(k,) for k in range(len(dims))]
    while current:
        chains.extend(current)
        current = [ch + (j,) for ch in current for j in succ[ch[-1]]]
    return chains


def both_routes(simplices):
    """The cellular homology of the complex, after checking that the
    order complex of its face poset has the same."""
    _, dims, facets, below = face_poset(simplices)
    hom = cellular_homology(dims, facets)
    assert order_complex_homology(len(dims), successors(below)) == hom
    return hom


def test_point():
    assert both_routes([(0,)]) == [(1, ())]


def test_circle():
    assert both_routes(CIRCLE) == [(1, ()), (1, ())]


def test_two_spheres_of_dims():
    assert both_routes(S2) == [(1, ()), (0, ()), (1, ())]
    assert both_routes(S3) == [(1, ()), (0, ()), (0, ()), (1, ())]


def test_torus():
    assert both_routes(TORUS) == [(1, ()), (2, ()), (1, ())]
    _, dims, _, below = face_poset(TORUS)
    assert is_closed_pseudomanifold(dims, below)


def test_projective_plane_torsion():
    assert both_routes(RP2) == [(1, ()), (0, (2,)), (0, ())]
    _, dims, _, below = face_poset(RP2)
    assert is_closed_pseudomanifold(dims, below)


def test_barycentric_subdivision_invariance():
    # The cells of bsd(RP^2), and the chains of its face poset (the second
    # subdivision), give RP^2's groups.
    assert both_routes(bsd(RP2)) == both_routes(RP2)


def test_disjoint_components():
    assert both_routes(CIRCLE + [(3,)]) == [(2, ()), (1, ())]


def test_order_complex_homology_matches_bsd():
    # The order complex of the torus's face poset is bsd(torus), cell by
    # cell: the chain route on the poset is the cellular route on bsd.
    _, dims, _, below = face_poset(TORUS)
    _, bsd_dims, bsd_facets, _ = face_poset(bsd(TORUS))
    assert order_complex_homology(len(dims), successors(below)) == \
        cellular_homology(bsd_dims, bsd_facets) == [(1, ()), (2, ()), (1, ())]


def test_sparse_rank_and_divisors():
    cols = [{0: 2, 1: 6}, {0: 4, 1: 8}]
    rank, divs = sparse_rank_and_divisors(cols)
    assert rank == 2
    assert tuple(divs) == (2, 4)
    rank, divs = sparse_rank_and_divisors([{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert rank == 1


def test_full_subcomplex():
    # A triangle with a whisker: the order complex of the cells on
    # {0, 1, 2} is the full subcomplex of bsd there (a disc), and the upper
    # set of cells at vertex 3 is the edge (3) < (2, 3).
    cells, _, _, below = face_poset([(0, 1, 2), (2, 3)])
    on_012 = sum(1 << k for k, c in enumerate(cells) if 3 not in c)
    at_3 = sum(1 << k for k, c in enumerate(cells) if 3 in c)
    assert order_complex_homology(
        on_012.bit_count(), successors(below, on_012)) == \
        [(1, ()), (0, ()), (0, ())]
    assert order_complex_homology(2, successors(below, at_3)) == \
        [(1, ()), (0, ())]


@pytest.mark.parametrize("simplices", [
    (CIRCLE, [(1, ()), (1, ())]),
    (S3, [(1, ()), (0, ()), (0, ()), (1, ())]),
    (TORUS, [(1, ()), (2, ()), (1, ())]),
    (RP2, [(1, ()), (0, (2,)), (0, ())]),
    ([(0, 1, 2), (2, 3), (4,)], [(2, ()), (0, ()), (0, ())]),
])
def test_cellular_homology_matches_simplicial(simplices):
    # Each case is (simplices, groups); both_routes checks the cellular
    # groups against the simplicial groups of the barycentric subdivision.
    spanned, want = simplices
    assert both_routes(spanned) == want


def test_cellular_homology_square_cell():
    # One square 2-cell on a 4-cycle (not a simplex): a disc.
    dims = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    facets = [[], [], [], [], [0, 1], [1, 2], [2, 3], [0, 3], [4, 5, 6, 7]]
    assert cellular_homology(dims, facets) == [(1, ()), (0, ()), (0, ())]
    assert cellular_homology([], []) == []


def test_cellular_homology_rejects_broken_diamond():
    # A 2-cell whose "boundary" is a triangle with a whisker: vertex 0 lies
    # in three of its edges and vertex 3 in only one.
    dims = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    facets = [[], [], [], [], [0, 1], [1, 2], [0, 2], [0, 3], [4, 5, 6, 7]]
    with pytest.raises(FalsificationError) as err:
        cellular_homology(dims, facets)
    assert "diamond" in err.value.claim
    assert err.value.certificate["cell"] == 8


def test_cellular_homology_rejects_disconnected_facets():
    # A 2-cell bounded by two disjoint triangles.
    dims = [0] * 6 + [1] * 6 + [2]
    facets = [[]] * 6 + [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]] + \
        [list(range(6, 12))]
    with pytest.raises(FalsificationError) as err:
        cellular_homology(dims, facets)
    assert err.value.certificate["cell"] == 12


def test_cellular_homology_rejects_bad_edge():
    with pytest.raises(FalsificationError) as err:
        cellular_homology([0, 1], [[], [0]])
    assert err.value.certificate["cell"] == 1


def test_cellular_homology_rejects_non_orientable_facets():
    # A 3-cell glued onto RP^2: every ridge (edge) lies in exactly two
    # facets and the facets are connected, but no signs make them cancel.
    _, dims, facets, _ = face_poset(RP2)
    triangles = [c for c, d in enumerate(dims) if d == 2]
    dims.append(3)
    facets.append(triangles)
    with pytest.raises(FalsificationError) as err:
        cellular_homology(dims, facets)
    assert "inconsistent" in err.value.claim
    assert err.value.certificate["cell"] == len(dims) - 1
