import pytest

from nefsphere.errors import FalsificationError
from nefsphere.homology import (
    SimplicialComplex,
    cellular_homology,
    order_complex_homology,
    sparse_rank_and_divisors,
)

TORUS = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
         (3, 4, 6), (4, 6, 7), (4, 5, 7), (5, 7, 8), (3, 5, 8), (3, 6, 8),
         (0, 6, 7), (0, 1, 7), (1, 7, 8), (1, 2, 8), (2, 6, 8), (0, 2, 6)]
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2), (2, 3, 5),
       (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


def test_point():
    c = SimplicialComplex.from_simplices([(0,)])
    assert c.homology() == [(1, ())]


def test_circle():
    c = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2)])
    assert c.homology() == [(1, ()), (1, ())]


def test_two_spheres_of_dims():
    s2 = SimplicialComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert s2.homology() == [(1, ()), (0, ()), (1, ())]
    s3 = SimplicialComplex.from_simplices(
        [tuple(sorted(set(range(5)) - {i})) for i in range(5)])
    assert s3.homology() == [(1, ()), (0, ()), (0, ()), (1, ())]


def test_torus():
    c = SimplicialComplex.from_simplices(TORUS)
    assert c.homology() == [(1, ()), (2, ()), (1, ())]
    assert c.is_closed_pseudomanifold()


def test_projective_plane_torsion():
    c = SimplicialComplex.from_simplices(RP2)
    assert c.homology() == [(1, ()), (0, (2,)), (0, ())]
    assert c.is_closed_pseudomanifold()


def test_barycentric_subdivision_invariance():
    c = SimplicialComplex.from_simplices(RP2)
    assert c.barycentric_subdivision().homology() == c.homology()


def test_disjoint_components():
    c = SimplicialComplex.from_simplices([(0, 1), (1, 2), (0, 2), (3,)])
    assert c.homology()[0] == (2, ())
    assert [len(comp) for comp in c.connected_components()] == [3, 1]


def test_order_complex_homology_matches_bsd():
    c = SimplicialComplex.from_simplices(TORUS)
    simplices = sorted(s for simps in c.by_dim.values() for s in simps)
    index = {s: i for i, s in enumerate(simplices)}
    succ = [[] for _ in simplices]
    for s, i in index.items():
        for t, j in index.items():
            if i != j and set(s) < set(t):
                succ[i].append(j)
    hom = order_complex_homology(len(simplices), succ)
    assert hom == c.homology()


def test_sparse_rank_and_divisors():
    cols = [{0: 2, 1: 6}, {0: 4, 1: 8}]
    rank, divs = sparse_rank_and_divisors(cols)
    assert rank == 2
    assert tuple(divs) == (2, 4)
    rank, divs = sparse_rank_and_divisors([{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert rank == 1


def test_full_subcomplex():
    c = SimplicialComplex.from_simplices([(0, 1, 2), (2, 3)])
    sub = c.full_subcomplex({0, 1, 2})
    assert sub.f_vector() == (3, 3, 1)


def _face_poset(simplices):
    """(dims, facets) of the face poset of a simplicial complex."""
    c = SimplicialComplex.from_simplices(simplices)
    cells = sorted(s for simps in c.by_dim.values() for s in simps)
    index = {s: i for i, s in enumerate(cells)}
    dims = [len(s) - 1 for s in cells]
    facets = [[index[s[:i] + s[i + 1:]] for i in range(len(s))]
              if len(s) > 1 else [] for s in cells]
    return c, dims, facets


@pytest.mark.parametrize("simplices", [
    [(0, 1), (1, 2), (0, 2)],
    [tuple(sorted(set(range(5)) - {i})) for i in range(5)],
    TORUS,
    RP2,
    [(0, 1, 2), (2, 3), (4,)],
])
def test_cellular_homology_matches_simplicial(simplices):
    c, dims, facets = _face_poset(simplices)
    assert cellular_homology(dims, facets) == c.homology()


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
    _, dims, facets = _face_poset(RP2)
    triangles = [c for c, d in enumerate(dims) if d == 2]
    dims.append(3)
    facets.append(triangles)
    with pytest.raises(FalsificationError) as err:
        cellular_homology(dims, facets)
    assert "inconsistent" in err.value.claim
    assert err.value.certificate["cell"] == len(dims) - 1
