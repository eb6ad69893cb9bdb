import pytest

from nefsphere import Pipeline
from nefsphere.cli import load_input
from nefsphere.homology import order_complex_homology
from nefsphere.polytope import dilate, intersect
from nefsphere.sphere import projection_images
from test_cli import path
from test_order_masks import sigma_successors

INPUTS = ["triangle", "square_sum", "pentagon_pair", "simplex3",
          "segment_weighted", "prism_pair_5d"]


def _data_pipeline(name):
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


def _bsd_homology(sigma):
    return order_complex_homology(len(sigma.pairs), sigma_successors(sigma))


def test_r1_every_cell_transversal(triangle_pipe):
    p = triangle_pipe
    assert len(p.p_poset()) == len(p.s_boundary().cells)


def test_r1_minkowski_cell_is_cell(triangle_pipe):
    for e in triangle_pipe.p_poset().elements:
        assert e.minkowski == e.cell


def test_pentagon_transversal_cells(pentagon_pipe):
    # Exactly the two crossing edges are transversal.
    p = pentagon_pipe.p_poset()
    assert len(p) == 2
    got = {e.cell.vertices for e in p.elements}
    assert got == {(( -1, -1), (1, 0)), ((0, 1), (1, 0))}


def test_pentagon_minkowski_cells_and_support(pentagon_pipe):
    # Oracle: direct computation of the sum intersected with the scaled
    # boundary gives two single points.
    cells = {c.vertices for c in pentagon_pipe.p_minkowski_complex().cells}
    assert cells == {((0, -1),), ((1, 1),)}
    assert pentagon_pipe.p_minkowski_complex().report["passed"]
    assert pentagon_pipe.q_minkowski_complex().report["passed"]


def test_minimal_transversal_cell_slices_are_points(pentagon_pipe):
    poset = pentagon_pipe.p_poset()
    for i in poset.minimal:
        for s in poset.elements[i].slices:
            assert s.dim == 0


def test_minkowski_formula_cross_check(prism_pair_pipe):
    # sum of slices == r*cell intersected with the sum polytope
    poset = prism_pair_pipe.p_poset()
    nef = prism_pair_pipe.nef
    for e in poset.elements[:20]:
        direct = intersect(dilate(e.cell, nef.r), nef.sum_polytope)
        assert direct == e.minkowski


def test_adjoint_pairs_triangle(triangle_pipe):
    # r=1 on the boundary of a reflexive triangle: 12 pairs forming a circle.
    sigma = triangle_pipe.sigma()
    assert len(sigma) == 12
    assert sigma.euler_characteristic() == 0
    assert triangle_pipe.sigma_homology() == [(1, ()), (1, ())]
    assert sigma.is_closed_pseudomanifold()


def test_sigma_square_product_of_spheres(square_pipe):
    sigma = square_pipe.sigma()
    assert len(sigma) == 4
    assert all(d == 0 for d in sigma.dims)
    assert square_pipe.sigma_homology() == [(4, ())]


def test_sigma_pentagon_zero_sphere(pentagon_pipe):
    assert pentagon_pipe.sigma_homology() == [(2, ())]
    assert pentagon_pipe.sigma().euler_characteristic() == 2


def test_sigma_simplex3_two_sphere(simplex3_pipe):
    assert simplex3_pipe.sigma_homology() == [(1, ()), (0, ()), (1, ())]
    assert simplex3_pipe.sigma().euler_characteristic() == 2
    assert simplex3_pipe.sigma().is_closed_pseudomanifold()


def test_euler_formula_irreducible(triangle_pipe, pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, pentagon_pipe, simplex3_pipe):
        d = pipe.nef.ambient
        r = pipe.nef.r
        assert pipe.sigma().euler_characteristic() == 1 + (-1) ** (d - r)


def test_dimension_bound(simplex3_pipe):
    sigma = simplex3_pipe.sigma()
    bound = simplex3_pipe.nef.ambient - simplex3_pipe.nef.r
    assert max(sigma.dims) == bound
    assert all(dim <= bound for dim in sigma.dims)


def test_projection_images(triangle_pipe, pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, pentagon_pipe, simplex3_pipe):
        assert projection_images(pipe.sigma())["passed"]


def test_lemma_suite_standard_inputs(triangle_pipe, square_pipe,
                                     pentagon_pipe, simplex3_pipe):
    for pipe in (triangle_pipe, square_pipe, pentagon_pipe, simplex3_pipe):
        assert pipe.lemma_suite() == []


def test_lemma_suite_reuses_the_poset_slices(monkeypatch):
    # Every subdivision cell is sliced once per run: the lemma suite reads
    # the slices its poset was built from.
    from nefsphere import sphere
    calls = []
    real = sphere._slice
    monkeypatch.setattr(sphere, "_slice",
                        lambda cell, part: calls.append((cell, part))
                        or real(cell, part))
    pipe = _data_pipeline("simplex3")
    assert pipe.lemma_suite() == []
    assert len(calls) == len(set(calls)) > 0


def test_lemma_suite_randomized(randomized_partitions):
    assert randomized_partitions, "generator produced no partitions"
    saw_r2 = False
    for nef in randomized_partitions:
        saw_r2 = saw_r2 or nef.r >= 2
        pipe = Pipeline(nef)
        assert pipe.lemma_suite() == [], \
            f"lemma suite failed for parts {[p.vertices for p in nef.parts]}"
    assert saw_r2, "randomized sample contains no r >= 2 partition"


def test_elliptic_dimension_has_empty_discriminant(randomized_partitions):
    # d - r = 1 inputs: no adjoint pair can be non-smooth.
    from nefsphere.monodromy import discriminant
    seen = 0
    for nef in randomized_partitions:
        if nef.ambient - nef.r != 1:
            continue
        seen += 1
        pipe = Pipeline(nef)
        assert discriminant(pipe.sigma()).is_empty()
        assert pipe.sigma_homology() == [(1, ()), (1, ())]
    assert seen > 0, "no d - r = 1 partition in the randomized sample"


@pytest.mark.parametrize("name", INPUTS)
def test_cellular_homology_matches_bsd(name):
    # Sigma is regular CW: its cellular homology equals the homology of the
    # order complex of its face poset (the barycentric subdivision).
    pipe = _data_pipeline(name)
    for sigma in (pipe.sigma(), pipe.dual_pipeline().sigma()):
        assert sigma.homology() == _bsd_homology(sigma)


def test_cellular_homology_matches_bsd_randomized(randomized_partitions):
    for nef in randomized_partitions:
        sigma = Pipeline(nef).sigma()
        assert sigma.homology() == _bsd_homology(sigma), \
            f"parts {[p.vertices for p in nef.parts]}"


@pytest.mark.parametrize("name", ["simplex3", "segment_weighted"])
def test_sigma_order_is_the_product_order(name):
    sigma = _data_pipeline(name).sigma()
    p, q = sigma.p_poset, sigma.q_poset
    n = len(sigma.pairs)
    succ = sigma_successors(sigma)
    for a, (i, j) in enumerate(sigma.pairs):
        want = [b for b, (i2, j2) in enumerate(sigma.pairs)
                if p.leq(i, i2) and q.leq(j, j2)]
        assert [b for b in range(n) if sigma.leq(a, b)] == want
        assert succ[a] == [b for b in want if b != a]


DATA_INPUTS = INPUTS + ["prism_pair_5d_kinked", "product_triangles_6d"]


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_containment_order_matches_all_vertices_route(name):
    # The bitmask relation is the brute-force one (every vertex of cell i
    # tested against cell j), and it is the poset's order on both sides.
    from nefsphere.sphere import containment_order
    pipe = _data_pipeline(name)
    for poset in (pipe.p_poset(), pipe.q_poset()):
        cells = [e.minkowski for e in poset.elements]
        n = len(cells)
        got = containment_order(cells)
        want = [sum(1 << j for j in range(n)
                    if all(cells[j].contains(v) for v in cells[i].vertices))
                for i in range(n)]
        assert got == want
        assert all(poset.leq(i, j) == bool(got[i] >> j & 1)
                   for i in range(n) for j in range(n))
