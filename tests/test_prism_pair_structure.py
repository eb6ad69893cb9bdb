"""Regression values for the five-dimensional two-prism input.

The unit-weight run collides the two would-be discriminant circles along the
shared interval direction; a weight kinked in that coordinate separates the
collision into twelve clean primitive circles (the resolved picture).  These
tests freeze the exactly computed structure of both runs.
"""

from fractions import Fraction

from nefsphere import NefPartition, Pipeline

from conftest import PRISM_PAIR_5D


def test_unit_weight_structure(prism_pair_pipe):
    pipe = prism_pair_pipe
    assert len(pipe.s_boundary().cells) == 158
    assert len(pipe.t_boundary().cells) == 146
    assert len(pipe.p_poset()) == 120
    assert len(pipe.q_poset()) == 120
    assert len(pipe.p_poset().minimal) == 18
    assert len(pipe.q_poset().minimal) == 15
    sigma = pipe.sigma()
    assert len(sigma) == 888
    by_dim = {}
    for d in sigma.dims:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 108, 1: 324, 2: 336, 3: 120}
    assert sigma.euler_characteristic() == 0


def test_unit_weight_discriminant_regression(prism_pair_pipe):
    disc = prism_pair_pipe.discriminant()
    assert len(disc.vertex_ids) == 135
    sizes = sorted(len(c) for c in disc.components)
    assert sizes == [12, 12, 12, 12, 12, 12, 63]
    circle = [(1, ()), (1, ())]
    homs = sorted(str(h) for h in disc.component_homology)
    assert homs.count(str(circle)) == 6
    assert str([(1, ()), (10, ())]) in homs


def test_unit_weight_global_regression(prism_pair_pipe):
    g = prism_pair_pipe.global_report()
    assert g["divisors"] == [1, 1, 3, 3, 3, 3, 3, 3]
    assert g["log_rank"] == 8
    assert not g["commuting"]
    assert g["graph_components"] == 1


def test_unit_weight_loop_count(prism_pair_pipe):
    loops = prism_pair_pipe.loops()
    assert len(loops) == 756
    assert sum(1 for l in loops if l.degenerate) == 504


def test_role_swap_preserves_topology(prism_pair_pipe):
    # The role-swapped run must reproduce the same sphere and discriminant.
    dual_pipe = prism_pair_pipe.dual_pipeline()
    assert dual_pipe.sigma_homology() == prism_pair_pipe.sigma_homology()
    d1 = prism_pair_pipe.discriminant()
    d2 = dual_pipe.discriminant()
    assert sorted(len(c) for c in d1.components) == \
        sorted(len(c) for c in d2.components)
    assert sorted(str(h) for h in d1.component_homology) == \
        sorted(str(h) for h in d2.component_homology)


def test_interval_kink_weight_separates_circles():
    # Breaking the symmetry of the shared interval coordinate splits the
    # mixed cells diagonally: every discriminant component becomes a clean
    # primitive circle (twelve of them, six per part).
    nef = NefPartition.from_vertex_lists(PRISM_PAIR_5D)
    eps = Fraction(1, 4)

    def kink(pt):
        return 1 + eps * abs(pt[0])

    omega = [(pt, (Fraction(0) if not any(pt) else kink(pt)))
             for pt in nef.parts_hull.lattice_points()]
    nu = [(pt, (Fraction(0) if not any(pt) else kink(pt)))
          for pt in nef.sum_polar.lattice_points()]
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    disc = pipe.discriminant()
    assert len(disc.components) == 12
    assert all(len(c) == 12 for c in disc.components)
    assert all(h == [(1, ()), (1, ())] for h in disc.component_homology)
    assert pipe.sigma_homology() == [(1, ()), (0, ()), (0, ()), (1, ())]


def test_unit_weight_amoeba_regression(prism_pair_pipe):
    from nefsphere.tropical import TropicalCells, amoeba
    assert len(prism_pair_pipe.amoeba()) == 304
    for sub in prism_pair_pipe.part_subdivisions():
        assert len(amoeba(sub, TropicalCells())) == 32
