import random
from fractions import Fraction

import pytest

from nefsphere import NefPartition, Pipeline
from nefsphere.linalg import clear_denominators, det, saturated_span_basis
from nefsphere.monodromy import pinched_parts
from nefsphere.nef import validate_nef_partition
from nefsphere.polytope import convex_hull, polytope_from_hrep

TRIANGLE = [[(1, 0), (0, 1), (-1, -1)]]
SQUARE_SUM = [[(1, 0), (-1, 0)], [(0, 1), (0, -1)]]
PENTAGON = [[(1, 0), (0, 0)], [(0, 1), (0, 0), (-1, -1)]]
SIMPLEX3 = [[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]]

PRISM_PAIR_5D = [
    [(0, -1, -1, 0, 0), (0, 2, -1, 0, 0), (0, -1, 2, 0, 0),
     (1, -1, -1, 0, 0), (1, 2, -1, 0, 0), (1, -1, 2, 0, 0)],
    [(0, 0, 0, -1, -1), (0, 0, 0, 2, -1), (0, 0, 0, -1, 2),
     (-1, 0, 0, -1, -1), (-1, 0, 0, 2, -1), (-1, 0, 0, -1, 2)],
]
PRISM_PAIR_DUALS = [
    [(1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (0, 1, 1, 0, 0)],
    [(-1, 0, 0, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, -1), (0, 0, 0, 1, 1)],
]


def transpose(m):
    return tuple(zip(*m))


def lattice_volume(p):
    """Volume normalized so a unimodular simplex has volume 1/dim!: the
    volume projected onto p's free coordinates (Polytope.volume_in) over
    the projected volume of a saturated lattice basis of its directions."""
    base = p.vertices[0]
    dirs = [clear_denominators(tuple(a - b for a, b in zip(v, base)))
            for v in p.vertices[1:]]
    free = p.free_coordinates()
    cell = [[b[i] for i in free] for b in saturated_span_basis(dirs, p.ambient)]
    return p.volume_in(p) / abs(det(cell))


def smooth_pair(sigma, k):
    """Whether cell k of Sigma is smooth: pinched in no part."""
    return not pinched_parts(sigma, k)


# -- the generic weight ------------------------------------------------------

# The quadratic form of simplex3's generic weight: its diagonal and its
# cross terms, as written into tests/data/simplex3_generic.json.
SIMPLEX3_FORM = (
    (Fraction(3, 7), Fraction(5, 11), Fraction(7, 13)),
    {(0, 1): Fraction(1, 23), (0, 2): Fraction(1, 29), (1, 2): Fraction(1, 41)})


def seeded_form(dim, seed):
    """A positive quadratic form with seeded rational coefficients: diagonal
    entries a/b (a in 1..97, b in 98..199) and cross terms 1/c (c in
    20..97), drawn from random.Random(seed)."""
    rng = random.Random(seed)
    diag = tuple(Fraction(rng.randint(1, 97), rng.randint(98, 199))
                 for _ in range(dim))
    cross = {(i, j): Fraction(1, rng.randint(20, 97))
             for i in range(dim) for j in range(i + 1, dim)}
    return diag, cross


def generic_weight(points, form=None, seed=None):
    """The generic weight on `points` as [point, value] pairs: 0 at the
    origin and 1 + q(m)/64 elsewhere, q the quadratic `form` (diagonal,
    cross terms), or the :func:`seeded_form` of `seed`."""
    points = list(points)
    diag, cross = form if form is not None else seeded_form(
        len(points[0]), seed)

    def q(m):
        return (sum(a * x * x for a, x in zip(diag, m))
                + sum(c * m[i] * m[j] for (i, j), c in cross.items()))

    return [(m, Fraction(1) + q(m) / 64 if any(m) else Fraction(0))
            for m in points]


def make_pipeline(lists, omega="all_ones", nu="all_ones"):
    return Pipeline(NefPartition.from_vertex_lists(lists),
                    omega_spec=omega, nu_spec=nu)


@pytest.fixture(scope="session")
def triangle_pipe():
    return make_pipeline(TRIANGLE)


@pytest.fixture(scope="session")
def square_pipe():
    return make_pipeline(SQUARE_SUM)


@pytest.fixture(scope="session")
def pentagon_pipe():
    return make_pipeline(PENTAGON)


@pytest.fixture(scope="session")
def simplex3_pipe():
    return make_pipeline(SIMPLEX3)


@pytest.fixture(scope="session")
def prism_pair_pipe():
    return make_pipeline(PRISM_PAIR_5D)


# -- randomized reflexive nef-partitions -------------------------------------

REFLEXIVE_2D = [
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(1, 1), (1, -1), (-1, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
]
REFLEXIVE_3D = [
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)],
]


def partition_from_ray_split(base, groups):
    """Candidate nef-partition from a partition of the polar's vertex set.

    Each part is {m : <m, e> <= 1 for chosen rays e, <= 0 for the rest};
    returns None unless the construction yields a valid nef-partition.
    """
    from nefsphere.polytope import polar_dual
    dim = base.ambient
    polar = polar_dual(base)
    rays = list(polar.vertices)
    parts = []
    for group in groups:
        ineqs = []
        for k, e in enumerate(rays):
            bound = 1 if k in group else 0
            ineqs.append((bound,) + tuple(-x for x in e))
        poly = polytope_from_hrep([], ineqs, base.role, dim)
        if poly is None or not poly.is_lattice_polytope():
            return None
        if not poly.contains((0,) * dim):
            return None
        parts.append(poly)
    try:
        nef = NefPartition(parts, base.role)
    except Exception:
        return None
    if nef.sum_polytope != base:
        return None
    if not validate_nef_partition(nef).passed:
        return None
    return nef


def random_nef_partitions(seed=20260808, max_count=8):
    """Deterministic sample of valid 2D/3D nef-partitions with r in {1,2,3}."""
    rng = random.Random(seed)
    found = []
    bases = [convex_hull(vs, "M") for vs in REFLEXIVE_2D + REFLEXIVE_3D]
    for base in bases:
        from nefsphere.polytope import polar_dual
        nrays = len(polar_dual(base).vertices)
        found.append(NefPartition([base], "M"))  # r = 1 always works
        tried = set()
        for _ in range(20):
            r = rng.choice([2, 3])
            labels = tuple(rng.randrange(r) for _ in range(nrays))
            if len(set(labels)) != r or labels in tried:
                continue
            tried.add(labels)
            groups = [[k for k, l in enumerate(labels) if l == g]
                      for g in range(r)]
            nef = partition_from_ray_split(base, groups)
            if nef is not None:
                found.append(nef)
                break
    return found[:max_count]


@pytest.fixture(scope="session")
def randomized_partitions():
    return random_nef_partitions()
