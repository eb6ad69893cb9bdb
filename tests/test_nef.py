import json
import os
import random
from fractions import Fraction

import pytest

from nefsphere import NefPartition, Pipeline, dual_nef_partition, \
    interior_vectors, is_irreducible, validate_nef_partition
from nefsphere.cli import load_input
from nefsphere.linalg import dot
from nefsphere.nef import InteriorVectors, NefPartitionError, \
    ValidationCheck, _strict_combination
from nefsphere.polytope import ROLE_M, ROLE_N, Vector, convex_hull, \
    opposite_role, pair, polar_dual, polytope_from_hrep

from conftest import PENTAGON, PRISM_PAIR_5D, PRISM_PAIR_DUALS, SQUARE_SUM, TRIANGLE
from test_cli import DATA, path
from test_monodromy import DATA_NAMES


def support_value(nef, i, x):
    """phi_i(x) = max over the i-th part of <y, x>."""
    assert 0 <= i < nef.r, "part index out of range"
    return max(dot(v, x.coords) for v in nef.parts[i].vertices)


def test_support_value_examples():
    nef = NefPartition.from_vertex_lists(PRISM_PAIR_5D)
    origin = Vector((0, 0, 0, 0, 0), ROLE_N)
    assert support_value(nef, 0, origin) == 0
    # The first listed dual vertex evaluates to 1 under the first support.
    assert support_value(nef, 0, Vector((1, 0, 0, 0, 0), ROLE_N)) == 1
    # On the polar of the sum every support value is at most 1.
    for x in nef.sum_polar.vertices:
        assert support_value(nef, 0, Vector(x, ROLE_N)) <= 1
        assert support_value(nef, 1, Vector(x, ROLE_N)) <= 1


def test_dual_r1_is_polar():
    nef = NefPartition.from_vertex_lists(TRIANGLE)
    dual = dual_nef_partition(nef)
    assert len(dual.parts) == 1
    assert dual.parts[0] == polar_dual(nef.sum_polytope)


def test_dual_prism_pair_matches_published_lists():
    nef = NefPartition.from_vertex_lists(PRISM_PAIR_5D)
    dual = dual_nef_partition(nef)
    got = [set(tuple(int(x) for x in v) for v in p.vertices)
           for p in dual.parts]
    assert got == [set(map(tuple, PRISM_PAIR_DUALS[0])),
                   set(map(tuple, PRISM_PAIR_DUALS[1]))]


def test_dual_reducible_square():
    nef = NefPartition.from_vertex_lists(SQUARE_SUM)
    dual = dual_nef_partition(nef)
    got = [set(tuple(int(x) for x in v) for v in p.vertices)
           for p in dual.parts]
    # Oracle output (brute force from the defining region): segments through 0.
    assert got == [{(1, 0), (-1, 0)}, {(0, 1), (0, -1)}]


def test_dual_involution():
    for lists in (TRIANGLE, SQUARE_SUM, PENTAGON, PRISM_PAIR_5D):
        nef = NefPartition.from_vertex_lists(lists)
        dual = dual_nef_partition(nef)
        back = dual_nef_partition(dual)
        assert [p.vertices for p in back.parts] == \
            [p.vertices for p in nef.parts]


def test_validate_examples():
    assert validate_nef_partition(
        NefPartition.from_vertex_lists(PRISM_PAIR_5D)).passed
    assert validate_nef_partition(
        NefPartition.from_vertex_lists(PENTAGON)).passed
    # A part missing the origin fails check (a).
    bad = NefPartition.from_vertex_lists([[(1, 0), (2, 0), (1, 1)]])
    report = validate_nef_partition(bad)
    assert not report.passed
    assert not report.checks[0].passed


def test_record_fields():
    check = ValidationCheck("psi_certificates", True)
    assert (check.name, check.passed, check.detail) == \
        ("psi_certificates", True, "")
    assert ValidationCheck("x", False, "why").detail == "why"
    v = (Vector((1, 0), ROLE_M), Vector((-1, 0), ROLE_M))
    w = (Vector((0, 1), ROLE_N), Vector((0, -1), ROLE_N))
    iv = InteriorVectors(v, w)
    assert iv.v is v and iv.w is w


def test_validator_never_raises_on_junk():
    bad = NefPartition.from_vertex_lists([[(2, 0), (0, 2), (-2, -2)]])
    report = validate_nef_partition(bad)
    assert not report.passed


def test_is_irreducible():
    assert is_irreducible(NefPartition.from_vertex_lists(TRIANGLE)) == (True, None)
    flag, witness = is_irreducible(NefPartition.from_vertex_lists(SQUARE_SUM))
    assert not flag and witness == (0,)
    assert is_irreducible(NefPartition.from_vertex_lists(PENTAGON))[0]
    assert is_irreducible(NefPartition.from_vertex_lists(PRISM_PAIR_5D))[0]


def test_interior_vectors_r1_is_zero():
    nef = NefPartition.from_vertex_lists(TRIANGLE)
    iv = interior_vectors(nef, dual_nef_partition(nef))
    assert all(c == 0 for c in iv.v[0].coords)
    assert all(c == 0 for c in iv.w[0].coords)


def _check_interior_vector_invariants(nef):
    dual = dual_nef_partition(nef)
    iv = interior_vectors(nef, dual)
    dim = nef.ambient
    for coord in range(dim):
        assert sum(v.coords[coord] for v in iv.v) == 0
        assert sum(w.coords[coord] for w in iv.w) == 0
    for i, part in enumerate(nef.parts):
        assert part.interior_contains(iv.v[i].coords)
    for i, part in enumerate(dual.parts):
        assert part.interior_contains(iv.w[i].coords)
    for i in range(nef.r):
        for j in range(nef.r):
            value = pair(iv.v[i], iv.w[j])
            # (-1)^{delta_ij} <v_i, w_j> < 0: diagonal positive, off negative.
            assert (value > 0) if i == j else (value < 0)


def test_interior_vectors_pentagon():
    _check_interior_vector_invariants(NefPartition.from_vertex_lists(PENTAGON))


def test_interior_vectors_prism_pair():
    _check_interior_vector_invariants(
        NefPartition.from_vertex_lists(PRISM_PAIR_5D))


def test_dual_rejects_invalid_input():
    # Not a nef-partition: the dual picks up fractional vertices.
    cand = NefPartition.from_vertex_lists([[(1, 1), (-1, -1)],
                                           [(1, -1), (-1, 1)]])
    with pytest.raises(NefPartitionError):
        dual_nef_partition(cand)


def test_dual_part_vertices_have_unit_support_value():
    # Every nonzero dual-part vertex lies on the polar of the sum and its
    # own support function evaluates to one there.
    for lists in (TRIANGLE, PENTAGON, PRISM_PAIR_5D):
        nef = NefPartition.from_vertex_lists(lists)
        dual = dual_nef_partition(nef)
        for i, part in enumerate(dual.parts):
            for v in part.vertices:
                if not any(v):
                    continue
                assert nef.sum_polar.contains(v)
                assert support_value(nef, i, Vector(v, ROLE_N)) == 1


def test_part_pairings_bounded_by_kronecker():
    # <part_i, dual part_j> <= delta_ij on all vertex pairs.
    for lists in (PENTAGON, PRISM_PAIR_5D, SQUARE_SUM):
        nef = NefPartition.from_vertex_lists(lists)
        dual = dual_nef_partition(nef)
        for i, p in enumerate(nef.parts):
            for j, q in enumerate(dual.parts):
                bound = 1 if i == j else 0
                for m in p.vertices:
                    for x in q.vertices:
                        assert sum(a * b for a, b in zip(m, x)) <= bound


def test_interior_vectors_requires_interior_origin():
    # Origin on the boundary of the parts hull: the up-front relative
    # interior check must fail with the dedicated error.
    bad = NefPartition.from_vertex_lists([[(1, 0), (0, 1), (0, 0)]])
    with pytest.raises(NefPartitionError, match="origin not interior"):
        interior_vectors(bad, None)


# -- the doubling search, kept as the closed form's oracle -------------------

def _doubling_combination(hull, parts, max_doublings=64):
    """Per part, its share of a combination of the hull's vertices summing
    to 0, with every coefficient at least 1/K: K is doubled until the
    double description of that feasible set is nonempty, and the
    coefficients are the average of its vertices."""
    verts = hull.vertices
    n = len(verts)
    d = hull.ambient
    owner = []
    for vtx in verts:
        who = None
        for i, p in enumerate(parts):
            if vtx in p.vertices:
                who = i
                break
        if who is None:
            raise NefPartitionError("hull vertex not a vertex of any part")
        owner.append(who)
    eqs = []
    for a in range(d):
        eqs.append((0,) + tuple(v[a] for v in verts))
    eqs.append((-1,) + (1,) * n)
    k = 2
    for _ in range(max_doublings):
        ineqs = [(-1,) + tuple(k if j == i else 0 for j in range(n))
                 for i in range(n)]
        feas = polytope_from_hrep(eqs, ineqs, hull.role, n)
        if feas is not None:
            lam = [Fraction(0)] * n
            for vertex in feas.vertices:
                for j in range(n):
                    lam[j] += vertex[j]
            lam = [x / len(feas.vertices) for x in lam]
            out = []
            for i in range(len(parts)):
                acc = [0] * d
                for j in range(n):
                    if owner[j] == i:
                        for a in range(d):
                            acc[a] += lam[j] * verts[j][a]
                out.append(Vector(tuple(acc), hull.role))
            return out
        k *= 2
    raise NefPartitionError("origin not interior")


def _oracle_interior_vectors(nef, dual):
    return InteriorVectors(
        tuple(_doubling_combination(nef.parts_hull, nef.parts)),
        tuple(_doubling_combination(nef.sum_polar, dual.parts)))


def _input_dim(name):
    with open(path(f"{name}.json")) as fh:
        return json.load(fh)["dim"]


# The doubling search stalls from d = 7 on, which is why it was replaced.
ORACLE_INPUTS = [name for name in sorted(
    f[:-len(".json")] for f in os.listdir(DATA)
    if f.endswith(".json") and f != "malformed.json") if _input_dim(name) < 7]
SIMPLEX_FAMILY = ["simplex_p5_222", "simplex_p6_223", "simplex_p7_2222"]


def _report_without_vectors(nef, omega, nu, seeded):
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    if seeded:
        pipe._cache["_interior_vectors"] = _oracle_interior_vectors(
            nef, pipe.dual())
    big = nef.ambient >= 5
    rep = pipe.report(verify="fast" if big else "full", include_dual=not big)
    stage = rep["stages"]["interior_vectors"]
    return rep, (stage.pop("v"), stage.pop("w"))


def _assert_reports_match_oracle(nef, omega="all_ones", nu="all_ones"):
    closed, closed_vectors = _report_without_vectors(nef, omega, nu, False)
    oracle, oracle_vectors = _report_without_vectors(nef, omega, nu, True)
    assert closed == oracle  # sign_pattern and passed included
    for vectors in (closed_vectors, oracle_vectors):
        for side in vectors:
            assert [sum(Fraction(x) for x in col) for col in zip(*side)] == \
                [0] * len(side[0])


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_closed_form_report_matches_doubling_oracle(name):
    _assert_reports_match_oracle(*load_input(path(f"{name}.json")))


def _barycentre_is_zero(hull):
    return not any(map(sum, zip(*hull.vertices)))


@pytest.mark.parametrize("name", SIMPLEX_FAMILY)
def test_interior_vectors_simplex_family(name):
    nef = load_input(path(f"{name}.json"))[0]
    # Both hulls are symmetric under permuting the simplex's vertices, so
    # their vertex barycentres are 0: lambda is uniform on each side.
    assert _barycentre_is_zero(nef.parts_hull)
    assert _barycentre_is_zero(nef.sum_polar)
    _check_interior_vector_invariants(nef)


def test_interior_vectors_nonzero_barycentre(randomized_partitions):
    # Where a hull's vertex barycentre c is not 0, lambda is read through
    # the point -t c of the boundary and a simplex holding it.
    skewed = [nef for nef in randomized_partitions
              if nef.r > 1 and is_irreducible(nef)[0]
              and not _barycentre_is_zero(nef.parts_hull)]
    assert skewed
    for nef in skewed:
        _check_interior_vector_invariants(nef)
        _assert_reports_match_oracle(nef)


def test_strict_combination_coefficients_off_the_barycentre():
    # With every vertex its own part, the i-th share is lambda_i v_i, so
    # lambda is read back and checked against the closed form's proof:
    # sum 1, combination 0, and min lambda = t/(n(1 + t)) with -t c on the
    # boundary.  Planar hulls are also lifted to the plane z = x - y in 3D.
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        planar = [(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(rng.randint(3, 7))]
        for pts in (planar, [(x, y, x - y) for x, y in planar],
                    [(x, y, rng.randint(-3, 3)) for x, y in planar]):
            dim = len(pts[0])
            hull = convex_hull(pts, ROLE_M, dim)
            verts = hull.vertices
            n = len(verts)
            c = [Fraction(sum(col), n) for col in zip(*verts)]
            if not hull.interior_contains((0,) * dim) or not any(c):
                continue
            parts = [convex_hull([v], ROLE_M, dim) for v in verts]
            shares = _strict_combination(hull, parts)
            lam = [next(Fraction(x) / y for x, y in zip(share.coords, v) if y)
                   for share, v in zip(shares, verts)]
            assert sum(lam) == 1
            assert [sum(l * v[a] for l, v in zip(lam, verts))
                    for a in range(dim)] == [0] * dim
            low = n * min(lam)
            assert 0 < low < 1
            t = low / (1 - low)
            assert hull.contains([-t * x for x in c])
            assert not hull.interior_contains([-t * x for x in c])
            checked += 1
    assert checked >= 20


# -- the piecewise dual, kept as the vertex split's oracle --------------------

def _piecewise_dual(np_):
    """The dual partition assembled over the linearity domains of phi_i: for
    every nonzero vertex y of the i-th part, delta_vee cut by <y,x> = 1 and
    <y,x> >= <y',x> for the part's other vertices y', by one H->V double
    description; the i-th dual part is the hull of 0 and all piece
    vertices."""
    dv = np_.sum_polar
    role = opposite_role(np_.role)
    duals = []
    for part in np_.parts:
        points = {(0,) * np_.ambient}
        for y in part.vertices:
            if not any(y):
                continue
            ineqs = list(dv.facets) + [
                (0,) + tuple(a - b for a, b in zip(y, y2))
                for y2 in part.vertices if y2 != y]
            piece = polytope_from_hrep([(-1,) + tuple(y)], ineqs, role,
                                       np_.ambient)
            if piece is not None:
                points.update(piece.vertices)
        duals.append(convex_hull(points, role, np_.ambient))
    return NefPartition(duals, role)


def _assert_dual_matches_piecewise(nef):
    dual, oracle = dual_nef_partition(nef), _piecewise_dual(nef)
    assert len(dual.parts) == len(oracle.parts) == nef.r
    for got, want in zip(dual.parts, oracle.parts):
        assert got is want
    back, oracle_back = dual_nef_partition(dual), _piecewise_dual(oracle)
    for got, want in zip(back.parts, oracle_back.parts):
        assert got is want


@pytest.mark.parametrize("name", DATA_NAMES)
def test_vertex_split_dual_matches_piecewise_oracle(name):
    _assert_dual_matches_piecewise(load_input(path(f"{name}.json"))[0])


def test_vertex_split_dual_matches_piecewise_oracle_on_randomized(
        randomized_partitions):
    for nef in randomized_partitions:
        _assert_dual_matches_piecewise(nef)


def test_dual_makes_no_double_description(monkeypatch):
    # The dual parts are hulls of vertices of delta_vee: no H->V call.
    import nefsphere
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    real = nefsphere.polytope.polytope_from_hrep
    for module in (nefsphere.polytope, nefsphere.nef):
        monkeypatch.setattr(module, "polytope_from_hrep", spy, raising=False)
    dual_nef_partition(NefPartition.from_vertex_lists(PRISM_PAIR_5D))
    assert calls == []


# -- metamorphic relations of the dual ---------------------------------------

def _shear(dim, rng):
    """A unimodular A and its inverse: two elementary row operations with
    coefficients +-1 (a line has no shear, so -1 there)."""
    if dim == 1:
        return [[-1]], [[-1]]
    ops = []
    for _ in range(2):
        a, b = rng.sample(range(dim), 2)
        ops.append((a, b, rng.choice((-1, 1))))

    def apply(ops, sign):
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for a, b, c in ops:
            m[a] = [x + sign * c * y for x, y in zip(m[a], m[b])]
        return m

    shear, inverse = apply(ops, 1), apply(reversed(ops), -1)
    assert [[dot(row, col) for col in zip(*inverse)] for row in shear] == \
        [[int(i == j) for j in range(dim)] for i in range(dim)]
    return shear, inverse


def _sheared(nef, shear):
    return NefPartition.from_vertex_lists(
        [[tuple(dot(row, v) for row in shear) for v in p.vertices]
         for p in nef.parts])


def _assert_dual_follows_the_shear(nef, rng):
    shear, inverse = _shear(nef.ambient, rng)
    inverse_t = [list(col) for col in zip(*inverse)]
    dual = dual_nef_partition(_sheared(nef, shear))
    want = [convex_hull([tuple(dot(row, y) for row in inverse_t)
                         for y in p.vertices], ROLE_N, nef.ambient)
            for p in dual_nef_partition(nef).parts]
    assert list(dual.parts) == want


def _assert_dual_follows_part_order(nef):
    reverse = NefPartition(list(reversed(nef.parts)), nef.role)
    assert dual_nef_partition(reverse).parts == \
        tuple(reversed(dual_nef_partition(nef).parts))


@pytest.mark.parametrize("name", DATA_NAMES)
def test_dual_is_equivariant_under_shear_and_part_order(name):
    nef = load_input(path(f"{name}.json"))[0]
    _assert_dual_follows_the_shear(nef, random.Random(name))
    _assert_dual_follows_part_order(nef)


def test_dual_is_equivariant_on_randomized(randomized_partitions):
    for k, nef in enumerate(randomized_partitions):
        _assert_dual_follows_the_shear(nef, random.Random(k))
        _assert_dual_follows_part_order(nef)


def _shear_invariants(nef, omega="all_ones", nu="all_ones", full=False):
    """The parts of a report that a lattice automorphism leaves alone; with
    `full`, of the ``--verify full --dual`` report."""
    rep = Pipeline(nef, omega_spec=omega, nu_spec=nu).report(
        verify="full" if full else "fast", include_dual=full)
    stages = rep["stages"]
    sigma, monodromy = stages["sigma"], stages["monodromy"]
    out = (sigma["cells"], sigma["cells_by_dim"], sigma["homology"],
           sorted(stages["discriminant"]["component_homology"]),
           monodromy["primary_loops"], monodromy["global"]["divisors"],
           stages["subdivisions"])
    if full:
        out += (rep["passed"], stages["complement_homology"],
                stages["triviality"], stages["duality_monodromy"],
                sorted((g["loops"], g["passed"], g["block_rows"])
                       for g in stages["local_groups"].values()),
                stages["tropical"], stages["lemma_suite_failures"])
    return out


@pytest.mark.parametrize("name", ["simplex3", "pentagon_pair",
                                  "simplex_p5_222", "prism_pair_5d"])
def test_fast_report_invariants_survive_a_shear(name):
    # The inputs use the all-ones weights, which a lattice automorphism
    # carries to themselves.
    nef = load_input(path(f"{name}.json"))[0]
    shear, _ = _shear(nef.ambient, random.Random(name))
    assert _shear_invariants(_sheared(nef, shear)) == _shear_invariants(nef)


def _moved(table, matrix):
    """A weight table with each point moved by the matrix."""
    return [(tuple(dot(row, pt) for row in matrix), v) for pt, v in table]


@pytest.mark.parametrize("name", ["prism_pair_5d_kinked", "simplex3_generic",
                                  "segment_weighted"])
def test_report_invariants_survive_a_shear_of_a_weighted_input(name):
    # The weights move with their supports: omega's table, on the M side,
    # by the shear S, and nu's, on the N side, by S^-T.
    nef, omega, nu = load_input(path(f"{name}.json"))
    shear, inverse = _shear(nef.ambient, random.Random(name))
    inverse_t = [list(col) for col in zip(*inverse)]
    sheared = (_sheared(nef, shear), _moved(omega, shear),
               _moved(nu, inverse_t))
    for full in (False, True):
        assert _shear_invariants(*sheared, full=full) == \
            _shear_invariants(nef, omega, nu, full=full), full
