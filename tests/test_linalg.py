import random

import pytest
from hypothesis import given, settings, strategies as st

from nefsphere.linalg import (
    det,
    hermite_normal_form,
    identity,
    kernel_basis,
    lattice_left_inverse,
    mat_mul,
    row_rank,
    saturated_perp_basis,
    saturated_span_basis,
    smith_normal_form,
    solve_rational,
)

from conftest import transpose


def test_snf_identity():
    assert smith_normal_form(identity(3)) == ((1, 1, 1), 3)


def test_snf_diagonal():
    assert smith_normal_form([(2, 0), (0, 4)]) == ((2, 4), 2)


def test_snf_hand_oracle():
    # [[2,4],[6,8]]: row/column reduction by hand gives divisors (2, 4).
    assert smith_normal_form([(2, 4), (6, 8)]) == ((2, 4), 2)


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            c = rng.choice([-2, -1, 1, 2])
            for j in range(n):
                m[a][j] += c * m[b][j]
    return tuple(tuple(r) for r in m)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_snf_unimodular_invariance(seed):
    rng = random.Random(seed)
    rows = tuple(tuple(rng.randrange(-5, 6) for _ in range(3))
                 for _ in range(3))
    u = _random_unimodular(rng, 3)
    v = _random_unimodular(rng, 3)
    assert smith_normal_form(rows) == smith_normal_form(mat_mul(mat_mul(u, rows), v))


def test_kernel_basis_examples():
    assert kernel_basis([(1, 1)], 2) == ((1, -1),)
    assert kernel_basis([(2, 0, 0), (0, 1, 1)], 3) == ((0, 1, -1),)


def test_saturated_perp_basis_spec_examples():
    # ms = {e1*} in Z^3 -> basis {e2, e3}
    assert saturated_perp_basis([(1, 0, 0)], 3) == ((0, 1, 0), (0, 0, 1))
    assert saturated_perp_basis([(1, 1)], 2) == ((1, -1),)
    assert saturated_perp_basis([(2, 0, 0), (0, 1, 1)], 3) == ((0, 1, -1),)
    assert saturated_perp_basis([], 4) == identity(4)


def test_perp_basis_is_saturated():
    # Stacking any integral kernel vector keeps all divisors 1.
    ms = [(2, 0, 0), (0, 1, 1)]
    basis = saturated_perp_basis(ms, 3)
    for m in ms:
        assert all(sum(a * b for a, b in zip(m, row)) == 0 for row in basis)
    stacked = list(basis) + [(0, 2, -2)]
    divs, rank = smith_normal_form(stacked)
    assert rank == len(basis)
    assert all(d == 1 for d in divs)


def test_hnf_canonical():
    h = hermite_normal_form([(2, 4), (6, 8)])
    assert h == ((2, 0), (0, 4))
    # HNF of the HNF is itself (canonical form).
    assert hermite_normal_form(h) == h
    # Entries above a later pivot stay reduced after an earlier pivot's
    # reduction: two bases of one lattice give the same form.
    assert hermite_normal_form([(1, 1, 0), (0, 1, 1), (0, 0, 3)]) == \
        ((1, 0, 2), (0, 1, 1), (0, 0, 3))


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_hnf_is_a_lattice_invariant(n, seed):
    rng = random.Random(seed)
    rows = [tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, n + 1))]
    h = hermite_normal_form(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert h[i][c] > 0
        assert all(0 <= h[k][c] < h[i][c] for k in range(i))
    # Unimodular row operations change the generators, not the lattice.
    work = [list(r) for r in rows]
    for _ in range(6):
        a, b = rng.sample(range(len(work)), 2) if len(work) > 1 else (0, 0)
        if a != b:
            f = rng.randint(-3, 3)
            work[a] = [x + f * y for x, y in zip(work[a], work[b])]
        rng.shuffle(work)
    assert hermite_normal_form(work) == h


def test_lattice_left_inverse():
    basis = ((0, 1, -1),)
    left = lattice_left_inverse(basis, 3)
    assert mat_mul(left, transpose(basis)) == identity(1)
    # Z^3 splits as span(B) + ker(L): B and a basis of ker(L) together
    # form a unimodular matrix.
    full = basis + kernel_basis(left, 3)
    assert abs(det(full)) == 1
    with pytest.raises(ValueError):
        lattice_left_inverse([(2, 0, 0)], 3)
    with pytest.raises(ValueError):
        lattice_left_inverse([(1, 0, 0), (2, 0, 0)], 3)


@given(st.integers(2, 6), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_lattice_left_inverse_of_saturated_bases(d, seed):
    # L B^T = I for the saturated perp and span bases the charts use.
    rng = random.Random(seed)
    vectors = [tuple(rng.randrange(-4, 5) for _ in range(d))
               for _ in range(rng.randrange(1, d + 1))]
    for basis in (saturated_perp_basis(vectors, d),
                  saturated_span_basis(vectors, d)):
        if not basis:
            continue
        left = lattice_left_inverse(basis, d)
        assert all(type(x) is int for row in left for x in row)
        assert mat_mul(left, transpose(basis)) == identity(len(basis))
        full = tuple(basis) + kernel_basis(left, d)
        assert abs(det(full)) == 1


def test_saturated_perp_basis_rejects_rational_vectors():
    from fractions import Fraction
    with pytest.raises(ValueError):
        saturated_perp_basis([(Fraction(1, 2), 1, 0)], 3)


def test_solve_rational():
    x = solve_rational([(2, 0), (1, 1)], (4, 5))
    assert x == (2, 3)
    assert solve_rational([(1, 1), (2, 2)], (1, 3)) is None


def test_row_rank():
    assert row_rank([(1, 2), (2, 4)]) == 1
    assert row_rank([(1, 0), (0, 1)]) == 2
