import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nefsphere import linalg
from nefsphere.dd import cone_rays
from nefsphere.linalg import (
    det,
    dot,
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
    with pytest.raises(ValueError):
        saturated_perp_basis([(Fraction(1, 2), 1, 0)], 3)


def test_solve_rational():
    x = solve_rational([(2, 0), (1, 1)], (4, 5))
    assert x == (2, 3)
    assert solve_rational([(1, 1), (2, 2)], (1, 3)) is None


def test_row_rank():
    assert row_rank([(1, 2), (2, 4)]) == 1
    assert row_rank([(1, 0), (0, 1)]) == 2


# -- oracles for the lattice routines read from the Hermite normal form -------


@st.composite
def small_matrices(draw):
    """(rows, ncols) of an integer matrix up to 4 x 5: raw entries, or a
    product X Y through a lower rank, with some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        m = [[draw(st.integers(-6, 6)) for _ in range(ncols)]
             for _ in range(nrows)]
    else:
        rank = draw(st.integers(0, min(nrows, ncols)))
        x = [[draw(st.integers(-3, 3)) for _ in range(rank)]
             for _ in range(nrows)]
        y = [[draw(st.integers(-3, 3)) for _ in range(ncols)]
             for _ in range(rank)]
        m = [[sum(r[t] * y[t][j] for t in range(rank)) for j in range(ncols)]
             for r in x]
    dead_rows = draw(st.sets(st.integers(0, 3), max_size=2))
    dead_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    rows = [tuple(0 if i in dead_rows or j in dead_cols else a
                  for j, a in enumerate(r)) for i, r in enumerate(m)]
    return rows, ncols


def _determinantal_divisors(rows, ncols):
    """The invariant factors d_k / d_(k-1), d_k the gcd of all k x k minors,
    and their count, the rank."""
    factors, prev = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d_k = gcd(*(det([[rows[i][j] for j in cs] for i in rs])
                    for rs in combinations(range(len(rows)), k)
                    for cs in combinations(range(ncols), k)))
        if d_k == 0:
            break
        factors.append(d_k // prev)
        prev = d_k
    return tuple(factors), len(factors)


@given(small_matrices())
@settings(max_examples=300, deadline=None)
def test_snf_matches_determinantal_divisors(matrix):
    rows, ncols = matrix
    assert smith_normal_form(rows) == _determinantal_divisors(rows, ncols)
    assert smith_normal_form(rows)[1] == row_rank(rows)


def test_snf_gcd_lcm_pass():
    # Diagonal but not a divisibility chain: gcd(4, 6) = 2, lcm = 12.
    assert smith_normal_form([(4, 0), (0, 6)]) == ((2, 12), 2)


@pytest.mark.parametrize("rows, want, rounds", [
    ([(2, 1), (0, 2)], ((1, 4), 2), 3),
    ([(2, -2, -6), (6, 2, -6), (-5, 5, 0)], ((1, 2, 120), 3), 4),
])
def test_snf_that_needs_more_than_two_hermite_rounds(monkeypatch, rows,
                                                      want, rounds):
    calls = []
    real = linalg.hermite_normal_form

    def counted(m):
        calls.append(1)
        return real(m)
    monkeypatch.setattr(linalg, "hermite_normal_form", counted)
    assert smith_normal_form(rows) == want
    assert len(calls) == rounds
    assert want == _determinantal_divisors(rows, len(rows[0]))


def _column_echelon(rows, ncols):
    """Column-style echelon form A U = [L 0] with U unimodular, by Euclidean
    column operations row by row: the route kernel_basis and
    lattice_left_inverse took before they were read from the HNF.  Returns
    (columns, rank): each column j is (column j of A U) + (column j of U),
    and the first `rank` columns hold the pivots of L."""
    nrows = len(rows)
    cols = [[r[j] for r in rows] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]
    colpos = 0
    for r in range(nrows):
        piv = next((j for j in range(colpos, ncols) if cols[j][r]), None)
        if piv is None:
            continue
        cols[colpos], cols[piv] = cols[piv], cols[colpos]
        for j in range(colpos + 1, ncols):
            while cols[j][r]:
                q = cols[colpos][r] // cols[j][r]
                cols[colpos], cols[j] = cols[j], [
                    a - q * b for a, b in zip(cols[colpos], cols[j])]
        colpos += 1
        if colpos == ncols:
            break
    return cols, colpos


def _echelon_kernel_basis(rows, ncols):
    """The columns of U that A U sends to zero, in HNF."""
    cols, _ = _column_echelon(rows, ncols)
    return hermite_normal_form([tuple(c[len(rows):]) for c in cols
                                if not any(c[:len(rows)])])


def _echelon_left_inverse(basis, ncols):
    """L = (U_k T^-1)^T from B U = [T 0], by back substitution."""
    k = len(basis)
    cols, rank = _column_echelon(basis, ncols)
    if rank != k:
        raise ValueError("rows are not linearly independent")
    inverse = [None] * k
    for c in range(k - 1, -1, -1):
        row = cols[c][k:]
        for r in range(c + 1, k):
            f = cols[c][r]
            if f:
                row = [a - f * b for a, b in zip(row, inverse[r])]
        p = cols[c][c]
        if p not in (1, -1):
            raise ValueError("basis is not saturated")
        inverse[c] = tuple(p * a for a in row)
    return tuple(inverse)


@given(small_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_matches_the_column_echelon_oracle(matrix):
    rows, ncols = matrix
    assert kernel_basis(rows, ncols) == _echelon_kernel_basis(rows, ncols)


@given(small_matrices(), st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_left_inverse_agrees_with_the_column_echelon_oracle(matrix, seed):
    # L is not unique, so only L B^T = I and L p on the span are compared.
    rows, ncols = matrix
    rng = random.Random(seed)
    for basis in (rows, saturated_perp_basis(rows, ncols),
                  saturated_span_basis(rows, ncols)):
        try:
            want = _echelon_left_inverse(basis, ncols)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                lattice_left_inverse(basis, ncols)
            assert str(raised.value) == str(exc)
            continue
        left = lattice_left_inverse(basis, ncols)
        assert all(type(x) is int for row in left for x in row)
        assert mat_mul(left, transpose(basis)) == identity(len(basis))
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in basis]
            p = [sum(c * b[j] for c, b in zip(coeffs, basis))
                 for j in range(ncols)]
            assert [dot(row, p) for row in left] == \
                [dot(row, p) for row in want] == coeffs


@pytest.mark.parametrize("ineqs", [[], [(0, 0, 0)]])
def test_cone_of_no_inequality_is_all_of_space(ineqs):
    assert cone_rays(ineqs, 3) == (identity(3), ())
