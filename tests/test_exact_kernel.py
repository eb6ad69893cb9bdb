"""The int-first exact kernel: integer elimination agrees with Fraction
elimination, and computed coordinates are canonical exact rationals."""

import os
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nefsphere import Pipeline
from nefsphere.cli import load_input
from nefsphere.linalg import det, exact, row_rank, solve_rational

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def reference_rank(rows):
    """Textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_det(rows):
    """Product of the pivots of Fraction elimination, with the swap sign."""
    m = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return out


def reference_solve(a_rows, b):
    """Gauss-Jordan over Fraction; free variables zero, None if inconsistent."""
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a_rows, b)]
    ncols = len(a_rows[0]) if a_rows else 0
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * c for a, c in zip(m[i], m[row])]
        pivots.append(col)
    if any(m[i][ncols] for i in range(len(pivots), len(m))):
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return tuple(x)


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7))


@st.composite
def rational_matrices(draw, square=False):
    ncols = draw(st.integers(1, 5))
    nbase = ncols if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nbase)]
    if not square:
        # Dependent rows (rational combinations of earlier ones) and zero
        # rows, in mixed int/Fraction form.
        for _ in range(draw(st.integers(0, 3))):
            if rows and draw(st.booleans()):
                a, b = draw(entries), draw(entries)
                i = draw(st.integers(0, len(rows) - 1))
                j = draw(st.integers(0, len(rows) - 1))
                combo = [exact(a * x + b * y) for x, y in zip(rows[i], rows[j])]
            else:
                combo = [draw(st.sampled_from([0, Fraction(0)]))
                         for _ in range(ncols)]
            rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_row_rank_matches_fraction_elimination(rows):
    assert row_rank(rows) == reference_rank(rows)


@given(rational_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_rational_bareiss_det_matches_fraction_elimination(rows):
    d = det(rows)
    assert d == reference_det(rows)
    assert d == exact(d)


@given(rational_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_fraction_free_solve_matches_fraction_elimination(rows, data):
    b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = solve_rational(rows, b)
    assert x == reference_solve(rows, b)
    if x is not None:
        assert all(type(c) is int or c.denominator > 1 for c in x)


def test_exact_normaliser():
    assert exact(3) == 3 and type(exact(3)) is int
    assert type(exact(Fraction(6, 2))) is int
    assert exact(Fraction(3, 2)) == Fraction(3, 2)
    assert type(exact("4/2")) is int
    assert exact(-0) == 0


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _cell_vertices(pipe):
    """Vertices of every cell of S, T and Sigma, plus the bounded tropical
    cells, whose vertices are non-integral under a non-integral weight."""
    s, t, sigma = pipe.s_boundary(), pipe.t_boundary(), pipe.sigma()
    cells = list(s.cells) + list(t.cells)
    for i, j in sigma.pairs:
        cells.append(sigma.p_poset.elements[i].minkowski)
        cells.append(sigma.q_poset.elements[j].minkowski)
    cells.extend(c.poly for c in pipe.tropical_complex().cells)
    return [v for c in cells for v in c.vertices]


def test_cell_coordinates_are_int_or_proper_fraction():
    # An int / int that silently became a float, or a Fraction(n, 1) that
    # escaped normalisation, would show up here.
    seen_fraction = False
    for name in ("simplex3", "segment_weighted"):
        nef, omega, nu = load_input(os.path.join(DATA, f"{name}.json"))
        pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
        vertices = _cell_vertices(pipe)
        assert vertices
        bad = [v for v in vertices if not all(_canonical(x) for x in v)]
        assert not bad, (name, bad[:3])
        seen_fraction |= any(type(x) is Fraction for v in vertices for x in v)
    assert seen_fraction
