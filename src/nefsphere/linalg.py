"""Exact integer and rational linear algebra.

Everything in here works on plain tuples/lists of exact rationals: an
integral value is a Python ``int`` and only a non-integral one is a
``Fraction`` (see :func:`exact`); floats never occur.  Matrices are sequences
of row vectors.

One fraction-free elimination serves rank, solving, the start of the double
description and reduction modulo equations: :func:`reduce_row` clears an
echelon's pivot columns from a primitive integer row by positive integer
steps, :func:`echelon` keeps the rows that raise the rank and
:func:`reduced_echelon` adds the Gauss-Jordan back pass.  No Fraction is
formed; only final quotients can be non-integral.  One Euclidean
elimination, the Hermite normal form, serves the lattice routines: kernel
bases and the left inverse :func:`lattice_left_inverse` are read from the
HNF of [A^T | I], and Smith divisors from alternating row and column HNFs.
:func:`det` is Bareiss elimination.  All normal forms are deterministic so
downstream outputs are byte-reproducible.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def exact(x):
    """The canonical exact value of a rational: an int when it is integral,
    otherwise a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def denominator_lcm(v):
    """The least common multiple of the denominators of a rational vector."""
    denom = 1
    for x in v:
        if type(x) is not int:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    return denom


def to_numerators(v, q):
    """q v as an integer vector; q must be a common multiple of the
    denominators of the exact rational vector v."""
    return tuple(x * q if type(x) is int else x.numerator * (q // x.denominator)
                 for x in v)


def from_numerators(v, q):
    """The exact rational vector v / q of an integer vector v (q > 0)."""
    if q == 1:
        return tuple(v)
    return tuple(x // q if x % q == 0 else Fraction(x, q) for x in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (positive scale)."""
    return primitive(to_numerators(v, denominator_lcm(v)))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def leading_column(row):
    """The index of the first nonzero entry of a row (None for a zero row)."""
    return next((j for j, x in enumerate(row) if x), None)


def reduce_row(w, pairs):
    """Reduce the integer row w against echelon (pivot column c, row e)
    pairs in turn: |e[c]| w - (+-w[c]) e clears column c, and w is made
    primitive.  The factor on w is positive, so w keeps its side of every
    hyperplane."""
    w = primitive(w)
    for c, e in pairs:
        f = w[c]
        if f:
            p = e[c]
            if p < 0:
                p, f = -p, -f
            w = primitive([p * a - f * b for a, b in zip(w, e)])
    return w


def echelon(rows):
    """Fraction-free echelon of integer rows, taken in input order.

    Each row is reduced against the accepted ones and accepted when a
    nonzero entry is left, its first one being its pivot; the scan stops at
    full rank.  Returns the (pivot column, reduced row) pairs and the input
    indices of the accepted rows.  Sorted by pivot the rows are in row
    echelon form, so the pivots are those of the reduced row echelon form.
    """
    pairs = []
    taken = []
    for i, r in enumerate(rows):
        w = reduce_row(r, pairs)
        c = leading_column(w)
        if c is not None:
            pairs.append((c, w))
            taken.append(i)
            if len(pairs) == len(w):
                break
    return pairs, taken


def reduced_echelon(rows):
    """The pairs of :func:`echelon` with each pivot also cleared from the
    earlier rows: the row with pivot c is a multiple of that row of the
    reduced row echelon form (fraction-free Gauss-Jordan)."""
    pairs, _ = echelon(rows)
    # A row vanishes on every earlier pivot, so reducing a row against the
    # rows after it clears their pivots and leaves its own.
    return [(c, reduce_row(e, pairs[i + 1:])) for i, (c, e) in enumerate(pairs)]


def row_rank(rows):
    """Rank of a matrix with integer or Fraction entries (fraction-free)."""
    return len(echelon([clear_denominators(r) for r in rows])[0])


def det(rows):
    """Determinant of a square rational matrix via fraction-free Bareiss.

    Each row is first scaled by the lcm of its denominators, so the
    elimination is integer-only; the result is divided by the product of
    the scales at the end.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = []
    scale = 1
    for r in rows:
        s = denominator_lcm(r)
        m.append(list(to_numerators(r, s)))
        scale *= s
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    d = sign * m[-1][-1]
    return d if scale == 1 else exact(Fraction(d, scale))


def solve_rational(a_rows, b):
    """Solve A x = b exactly; returns a tuple of exact rationals or None if
    inconsistent.

    Read from the :func:`reduced_echelon` of the augmented rows; a pivot in
    the b column means no solution.  When the system is underdetermined the
    solution with the free (non-pivot) variables set to zero is returned,
    which keeps results deterministic.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    x = [0] * ncols
    for c, e in reduced_echelon([clear_denominators(tuple(row) + (y,))
                                 for row, y in zip(a_rows, b)]):
        if c == ncols:
            return None
        x[c] = exact(Fraction(e[ncols], e[c]))
    return tuple(x)


def hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the canonical basis of the row lattice: pivots positive, entries
    above each pivot reduced to [0, pivot), zero rows dropped, one row per
    pivot column in order.  This is the one Euclidean elimination here:
    kernels, the left inverse and Smith divisors are read from it.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return ()
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        # Euclidean elimination below the pivot.
        for i in range(row + 1, len(m)):
            while m[i][col]:
                q = m[row][col] // m[i][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[i])]
                m[row], m[i] = m[i], m[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        row += 1
        if row == len(m):
            break
    m = [r for r in m if any(r)]
    # Reduce entries above pivots.
    pivcols = [leading_column(r) for r in m]
    # In pivot order: reducing by row i changes only columns >= its pivot,
    # so the entries above earlier pivots stay reduced.
    for i in range(len(m)):
        col = pivcols[i]
        p = m[i][col]
        for k in range(i):
            q = m[k][col] // p
            if q:
                m[k] = [a - q * b for a, b in zip(m[k], m[i])]
    return tuple(tuple(r) for r in m)


def _augmented_hnf(rows, ncols):
    """The Hermite normal form of [A^T | I] for the integer rows of A, each
    of length ncols: U [A^T | I] for a unimodular U, so the I part of each
    row is the row of U that gives its A^T part (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4)."""
    return hermite_normal_form([
        col + e for col, e in zip(zip(*rows) if rows else [()] * ncols,
                                  identity(ncols))])


def lattice_left_inverse(basis, ncols):
    """An integer k x ncols matrix L with L B^T = I for a saturated basis B.

    B (k rows of length ncols) must be linearly independent and span a
    saturated sublattice.  The first k rows of the HNF U [B^T | I] have
    their pivots in columns 0..k-1 exactly when B has rank k, and their
    B^T part T = U_k B^T is then the HNF of the lattice that the columns
    of B span, which is Z^k exactly when B is saturated; an HNF with
    pivots 1 has zeros above them, so T = I and L = U_k.  L is not unique,
    but for any p in the rational span of the rows of B, L p is its
    coordinate vector in that basis.
    """
    k = len(basis)
    h = _augmented_hnf(basis, ncols)[:k]
    if [leading_column(r) for r in h] != list(range(k)):
        raise ValueError("rows are not linearly independent")
    if tuple(r[:k] for r in h) != identity(k):
        raise ValueError("basis is not saturated")
    return tuple(r[k:] for r in h)


def kernel_basis(rows, ncols):
    """Canonical basis of the saturated integer kernel {x : A x = 0}.

    The result spans all integer solutions (it is saturated: any integer
    vector in the rational kernel is an integer combination of the basis).
    The rows u of U with u A^T = 0 are the rows of the HNF U [A^T | I]
    whose A^T part is zero: they span every integer solution, since the
    other rows' A^T parts are independent.  They come last and are reduced
    above their pivots, so their I parts already are the kernel's HNF.
    """
    nrows = len(rows)
    return tuple(r[nrows:] for r in _augmented_hnf(rows, ncols)
                 if not any(r[:nrows]))


def saturated_perp_basis(ms, ambient):
    """Canonical basis of {x in Z^ambient : <m, x> = 0 for all m in ms}.

    Empty input yields the identity basis of Z^ambient.
    """
    rows = [tuple(m) for m in ms]
    if any(type(x) is not int for r in rows for x in r):
        raise ValueError("saturated_perp_basis needs integer vectors")
    return kernel_basis(rows, ambient)


def saturated_span_basis(vectors, ncols):
    """Canonical basis of the saturation of the integer span of the vectors:
    the kernel of their kernel."""
    return kernel_basis(kernel_basis(list(vectors), ncols), ncols)


def smith_normal_form(rows):
    """Elementary divisors of an integer matrix.

    Returns (divisors, rank) where divisors is the full chain d1 | d2 | ...
    of nonzero invariant factors, all positive.

    Row Hermite normal forms of the matrix and of its transpose alternate
    until it is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    From the second round on no row or column is zero.  A round either
    lowers the first pivot p that has a nonzero neighbour to a proper
    divisor, the gcd of p and its row, or, when p divides its row, clears
    p's row and column for good: (p, 0, ..., 0) is then in the transpose's
    row lattice, and the HNF is unique.  Pivots are positive integers, so
    the rounds end.  Replacing two diagonal entries by their gcd and lcm is
    an equivalence, and the pairwise passes make the diagonal a
    divisibility chain.
    """
    m = hermite_normal_form(rows)
    while any(sum(map(bool, r)) > 1 for r in m):
        m = hermite_normal_form(zip(*m))
    divisors = [max(r) for r in m]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return tuple(divisors), len(divisors)
