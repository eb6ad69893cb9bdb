"""Exact double description for polyhedral cones.

The single entry point :func:`cone_rays` converts a homogeneous inequality
system into generators (lineality basis + extreme rays).  Both directions of
polytope conversion (V->H and H->V) reduce to it after homogenization; see
:mod:`nefsphere.polytope`.  It takes inequalities only: the H->V route
solves its equations first and calls it in their solution lattice, so a
slice of a 5D cell runs in as many coordinates as the slice needs.

After the lineality space is quotiented out, the iteration is the
incremental double description of Fukuda and Prodon ("Double description
method revisited", 1996).  It starts from a simplicial cone: the first rows
that raise the rank (one incremental echelon) form an invertible base, and
its initial rays are the columns of the base's inverse (one fraction-free
Gauss-Jordan elimination), each oriented to the feasible side of its row.
The remaining rows are then added one at a time, with rays kept as
tightness bitmasks and combined only when combinatorially adjacent.  All
arithmetic is integer; rays are kept primitive, so there is no coefficient
blow-up.
"""

from math import lcm

from .linalg import dot, identity, kernel_basis, primitive


def cone_rays(ineqs, dim):
    """Generators of the cone {x in R^dim : a.x >= 0 for all a in ineqs}.

    Returns (lineality, rays): an HNF-canonical integer basis of the lineality
    space and the sorted primitive extreme rays modulo lineality.
    """
    rows = sorted({tuple(r) for r in ineqs if any(r)})
    if not rows:
        return identity(dim), ()
    lineality = kernel_basis(rows, dim)
    if lineality:
        # Quotient out the lineality: inequalities vanish on it, so they
        # descend to the coordinates complementary to the HNF pivot columns.
        pivcols = []
        for r in lineality:
            for j, x in enumerate(r):
                if x:
                    pivcols.append(j)
                    break
        free = [j for j in range(dim) if j not in pivcols]
        qrows = sorted({r for r in
                        (tuple(row[j] for j in free) for row in rows) if any(r)})
        qrays = _pointed_cone_rays(qrows, len(free))
        rays = []
        for q in qrays:
            lift = [0] * dim
            for j, t in zip(free, q):
                lift[j] = t
            rays.append(tuple(lift))
    else:
        rays = list(_pointed_cone_rays(rows, dim))
    return lineality, tuple(sorted(rays))


def _pointed_cone_rays(rows, dim):
    """Extreme rays of a pointed cone given by full-rank inequality rows."""
    if dim == 0:
        return ()
    base = _independent_rows(rows, dim)
    if len(base) < dim:
        raise ValueError("cone is not pointed after lineality reduction")
    rest = [r for r in rows if r not in base]
    # Initial simplicial cone: ray j is orthogonal to every base row but row
    # j, so it is column j of the inverse of the base, oriented to the
    # feasible side of row j.  Rays map to their tightness bitmasks over the
    # rows processed so far.
    full = (1 << dim) - 1
    masks = {}
    for j, v in enumerate(_inverse_columns(base)):
        if dot(base[j], v) < 0:
            v = [-x for x in v]
        masks[primitive(v)] = full ^ (1 << j)
    for idx, r in enumerate(rest, start=dim):
        bit = 1 << idx
        vals = {v: dot(r, v) for v in masks}
        neg = [v for v, s in vals.items() if s < 0]
        new = {}
        for p, sp in vals.items():
            if sp <= 0:
                continue
            for n in neg:
                common = masks[p] & masks[n]
                # Combinatorial adjacency: no third ray is tight on the
                # common tight set of p and n.
                if any(masks[w] & common == common for w in masks
                       if w is not p and w is not n):
                    continue
                sn = vals[n]
                combo = primitive([sp * nx - sn * px for px, nx in zip(p, n)])
                # A positive combination of two feasible rays is tight on a
                # processed row iff both are, so its mask is exact.
                new[combo] = common | bit
        for v in neg:
            del masks[v]
        for v, s in vals.items():
            if s == 0:
                masks[v] |= bit
        for v, m in new.items():
            masks.setdefault(v, m)
    return tuple(sorted(masks))


def _independent_rows(rows, dim):
    """The first rows, in order, that raise the rank, up to dim of them.

    One incremental fraction-free echelon: a candidate is reduced against
    the rows accepted so far and accepted when a nonzero entry is left.
    """
    base = []
    echelon = []  # (pivot column, reduced row)
    for r in rows:
        w = r
        for c, e in echelon:
            f = w[c]
            if f:
                p = e[c]
                w = primitive([p * a - f * b for a, b in zip(w, e)])
        piv = next((c for c, x in enumerate(w) if x), None)
        if piv is None:
            continue
        base.append(r)
        echelon.append((piv, w))
        if len(base) == dim:
            break
    return base


def _inverse_columns(base):
    """Integer multiples of the columns of the inverse of a square integer
    matrix, by fraction-free Gauss-Jordan elimination of [base | I]."""
    n = len(base)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(base)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        p = top[col]
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                m[i] = primitive([p * a - f * b for a, b in zip(m[i], top)])
    # Row i now reads d_i * (row i of the inverse) with d_i = m[i][i].
    scale = lcm(*(m[i][i] for i in range(n)))
    return [[m[i][n + j] * (scale // m[i][i]) for i in range(n)]
            for j in range(n)]
