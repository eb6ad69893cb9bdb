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
that raise the rank (the rows :func:`linalg.echelon` takes) form an
invertible base, and its initial rays are the columns of the base's
inverse, read from :func:`linalg.reduced_echelon` of [base | I].  The
remaining rows are then added one at a time, with rays kept as tightness
bitmasks and combined only when combinatorially adjacent.  All arithmetic
is integer; rays are kept primitive, so there is no coefficient blow-up.

Adjacency pre-filter (the algebraic adjacency test of the same paper).
The processed rows always include the rank-dim base, so the cone they cut
out is pointed.  Two extreme rays p, n of a pointed cone of dimension dim
are adjacent iff the smallest face holding both is two-dimensional, that
is, iff the rows tight on both have rank dim - 2.  A set of rank dim - 2
has at least dim - 2 rows, so a pair whose common tight mask has fewer
bits is not adjacent and is skipped before the third-ray scan.  Every pair
that is left is still decided by the combinatorial test (no third ray is
tight on the common set), so the rays produced do not change.
"""

from math import lcm

from .linalg import (
    dot,
    echelon,
    kernel_basis,
    leading_column,
    primitive,
    reduced_echelon,
)


def cone_rays(ineqs, dim):
    """Generators of the cone {x in R^dim : a.x >= 0 for all a in ineqs}.

    Returns (lineality, rays): an HNF-canonical integer basis of the lineality
    space and the sorted primitive extreme rays modulo lineality.
    """
    rows = sorted({tuple(r) for r in ineqs if any(r)})
    lineality = kernel_basis(rows, dim)
    if lineality:
        # Quotient out the lineality: inequalities vanish on it, so they
        # descend to the coordinates complementary to the HNF pivot columns.
        pivcols = [leading_column(r) for r in lineality]
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
    _, taken = echelon(rows)
    if len(taken) < dim:
        raise ValueError("cone is not pointed after lineality reduction")
    base = [rows[i] for i in taken]
    rest = [r for i, r in enumerate(rows) if i not in taken]
    # Initial simplicial cone: ray j is orthogonal to every base row but row
    # j, so it is column j of the inverse of the base, which is positive on
    # row j.  Rays map to their tightness bitmasks over the rows processed
    # so far.
    full = (1 << dim) - 1
    masks = {}
    for j, v in enumerate(_inverse_columns(base)):
        masks[primitive(v)] = full ^ (1 << j)
    for idx, r in enumerate(rest, start=dim):
        bit = 1 << idx
        vals = {v: dot(r, v) for v in masks}
        neg = [v for v, s in vals.items() if s < 0]
        new = {}
        for p, sp in vals.items():
            if sp <= 0:
                continue
            mp = masks[p]
            for n in neg:
                common = mp & masks[n]
                # Adjacent rays share at least dim - 2 tight rows (module
                # docstring), so fewer settles the pair with no scan.
                if common.bit_count() < dim - 2:
                    continue
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


def _inverse_columns(base):
    """Positive integer multiples of the columns of the inverse of a square
    integer matrix.  In the :func:`linalg.reduced_echelon` of [base | I],
    the row with pivot c reads d_c (e_c | row c of the inverse), so lcm(d)
    times each column of the inverse is integral."""
    n = len(base)
    rows = dict(reduced_echelon([tuple(r) + tuple(int(i == j) for j in range(n))
                                 for i, r in enumerate(base)]))
    scale = lcm(*(rows[c][c] for c in range(n)))
    return [[rows[c][n + j] * (scale // rows[c][c]) for c in range(n)]
            for j in range(n)]
