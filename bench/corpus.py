"""Seeded reflexive 2D/3D nef-partitions for the ``small_corpus`` workload.

A reflexive polytope Delta is cut into parts by splitting the vertices e of
its polar (the rays) into r groups: part g is {m : <m, e> <= 1 for e in group
g, <m, e> <= 0 for the other rays}.  The split is kept when every part is a
lattice polytope and the parts sum to Delta (Borisov's construction of a
nef-partition).  Everything here is exact and independent of ``nefsphere``,
so the program under test only ever sees the written input files.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

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
BASES = REFLEXIVE_2D + REFLEXIVE_3D


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _solve(rows, rhs):
    """The unique solution of a square system, or None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def hrep_vertices(normals, bounds):
    """Vertices of the bounded polytope {x : <a, x> <= b}, sorted."""
    dim = len(normals[0])
    found = set()
    for idx in combinations(range(len(normals)), dim):
        x = _solve([normals[i] for i in idx], [bounds[i] for i in idx])
        if x is not None and all(dot(a, x) <= b
                                 for a, b in zip(normals, bounds)):
            found.add(x)
    return sorted(found)


def polar_vertices(vertices):
    """Vertices of {y : <v, y> <= 1 for every vertex v}."""
    return hrep_vertices(vertices, [1] * len(vertices))


def _part(rays, bounds, memo):
    """Integral vertices of {m : <m, e> <= bound}, or None if one is not."""
    if bounds not in memo:
        verts = hrep_vertices(rays, bounds)
        memo[bounds] = None if any(c.denominator != 1
                                   for v in verts for c in v) \
            else [tuple(int(c) for c in v) for v in verts]
    return memo[bounds]


def ray_split(base, rays, labels, memo):
    """Vertex lists of the parts for a labelling of the rays (the vertices of
    the polar of ``base``), or None.  ``memo`` caches parts by their bounds."""
    parts = []
    for g in range(max(labels) + 1):
        part = _part(rays, tuple(1 if l == g else 0 for l in labels), memo)
        if part is None:
            return None
        parts.append(part)
    sums = {tuple(map(sum, zip(*combo))) for combo in product(*parts)}
    if any(dot(s, e) > 1 for s in sums for e in rays):
        return None
    if not all(tuple(v) in sums for v in base):
        return None
    return parts


def valid_splits(base, r):
    """Yield every labelling of the rays into exactly r nonempty groups that
    gives a nef-partition, with its parts, in a fixed order."""
    rays = polar_vertices(base)
    memo = {}
    for labels in product(range(r), repeat=len(rays)):
        if len(set(labels)) == r:
            parts = ray_split(base, rays, labels, memo)
            if parts is not None:
                yield labels, parts


# Bases 0 and 4 with r = 1 are the triangle and simplex3 inputs of tests/data.
FIXED_BASES = (0, 4)
# (base, r) classes with a seeded input each.  The seed moves one fixed split
# of the class by a lattice symmetry instead of drawing among all splits:
# different cube splits take 0.8-2.1 s each (2-vCPU x86_64, CPython 3.11),
# so a free draw would move the pass time by a tenth from seed to seed.  The
# cube with r = 2 (1.3-3.4 s a split) is left out for the same reason.
RANDOM_CLASSES = [(2, 2), (2, 3), (3, 2), (3, 3), (6, 3)]


def symmetries(base):
    """Signed coordinate permutations mapping the vertices of ``base`` onto
    themselves, as (permutation, signs) pairs in a fixed order."""
    dim = len(base[0])
    verts = {tuple(v) for v in base}
    out = []
    for perm in permutations(range(dim)):
        for signs in product((1, -1), repeat=dim):
            if {transform((perm, signs), v) for v in verts} == verts:
                out.append((perm, signs))
    return out


def transform(sym, v):
    perm, signs = sym
    return tuple(s * v[p] for p, s in zip(perm, signs))
