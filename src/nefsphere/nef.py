"""Nef-partitions of reflexive polytopes and their duals.

A nef-partition is an ordered Minkowski decomposition Delta = sum of parts,
each part a lattice polytope containing the origin, certified by integral
convex PL functions taking value 1 on the nonzero vertices of their own part
and 0 on the other parts.  The dual partition lives on the polar side: its
j-th part is the hull of 0 and the vertices of delta_vee = polar(Delta) on
which phi_j is 1, read off those vertices without a double description,
and it satisfies  nabla_vee = Conv(parts)  and  delta_vee = Conv(dual parts).
The interior vectors write 0 as a strictly positive convex combination of
the vertices of each of those hulls, in closed form, and split it by part.
"""

from fractions import Fraction
from itertools import combinations

from .polytope import (
    GeometryError,
    ROLE_M,
    Vector,
    convex_hull,
    is_reflexive,
    minkowski_sum_all,
    opposite_role,
    polar_dual,
)
from .linalg import dot, solve_rational


class NefPartitionError(ValueError):
    pass


NOT_REFLEXIVE = "the Minkowski sum is not a reflexive d-polytope"


class NefPartition:
    """An ordered list of lattice polytopes containing 0, summing to Delta."""

    def __init__(self, parts, role=ROLE_M):
        if not parts:
            raise NefPartitionError("a nef-partition needs at least one part")
        ambient = parts[0].ambient
        for p in parts:
            if p.ambient != ambient or p.role != role:
                raise NefPartitionError("parts must share ambient space and role")
        self.parts = tuple(parts)
        self.role = role
        self.ambient = ambient
        self.r = len(parts)
        self._sum = None
        self._parts_hull = None
        self._sum_polar = None

    @classmethod
    def from_vertex_lists(cls, lists, role=ROLE_M):
        ambient = len(lists[0][0])
        return cls([convex_hull(vs, role, ambient) for vs in lists], role)

    @property
    def sum_polytope(self):
        """The Minkowski sum of the parts."""
        if self._sum is None:
            self._sum = minkowski_sum_all(list(self.parts))
        return self._sum

    @property
    def parts_hull(self):
        """Conv of the union of the parts (the weight-function support)."""
        if self._parts_hull is None:
            pts = [v for p in self.parts for v in p.vertices]
            self._parts_hull = convex_hull(pts, self.role, self.ambient)
        return self._parts_hull

    @property
    def sum_polar(self):
        """The polar dual of the Minkowski sum, which a non-reflexive sum
        may lack (the input is then no nef-partition)."""
        if self._sum_polar is None:
            try:
                self._sum_polar = polar_dual(self.sum_polytope)
            except GeometryError:
                raise NefPartitionError(NOT_REFLEXIVE) from None
        return self._sum_polar


class ValidationCheck:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail


class ValidationReport:
    def __init__(self, checks, notes=()):
        self.checks = list(checks)
        self.notes = list(notes)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "notes": list(self.notes),
        }


def dual_nef_partition(np_):
    """The dual nef-partition, a NefPartition of the opposite role.

    The i-th dual part is Conv(0, E_i), where E_i is the set of vertices v
    of delta_vee with phi_i(v) = max over the i-th part of <y, v> = 1
    (Batyrev-Borisov).  It equals the hull of 0 and the level set
    {phi_i = 1}, which is the union over the part's vertices y of the
    linearity pieces {<y,x> = 1, <y,x> >= <y',x> for the part's other
    vertices y'} of delta_vee.  With 0 in every part, each part lies in
    Delta, so <y, .> <= 1 on delta_vee; a piece is then exactly the face
    F_y = delta_vee cut by <y,.> = 1, as a point of F_y has
    <y',x> <= 1 = <y,x>.  The vertices of F_y are the vertices v of
    delta_vee with <y, v> = 1, so the pieces' vertices make up E_i and no
    H->V description is needed.  A part that misses the origin is refused
    first: there <y, .> may exceed 1 on delta_vee, and a piece is a slice
    with new vertices, not a face.
    """
    dv = np_.sum_polar
    origin = (0,) * np_.ambient
    if not all(p.contains(origin) for p in np_.parts):
        raise NefPartitionError("input is not a valid nef-partition")
    role = opposite_role(np_.role)
    duals = []
    for part in np_.parts:
        level = [v for v in dv.vertices
                 if max(dot(v, y) for y in part.vertices) == 1]
        dual = convex_hull([origin] + level, role, np_.ambient)
        if not dual.is_lattice_polytope():
            raise NefPartitionError("input is not a valid nef-partition")
        duals.append(dual)
    return NefPartition(duals, role)


def validate_nef_partition(np_, dualize=dual_nef_partition):
    """Structured validity report; never raises on a failing check.

    `dualize` maps np_ to its dual partition; a caller that already holds
    the dual passes it in to avoid a second computation.
    """
    checks = []
    notes = ["psi_j is taken to be the support function of the j-th dual part "
             "(its vertices are the gradients of psi_j)."]
    origin = (0,) * np_.ambient
    ok_origin = all(p.contains(origin) for p in np_.parts)
    checks.append(ValidationCheck(
        "origin_in_every_part", ok_origin,
        "" if ok_origin else "some part misses the origin"))
    lattice_ok = all(p.is_lattice_polytope() for p in np_.parts)
    checks.append(ValidationCheck(
        "parts_are_lattice_polytopes", lattice_ok,
        "" if lattice_ok else "some part has a non-integral vertex"))
    try:
        refl = is_reflexive(np_.sum_polytope) and np_.sum_polytope.dim == np_.ambient
    except GeometryError:
        refl = False
    checks.append(ValidationCheck(
        "sum_is_reflexive", refl,
        "" if refl else NOT_REFLEXIVE))
    if not (ok_origin and lattice_ok and refl):
        checks.append(ValidationCheck("dual_partition_integral", False,
                                      "skipped: earlier checks failed"))
        return ValidationReport(checks, notes)
    try:
        dual = dualize(np_)
        checks.append(ValidationCheck("dual_partition_integral", True))
    except NefPartitionError as exc:
        checks.append(ValidationCheck("dual_partition_integral", False, str(exc)))
        return ValidationReport(checks, notes)

    # psi_j (support of the j-th dual part) must be 1 on nonzero vertices of
    # part j and 0 on vertices of the other parts.
    psi_ok = True
    detail = ""
    for j, dpart in enumerate(dual.parts):
        for i, part in enumerate(np_.parts):
            for v in part.vertices:
                value = max(dot(w, v) for w in dpart.vertices)
                want = 0 if i != j else (0 if not any(v) else 1)
                if value != want:
                    psi_ok = False
                    detail = (f"psi_{j} takes value {value} at vertex "
                              f"{tuple(map(str, v))} of part {i} (expected {want})")
    checks.append(ValidationCheck("psi_certificates", psi_ok, detail))

    duality1 = convex_hull(
        [v for p in dual.parts for v in p.vertices], dual.role, np_.ambient
    ) == np_.sum_polar
    checks.append(ValidationCheck(
        "sum_polar_equals_conv_of_dual_parts", duality1,
        "" if duality1 else "Conv(dual parts) differs from the polar of the sum"))
    duality2 = polar_dual(np_.parts_hull) == dual.sum_polytope
    checks.append(ValidationCheck(
        "dual_sum_is_polar_of_parts_hull", duality2,
        "" if duality2 else "sum of dual parts is not polar to Conv(parts)"))
    nabla_refl = is_reflexive(dual.sum_polytope)
    checks.append(ValidationCheck(
        "dual_sum_is_reflexive", nabla_refl,
        "" if nabla_refl else "the dual sum is not reflexive"))
    return ValidationReport(checks, notes)


def is_irreducible(np_):
    """(flag, witness): witness is a proper subset whose partial sum has 0
    in its relative interior, when one exists."""
    origin = (0,) * np_.ambient
    for size in range(1, np_.r):
        for subset in combinations(range(np_.r), size):
            partial = minkowski_sum_all([np_.parts[i] for i in subset])
            if partial.interior_contains(origin):
                return False, subset
    return True, None


class InteriorVectors:
    __slots__ = ("v", "w")

    def __init__(self, v, w):
        self.v = v  # one M-side vector per part, summing to zero
        self.w = w  # one N-side vector per part, summing to zero


def interior_vectors(np_, dual):
    """The interior vectors v_i (M side) and w_j (N side).

    0 is written as a strictly positive convex combination of the vertices
    of nabla_vee = Conv(parts), and of delta_vee = Conv(dual parts), in
    closed form (:func:`_strict_combination`); v_i collects the terms of the
    vertices of the i-th part, and w_j those of the j-th dual part.
    """
    v = _strict_combination(np_.parts_hull, np_.parts)
    w = _strict_combination(np_.sum_polar, dual.parts)
    return InteriorVectors(tuple(v), tuple(w))


def _strict_combination(hull, parts):
    """Per part, its share of sum lambda_j v_j = 0 over the hull's vertices
    v_1, ..., v_n, with lambda_j > 0 and sum lambda_j = 1.

    Raises NefPartitionError when 0 is not in the hull's relative interior.
    Let c = (v_1 + ... + v_n)/n.  If c = 0, lambda is uniform.  Otherwise
    every facet row (b, a) has b > 0 (it is positive at 0), c lies in the
    hull's linear span, and -t c stays in the hull exactly while t a.c <= b
    on every row; as the hull is bounded, some row has a.c > 0, and
    t = min b/(a.c) over those rows is positive with -t c in the hull.  A
    simplex sigma of the hull's triangulation holds -t c, and as its
    vertices are affinely independent, [V_sigma; 1] mu = [-t c; 1] has one
    solution, non-negative exactly on such a sigma.  With
    lambda = (t/n + mu)/(1 + t):
      sum lambda_j = (t + 1)/(1 + t) = 1,
      sum lambda_j v_j = (t c - t c)/(1 + t) = 0,
      lambda_j >= t/(n (1 + t)) > 0.
    """
    verts, d = hull.vertices, hull.ambient
    n = len(verts)
    if not hull.interior_contains((0,) * d):
        raise NefPartitionError("origin not interior")
    owner = [next((i for i, p in enumerate(parts) if v in p.vertices), None)
             for v in verts]
    if None in owner:
        raise NefPartitionError("hull vertex not a vertex of any part")
    c = [Fraction(sum(v[a] for v in verts), n) for a in range(d)]
    lam = [Fraction(1, n)] * n
    if any(c):
        t = min(f[0] / ac for f in hull.facets
                for ac in [dot(f[1:], c)] if ac > 0)
        target = [-t * x for x in c] + [1]
        for simplex in hull.triangulation():
            rows = [[verts[k][a] for k in simplex] for a in range(d)]
            mu = solve_rational(rows + [[1] * len(simplex)], target)
            if mu is not None and min(mu) >= 0:
                break
        else:
            raise GeometryError("no simplex of the triangulation holds -t c")
        mu_at = dict(zip(simplex, mu))
        lam = [(t / n + mu_at.get(j, 0)) / (1 + t) for j in range(n)]
    return [Vector(tuple(sum(lam[j] * verts[j][a] for j in range(n)
                             if owner[j] == i) for a in range(d)), hull.role)
            for i in range(len(parts))]
