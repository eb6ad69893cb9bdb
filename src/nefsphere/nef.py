"""Nef-partitions of reflexive polytopes and their duals.

A nef-partition is an ordered Minkowski decomposition Delta = sum of parts,
each part a lattice polytope containing the origin, certified by integral
convex PL functions taking value 1 on the nonzero vertices of their own part
and 0 on the other parts.  The dual partition lives on the polar side and
satisfies  nabla_vee = Conv(parts)  and  delta_vee = Conv(dual parts).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .polytope import (
    GeometryError,
    ROLE_M,
    Vector,
    as_fractions,
    convex_hull,
    is_reflexive,
    minkowski_sum_all,
    opposite_role,
    polar_dual,
    polytope_from_hrep,
)
from .linalg import dot


class NefPartitionError(ValueError):
    pass


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
        """The polar dual of the Minkowski sum."""
        if self._sum_polar is None:
            self._sum_polar = polar_dual(self.sum_polytope)
        return self._sum_polar

    def support_value(self, i, x):
        """phi_i(x) = max over the i-th part of <y, x>."""
        if not 0 <= i < self.r:
            raise NefPartitionError("part index out of range")
        coords = x.coords if isinstance(x, Vector) else as_fractions(x)
        return max(dot(v, coords) for v in self.parts[i].vertices)


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


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


class DualNefPartition:
    """The polytopes nabla^(i) = Conv{0, x in delta_vee : phi_i(x) = 1}."""

    def __init__(self, parts, primal):
        self.parts = tuple(parts)
        self.primal = primal
        self.role = parts[0].role
        self.ambient = parts[0].ambient
        self.r = len(parts)
        self._sum = None

    @property
    def sum_polytope(self):
        if self._sum is None:
            self._sum = minkowski_sum_all(list(self.parts))
        return self._sum

    def as_nef_partition(self):
        """The dual data as a nef-partition in its own right (role swapped)."""
        return NefPartition(list(self.parts), self.parts[0].role)


def dual_nef_partition(np_):
    """Compute the dual nef-partition.

    The level set {phi_i = 1} inside delta_vee is assembled piecewise over
    the linearity domains of phi_i: for every vertex y of the i-th part the
    piece is delta_vee cut by <y,x> = 1 and <y,x> >= <y',x> for the other
    vertices.  The i-th dual part is the hull of 0 and all piece vertices.
    """
    dv = np_.sum_polar
    role = opposite_role(np_.role)
    duals = []
    for i, part in enumerate(np_.parts):
        points = {(0,) * np_.ambient}
        for y in part.vertices:
            if not any(y):
                continue
            eqs = [(-1,) + tuple(y)]
            ineqs = list(dv.facets)
            for y2 in part.vertices:
                if y2 != y:
                    row = (0,) + tuple(a - b for a, b in zip(y, y2))
                    ineqs.append(row)
            piece = polytope_from_hrep(eqs, ineqs, role, np_.ambient)
            if piece is not None:
                points.update(piece.vertices)
        dual = convex_hull(points, role, np_.ambient)
        if not dual.is_lattice_polytope():
            raise NefPartitionError("input is not a valid nef-partition")
        duals.append(dual)
    return DualNefPartition(duals, np_)


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
        "" if refl else "the Minkowski sum is not a reflexive d-polytope"))
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


@dataclass
class InteriorVectors:
    v: tuple  # one M-side vector per part, summing to zero
    w: tuple  # one N-side vector per part, summing to zero


def interior_vectors(np_, dual, max_doublings=64):
    """Strictly positive convex combinations of the vertex sets.

    Writes 0 as a convex combination of the vertices of nabla_vee with all
    coefficients >= 1/K (K doubled until feasible) and collects the per-part
    contributions; same on the delta_vee side.
    """
    v = _strict_combination(np_.parts_hull, list(np_.parts), max_doublings,
                            np_.role)
    w = _strict_combination(np_.sum_polar, list(dual.parts), max_doublings,
                            dual.role)
    return InteriorVectors(tuple(v), tuple(w))


def _strict_combination(hull, parts, max_doublings, role):
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
        feas = polytope_from_hrep(eqs, ineqs, role, n)
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
                out.append(Vector(tuple(acc), role))
            return out
        k *= 2
    raise NefPartitionError("origin not interior")
