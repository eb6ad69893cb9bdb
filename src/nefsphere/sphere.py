"""The sphere complex: transversal cells, adjoint pairs, and homology.

Cells of the boundary subdivision are sliced by the partition parts; the
transversal ones (every slice nonempty) form an upper order ideal P.  Their
Minkowski cells tile part of the boundary of the sum polytope, and products
of adjoint pairs of cells assemble into the sphere complex, whose barycentric
subdivision is the order complex of the adjointness poset.
"""

from fractions import Fraction

from .errors import FalsificationError
from .homology import SimplicialComplex, cellular_homology
from .linalg import dot, smith_normal_form
from .polytope import convex_hull, dilate, intersect, minkowski_sum_all


class TransversalCell:
    """A subdivision cell together with its part slices and Minkowski cell."""

    __slots__ = ("cell", "slices", "index_set", "minkowski")

    def __init__(self, cell, slices, index_set, minkowski):
        self.cell = cell
        self.slices = slices
        self.index_set = index_set
        self.minkowski = minkowski

    def slice_vertex(self, i):
        """The single vertex of slice i (minimal transversal cells only)."""
        verts = self.slices[i].vertices
        if len(verts) != 1:
            raise ValueError("slice is not a point")
        return verts[0]


class TransversalPoset:
    """The transversal cells of a boundary subdivision, ordered by inclusion.

    `slices` maps every cell of the subdivision, transversal or not, to its
    part slices (:func:`compute_slices`), for the checks that need them all.
    """

    def __init__(self, subdivision, parts, elements, slices):
        self.subdivision = subdivision
        self.parts = parts
        self.elements = tuple(elements)
        self.slices = slices
        n = len(self.elements)
        vsets = [frozenset(e.cell.vertices) for e in self.elements]
        self._above = [0] * n  # bitmask: j-th bit set iff element_i <= element_j
        for i in range(n):
            mask = 0
            vi = vsets[i]
            for j in range(n):
                if vi <= vsets[j]:
                    mask |= 1 << j
            self._above[i] = mask
        self.minimal = tuple(i for i in range(n)
                             if not any((self._above[j] >> i) & 1 and j != i
                                        for j in range(n)))

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return (self._above[i] >> j) & 1 == 1

    def below(self, i):
        return [j for j in range(len(self.elements))
                if (self._above[j] >> i) & 1]

    def above(self, i):
        mask = self._above[i]
        out = []
        j = 0
        while mask:
            if mask & 1:
                out.append(j)
            mask >>= 1
            j += 1
        return out

    def index_of_cell(self, cell):
        for i, e in enumerate(self.elements):
            if e.cell == cell:
                return i
        return None


def compute_slices(subdivision, parts):
    """cell -> tuple of (slice polytope or None) for every subdivision cell."""
    out = {}
    for cell in subdivision.cells:
        out[cell] = tuple(_slice(cell, p) for p in parts)
    return out


def _slice(cell, part):
    """cell intersected with part, after a cheap separation test."""
    for rows in (part.equations, part.facets):
        for row in rows:
            if all(dot(row, (1,) + v) < 0 for v in cell.vertices):
                return None
    for row in part.equations:
        if all(dot(row, (1,) + v) > 0 for v in cell.vertices):
            return None
    return intersect(cell, part)


def transversal_poset(subdivision, parts, delta=None):
    """All transversal cells with their Minkowski cells, as a poset.

    Also verifies the upper-order-ideal property and, when `delta` is given,
    the two Minkowski cell formulas (sum of slices vs r*cell intersected with
    delta).
    """
    r = len(parts)
    slices_by_cell = compute_slices(subdivision, parts)
    elements = []
    transversal = set()
    for cell in subdivision.cells:
        slices = slices_by_cell[cell]
        index_set = frozenset(i for i, s in enumerate(slices) if s is not None)
        if len(index_set) != r:
            continue
        mink = minkowski_cell(slices, cell, r, delta)
        elements.append(TransversalCell(cell, slices, index_set, mink))
        transversal.add(cell)
    # Upper order ideal: any cell above a transversal cell is transversal.
    for cell in subdivision.cells:
        if cell in transversal:
            for other in subdivision.cells:
                if subdivision.leq(cell, other) and other not in transversal:
                    raise FalsificationError(
                        "transversal cells do not form an upper order ideal",
                        {"cell": _cell_key(cell), "superface": _cell_key(other)})
    elements.sort(key=lambda e: e.cell.key())
    return TransversalPoset(subdivision, parts, elements, slices_by_cell)


def minkowski_cell(slices, cell, r, delta=None):
    """Sum of the slices; cross-checked against r*cell intersected with delta."""
    mink = minkowski_sum_all(list(slices))
    if delta is not None:
        other = intersect(dilate(cell, r), delta)
        if other != mink:
            raise FalsificationError(
                "Minkowski cell differs from r*cell intersected with the sum",
                {"cell": _cell_key(cell),
                 "sum_of_slices": _cell_key(mink),
                 "dilated_intersection": _cell_key(other) if other else None})
    return mink


def _cell_key(poly):
    return [[str(x) for x in v] for v in poly.vertices]


class MinkowskiComplex:
    """The complex of Minkowski cells, with its isomorphism onto the poset."""

    def __init__(self, poset, cells, report):
        self.poset = poset
        self.cells = cells  # index in poset -> polytope
        self.report = report


def minkowski_complex(poset, delta, r, parts_hull):
    """Build the Minkowski-cell complex and verify its structure.

    Checks: the map cell -> Minkowski cell is injective and an order
    isomorphism onto a face-closed complex, and the support equals the
    intersection of delta with the boundary of the r-fold dilation of
    nabla_vee (by exact volume bookkeeping facet by facet).
    """
    checks = {}
    cells = [e.minkowski for e in poset.elements]
    n = len(cells)
    checks["injective"] = len(set(cells)) == n
    contained = containment_order(cells)
    order_ok = all(poset.leq(i, j) == (contained[i] >> j & 1 == 1)
                   for i in range(n) for j in range(n))
    face_ok = True
    for j in range(n):
        below = [i for i in range(n) if poset.leq(i, j)]
        mj = cells[j]
        face_keys = mj.face_keys()
        if len(face_keys) != len(below):
            face_ok = False
        for i in below:
            if cells[i].key() not in face_keys:
                face_ok = False
    checks["order_isomorphism"] = order_ok
    checks["face_lattices_match"] = face_ok
    # Support: every Minkowski cell lies on the boundary of r*nabla_vee ...
    scaled = dilate(parts_hull, r)
    on_boundary = True
    for mk in cells:
        tight = False
        for f in scaled.facets:
            if all(dot(f, (1,) + v) == 0 for v in mk.vertices):
                tight = True
                break
        if not tight or not all(delta.contains(v) for v in mk.vertices):
            on_boundary = False
    checks["cells_on_dilated_boundary"] = on_boundary
    # ... and the cells cover it: per facet of r*nabla_vee, exact volumes.
    cover_ok = True
    for f in scaled.facets:
        region = intersect(_facet_slab(scaled, f), delta)
        if region is None:
            if any(all(dot(f, (1,) + v) == 0 for v in mk.vertices)
                   for mk in cells):
                cover_ok = False
            continue
        members = [mk for mk in cells
                   if all(dot(f, (1,) + v) == 0 for v in mk.vertices)
                   and mk.dim == region.dim]
        if region.dim == 0:
            if region not in members:
                cover_ok = False
            continue
        chart = region.chart()
        total = sum((mk.volume_in_chart(chart) for mk in members),
                    Fraction(0))
        if total != region.volume_in_chart(chart):
            cover_ok = False
    checks["support_covers_dilated_boundary"] = cover_ok
    report = {"passed": all(checks.values()), "checks": checks}
    return MinkowskiComplex(poset, cells, report)


def containment_order(cells):
    """Bitmasks of polytope inclusion: bit j of entry i is set iff every
    vertex of cells[i] lies in cells[j].

    The distinct vertices of all cells are numbered and each is tested once
    against each cell; then i <= j iff vmask[i] & inside[j] == vmask[i].
    """
    ids = {}
    vmask = []
    for c in cells:
        mask = 0
        for v in c.vertices:
            mask |= 1 << ids.setdefault(v, len(ids))
        vmask.append(mask)
    inside = []
    for c in cells:
        mask = 0
        for v, t in ids.items():
            if c.contains(v):
                mask |= 1 << t
        inside.append(mask)
    out = []
    for vm in vmask:
        mask = 0
        for j, ins in enumerate(inside):
            if vm & ins == vm:
                mask |= 1 << j
        out.append(mask)
    return out


def _facet_slab(poly, facet_row):
    """The facet of `poly` cut out by one of its facet rows, as a polytope."""
    verts = [v for v in poly.vertices if dot(facet_row, (1,) + v) == 0]
    return convex_hull(verts, poly.role, poly.ambient)


def adjoint_pairs(p_poset, q_poset):
    """All (i, j) with <slice_a, slice_b> = delta_ab on every vertex pair."""
    r = len(p_poset.parts)
    p_vert = []
    for e in p_poset.elements:
        p_vert.append([s.vertices for s in e.slices])
    q_vert = []
    for e in q_poset.elements:
        q_vert.append([s.vertices for s in e.slices])
    pairs = []
    for i, pv in enumerate(p_vert):
        for j, qv in enumerate(q_vert):
            if _is_adjoint(pv, qv, r):
                pairs.append((i, j))
    return pairs


def _is_adjoint(pv, qv, r):
    for a in range(r):
        for b in range(r):
            want = 1 if a == b else 0
            for m in pv[a]:
                for x in qv[b]:
                    if dot(m, x) != want:
                        return False
    return True


class SigmaComplex:
    """The polytopal complex of products over adjoint pairs."""

    def __init__(self, p_poset, q_poset, pairs, r):
        self.p_poset = p_poset
        self.q_poset = q_poset
        self.r = r
        self.pairs = tuple(sorted(
            pairs,
            key=lambda ij: (p_poset.elements[ij[0]].minkowski.key(),
                            q_poset.elements[ij[1]].minkowski.key())))
        self.pair_index = {pq: k for k, pq in enumerate(self.pairs)}
        self.dims = tuple(
            p_poset.elements[i].minkowski.dim + q_poset.elements[j].minkowski.dim
            for i, j in self.pairs)
        self._above = self._product_order()
        self._successors = None
        self._verify_membership()
        self._verify_face_closure()

    def _product_order(self):
        """_above[k]: bitmask of the cells >= cell k in the product order.

        p_up[i] is the union of the pair rows (i2, *) over i2 >= i, q_up[j]
        the same for the Q side; (i, j) <= (i2, j2) iff both factors are.
        Both are kept: p_up[i] & q_up[j] is the set of cells above the
        pair (i, j) whether or not that pair is a cell.
        """
        p_row = [0] * len(self.p_poset)
        q_row = [0] * len(self.q_poset)
        for k, (i, j) in enumerate(self.pairs):
            p_row[i] |= 1 << k
            q_row[j] |= 1 << k
        self.p_up = [_union(p_row, self.p_poset.above(i))
                     for i in range(len(p_row))]
        self.q_up = [_union(q_row, self.q_poset.above(j))
                     for j in range(len(q_row))]
        return [self.p_up[i] & self.q_up[j] for i, j in self.pairs]

    def _verify_membership(self):
        for (i, j) in self.pairs:
            mk = self.p_poset.elements[i].minkowski
            tn = self.q_poset.elements[j].minkowski
            for m in mk.vertices:
                for x in tn.vertices:
                    if dot(m, x) != self.r:
                        raise FalsificationError(
                            "product cell vertex violates the pairing-level "
                            "equation", {"m": [str(c) for c in m],
                                         "n": [str(c) for c in x],
                                         "expected": self.r,
                                         "got": str(dot(m, x))})

    def _verify_face_closure(self):
        # Componentwise subpairs of adjoint pairs must again be adjoint.
        pair_set = set(self.pairs)
        for (i, j) in self.pairs:
            for i2 in self.p_poset.below(i):
                for j2 in self.q_poset.below(j):
                    if (i2, j2) not in pair_set:
                        raise FalsificationError(
                            "face of an adjoint product cell is not a cell",
                            {"pair": [i, j], "subpair": [i2, j2]})

    def __len__(self):
        return len(self.pairs)

    def dim(self):
        return max(self.dims) if self.dims else -1

    def leq(self, a, b):
        return (self._above[a] >> b) & 1 == 1

    def successors(self):
        """successors[k] = all cells strictly above cell k (for bsd chains)."""
        if self._successors is None:
            self._successors = [_bits(mask & ~(1 << k))
                                for k, mask in enumerate(self._above)]
        return self._successors

    def facets(self):
        """facets[k] = the codimension-one faces of cell k, ascending."""
        out = [[] for _ in self.pairs]
        for a, ups in enumerate(self.successors()):
            for b in ups:
                if self.dims[b] == self.dims[a] + 1:
                    out[b].append(a)
        return out

    def euler_characteristic(self):
        return sum((-1) ** d for d in self.dims)

    def homology(self):
        """Integral homology of Sigma, computed cellularly on its own cells.

        Sigma is a polytopal, hence regular CW, complex, and the cellular
        homology of a regular CW complex equals the homology of the order
        complex of its face poset (Bjorner, "Posets, regular CW complexes
        and Bruhat order", Europ. J. Combin. 1984), i.e. of the barycentric
        subdivision, which is therefore not built here.
        """
        return cellular_homology(self.dims, self.facets())

    def bsd_chain_levels(self):
        """All chains of the cell poset by length (the bsd simplices)."""
        succ = self.successors()
        levels = []
        current = [(i,) for i in range(len(self.pairs))]
        while current:
            levels.append(tuple(current))
            nxt = []
            for ch in current:
                for j in succ[ch[-1]]:
                    nxt.append(ch + (j,))
            current = nxt
        return levels

    def is_closed_pseudomanifold(self):
        levels = self.bsd_chain_levels()
        top = len(levels)
        if top <= 1:
            return True
        flags = levels[-1]
        subcount = {}
        for ch in flags:
            for i in range(len(ch)):
                subcount[ch[:i] + ch[i + 1:]] = \
                    subcount.get(ch[:i] + ch[i + 1:], 0) + 1
        if len(levels) >= 2 and len(subcount) != len(levels[-2]):
            return False  # not pure
        if any(c != 2 for c in subcount.values()):
            return False
        # Purity below the top two levels: every chain extends to a flag.
        in_flags = set()
        for ch in flags:
            stack = [ch]
            while stack:
                c = stack.pop()
                if c in in_flags:
                    continue
                in_flags.add(c)
                if len(c) > 1:
                    for i in range(len(c)):
                        stack.append(c[:i] + c[i + 1:])
        total = sum(len(lv) for lv in levels)
        return len(in_flags) == total


def _union(rows, indices):
    mask = 0
    for i in indices:
        mask |= rows[i]
    return mask


def _bits(mask):
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_sigma(p_poset, q_poset, pairs, r, expected_dim=None):
    sigma = SigmaComplex(p_poset, q_poset, pairs, r)
    if expected_dim is not None:
        for d in sigma.dims:
            if d > expected_dim:
                raise FalsificationError(
                    "product cell exceeds the expected dimension",
                    {"dim": d, "bound": expected_dim})
    return sigma


def projection_images(sigma):
    """Check that both projections hit every Minkowski cell on their side."""
    hit_p = {i for i, _ in sigma.pairs}
    hit_q = {j for _, j in sigma.pairs}
    report = {
        "p1_surjective": len(hit_p) == len(sigma.p_poset),
        "p2_surjective": len(hit_q) == len(sigma.q_poset),
        "cells_project_to_their_factors": True,
    }
    report["passed"] = report["p1_surjective"] and report["p2_surjective"]
    return report


def lemma_slice_suite(poset, dual_parts):
    """The face/lattice-distance/unimodularity checks on every cell.

    For every cell of the poset's subdivision and index set I: Conv of the
    I-slices is a face of the cell; complementary nonempty slices are at
    lattice distance one (certified by the sum of the dual support
    functions); minimal transversal cells are unimodular (r-1)-simplices.
    The slices are the ones the poset was built from.
    """
    from itertools import combinations
    r = len(poset.parts)
    failures = []
    for cell in poset.subdivision.cells:
        slices = poset.slices[cell]
        face_keys = None
        for size in range(1, r + 1):
            for idxs in combinations(range(r), size):
                chosen = [slices[i] for i in idxs if slices[i] is not None]
                if not chosen:
                    continue
                pts = [v for s in chosen for v in s.vertices]
                sigma_i = convex_hull(pts, cell.role, cell.ambient)
                if face_keys is None:
                    face_keys = cell.face_keys()
                if sigma_i.key() not in face_keys:
                    failures.append({"check": "slice_hull_is_face",
                                     "cell": _cell_key(cell),
                                     "index_set": list(idxs)})
                comp = [i for i in range(r) if i not in idxs]
                comp_chosen = [slices[i] for i in comp
                               if slices[i] is not None]
                if comp_chosen:
                    if not _distance_one(sigma_i, comp_chosen, dual_parts,
                                         idxs):
                        failures.append({"check": "lattice_distance_one",
                                         "cell": _cell_key(cell),
                                         "index_set": list(idxs)})
    return failures


def _distance_one(sigma_i, comp_slices, dual_parts, idxs):
    """Sum of the dual supports over idxs is 1 on sigma_i, 0 on the others."""
    def psi(point):
        total = Fraction(0)
        for i in idxs:
            total += max(dot(point, x) for x in dual_parts[i].vertices)
        return total

    for v in sigma_i.vertices:
        if psi(v) != 1:
            return False
    for s in comp_slices:
        for v in s.vertices:
            if psi(v) != 0:
                return False
    return True


def minimal_cells_unimodular(poset):
    """Minimal transversal cells must be unimodular (r-1)-simplices."""
    from .linalg import clear_denominators
    failures = []
    r = len(poset.parts)
    for i in poset.minimal:
        e = poset.elements[i]
        verts = e.cell.vertices
        ok = len(verts) == r and all(len(s.vertices) == 1 for s in e.slices)
        if ok and r > 1:
            base = verts[0]
            rows = [clear_denominators(tuple(a - b for a, b in zip(v, base)))
                    for v in verts[1:]]
            divs, rank = smith_normal_form(rows)
            ok = rank == r - 1 and all(d == 1 for d in divs)
        if not ok:
            failures.append({"check": "minimal_cell_unimodular_simplex",
                             "cell": _cell_key(e.cell)})
    return failures


def full_subposet_complex(sigma, keep_indices):
    """The full subcomplex of bsd(Sigma) on the given pair vertices.

    Returns a SimplicialComplex whose vertices are positions in keep_indices.
    """
    keep = sorted(keep_indices)
    pos = {k: t for t, k in enumerate(keep)}
    succ = sigma.successors()
    simplices = []
    for k in keep:
        simplices.append((pos[k],))
    # Chains within the kept subposet.
    sub_succ = {k: [j for j in succ[k] if j in pos] for k in keep}
    current = [(k,) for k in keep]
    while current:
        nxt = []
        for ch in current:
            for j in sub_succ[ch[-1]]:
                nxt.append(ch + (j,))
        for ch in nxt:
            simplices.append(tuple(pos[c] for c in ch))
        current = nxt
    return SimplicialComplex.from_simplices(simplices) if simplices else \
        SimplicialComplex({})
