"""Charts, discriminant locus, and monodromy of the affine structure.

Chart transitions between minimal transversal cells follow the explicit
affine maps of the model.  Every holonomy (loop monodromy, the local groups,
global transport and the duality pairing) is computed one way: the base
chart's frame, its tangent basis and base point, is pushed through the
loop's transitions (:func:`_push`) and read off in the chart
(:func:`_restrict`), whose linear part must be an integral unipotent
transformation of the tangent lattice of the base chart.

Transitions and base charts read only the two transversal posets and the
weight (:func:`transition_memo`, :func:`base_chart_memo`), not Sigma.  The
role-swapped run's posets are this run's, swapped, so the duality pairing
reads the dual holonomy from them (:func:`duality_check`) and no second
Sigma is built.
"""

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import itemgetter

from .errors import FalsificationError
from .linalg import (
    denominator_lcm,
    det,
    dot,
    from_numerators,
    identity,
    lattice_left_inverse,
    mat_mul,
    saturated_perp_basis,
    saturated_span_basis,
    smith_normal_form,
    row_rank,
    to_numerators,
)
from .homology import order_complex_homology
from .sphere import _bits, _cell_key, _point_key


# -- smoothness and the discriminant -----------------------------------------


def pinched_parts(sigma, pair_idx):
    """The partition indices a in which a cell of Sigma is pinched: the
    dimensions of its two slices in part a multiply to a non-zero number."""
    i, j = sigma.pairs[pair_idx]
    e_p = sigma.p_poset.elements[i]
    e_q = sigma.q_poset.elements[j]
    return [a for a in range(sigma.r)
            if e_p.slices[a].dim * e_q.slices[a].dim != 0]


def smooth_pair(sigma, pair_idx):
    """A cell is smooth when it is pinched in no part."""
    return not pinched_parts(sigma, pair_idx)


class DiscriminantComplex:
    """Sigma's non-smooth cells, whose order complex is the full subcomplex
    of bsd(Sigma) on them.

    They form an upper set of Sigma (a cell above a non-smooth cell is not
    smooth), and so does each component: a class of the comparability
    relation, grown from its lowest cell through Sigma's `_above | _below`
    masks.  A component's homology is that of its order complex.
    """

    def __init__(self, sigma, mask, component_masks, component_homology):
        self.sigma = sigma
        self.mask = mask  # the non-smooth cells
        self.vertex_ids = tuple(_bits(mask))  # pair indices, sorted
        self.component_masks = component_masks
        self.components = [tuple(_bits(m)) for m in component_masks]
        self.component_homology = component_homology

    def smooth_mask(self):
        """Bitmask of Sigma's smooth cells: the cells off the discriminant."""
        return ((1 << len(self.sigma.pairs)) - 1) & ~self.mask


def discriminant(sigma):
    mask = sum(1 << k for k in range(len(sigma.pairs))
               if not smooth_pair(sigma, k))
    component_masks = []
    rest = mask
    while rest:
        comp = 0
        grow = rest & -rest
        while grow:
            comp |= grow
            reach = 0
            for k in _bits(grow):
                reach |= sigma._above[k] | sigma._below[k]
            grow = reach & rest & ~comp
        component_masks.append(comp)
        rest &= ~comp
    homs = []
    for comp in component_masks:
        cells = _bits(comp)
        pos = {k: t for t, k in enumerate(cells)}
        homs.append(order_complex_homology(
            len(cells), [[pos[j] for j in _bits(sigma._above[k] & comp)
                          if j != k] for k in cells]))
    return DiscriminantComplex(sigma, mask, component_masks, homs)


def complement_homology(sigma, smooth):
    """Homology of the complement complex: Sigma's subcomplex on the cells
    of the mask `smooth`, computed cellularly (:meth:`SigmaComplex.homology`).

    Smooth cells are closed under faces (a face's slices lie in the cell's
    slices, so slice dimensions only drop); a smooth cell with a non-smooth
    face raises a certificate naming both.  The complement of the full
    subcomplex of bsd(Sigma) on the non-smooth cells deformation-retracts
    onto the full subcomplex on the smooth ones (Munkres, Elements of
    Algebraic Topology, Lemma 70.1), which is the barycentric subdivision
    of this subcomplex.
    """
    for k in _bits(smooth):
        bad = sigma._below[k] & ~smooth
        if bad:
            face = (bad & -bad).bit_length() - 1
            raise FalsificationError(
                "a face of a smooth cell of Sigma is not smooth",
                {"cell": list(sigma.pairs[k]),
                 "face": list(sigma.pairs[face])})
    return sigma.homology(smooth)


# -- charts and the bipartite graph -------------------------------------------


class ChartAtlas:
    """Vertex sets of the chart covering, indexed by minimal transversal cells.

    A chart is the bitmask of Sigma's cells over its minimal cell: U_s is
    Sigma's p_up[s], V_t its q_up[t].
    """

    def __init__(self, sigma):
        self.sigma = sigma
        self.u_charts = {s: sigma.p_up[s] for s in sigma.p_poset.minimal}
        self.v_charts = {t: sigma.q_up[t] for t in sigma.q_poset.minimal}

    def covering_report(self):
        full = (1 << len(self.sigma.pairs)) - 1
        report = {"u_charts_cover": _or_all(self.u_charts.values()) == full,
                  "v_charts_cover": _or_all(self.v_charts.values()) == full}
        # U_s meets V_t exactly when (s, t) is an adjoint pair.
        report["chart_overlaps_match_adjacency"] = all(
            bool(us & vs) == ((s, t) in self.sigma.pair_index)
            for s, us in self.u_charts.items()
            for t, vs in self.v_charts.items())
        # Every chart intersection pattern is witnessed by a transversal cell.
        p_poset = self.sigma.p_poset
        hit = _or_all(1 << i for i, _ in self.sigma.pairs)
        mins = sorted(self.u_charts)
        report["nerve_witnessed_by_poset"] = all(
            bool(self.u_charts[a] & self.u_charts[b])
            == bool(p_poset._above[a] & p_poset._above[b] & hit)
            for a_i, a in enumerate(mins) for b in mins[a_i + 1:])
        report["passed"] = all(v for k, v in report.items() if k != "passed")
        return report


def _or_all(masks):
    out = 0
    for mask in masks:
        out |= mask
    return out


class ChartGraph:
    """Bipartite graph on minimal transversal cells, edges = adjoint pairs."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.p_nodes = tuple(sigma.p_poset.minimal)
        self.q_nodes = tuple(sigma.q_poset.minimal)
        p_set, q_set = set(self.p_nodes), set(self.q_nodes)
        self.edges = tuple(sorted((i, j) for (i, j) in sigma.pairs
                                  if i in p_set and j in q_set))
        self._adj = {}
        for i, j in self.edges:
            self._adj.setdefault(("P", i), []).append(("Q", j))
            self._adj.setdefault(("Q", j), []).append(("P", i))
        for v in self._adj:
            self._adj[v].sort(key=self._node_key)

    def _node_key(self, node):
        side, idx = node
        poset = self.sigma.p_poset if side == "P" else self.sigma.q_poset
        return (side, poset.elements[idx].cell.key())

    def nodes(self):
        return [("P", i) for i in self.p_nodes] + \
               [("Q", j) for j in self.q_nodes]

    def neighbors(self, node):
        return self._adj.get(node, [])

    def components(self):
        seen = set()
        comps = []
        for start in sorted(self.nodes(), key=self._node_key):
            if start in seen:
                continue
            comp = []
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                comp.append(v)
                stack.extend(self.neighbors(v))
            comps.append(sorted(comp, key=self._node_key))
        return comps

    def spanning_tree(self, base):
        """BFS tree: node -> parent (None at the base)."""
        parent = {base: None}
        queue = [base]
        while queue:
            v = queue.pop(0)
            for w in self.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        return parent


# -- primary loops and monodromy ----------------------------------------------


class PrimaryLoop(tuple):
    """A four-node loop (sigma0, tau0, sigma1, tau1) in the chart graph: the
    P-indices p0, p1 and Q-indices q0, q1 of its nodes, as an immutable
    tuple (p0, q0, p1, q1)."""

    __slots__ = ()

    def __new__(cls, p0, q0, p1, q1):
        return tuple.__new__(cls, (p0, q0, p1, q1))

    p0 = property(itemgetter(0))
    q0 = property(itemgetter(1))
    p1 = property(itemgetter(2))
    q1 = property(itemgetter(3))

    @property
    def degenerate(self):
        return self[0] == self[2] or self[1] == self[3]


def primary_loops(sigma, s_boundary, t_boundary):
    """All four-node loops whose end pairs span cells of S and T.

    Loops with coincident ends on one side are kept (their monodromy is
    trivial) but marked degenerate; fully collapsed loops are dropped.

    The loops are a join on bitmasks over the positions x of the Q-minimal
    elements q_min: partners[a] is the mask of the x with (a, q_min[x])
    adjoint, and later[x] the mask of the y >= x with (q_min[x], q_min[y])
    a span pair.  (a, c, b, e) is a loop iff c and e lie in partners[a] &
    partners[b], so each span pair (a, b) reads its loops from that meet,
    in the order of the span pairs of Q.
    """
    p_min = sorted(sigma.p_poset.minimal,
                   key=lambda i: sigma.p_poset.elements[i].cell.key())
    q_min = sorted(sigma.q_poset.minimal,
                   key=lambda j: sigma.q_poset.elements[j].cell.key())
    p_pairs = _span_pairs(sigma.p_poset, p_min, s_boundary)
    q_pairs = _span_pairs(sigma.q_poset, q_min, t_boundary)
    position = {j: x for x, j in enumerate(q_min)}
    partners = dict.fromkeys(p_min, 0)
    for a, j in sigma.pairs:
        if a in partners and j in position:
            partners[a] |= 1 << position[j]
    later = [0] * len(q_min)
    for c, e in q_pairs:
        later[position[c]] |= 1 << position[e]
    loops = []
    for a, b in p_pairs:
        meet = partners[a] & partners[b]
        for x in _bits(meet):
            for y in _bits(meet & later[x]):
                if a != b or x != y:
                    loops.append(PrimaryLoop(a, q_min[x], b, q_min[y]))
    return loops


def _span_pairs(poset, minimal, boundary):
    """Ordered pairs (i, j), i <= j canonically, whose union spans a cell.

    Cells of a complex meet in faces, so conv(c_i u c_j) is a cell of the
    boundary subdivision iff some cell has exactly the vertices of both.
    """
    spans = set(boundary.vertex_masks)
    masks = {i: boundary.vertex_mask(poset.elements[i].cell) for i in minimal}
    return [(i, j) for x, i in enumerate(minimal) for j in minimal[x:]
            if masks[i] | masks[j] in spans]


class AffineMap:
    """Exact affine map y -> M y + t on ambient space, kept in integers.

    M is an integer matrix and the translation is t = num / den: integer
    numerators over one positive denominator.  Points travel as the same
    kind of pair (:meth:`push`), so composing and applying maps builds no
    Fraction.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m, num, den=1):
        self.m = m
        self.num = num
        self.den = den

    @classmethod
    def identity(cls, d):
        return cls(identity(d), (0,) * d)

    def push(self, y, q):
        """The image of the point y / q (y integral, q > 0) as the pair
        (integer numerators, denominator q * den)."""
        den = self.den
        return (tuple(den * dot(row, y) + q * c
                      for row, c in zip(self.m, self.num)), q * den)

    def apply_linear(self, y):
        return tuple(dot(row, y) for row in self.m)

    def compose(self, other):
        """self after other."""
        num, den = self.push(other.num, other.den)
        g = gcd(den, *num)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        return AffineMap(mat_mul(self.m, other.m), num, den)


def _lattice_slice_vertex(cell, j):
    """The slice point j of a minimal transversal cell, which must be a
    lattice point: the chart maps and lattices are built from it."""
    v = cell.slice_vertex(j)
    if any(type(x) is not int for x in v):
        raise FalsificationError(
            "slice point of a minimal transversal cell is not integral",
            {"cell": _cell_key(cell.cell), "slice": j,
             "point": _point_key(v)})
    return v


def chart_transition(dst_cell, via_cell, weight, ambient):
    """The map into the destination chart through a common adjoint partner.

    y -> y - sum_j [<dst_j, y> - w(dst_j)] via_j,  where dst_j are the slice
    points of the destination minimal cell and via_j those of the shared
    minimal partner on the other side.
    """
    r = len(dst_cell.slices)
    m = [list(row) for row in identity(ambient)]
    t = [0] * ambient
    for j in range(r):
        dst_j = _lattice_slice_vertex(dst_cell, j)
        via_j = _lattice_slice_vertex(via_cell, j)
        for a in range(ambient):
            for b in range(ambient):
                m[a][b] -= via_j[a] * dst_j[b]
            t[a] += weight(dst_j) * via_j[a]
    den = denominator_lcm(t)
    return AffineMap(tuple(tuple(row) for row in m), to_numerators(t, den),
                     den)


class AffineMonodromy:
    """The affine holonomy of `loop`: `basis` rows are the canonical lattice
    basis of the tangent space, `linear` the (d-r) x (d-r) integer matrix
    and `translation` the (d-r) rationals of the map in that basis, and
    `images` the basis vectors' images under the loop's map."""

    __slots__ = ("loop", "basis", "linear", "translation", "images")

    def __init__(self, loop, basis, linear, translation, images):
        self.loop = loop
        self.basis = basis
        self.linear = linear
        self.translation = translation
        self.images = images


def transition_memo(p_poset, q_poset, weight):
    """chart_transition by (destination P-index, via Q-index), built once
    per pair: a transition depends on nothing else."""
    p_el = p_poset.elements
    q_el = q_poset.elements

    @lru_cache(maxsize=None)
    def transition(i, j):
        return chart_transition(p_el[i], q_el[j], weight, p_el[i].cell.ambient)

    return transition


def _loop_maps(loop, transition):
    """The loop's two chart transitions, in the order they are run: into
    sigma1 through tau0, then back into sigma0 through tau1.  `transition`
    is the :func:`transition_memo` of the loop's posets and weight."""
    return (transition(loop.p1, loop.q0), transition(loop.p0, loop.q1))


def _push(frame, maps):
    """A frame (vectors, (numerators, denominator) of a point) carried
    through the affine maps in order: the vectors by the linear parts, the
    point by :meth:`AffineMap.push`."""
    vectors, point = frame
    for step in maps:
        vectors = tuple(step.apply_linear(v) for v in vectors)
        point = step.push(*point)
    return vectors, point


class BaseChart:
    """The lattice chart of a minimal transversal cell.

    `rows` are its slice points S, whose common kernel is the tangent space
    (the perp test); `basis` is the saturated basis B of that kernel and
    `inverse` its integer left inverse L (L B^T = I), so L v are the basis
    coordinates of a tangent vector v.  The base point x0 = x0_num / x0_den
    is the point of {S x = w(S)} orthogonal to the tangent space; `frame`
    is the basis with x0, as :func:`_push` carries it.
    """

    __slots__ = ("rows", "basis", "inverse", "x0_num", "x0_den")

    def __init__(self, rows, basis, inverse, x0_num, x0_den):
        self.rows = rows
        self.basis = basis
        self.inverse = inverse
        self.x0_num = x0_num
        self.x0_den = x0_den

    @property
    def frame(self):
        return self.basis, (self.x0_num, self.x0_den)


def base_chart_data(base_cell, weight):
    """The :class:`BaseChart` of a minimal cell."""
    r = len(base_cell.slices)
    d = base_cell.cell.ambient
    rows = tuple(_lattice_slice_vertex(base_cell, j) for j in range(r))
    if row_rank(rows) != r:
        raise FalsificationError(
            "minimal transversal cell is not linearly independent",
            {"cell": _cell_key(base_cell.cell)})
    basis = saturated_perp_basis(rows, d)
    inverse = lattice_left_inverse(basis, d) if basis else ()
    # x0 = S^T z with (S S^T) z = w(S), by Cramer's rule on the integer
    # system scaled by the weights' common denominator s: z = c / (g s).
    rhs = [weight(v) for v in rows]
    s = denominator_lcm(rhs)
    rhs = to_numerators(rhs, s)
    gram = [tuple(dot(a, b) for b in rows) for a in rows]
    g = det(gram)
    c = [det([row[:i] + (y,) + row[i + 1:] for row, y in zip(gram, rhs)])
         for i in range(r)]
    num = [sum(c[i] * rows[i][a] for i in range(r)) for a in range(d)]
    den = g * s
    k = gcd(den, *num)
    return BaseChart(rows, basis, inverse, tuple(x // k for x in num),
                     den // k)


def base_chart_memo(p_poset, weight):
    """base_chart_data by P-index, built once per minimal cell."""
    p_el = p_poset.elements

    @lru_cache(maxsize=None)
    def base_chart(i):
        return base_chart_data(p_el[i], weight)

    return base_chart


def _restrict(chart, images, image, den):
    """(linear, shift numerators over den) of an affine self-map of the
    chart, in lattice coordinates, that sends the basis vectors to `images`
    and x0 to image / den, where den is a multiple of x0_den (as
    :func:`_push` leaves it).

    Raises a falsification certificate when the map does not preserve the
    chart or is not integral unimodular unipotent of order two.
    """
    for v in images:
        if any(dot(s, v) for s in chart.rows):
            raise FalsificationError(
                "monodromy linear part is not integral on the tangent lattice",
                {"vector": _point_key(v)})
    linear = tuple(tuple(dot(row, v) for v in images)
                   for row in chart.inverse)
    scale = den // chart.x0_den
    diff = tuple(a - scale * b for a, b in zip(image, chart.x0_num))
    if any(dot(s, diff) for s in chart.rows):
        raise FalsificationError(
            "monodromy does not preserve the base chart",
            {"base_point_image": _point_key(from_numerators(image, den))})
    if linear and det(linear) != 1:
        raise FalsificationError("monodromy determinant is not one",
                                 {"linear": [list(r) for r in linear]})
    nil = _mat_sub_identity(linear)
    sq = mat_mul(nil, nil)
    if any(any(row) for row in sq):
        raise FalsificationError("monodromy is not unipotent of order two",
                                 {"linear": [list(r) for r in linear]})
    return linear, tuple(dot(row, diff) for row in chart.inverse)


def _mat_sub_identity(m):
    return tuple(tuple(v - int(i == j) for j, v in enumerate(row))
                 for i, row in enumerate(m))


def monodromy(loop, transition, base_chart):
    """The affine holonomy around a primary loop, in canonical coordinates.

    `transition` and `base_chart` are the :func:`transition_memo` and
    :func:`base_chart_memo` of the loop's posets and weight."""
    chart = base_chart(loop.p0)
    images, (image, den) = _push(chart.frame, _loop_maps(loop, transition))
    linear, shift = _restrict(chart, images, image, den)
    return AffineMonodromy(loop, chart.basis, linear,
                           from_numerators(shift, den), images)


# -- checks around loops -------------------------------------------------------


def encloses_smooth_pair(sigma, loop, smooth):
    """Whether a smooth cell (i, j) of Sigma has both P nodes of the loop
    below i and both Q nodes below j; `smooth` is the bitmask of smooth
    cells (:meth:`DiscriminantComplex.smooth_mask`)."""
    return bool(sigma.p_up[loop.p0] & sigma.p_up[loop.p1]
                & sigma.q_up[loop.q0] & sigma.q_up[loop.q1] & smooth)


def triviality_equivalence_check(sigma, loop, mono, smooth):
    """Equivalence of: trivial holonomy; existence of an enclosing smooth
    pair; and the absence of an index changing on both sides of the loop.

    (A common changing index forces non-trivial holonomy: pairing a
    functional positive on the moved slice point against a vector positive
    on the moved partner slice gives a strictly positive displacement.)
    Degenerate loops are reported separately and must be trivial.
    """
    if loop.degenerate:
        return {"degenerate": True, "trivial": _is_identity(mono), "passed":
                _is_identity(mono)}
    cond1 = _is_identity(mono)
    cond2 = encloses_smooth_pair(sigma, loop, smooth)
    common_changing_index = False
    p0 = sigma.p_poset.elements[loop.p0]
    p1 = sigma.p_poset.elements[loop.p1]
    q0 = sigma.q_poset.elements[loop.q0]
    q1 = sigma.q_poset.elements[loop.q1]
    for j in range(sigma.r):
        if p0.slice_vertex(j) != p1.slice_vertex(j) and \
                q0.slice_vertex(j) != q1.slice_vertex(j):
            common_changing_index = True
            break
    cond3 = not common_changing_index
    return {"degenerate": False, "trivial": cond1,
            "smooth_hull_pair": cond2,
            "common_changing_index": common_changing_index,
            "passed": cond1 == cond2 == cond3}


def _is_identity(mono):
    k = len(mono.basis)
    return mono.linear == identity(k) and \
        all(t == 0 for t in mono.translation)


def local_group(sigma, pair_idx, transition, base_chart):
    """Monodromies of all loops inside the star of a single pair vertex.

    Verifies the abelian upper-triangular structure: commuting generators,
    image inside the tangent space of the tau-side Minkowski cell, and
    vanishing on it.  `transition` and `base_chart` are the
    :func:`transition_memo` and :func:`base_chart_memo` of sigma's posets
    and the weight.
    """
    i, j = sigma.pairs[pair_idx]
    p_poset, q_poset = sigma.p_poset, sigma.q_poset
    p_min = p_poset.minimal_below(i)
    q_min = q_poset.minimal_below(j)
    base_idx = p_min[0]
    chart = base_chart(base_idx)
    d = p_poset.elements[base_idx].cell.ambient
    r = sigma.r
    mats = []
    for pk in p_min:
        for a in range(len(q_min)):
            for b in range(len(q_min)):
                if a == b and pk == base_idx:
                    continue
                loop = PrimaryLoop(base_idx, q_min[a], pk, q_min[b])
                mats.append(monodromy(loop, transition, base_chart).linear)
    # W: span of the slice-point differences over the tau side.
    diffs = []
    for a in range(len(q_min)):
        for b in range(a + 1, len(q_min)):
            qa = q_poset.elements[q_min[a]]
            qb = q_poset.elements[q_min[b]]
            for jj in range(r):
                diff = tuple(x - y for x, y in
                             zip(_lattice_slice_vertex(qa, jj),
                                 _lattice_slice_vertex(qb, jj)))
                if any(diff):
                    diffs.append(diff)
    w_basis = saturated_span_basis(diffs, d) if diffs else ()
    tau_dim = q_poset.elements[j].cell.dim
    sigma_dim = p_poset.elements[i].cell.dim
    report = {
        "w_dimension_matches": len(w_basis) == tau_dim - r + 1,
        "commuting": _pairwise_commute(mats),
        "image_in_w": True,
        "vanishes_on_w": True,
        "block_rows": len(w_basis),
        "block_cols_bound": sigma_dim - r + 1,
        "loops": len(mats),
    }
    # Work in chart coordinates: express W inside the basis (an integer
    # vector of the tangent space has integer coordinates, B is saturated).
    w_coords = []
    for w in w_basis:
        if any(dot(s, w) for s in chart.rows):
            report["image_in_w"] = False
            report["vanishes_on_w"] = False
            break
        w_coords.append(tuple(dot(row, w) for row in chart.inverse))
    else:
        # The W coordinates are independent, so every image column lies in
        # their span exactly when adding the columns keeps the rank.
        images = set()
        for m in mats:
            nil = _mat_sub_identity(m)
            images.update(col for col in zip(*nil) if any(col))
            for w in w_coords:
                if any(dot(row, w) for row in nil):
                    report["vanishes_on_w"] = False
        report["image_in_w"] = \
            row_rank(w_coords + sorted(images)) == len(w_coords)
    report["passed"] = (report["w_dimension_matches"] and report["commuting"]
                        and report["image_in_w"] and report["vanishes_on_w"])
    return report


def _pairwise_commute(mats):
    return all(mat_mul(a, b) == mat_mul(b, a)
               for a, b in combinations(sorted(set(mats)), 2))


# -- global analysis -----------------------------------------------------------


def global_group(sigma, graph, loops, transition, base_chart,
                 discriminant_complex):
    """Transport every primary loop to a fixed base chart and analyze the
    resulting subgroup: commutation, the Smith divisors of the log lattice,
    and per-discriminant-component sublattices.  A degenerate loop enters
    as the identity with no frame pushed: its holonomy is the identity by
    the adjoint pairing (see :func:`transported_loops`).  `transition` and
    `base_chart` are the :func:`transition_memo` and :func:`base_chart_memo`
    of sigma's posets and the weight."""
    if not graph.p_nodes:
        return {"trivial": True, "divisors": [], "commuting": True,
                "component_divisors": {}, "graph_components": 0,
                "transported": 0, "skipped_other_component": 0}
    base_node = min(("P", i) for i in graph.p_nodes)
    comps = graph.components()
    base_comp = next(c for c in comps if base_node in c)
    moved = transported_loops(sigma, graph, loops, transition, base_chart)
    transported = [linear for _, linear in moved]
    skipped = len(loops) - len(moved)
    logs = []
    per_comp = {}
    for loop, m in moved:
        if loop.degenerate:
            continue  # the identity: its log is zero
        flat = tuple(v for row in _mat_sub_identity(m) for v in row)
        if any(flat):
            logs.append(flat)
            comp = _loop_discriminant_component(sigma, loop,
                                                discriminant_complex)
            if comp is not None:
                per_comp.setdefault(comp, []).append(flat)
    divisors, rank = smith_normal_form(logs) if logs else ((), 0)
    comp_divisors = {comp: list(smith_normal_form(vecs)[0])
                     for comp, vecs in sorted(per_comp.items())}
    return {
        "trivial": not logs,
        "divisors": list(divisors),
        "log_rank": rank,
        "commuting": _pairwise_commute(transported),
        "component_divisors": comp_divisors,
        "graph_components": len(comps),
        "transported": len(transported),
        "skipped_other_component": skipped,
        "base_component_size": len(base_comp),
    }


def transported_loops(sigma, graph, loops, transition, base_chart):
    """(loop, linear part in the base chart) for every loop in the base
    node's component of the chart graph, in order.

    A loop at node n is transported as back_n o loop o fwd_n along the BFS
    tree.  The base chart's frame is pushed along the tree to n (once per
    node), then through the loop's two transitions and back_n, and read off
    by :func:`_restrict`.

    A degenerate loop is the identity, so it is appended with the identity
    linear part and nothing is pushed.  T(p, q) = chart_transition(p, q)
    moves y by -sum_j [<p_j, y> - w(p_j)] q_j, which vanishes on chart p,
    so T(p, q) fixes chart p pointwise and its tangent vectors.  For p0 = p1
    both of the loop's transitions go into chart p0, starting from it.  For
    q0 = q1 the loop is T(p0, q0) o T(p1, q0), and on chart p0 that is the
    identity whenever (p0, q0) and (p1, q0) are adjoint pairs (<p_j, q_k> =
    delta_jk, checked by :func:`sphere.adjoint_pairs`): T(p1, q0) moves y by
    -c_j q0_j with c_j = <p1_j, y> - w(p1_j), which shifts <p0_k, .> by
    -c_k, and T(p0, q0) then moves y by +c_k q0_k.  The same argument makes
    back_n o fwd_n the identity on the base chart.  Under ``--verify full``
    every degenerate loop's own monodromy is still computed and checked
    (:func:`triviality_equivalence_check`).
    """
    base_node = min(("P", i) for i in graph.p_nodes)
    parent = graph.spanning_tree(base_node)
    chart = base_chart(base_node[1])
    d = sigma.p_poset.elements[base_node[1]].cell.ambient
    one = identity(len(chart.basis))
    # node -> (frame pushed to node, node -> base map), once per P-node
    # with a non-degenerate loop.
    transport = {base_node: (chart.frame, AffineMap.identity(d))}
    out = []
    for loop in loops:
        node = ("P", loop.p0)
        if node not in parent:
            continue
        if loop.degenerate:
            out.append((loop, one))
            continue
        frame, back = _tree_transport(parent, transport, node, transition)
        images, (image, den) = _push(
            frame, _loop_maps(loop, transition) + (back,))
        linear, _ = _restrict(chart, images, image, den)
        out.append((loop, linear))
    return out


def _tree_transport(parent, transport, node, transition):
    """(base frame pushed to node, node -> base chart map) along the
    spanning tree.

    Each P-node is reached from its grandparent through its parent Q-node;
    results are memoized in `transport`, which holds the base node.
    `transition` is a :func:`transition_memo`.
    """
    path = []
    walk = node
    while walk not in transport:
        path.append(walk)
        walk = parent[parent[walk]]
    for child in reversed(path):
        grand = parent[parent[child]]
        frame, back = transport[grand]
        via = parent[child][1]
        transport[child] = (_push(frame, (transition(child[1], via),)),
                            back.compose(transition(grand[1], via)))
    return transport[node]


def _loop_discriminant_component(sigma, loop, disc):
    """The discriminant component whose star contains the loop, if unique."""
    star = (sigma.p_up[loop.p0] & sigma.p_up[loop.p1]
            & sigma.q_up[loop.q0] & sigma.q_up[loop.q1])
    hits = [ci for ci, mask in enumerate(disc.component_masks)
            if star & mask]
    return hits[0] if len(hits) == 1 else None


# -- duality -------------------------------------------------------------------


def duality_check(loop, mono, dual_transition, dual_base_chart):
    """Transpose-inverse pairing of the primal and dual loop monodromies.

    The dual loop is (tau0, sigma1, tau1, sigma0), run through the dual
    pipeline (roles interchanged); the pairing between the two tangent
    lattices must be preserved exactly.  The dual run's P-poset is this
    run's Q-poset and its Q-poset this run's P-poset (Batyrev-Borisov
    duality swaps the roles of Delta and nabla, and the dual pipeline is
    seeded with this run's posets, swapped), so the dual loop has the same
    indices, read on the other side, and no dual Sigma is built.
    `dual_transition` and `dual_base_chart` are the :func:`transition_memo`
    and :func:`base_chart_memo` of the dual run's posets and weight.
    """
    dual_loop = PrimaryLoop(loop.q0, loop.p1, loop.q1, loop.p0)
    dual_mono = monodromy(dual_loop, dual_transition, dual_base_chart)
    b_sigma = mono.basis
    b_tau = dual_mono.basis
    pairing = [[dot(y, x) for x in b_sigma] for y in b_tau]
    if row_rank(pairing) != len(b_sigma):
        raise FalsificationError(
            "degenerate pairing between tangent lattices",
            {"pairing": [list(map(int, row)) for row in pairing]})
    ok = all(dot(ly, lx) == dot(y, x)
             for y, ly in zip(b_tau, dual_mono.images)
             for x, lx in zip(b_sigma, mono.images))
    return {"passed": ok, "dual_loop_degenerate": dual_loop.degenerate}
