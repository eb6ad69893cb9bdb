"""Charts, discriminant locus, and monodromy of the affine structure.

Chart changes are the model's affine maps T(sigma, tau) y = y -
sum_j [<m_j(sigma), y> - w(m_j(sigma))] n_j(tau).  By the adjoint pairing
the holonomy of a primary loop (sigma0, tau0, sigma1, tau1) on chart
sigma0 is y -> y + sum_j [<m_j(sigma1), y> - w(m_j(sigma1))] (n_j(tau1) -
n_j(tau0)), and every holonomy is read from it (:func:`monodromy`); only
global transport runs transitions, on the spanning tree's edges.  The
loop list and the monodromy list of a run are parallel.  A loop's star,
the cells of Sigma above its four corners, is one bitmask
(:func:`loop_star`), which the triviality check and the per-component log
lattices both read.

A run's charts live in one :class:`ChartAtlas`, built from the two
transversal posets and the weight, not Sigma.  The role-swapped run's
posets hold this run's cells, swapped, so its atlas reads the slice points
they hold, the duality pairing reads the dual holonomy from it
(:func:`duality_check`), and no second Sigma is built.
"""

from itertools import combinations
from math import gcd
from operator import itemgetter, sub

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
from .polytope import bits
from .sphere import _cell_key, _point_key


# -- smoothness and the discriminant -----------------------------------------


def pinched_parts(sigma, pair_idx):
    """The partition indices a in which a cell of Sigma is pinched: the
    dimensions of its two slices in part a multiply to a non-zero number."""
    i, j = sigma.pairs[pair_idx]
    e_p = sigma.p_poset.elements[i]
    e_q = sigma.q_poset.elements[j]
    return [a for a in range(sigma.r)
            if e_p.slices[a].dim * e_q.slices[a].dim != 0]


class DiscriminantComplex:
    """Sigma's non-smooth cells, whose order complex is the full subcomplex
    of bsd(Sigma) on them.

    They form an upper set of Sigma (a cell above a non-smooth cell is not
    smooth), and so does each component: a class of the comparability
    relation, grown from its lowest cell through Sigma's `_above | _below`
    masks.  A component's homology is that of its order complex, and its
    parts are the sorted partition indices its cells are pinched in.
    """

    def __init__(self, sigma, mask, component_masks, component_homology,
                 component_parts):
        self.sigma = sigma
        self.mask = mask  # the non-smooth cells
        self.vertex_ids = tuple(bits(mask))  # pair indices, sorted
        self.component_masks = component_masks
        self.components = [tuple(bits(m)) for m in component_masks]
        self.component_homology = component_homology
        self.component_parts = component_parts

    def smooth_mask(self):
        """Bitmask of Sigma's smooth cells: the cells off the discriminant."""
        return ((1 << len(self.sigma.pairs)) - 1) & ~self.mask


def discriminant(sigma):
    # A cell is smooth when it is pinched in no part.
    pinched = {k: parts for k in range(len(sigma.pairs))
               for parts in [pinched_parts(sigma, k)] if parts}
    mask = sum(1 << k for k in pinched)
    component_masks = []
    rest = mask
    while rest:
        comp = 0
        grow = rest & -rest
        while grow:
            comp |= grow
            reach = 0
            for k in bits(grow):
                reach |= sigma._above[k] | sigma._below[k]
            grow = reach & rest & ~comp
        component_masks.append(comp)
        rest &= ~comp
    homs, parts = [], []
    for comp in component_masks:
        cells = bits(comp)
        pos = {k: t for t, k in enumerate(cells)}
        homs.append(order_complex_homology(
            len(cells), [[pos[j] for j in bits(sigma._above[k] & comp)
                          if j != k] for k in cells]))
        parts.append(sorted({a for k in cells for a in pinched[k]}))
    return DiscriminantComplex(sigma, mask, component_masks, homs, parts)


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
    for k in bits(smooth):
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
    """The affine structure's atlas, built from the two transversal posets
    and the weight, with no Sigma: a chart-graph node's slice points, read
    from its cell (:meth:`points`), the :class:`BaseChart` of each minimal
    P-cell (:meth:`base`) and the linear part of each chart change
    (:meth:`transition`), each built once, on first use.  The charts cover
    Sigma, as every element lies above a minimal one, and U_s meets V_t
    exactly when (s, t) is a cell, as Sigma is face-closed."""

    def __init__(self, p_poset, q_poset, weight):
        self.p_poset = p_poset
        self.q_poset = q_poset
        self.weight = weight
        self._bases = {}
        self._transitions = {}

    def points(self, node):
        """The slice points of chart-graph node ("P", i) or ("Q", j)."""
        poset = self.p_poset if node[0] == "P" else self.q_poset
        return poset.elements[node[1]].slice_points()

    def base(self, i):
        """The :class:`BaseChart` of minimal P-cell i."""
        chart = self._bases.get(i)
        if chart is None:
            chart = self._bases[i] = base_chart_data(
                self.p_poset.elements[i], self.points(("P", i)), self.weight)
        return chart

    def transition(self, i, j):
        """:func:`chart_transition` into P-cell i through Q-cell j."""
        step = self._transitions.get((i, j))
        if step is None:
            step = self._transitions[i, j] = chart_transition(
                self.points(("P", i)), self.points(("Q", j)))
        return step


class ChartGraph:
    """Bipartite graph on minimal transversal cells, edges = adjoint pairs,
    sorted by (i, j), so that each neighbour list is built ascending."""

    def __init__(self, sigma):
        self.p_nodes = tuple(sigma.p_poset.minimal)
        self.q_nodes = tuple(sigma.q_poset.minimal)
        p_set, q_set = set(self.p_nodes), set(self.q_nodes)
        self.edges = tuple(sorted((i, j) for (i, j) in sigma.pairs
                                  if i in p_set and j in q_set))
        self._adj = {}
        for i, j in self.edges:
            self._adj.setdefault(("P", i), []).append(("Q", j))
            self._adj.setdefault(("Q", j), []).append(("P", i))

    def nodes(self):
        """P nodes, then Q nodes, each ascending; the first P node is the
        base of global transport."""
        return [("P", i) for i in self.p_nodes] + \
               [("Q", j) for j in self.q_nodes]

    def neighbors(self, node):
        return self._adj.get(node, [])

    def spanning_tree(self, base):
        """BFS tree: node -> parent (None at the base)."""
        parent = {base: None}
        queue = [base]
        for v in queue:
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
    p_min, q_min = sigma.p_poset.minimal, sigma.q_poset.minimal
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
        for x in bits(meet):
            for y in bits(meet & later[x]):
                if a != b or x != y:
                    loops.append(PrimaryLoop(a, q_min[x], b, q_min[y]))
    return loops


def _span_pairs(poset, minimal, boundary):
    """Ordered pairs (i, j), i <= j canonically, whose union spans a cell.

    Cells of a complex meet in faces, so conv(c_i u c_j) is a cell of the
    boundary subdivision iff some cell has exactly the vertices of both.
    """
    spans = set(boundary.vertex_masks)
    masks = poset.masks
    return [(i, j) for x, i in enumerate(minimal) for j in minimal[x:]
            if masks[i] | masks[j] in spans]


def chart_transition(dst, via):
    """The linear part I - sum_j n_j m_j^T of the chart change
    T(sigma, tau) y = y - sum_j [<m_j, y> - w(m_j)] n_j into minimal P-cell
    sigma through its adjoint partner tau, with slice points m_j = dst[j]
    and n_j = via[j]; it lands in chart sigma, {<m_k, y> = w(m_k)}."""
    d = len(dst[0])
    return tuple(tuple(int(a == b) - sum(n[a] * m[b] for m, n in zip(dst, via))
                       for b in range(d)) for a in range(d))


class AffineMonodromy:
    """The affine holonomy of a loop: `basis` rows are the canonical lattice
    basis of the tangent space, `linear` the (d-r) x (d-r) integer matrix
    and `translation` the (d-r) rationals of the map in that basis, and
    `images` the basis vectors' images under the loop's map."""

    __slots__ = ("basis", "linear", "translation", "images")

    def __init__(self, basis, linear, translation, images):
        self.basis = basis
        self.linear = linear
        self.translation = translation
        self.images = images


class BaseChart:
    """The lattice chart of a minimal transversal cell.

    `rows` are its slice points S, whose common kernel is the tangent space
    (the perp test); `basis` is the saturated basis B of that kernel and
    `inverse` its integer left inverse L (L B^T = I), so L v are the basis
    coordinates of a tangent vector v.  The base point x0 = x0_num / x0_den
    is the point of {S x = w(S)} orthogonal to the tangent space.
    """

    __slots__ = ("rows", "basis", "inverse", "x0_num", "x0_den")

    def __init__(self, rows, basis, inverse, x0_num, x0_den):
        self.rows = rows
        self.basis = basis
        self.inverse = inverse
        self.x0_num = x0_num
        self.x0_den = x0_den


def base_chart_data(base_cell, rows, weight):
    """The :class:`BaseChart` of a minimal cell with slice points `rows`."""
    r = len(rows)
    d = len(rows[0])
    if row_rank(rows) != r:
        raise FalsificationError(
            "minimal transversal cell is not linearly independent",
            {"cell": _cell_key(base_cell.cell)})
    basis = saturated_perp_basis(rows, d)
    inverse = lattice_left_inverse(basis, d)
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


def _loop_terms(loop, atlas):
    """(m_j(sigma1), dm_j, dn_j) over the indices j that change on both
    sides of a primary loop: dm_j = m_j(sigma1) - m_j(sigma0) != 0 and
    dn_j = n_j(tau1) - n_j(tau0) != 0.  Other indices move nothing on chart
    sigma0 (if dm_j = 0, c_j = <m_j(sigma0), y> - w(m_j(sigma0)) = 0).

    Two certificates, over all indices, name the loop by its corners' slice
    points.  The adjoint pairing at the four corners gives <m_k(sigma0),
    dn_j> = 0, so the images and the shift of x0 are tangent: the map
    preserves the chart, integrally.  It gives <dm_i, dn_j> = 0, so the log
    N = U V^T (U = L dn, V = B dm) has N^2 = U (V^T U) V^T = 0, as B^T L
    fixes the tangent dn_j: the map is unipotent of order two, det one.
    """
    corners = [atlas.points(node) for node in (("P", loop.p0), ("Q", loop.q0),
                                               ("P", loop.p1), ("Q", loop.q1))]
    m0, n0, m1, n1 = corners
    dm = [tuple(map(sub, a, b)) for a, b in zip(m1, m0)]
    dn = [tuple(map(sub, a, b)) for a, b in zip(n1, n0)]
    for claim, rows in (("monodromy does not preserve the base chart", m0),
                        ("monodromy is not unipotent of order two", dm)):
        pairing = [[dot(m, n) for n in dn] for m in rows]
        if any(map(any, pairing)):
            raise FalsificationError(claim, {
                "loop": [[_point_key(v) for v in c] for c in corners],
                "pairing": pairing})
    return [t for t in zip(m1, dm, dn) if any(t[1]) and any(t[2])]


def _unipotent(frame, coords, terms):
    """(I + sum_j u_j v_j^T, the u_j, the v_j) over :func:`_loop_terms`:
    u_j = coords dn_j, v_j = (<dm_j, f>) over the frame's vectors f."""
    us = [tuple(dot(row, n) for row in coords) for _, _, n in terms]
    vs = [tuple(dot(m, f) for f in frame) for _, m, _ in terms]
    k = len(frame)
    return tuple(tuple(int(a == b) + sum(u[a] * v[b] for u, v in zip(us, vs))
                       for b in range(k)) for a in range(k)), us, vs


def monodromy(loop, atlas):
    """The affine holonomy of a primary loop (sigma0, tau0, sigma1, tau1)
    in chart sigma0's lattice coordinates, from the closed formula.

    The loop runs T(sigma1, tau0), then T(sigma0, tau1).  On chart sigma0
    the first moves y by -sum_j c_j n_j(tau0), c_j = <m_j(sigma1), y> -
    w(m_j(sigma1)), which shifts <m_k(sigma0), y> by -c_k (adjoint pairing);
    the second adds sum_k c_k n_k(tau1).  So y -> y + sum_j c_j dn_j, of
    rank at most r (Gross, Topological mirror symmetry, 2001).  On tangent
    vectors c_j = <dm_j, .>: the linear part is I + sum_j (L dn_j)(B dm_j)^T
    and the images B_b + sum_j <dm_j, B_b> dn_j; the translation L sum_j
    c_j dn_j at x0 is kept in integers over one denominator.  A degenerate
    loop (dm = 0 or dn = 0) has no terms and is the identity.  Chart sigma0,
    the slice points and the weight are read from `atlas`.
    """
    chart = atlas.base(loop.p0)
    terms = _loop_terms(loop, atlas)
    linear, us, vs = _unipotent(chart.basis, chart.inverse, terms)
    images = tuple(tuple(x + sum(v[b] * n[a]
                                 for v, (_, _, n) in zip(vs, terms))
                         for a, x in enumerate(f))
                   for b, f in enumerate(chart.basis))
    # c_j = C_j / (x0_den s), s the common denominator of the w(m_j).
    heights = [atlas.weight(m) for m, _, _ in terms]
    s = denominator_lcm(heights)
    cs = [dot(m, chart.x0_num) * s - h * chart.x0_den
          for (m, _, _), h in zip(terms, to_numerators(heights, s))]
    shift = [sum(c * u[a] for c, u in zip(cs, us)) for a in range(len(linear))]
    return AffineMonodromy(chart.basis, linear,
                           from_numerators(shift, chart.x0_den * s), images)


# -- checks around loops -------------------------------------------------------


def loop_star(sigma, loop):
    """The bitmask of the cells (i, j) of Sigma above the loop's four
    corners: both P nodes below i and both Q nodes below j."""
    return (sigma.p_up[loop.p0] & sigma.p_up[loop.p1]
            & sigma.q_up[loop.q0] & sigma.q_up[loop.q1])


def triviality_equivalence_check(sigma, loop, mono, smooth):
    """Equivalence of: trivial holonomy; existence of an enclosing smooth
    pair, a cell of the loop's star in the mask `smooth`
    (:meth:`DiscriminantComplex.smooth_mask`); and the absence of an index
    changing on both sides of the loop.

    (A common changing index forces non-trivial holonomy: pairing a
    functional positive on the moved slice point against a vector positive
    on the moved partner slice gives a strictly positive displacement.)
    Degenerate loops are reported separately and must be trivial.
    """
    if loop.degenerate:
        return {"degenerate": True, "trivial": _is_identity(mono), "passed":
                _is_identity(mono)}
    cond1 = _is_identity(mono)
    cond2 = bool(loop_star(sigma, loop) & smooth)
    p_el, q_el = sigma.p_poset.elements, sigma.q_poset.elements
    common_changing_index = any(
        m0 != m1 and n0 != n1 for m0, m1, n0, n1 in zip(
            p_el[loop.p0].slice_points(), p_el[loop.p1].slice_points(),
            q_el[loop.q0].slice_points(), q_el[loop.q1].slice_points()))
    cond3 = not common_changing_index
    return {"degenerate": False, "trivial": cond1,
            "smooth_hull_pair": cond2,
            "common_changing_index": common_changing_index,
            "passed": cond1 == cond2 == cond3}


def _is_identity(mono):
    k = len(mono.basis)
    return mono.linear == identity(k) and \
        all(t == 0 for t in mono.translation)


def local_group(sigma, pair_idx, atlas):
    """Monodromies of all loops inside the star of a single pair vertex.

    Verifies the abelian upper-triangular structure: commuting generators,
    image inside the tangent space of the tau-side Minkowski cell, and
    vanishing on it.  `atlas` is the :class:`ChartAtlas` of sigma's posets.
    Each loop's linear part is read by the formula global transport uses,
    :func:`_unipotent` over :func:`_loop_terms` in the base chart, without
    the images and translation that :func:`monodromy` adds.

    The last two imply the first: when every log N = A - I maps into W and
    vanishes on W, N_a N_b = 0 = N_b N_a for any two logs, so
    (I + N_a)(I + N_b) = I + N_a + N_b = (I + N_b)(I + N_a).  The matrix
    products are taken only when one of the two fails.
    """
    i, j = sigma.pairs[pair_idx]
    p_poset, q_poset = sigma.p_poset, sigma.q_poset
    p_min = p_poset.minimal_below(i)
    q_min = q_poset.minimal_below(j)
    base_idx = p_min[0]
    chart = atlas.base(base_idx)
    d = p_poset.elements[base_idx].cell.ambient
    r = sigma.r
    mats = []
    for pk in p_min:
        for a in range(len(q_min)):
            for b in range(len(q_min)):
                if a == b and pk == base_idx:
                    continue
                loop = PrimaryLoop(base_idx, q_min[a], pk, q_min[b])
                mats.append(_unipotent(chart.basis, chart.inverse,
                                       _loop_terms(loop, atlas))[0])
    # W: span of the slice-point differences over the tau side.
    diffs = []
    for a in range(len(q_min)):
        for b in range(a + 1, len(q_min)):
            for qa, qb in zip(atlas.points(("Q", q_min[a])),
                              atlas.points(("Q", q_min[b]))):
                diff = tuple(map(sub, qa, qb))
                if any(diff):
                    diffs.append(diff)
    w_basis = saturated_span_basis(diffs, d)
    tau_dim = q_poset.elements[j].cell.dim
    sigma_dim = p_poset.elements[i].cell.dim
    report = {
        "w_dimension_matches": len(w_basis) == tau_dim - r + 1,
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
    report["commuting"] = (report["image_in_w"] and report["vanishes_on_w"]
                           or _pairwise_commute(mats))
    report["passed"] = (report["w_dimension_matches"] and report["commuting"]
                        and report["image_in_w"] and report["vanishes_on_w"])
    return report


def _pairwise_commute(mats):
    return all(mat_mul(a, b) == mat_mul(b, a)
               for a, b in combinations(sorted(set(mats)), 2))


def _mat_sub_identity(m):
    return tuple(tuple(v - int(i == j) for j, v in enumerate(row))
                 for i, row in enumerate(m))


# -- global analysis -----------------------------------------------------------


def global_group(sigma, graph, loops, atlas, discriminant_complex):
    """Transport every primary loop to a fixed base chart and analyze the
    resulting subgroup: commutation, the Smith divisors of the log lattice,
    and per-discriminant-component sublattices.  A degenerate loop enters
    as the identity (dm = 0 or dn = 0 in :func:`monodromy`'s formula).
    `atlas` is the :class:`ChartAtlas` of sigma's posets."""
    if not graph.p_nodes:
        return {"trivial": True, "divisors": [], "log_rank": 0,
                "commuting": True, "component_divisors": {},
                "graph_components": 0, "transported": 0,
                "skipped_other_component": 0, "base_component_size": 0}
    nodes = graph.nodes()
    parent = graph.spanning_tree(nodes[0])
    seen = set(parent)
    components = 1
    for node in nodes:
        if node not in seen:
            seen.update(graph.spanning_tree(node))
            components += 1
    moved = transported_loops(parent, loops, atlas)
    transported = [linear for _, linear in moved]
    skipped = len(loops) - len(moved)
    # The distinct logs, in first-seen order: a repeated row leaves the
    # row lattice, and so its Smith divisors and rank, as they are.
    logs = {}
    per_comp = {}
    for loop, m in moved:
        if loop.degenerate:
            continue  # the identity: its log is zero
        flat = tuple(v for row in _mat_sub_identity(m) for v in row)
        if any(flat):
            logs[flat] = None
            comp = _loop_discriminant_component(sigma, loop,
                                                discriminant_complex)
            if comp is not None:
                per_comp.setdefault(comp, {})[flat] = None
    divisors, rank = smith_normal_form(list(logs)) if logs else ((), 0)
    comp_divisors = {comp: list(smith_normal_form(list(vecs))[0])
                     for comp, vecs in sorted(per_comp.items())}
    return {
        "trivial": not logs,
        "divisors": list(divisors),
        "log_rank": rank,
        "commuting": _pairwise_commute(transported),
        "component_divisors": comp_divisors,
        "graph_components": components,
        "transported": len(transported),
        "skipped_other_component": skipped,
        "base_component_size": len(parent),
    }


def transported_loops(parent, loops, atlas):
    """(loop, linear part in the base chart) for every loop in the base
    node's component of the chart graph, in order: `parent` is the base
    node's BFS tree (:meth:`ChartGraph.spanning_tree`), whose first key is
    the base.

    A loop at node n is transported as back_n o loop o fwd_n along the BFS
    tree.  With F_n and G_n of :func:`_tree_transport` (G_n F_n = I), it
    moves F_n,b by sum_j <dm_j, F_n,b> dn_j, so its linear part is
    I + sum_j (G_n dn_j)(<dm_j, F_n,b>)_b; the log squares to zero as in
    :func:`_loop_terms`, F_n G_n fixing chart n's tangent space, which F_n
    spans.  A degenerate loop is appended as the identity with nothing
    transported; ``--verify full`` still checks its own monodromy.
    """
    base_node = next(iter(parent))
    chart = atlas.base(base_node[1])
    one = identity(len(chart.basis))
    # node -> (F_n, M_n, G_n), once per P-node with a non-degenerate loop.
    transport = {base_node: (chart.basis, identity(len(chart.rows[0])),
                             chart.inverse)}
    out = []
    for loop in loops:
        node = ("P", loop.p0)
        if node not in parent:
            continue
        if loop.degenerate:
            out.append((loop, one))
            continue
        frame, _, coords = _tree_transport(parent, transport, node, atlas,
                                           chart)
        out.append((loop, _unipotent(frame, coords,
                                     _loop_terms(loop, atlas))[0]))
    return out


def _tree_transport(parent, transport, node, atlas, chart):
    """(F_n, M_n, G_n) at a P-node n: the base basis pushed to n along the
    spanning tree, the linear part of the way back, and G_n = L M_n.

    Each P-node is reached from its grandparent through its parent Q-node,
    memoized in `transport`.  A new node certifies, naming its slice
    points, that F_n is tangent to chart n and M_n F_n = B: back_n maps
    chart n's tangent space onto the base chart's, and G_n F_n = L B^T = I.
    `chart` is the base node's :class:`BaseChart`.
    """
    path = []
    walk = node
    while walk not in transport:
        path.append(walk)
        walk = parent[parent[walk]]
    for child in reversed(path):
        grand = parent[parent[child]]
        frame, back, _ = transport[grand]
        via = parent[child][1]
        step = atlas.transition(child[1], via)
        frame = tuple(tuple(dot(row, f) for row in step) for f in frame)
        back = mat_mul(back, atlas.transition(grand[1], via))
        rows = atlas.points(child)
        if any(dot(m, f) for m in rows for f in frame) or \
                tuple(tuple(dot(row, f) for row in back)
                      for f in frame) != chart.basis:
            raise FalsificationError(
                "global transport does not carry the base frame to a chart "
                "and back", {"node": [_point_key(v) for v in rows]})
        transport[child] = (frame, back, mat_mul(chart.inverse, back))
    return transport[node]


def _loop_discriminant_component(sigma, loop, disc):
    """The discriminant component that meets the loop's star, if unique."""
    star = loop_star(sigma, loop)
    hits = [ci for ci, mask in enumerate(disc.component_masks)
            if star & mask]
    return hits[0] if len(hits) == 1 else None


# -- duality -------------------------------------------------------------------


def duality_check(loop, mono, dual_atlas):
    """Transpose-inverse pairing of the primal and dual loop monodromies.

    The dual loop is (tau0, sigma1, tau1, sigma0), run through the dual
    pipeline (roles interchanged); the pairing between the two tangent
    lattices must be preserved exactly.  The dual run's P-poset is this
    run's Q-poset and its Q-poset this run's P-poset (Batyrev-Borisov
    duality swaps the roles of Delta and nabla, and the dual pipeline is
    seeded with this run's posets, swapped), so the dual loop has the same
    indices, read on the other side, and no dual Sigma is built.
    `dual_atlas` is the dual run's :class:`ChartAtlas`.
    """
    dual_loop = PrimaryLoop(loop.q0, loop.p1, loop.q1, loop.p0)
    dual_mono = monodromy(dual_loop, dual_atlas)
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
