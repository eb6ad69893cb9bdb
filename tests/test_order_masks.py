"""The orders of the sphere layer are bitmasks; the pair scans are oracles.

Every order question of the fast path (faces in the boundary subdivision,
the transversal posets, adjointness, Sigma's pseudomanifold test, the
chart covering, the loops' discriminant components and the spanned cells)
is answered by mask operations.  The
routes they replaced live here: chain enumeration of the barycentric
subdivision, ``leq`` scans, vertex-pair dot products and span hulls.  Each
mask route must give the old route's answer on every ``tests/data`` input.
"""

import pytest

from nefsphere import Pipeline
from nefsphere.cli import load_input
from nefsphere.errors import FalsificationError
from nefsphere.homology import facet_signs, order_complex_homology
from nefsphere.linalg import dot
from nefsphere.monodromy import (
    _loop_discriminant_component,
    _span_pairs,
    complement_homology,
)
from nefsphere.polytope import convex_hull
from nefsphere.sphere import adjoint_pairs, is_closed_pseudomanifold
from conftest import smooth_pair
from test_cli import path

DATA_INPUTS = ["triangle", "square_sum", "pentagon_pair", "simplex3",
               "segment_weighted", "prism_pair_5d", "prism_pair_5d_kinked",
               "product_triangles_6d"]


def _data_pipeline(name):
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


# -- oracles: the routes the masks replaced -----------------------------------


def boundary_leq(boundary, a, b):
    """Face relation of a boundary subdivision: a is a face of b (cells of
    a complex share faces, so containment is vertex-set inclusion)."""
    return set(a.vertices) <= set(b.vertices)


def sigma_leq(sigma, a, b):
    """Whether cell a of Sigma lies under cell b, from the order masks."""
    return (sigma._above[a] >> b) & 1 == 1


def bsd_chain_levels(successors):
    """All chains of a poset by length (the simplices of its order complex);
    successors[k] lists the elements strictly above element k."""
    levels = []
    current = [(i,) for i in range(len(successors))]
    while current:
        levels.append(tuple(current))
        nxt = []
        for ch in current:
            for j in successors[ch[-1]]:
                nxt.append(ch + (j,))
        current = nxt
    return levels


def bsd_pseudomanifold(successors):
    """The order complex is a pure pseudomanifold without boundary: each
    codimension-one chain lies in exactly two maximal-length chains and
    every chain lies in one."""
    levels = bsd_chain_levels(successors)
    if len(levels) <= 1:
        return True
    flags = levels[-1]
    subcount = {}
    for ch in flags:
        for i in range(len(ch)):
            sub = ch[:i] + ch[i + 1:]
            subcount[sub] = subcount.get(sub, 0) + 1
    if len(subcount) != len(levels[-2]):
        return False
    if any(c != 2 for c in subcount.values()):
        return False
    in_flags = set()
    for ch in flags:
        stack = [ch]
        while stack:
            c = stack.pop()
            if c in in_flags:
                continue
            in_flags.add(c)
            if len(c) > 1:
                stack.extend(c[:i] + c[i + 1:] for i in range(len(c)))
    return len(in_flags) == sum(len(lv) for lv in levels)


def _successors_of(below):
    n = len(below)
    return [[b for b in range(n) if b != a and below[b] >> a & 1]
            for a in range(n)]


def sigma_successors(sigma):
    """successors[k]: Sigma's cells strictly above cell k, ascending, read
    from the product-order masks."""
    return [[b for b in range(len(sigma)) if b != a and mask >> b & 1]
            for a, mask in enumerate(sigma._above)]


def complement_by_order_complex(sigma):
    """The complement's homology by the order complex of the smooth
    subposet: the full subcomplex of bsd(Sigma) on the smooth cells."""
    smooth = [k for k in range(len(sigma)) if smooth_pair(sigma, k)]
    pos = {k: t for t, k in enumerate(smooth)}
    succ = sigma_successors(sigma)
    return order_complex_homology(
        len(smooth), [[pos[j] for j in succ[k] if j in pos] for k in smooth])


def discriminant_by_union_find(sigma):
    """The components of the non-smooth cells under the ``leq`` pairs, as
    sorted cell tuples by least cell, with the homology of each one's
    order complex."""
    cells = [k for k in range(len(sigma)) if not smooth_pair(sigma, k)]
    parent = {k: k for k in cells}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in cells:
        for b in cells:
            if sigma_leq(sigma, a, b):
                parent[find(a)] = find(b)
    groups = {}
    for k in cells:
        groups.setdefault(find(k), []).append(k)
    comps = sorted(tuple(g) for g in groups.values())
    homs = [order_complex_homology(
        len(comp), [[t for t, b in enumerate(comp)
                     if a != b and sigma_leq(sigma, a, b)] for a in comp])
        for comp in comps]
    return comps, homs


def _is_adjoint(pv, qv, r):
    return all(dot(m, x) == (1 if a == b else 0)
               for a in range(r) for b in range(r)
               for m in pv[a] for x in qv[b])


def adjoint_pairs_by_dots(p_poset, q_poset):
    r = len(p_poset.parts)
    p_vert = [[s.vertices for s in e.slices] for e in p_poset.elements]
    q_vert = [[s.vertices for s in e.slices] for e in q_poset.elements]
    return [(i, j) for i, pv in enumerate(p_vert)
            for j, qv in enumerate(q_vert) if _is_adjoint(pv, qv, r)]


def span_pairs_by_hulls(poset, minimal, cells):
    out = []
    for x, i in enumerate(minimal):
        for j in minimal[x:]:
            ci = poset.elements[i].cell
            cj = poset.elements[j].cell
            hull = convex_hull(ci.vertices + cj.vertices, ci.role, ci.ambient)
            if hull in cells:
                out.append((i, j))
    return out


def loop_component_by_scan(sigma, loop, disc):
    if disc is None or not disc.mask:
        return None
    pp, qp = sigma.p_poset, sigma.q_poset
    hits = set()
    for ci, comp in enumerate(disc.components):
        for k in comp:
            i, j = sigma.pairs[k]
            if pp.leq(loop.p0, i) and pp.leq(loop.p1, i) \
                    and qp.leq(loop.q0, j) and qp.leq(loop.q1, j):
                hits.add(ci)
                break
    return hits.pop() if len(hits) == 1 else None


def chart_masks_by_sets(sigma):
    """The cells over each minimal P-cell and over each minimal Q-cell."""
    pp, qp = sigma.p_poset, sigma.q_poset
    u = {s: frozenset(k for k, (i, _) in enumerate(sigma.pairs)
                      if pp.leq(s, i)) for s in pp.minimal}
    v = {t: frozenset(k for k, (_, j) in enumerate(sigma.pairs)
                      if qp.leq(t, j)) for t in qp.minimal}
    return u, v


def _mask_bits(mask):
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


# -- every data input: mask routes against the oracles -------------------------


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_mask_routes_match_the_scans(name):
    pipe = _data_pipeline(name)
    sigma = pipe.sigma()
    for s in (sigma, pipe.dual_pipeline().sigma()):
        assert s.is_closed_pseudomanifold() == \
            bsd_pseudomanifold(sigma_successors(s))
    p, q = pipe.p_poset(), pipe.q_poset()
    assert adjoint_pairs(p, q) == adjoint_pairs_by_dots(p, q)
    for poset, boundary in ((p, pipe.s_boundary()), (q, pipe.t_boundary())):
        minimal = sorted(poset.minimal,
                         key=lambda i: poset.elements[i].cell.key())
        assert _span_pairs(poset, minimal, boundary) == \
            span_pairs_by_hulls(poset, minimal, set(boundary.cells))
    disc = pipe.discriminant()
    for loop in pipe.loops():
        assert _loop_discriminant_component(sigma, loop, disc) == \
            loop_component_by_scan(sigma, loop, disc)
    u, v = chart_masks_by_sets(sigma)
    assert {s: _mask_bits(sigma.p_up[s]) for s in p.minimal} == u
    assert {t: _mask_bits(sigma.q_up[t]) for t in q.minimal} == v
    # The covering facts ChartAtlas's docstring proves, which the report
    # no longer carries: the charts cover Sigma and meet as the chart
    # graph says.
    everything, cells = set(range(len(sigma))), set(sigma.pairs)
    assert set().union(*u.values()) == everything == set().union(*v.values())
    assert all(bool(us & vs) == ((s, t) in cells)
               for s, us in u.items() for t, vs in v.items())


@pytest.mark.parametrize("name", DATA_INPUTS)
def test_sigma_topology_matches_the_order_complex(name):
    # The cellular complement and the mask-grown discriminant give the
    # answers of the order-complex route on both runs.
    pipe = _data_pipeline(name)
    for run in (pipe, pipe.dual_pipeline()):
        sigma = run.sigma()
        disc = run.discriminant()
        assert run.complement_homology() == complement_by_order_complex(sigma)
        assert (disc.components, disc.component_homology) == \
            discriminant_by_union_find(sigma)
        assert disc.component_masks == [
            sum(1 << k for k in comp) for comp in disc.components]


@pytest.mark.parametrize("name", ["simplex3", "triangle"])
def test_complement_rejects_a_mask_not_closed_under_faces(name):
    # Drop one smooth cell from the smooth mask: if a smooth cell lies
    # above it, the check names the lowest such cell and the dropped face.
    pipe = _data_pipeline(name)
    sigma = pipe.sigma()
    smooth = pipe.discriminant().smooth_mask()
    raised = 0
    for face in range(len(sigma)):
        if not smooth >> face & 1:
            continue
        mask = smooth & ~(1 << face)
        above = sigma._above[face] & mask
        if not above:
            complement_homology(sigma, mask)
            continue
        with pytest.raises(FalsificationError) as err:
            complement_homology(sigma, mask)
        cell = (above & -above).bit_length() - 1
        assert err.value.claim == \
            "a face of a smooth cell of Sigma is not smooth"
        assert err.value.certificate == {"cell": list(sigma.pairs[cell]),
                                         "face": list(sigma.pairs[face])}
        raised += 1
    assert raised > 0


@pytest.mark.parametrize("name", ["simplex3", "segment_weighted"])
def test_transversal_orders_match_leq_scans(name):
    pipe = _data_pipeline(name)
    boundary = pipe.s_boundary()
    cells = boundary.cells
    poset = pipe.p_poset()
    n = len(poset)
    vsets = [set(e.cell.vertices) for e in poset.elements]
    for i in range(n):
        assert poset.above(i) == [j for j in range(n) if vsets[i] <= vsets[j]]
        assert poset.below(i) == [j for j in range(n) if vsets[j] <= vsets[i]]
    assert list(poset.minimal) == [
        i for i in range(n) if not any(vsets[j] < vsets[i] for j in range(n))]
    for a in cells:
        for b in cells:
            assert boundary_leq(boundary, a, b) == \
                (set(a.vertices) <= set(b.vertices))


def test_pseudomanifold_matches_bsd_randomized(randomized_partitions):
    for nef in randomized_partitions:
        pipe = Pipeline(nef)
        for sigma in (pipe.sigma(), pipe.dual_pipeline().sigma()):
            assert sigma.is_closed_pseudomanifold() == \
                bsd_pseudomanifold(sigma_successors(sigma)), \
                f"parts {[p.vertices for p in nef.parts]}"


# -- hand-built cell posets ------------------------------------------------------


def _poset(cells):
    """(dims, below, facets) of cells given as name -> (dim, facet names)."""
    names = list(cells)
    index = {c: k for k, c in enumerate(names)}
    below = [0] * len(names)

    def close(c):
        k = index[c]
        if not below[k]:
            below[k] = 1 << k
            for f in cells[c][1]:
                below[k] |= close(f)
        return below[k]

    for c in names:
        close(c)
    return ([cells[c][0] for c in names], below,
            [[index[f] for f in cells[c][1]] for c in names])


DIGON = {"v0": (0, []), "v1": (0, []),
         "e0": (1, ["v0", "v1"]), "e1": (1, ["v0", "v1"])}
BIGON_SPHERE = {**DIGON, "f0": (2, ["e0", "e1"]), "f1": (2, ["e0", "e1"])}
HAND_BUILT = {
    # Closed: the two-vertex circle and the two-cell 2-sphere.
    "digon": (DIGON, True),
    "bigon_sphere": (BIGON_SPHERE, True),
    # A ridge in three top cells: the theta graph, and its suspension,
    # where the edges from the poles lie in three triangles.
    "theta": ({"v0": (0, []), "v1": (0, []), "e0": (1, ["v0", "v1"]),
               "e1": (1, ["v0", "v1"]), "e2": (1, ["v0", "v1"])}, False),
    "suspended_theta": (
        {"v0": (0, []), "v1": (0, []), "n": (0, []), "s": (0, []),
         **{f"e{k}": (1, ["v0", "v1"]) for k in range(3)},
         **{f"{p}{v}": (1, [p, v]) for p in "ns" for v in ("v0", "v1")},
         **{f"{p}e{k}": (2, [f"e{k}", f"{p}v0", f"{p}v1"])
            for p in "ns" for k in range(3)}}, False),
    # Not pure: the 2-sphere and an isolated vertex.
    "sphere_and_point": ({**BIGON_SPHERE, "v2": (0, [])}, False),
    # A broken diamond: the interval [v0, f0] has one middle element.
    "broken_diamond": ({"v0": (0, []), "v1": (0, []), "v2": (0, []),
                        "e0": (1, ["v0", "v1"]), "e1": (1, ["v1", "v2"]),
                        "f0": (2, ["e0", "e1"]), "f1": (2, ["e0", "e1"])},
                       False),
    # A minimal 1-cell (no vertices) beside a circle: not graded.
    "minimal_one_cell": ({**DIGON, "e2": (1, [])}, False),
    "segment": ({"v0": (0, []), "v1": (0, []), "e0": (1, ["v0", "v1"])},
                False),
    "point": ({"v0": (0, [])}, True),
    "empty": ({}, True),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_pseudomanifold_matches_bsd_on_hand_built_posets(name):
    # A broken diamond is thin across its top cells; the orientation,
    # which every Sigma passes first, refuses it.
    cells, want = HAND_BUILT[name]
    dims, below, facets = _poset(cells)
    assert bsd_pseudomanifold(_successors_of(below)) == want
    if name == "broken_diamond":
        with pytest.raises(FalsificationError, match="diamond property"):
            facet_signs(dims, facets)
    else:
        assert is_closed_pseudomanifold(dims, below, facets) == want
