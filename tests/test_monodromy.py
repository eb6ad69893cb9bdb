import json
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nefsphere.linalg import (
    denominator_lcm,
    exact,
    from_numerators,
    identity,
    solve_rational,
    to_numerators,
)
from nefsphere.linalg import dot, mat_mul
from nefsphere.errors import FalsificationError
from nefsphere.monodromy import (
    AffineMonodromy,
    ChartAtlas,
    PrimaryLoop,
    _span_pairs,
    complement_homology,
    discriminant,
    primary_loops,
)


from conftest import smooth_pair, transpose
from test_cli import DATA


def tree_path(parent, node):
    """The spanning tree's path from its base to node."""
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _nilpotent(linear):
    return tuple(tuple(v - int(i == j) for j, v in enumerate(row))
                 for i, row in enumerate(linear))


DATA_NAMES = sorted(f[:-len(".json")] for f in os.listdir(DATA)
                    if f.endswith(".json") and f != "malformed.json")


@lru_cache(maxsize=None)
def _data_pipe(name):
    from nefsphere import Pipeline
    from nefsphere.cli import load_input
    from test_cli import path
    nef, omega, nu = load_input(path(f"{name}.json"))
    return Pipeline(nef, omega_spec=omega, nu_spec=nu)


# -- the routes through the chart transitions, kept here as oracles ------------
#
# The program reads every holonomy from the closed formula.  These oracles
# run the loops through the affine chart transitions instead: pushing the
# base chart's frame through them and reading it off in the chart
# (_push, _restrict), or composing them and solving in the basis
# (_restrict_by_solving).


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


def affine_transition(dst_cell, via_cell, weight, ambient):
    """The chart change into the destination chart through a common
    adjoint partner, y -> y - sum_j [<dst_j, y> - w(dst_j)] via_j, where
    dst_j are the slice points of the destination minimal cell and via_j
    those of the shared minimal partner on the other side."""
    m = [list(row) for row in identity(ambient)]
    t = [0] * ambient
    for j in range(len(dst_cell.slices)):
        dst_j = dst_cell.slice_points()[j]
        via_j = via_cell.slice_points()[j]
        for a in range(ambient):
            for b in range(ambient):
                m[a][b] -= via_j[a] * dst_j[b]
            t[a] += weight(dst_j) * via_j[a]
    den = denominator_lcm(t)
    return AffineMap(tuple(tuple(row) for row in m), to_numerators(t, den),
                     den)


@lru_cache(maxsize=None)
def affine_transitions(pipe):
    """affine_transition by (destination P-index, via Q-index) of a run."""
    p_el, q_el = pipe.p_poset().elements, pipe.q_poset().elements

    @lru_cache(maxsize=None)
    def transition(i, j):
        return affine_transition(p_el[i], q_el[j], pipe.omega(),
                                 pipe.nef.ambient)

    return transition


def _loop_maps(loop, transition):
    """The loop's two chart transitions, in the order they are run: into
    sigma1 through tau0, then back into sigma0 through tau1."""
    return (transition(loop.p1, loop.q0), transition(loop.p0, loop.q1))


def _frame(chart):
    """The chart's basis with its base point, as _push carries it."""
    return chart.basis, (chart.x0_num, chart.x0_den)


def _push(frame, maps):
    """A frame (vectors, (numerators, denominator) of a point) carried
    through the affine maps in order: the vectors by the linear parts, the
    point by AffineMap.push."""
    vectors, point = frame
    for step in maps:
        vectors = tuple(step.apply_linear(v) for v in vectors)
        point = step.push(*point)
    return vectors, point


def _restrict(chart, images, image, den):
    """(linear, shift numerators over den) of an affine self-map of the
    chart, in lattice coordinates, that sends the basis vectors to `images`
    and x0 to image / den, where den is a multiple of x0_den; asserts that
    the map preserves the chart and is unipotent of order two."""
    for v in images:
        assert not any(dot(s, v) for s in chart.rows)
    linear = tuple(tuple(dot(row, v) for v in images)
                   for row in chart.inverse)
    scale = den // chart.x0_den
    diff = tuple(a - scale * b for a, b in zip(image, chart.x0_num))
    assert not any(dot(s, diff) for s in chart.rows)
    nil = _nilpotent(linear)
    assert not any(map(any, mat_mul(nil, nil)))
    return linear, tuple(dot(row, diff) for row in chart.inverse)


def _pushed_tree_transport(parent, transport, node, transition):
    """(base frame pushed to node, node -> base chart map) along the
    spanning tree, memoized per node in `transport`, which holds the base
    node."""
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


def _x0(chart):
    return from_numerators(chart.x0_num, chart.x0_den)


def _translation(amap):
    """The exact translation vector of an AffineMap."""
    return from_numerators(amap.num, amap.den)


def _apply(amap, y):
    """The exact image of a rational point under an AffineMap."""
    q = denominator_lcm(y)
    return from_numerators(*amap.push(to_numerators(y, q), q))


def _composed_loop_map(loop, transition):
    """The loop's two chart transitions composed into one ambient map."""
    return transition(loop.p0, loop.q1).compose(transition(loop.p1, loop.q0))


def _composed_tree_maps(graph, parent, node, transition, d):
    """(base -> node, node -> base), composed along the tree path in R^d."""
    path = tree_path(parent, node)
    fwd = back = AffineMap.identity(d)
    for step in range(0, len(path) - 1, 2):
        fwd = transition(path[step + 2][1], path[step + 1][1]).compose(fwd)
    for step in range(len(path) - 1, 1, -2):
        back = transition(path[step - 2][1], path[step - 1][1]).compose(back)
    return fwd, back


def _restrict_by_solving(amb, chart):
    """(linear, translation) of an ambient self-map of the chart in its
    basis, by solving B^T c = v for the image v = M b of every basis vector
    b and for the displacement of x0."""
    basis = chart.basis
    cols = [list(col) for col in zip(*basis)]
    rows = []
    for b in basis:
        c = solve_rational(cols, amb.apply_linear(b))
        assert c is not None and all(type(x) is int for x in c)
        rows.append(c)
    x0 = _x0(chart)
    shift = tuple(a - b for a, b in zip(_apply(amb, x0), x0))
    if not basis:
        assert not any(shift)
        return (), ()
    translation = solve_rational(cols, shift)
    assert translation is not None
    return transpose(rows), translation


def test_smooth_pairs_with_minimal_factor(simplex3_pipe):
    sigma = simplex3_pipe.sigma()
    p_min = set(sigma.p_poset.minimal)
    q_min = set(sigma.q_poset.minimal)
    for k, (i, j) in enumerate(sigma.pairs):
        if i in p_min or j in q_min:
            assert smooth_pair(sigma, k)


def test_discriminant_empty_in_low_dimension(triangle_pipe, pentagon_pipe):
    # d - r = 1 (and 0): no pair can be non-smooth, D is empty.
    for pipe in (triangle_pipe, pentagon_pipe):
        assert not discriminant(pipe.sigma()).mask


def test_discriminant_simplex3_isolated_points(simplex3_pipe):
    disc = simplex3_pipe.discriminant()
    # Regression: six isolated vertices (edge-edge adjoint pairs).
    assert len(disc.vertex_ids) == 6
    assert len(disc.components) == 6
    assert all(h == [(1, ())] for h in disc.component_homology)


def test_chart_graph_edges_are_adjoint_minimal_pairs(simplex3_pipe):
    sigma = simplex3_pipe.sigma()
    graph = simplex3_pipe.graph()
    p_min = set(sigma.p_poset.minimal)
    q_min = set(sigma.q_poset.minimal)
    for (i, j) in graph.edges:
        assert i in p_min and j in q_min
        assert (i, j) in sigma.pairs


def test_degenerate_loops_are_trivial(simplex3_pipe):
    for loop, mono in zip(simplex3_pipe.loops(), simplex3_pipe.monodromies()):
        if loop.degenerate:
            k = len(mono.basis)
            assert mono.linear == identity(k)
            assert all(t == 0 for t in mono.translation)


def test_monodromy_unipotent(simplex3_pipe):
    for mono in simplex3_pipe.monodromies():
        nil = _nilpotent(mono.linear)
        sq = [[sum(nil[i][k] * nil[k][j] for k in range(len(nil)))
               for j in range(len(nil))] for i in range(len(nil))]
        assert all(all(v == 0 for v in row) for row in sq)


def test_focus_focus_multiplicity_four(simplex3_pipe):
    # Each of the six isolated discriminant points carries a single
    # focus-focus generator whose log has content 4 (dual edge length).
    report = simplex3_pipe.global_report()
    assert report["component_divisors"] == {i: [4] for i in range(6)}
    assert report["log_rank"] == 3


def test_local_groups(simplex3_pipe):
    reports = simplex3_pipe.local_group_suite()
    assert reports, "no non-smooth vertices on the 3d simplex"
    for rep in reports.values():
        assert rep["passed"], rep


def test_triviality_equivalence(simplex3_pipe, triangle_pipe, square_pipe,
                                pentagon_pipe):
    for pipe in (simplex3_pipe, triangle_pipe, square_pipe, pentagon_pipe):
        for res in pipe.triviality_suite():
            assert res["passed"], res


def test_primary_loop_is_a_hashable_value():
    loop = PrimaryLoop(3, 1, 4, 2)
    assert (loop.p0, loop.q0, loop.p1, loop.q1) == (3, 1, 4, 2)
    assert loop == PrimaryLoop(3, 1, 4, 2)
    assert hash(loop) == hash(PrimaryLoop(3, 1, 4, 2))
    assert len({loop, PrimaryLoop(3, 1, 4, 2), PrimaryLoop(4, 1, 3, 2)}) == 2
    assert loop != PrimaryLoop(3, 2, 4, 1)
    assert not loop.degenerate
    assert PrimaryLoop(3, 1, 3, 2).degenerate
    assert PrimaryLoop(3, 1, 4, 1).degenerate
    with pytest.raises(AttributeError):
        loop.p0 = 4


def test_affine_monodromy_fields():
    m = AffineMonodromy(((1, 0), (0, 1)), ((1, 1), (0, 1)),
                        (0, Fraction(1, 2)), ((1, 0), (1, 1)))
    assert m.basis == ((1, 0), (0, 1))
    assert m.linear == ((1, 1), (0, 1))
    assert m.translation == (0, Fraction(1, 2))
    assert m.images == ((1, 0), (1, 1))


def test_nontrivial_degenerate_loop_fails_the_full_report():
    # Global transport takes every degenerate loop as the identity; the
    # full report's triviality verdict is what checks that claim, so a
    # degenerate loop whose own monodromy is not the identity must fail it.
    from nefsphere import Pipeline
    from nefsphere.cli import load_input
    from test_cli import path
    nef, omega, nu = load_input(path("simplex3.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    monos = pipe.monodromies()
    k = next(i for i, l in enumerate(pipe.loops()) if l.degenerate)
    n = len(monos[k].basis)
    shear = tuple(tuple(int(i == j or (i, j) == (0, n - 1))
                        for j in range(n)) for i in range(n))
    m = monos[k]
    monos[k] = AffineMonodromy(m.basis, shear, m.translation, m.images)
    rep = pipe.report(verify="full")
    assert not rep["stages"]["triviality"]["all_equivalent"]
    assert not rep["passed"]


def test_2d_loops_all_trivial(triangle_pipe):
    # d - r = 1: every primary loop is trivial.
    for res in triangle_pipe.triviality_suite():
        assert res.get("trivial") or res.get("degenerate")


def test_complement_homology_simplex3(simplex3_pipe):
    # S^2 minus 6 points retracts to a wedge of 5 circles.
    smooth = simplex3_pipe.discriminant().smooth_mask()
    assert complement_homology(simplex3_pipe.sigma(), smooth) == \
        [(1, ()), (5, ()), (0, ())]


def test_complement_homology_no_discriminant(triangle_pipe):
    # Empty discriminant: the complement is the sphere itself.
    smooth = triangle_pipe.discriminant().smooth_mask()
    assert smooth == (1 << len(triangle_pipe.sigma())) - 1
    assert complement_homology(triangle_pipe.sigma(), smooth) == \
        triangle_pipe.sigma_homology()


def test_pipeline_complement_of_empty_discriminant_is_sigma():
    # With no discriminant the smooth mask is all of Sigma, and the
    # complement is Sigma's cellular homology, as the order complex of all
    # of Sigma's cells confirms.
    from nefsphere import Pipeline
    from nefsphere.cli import load_input
    from test_cli import path
    from test_order_masks import complement_by_order_complex
    for name in ("triangle", "square_sum", "pentagon_pair",
                 "segment_weighted"):
        nef, omega, nu = load_input(path(f"{name}.json"))
        pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
        assert not pipe.discriminant().mask
        assert pipe.complement_homology() == pipe.sigma_homology() == \
            complement_by_order_complex(pipe.sigma())


def _complement_homology_on_chains(sigma):
    """Oracle: the order complex of the chain poset of the smooth cells,
    i.e. the second barycentric subdivision of the complement complex."""
    from nefsphere.homology import order_complex_homology
    from test_order_masks import sigma_successors
    smooth = sorted(k for k in range(len(sigma.pairs))
                    if smooth_pair(sigma, k))
    pos = {k: t for t, k in enumerate(smooth)}
    succ_sigma = sigma_successors(sigma)
    sub_succ = [[pos[j] for j in succ_sigma[k] if j in pos] for k in smooth]
    chains = []
    current = [(t,) for t in range(len(smooth))]
    while current:
        chains.extend(current)
        current = [ch + (j,) for ch in current for j in sub_succ[ch[-1]]]
    chain_ids = {ch: i for i, ch in enumerate(chains)}
    succ = [[] for _ in chains]
    for ch, i in chain_ids.items():
        n = len(ch)
        for mask in range(1, (1 << n) - 1):
            j = chain_ids.get(tuple(ch[t] for t in range(n) if mask >> t & 1))
            if j is not None:
                succ[j].append(i)
    return order_complex_homology(len(chains), [sorted(s) for s in succ])


def test_complement_homology_matches_second_subdivision(
        triangle_pipe, square_pipe, pentagon_pipe, simplex3_pipe,
        randomized_partitions):
    from nefsphere import Pipeline
    from nefsphere.cli import load_input
    from test_cli import path
    nef, omega, nu = load_input(path("segment_weighted.json"))
    pipes = [triangle_pipe, square_pipe, pentagon_pipe, simplex3_pipe,
             Pipeline(nef, omega_spec=omega, nu_spec=nu)]
    pipes += [Pipeline(nef) for nef in randomized_partitions]
    for pipe in pipes:
        for run in (pipe, pipe.dual_pipeline()):
            assert run.complement_homology() == \
                _complement_homology_on_chains(run.sigma())


def test_duality_pairing(simplex3_pipe, pentagon_pipe):
    for pipe in (simplex3_pipe, pentagon_pipe):
        results = pipe.duality_suite()
        assert all(r["passed"] for r in results)


def test_parallel_transport_roundtrip(simplex3_pipe):
    # Transporting the trivial loop around a tree edge is the identity on
    # the base chart: composition of a transition with its reverse.  The
    # frame is pushed along the path and back; the oracle composes the maps.
    graph = simplex3_pipe.graph()
    base = ("P", graph.p_nodes[0])
    parent = graph.spanning_tree(base)
    leaf = next(n for n in parent if n[0] == "P" and n != base
                and parent[n] is not None)
    path = tree_path(parent, leaf)
    d = simplex3_pipe.nef.ambient
    transition = affine_transitions(simplex3_pipe)
    steps = [transition(path[s + 2][1], path[s + 1][1])
             for s in range(0, len(path) - 1, 2)]
    steps += [transition(path[s - 2][1], path[s - 1][1])
              for s in range(len(path) - 1, 1, -2)]
    chart = simplex3_pipe.atlas().base(base[1])
    k = len(chart.basis)
    images, (image, den) = _push(_frame(chart), steps)
    linear, shift = _restrict(chart, images, image, den)
    assert linear == identity(k)
    assert all(t == 0 for t in shift)
    fwd, back = _composed_tree_maps(graph, parent, leaf, transition, d)
    linear, translation = _restrict_by_solving(back.compose(fwd), chart)
    assert linear == identity(k)
    assert all(t == 0 for t in translation)


def test_global_group_base_invariance(simplex3_pipe):
    # Divisors are stable under relabeling the base chart: run the analysis
    # on the role-swapped pipeline, which picks a different base.
    primal = simplex3_pipe.global_report()
    dual = simplex3_pipe.dual_pipeline().global_report()
    assert primal["divisors"] == dual["divisors"]


def test_chart_graph_square_one_edge_per_point(square_pipe):
    # d - r = 0: each point of the product sphere is its own chart pair.
    assert len(square_pipe.graph().edges) == 4


def test_global_group_trivial_without_discriminant(triangle_pipe):
    assert triangle_pipe.global_report()["trivial"]


def test_holonomy_formula_matches_transition_composition(simplex3_pipe):
    # Independent check of the loop map: on the base chart's affine subspace
    # the composition of the two chart transitions equals the closed formula
    # x + sum_j [<s1_j, x> - w(s1_j)](t1_j - t0_j).
    # Points and the frame's vectors are pushed through the two transitions.
    sigma = simplex3_pipe.sigma()
    w = simplex3_pipe.omega()
    d = simplex3_pipe.nef.ambient
    for loop in simplex3_pipe.loops()[:40]:
        maps = _loop_maps(loop, affine_transitions(simplex3_pipe))
        chart = simplex3_pipe.atlas().base(loop.p0)
        basis, x0 = chart.basis, _x0(chart)
        p1 = sigma.p_poset.elements[loop.p1]
        q0 = sigma.q_poset.elements[loop.q0]
        q1 = sigma.q_poset.elements[loop.q1]

        def formula(x, affine):
            want = list(x)
            for j in range(sigma.r):
                s1 = p1.slice_points()[j]
                coeff = sum(a * b for a, b in zip(s1, x)) - affine * w(s1)
                t0, t1 = q0.slice_points()[j], q1.slice_points()[j]
                for a in range(d):
                    want[a] += coeff * (t1[a] - t0[a])
            return tuple(want)

        samples = [x0]
        for b in basis:
            samples.append(tuple(c + 2 * e for c, e in zip(x0, b)))
        for x in samples:
            q = denominator_lcm(x)
            _, point = _push(((), (to_numerators(x, q), q)), maps)
            assert from_numerators(*point) == formula(x, 1)
        images, _ = _push(_frame(chart), maps)
        assert images == tuple(formula(b, 0) for b in basis)


def test_every_nonsmooth_vertex_obstructs_extension(simplex3_pipe,
                                                    prism_pair_pipe):
    # The affine structure must fail to extend across every vertex of the
    # discriminant: some local loop has nontrivial linear part.
    from nefsphere.monodromy import PrimaryLoop, monodromy
    for pipe in (simplex3_pipe, prism_pair_pipe):
        sigma = pipe.sigma()
        for k, (i, j) in enumerate(sigma.pairs):
            if smooth_pair(sigma, k):
                continue
            p_min = sorted(s for s in sigma.p_poset.minimal
                           if sigma.p_poset.leq(s, i))
            q_min = sorted(t for t in sigma.q_poset.minimal
                           if sigma.q_poset.leq(t, j))
            chart = pipe.atlas().base(p_min[0])
            found = False
            for pk in p_min:
                for a in q_min:
                    for b in q_min:
                        if a == b:
                            continue
                        lin = monodromy(PrimaryLoop(p_min[0], a, pk, b),
                                        pipe.atlas()).linear
                        if lin != identity(len(chart.basis)):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found, f"no obstruction at non-smooth vertex {k}"


def test_generic_weight_simplex3_spreads_multiplicity():
    # With a generic coherent weight on the dual side the six multiplicity-4
    # points of the coarse model spread into the classical 24 primitive
    # focus-focus points; the sphere homology is unchanged.
    from conftest import SIMPLEX3, SIMPLEX3_FORM, generic_weight
    from nefsphere import NefPartition, Pipeline

    nef = NefPartition.from_vertex_lists(SIMPLEX3)
    pipe = Pipeline(
        nef,
        omega_spec=generic_weight(nef.parts_hull.lattice_points(),
                                  SIMPLEX3_FORM),
        nu_spec=generic_weight(nef.sum_polar.lattice_points(), SIMPLEX3_FORM))
    assert pipe.sigma_homology() == [(1, ()), (0, ()), (1, ())]
    disc = pipe.discriminant()
    assert len(disc.components) == 24
    assert all(len(c) == 1 for c in disc.components)
    g = pipe.global_report()
    assert g["component_divisors"] == {i: [1] for i in range(24)}
    assert g["log_rank"] == 3


def test_simplex3_generic_input_holds_the_generic_weight():
    # tests/data/simplex3_generic.json is simplex3 with the generic weight
    # of SIMPLEX3_FORM on both sides, table by table.
    from conftest import SIMPLEX3_FORM, generic_weight
    from nefsphere.cli import load_input
    from test_cli import path
    nef, omega, nu = load_input(path("simplex3_generic.json"))
    for table, support in ((omega, nef.parts_hull), (nu, nef.sum_polar)):
        assert dict(table) == dict(
            generic_weight(support.lattice_points(), SIMPLEX3_FORM))


def test_pairwise_commute_sees_pair_hidden_among_duplicates():
    from nefsphere.monodromy import _pairwise_commute
    shear_x = ((1, 1), (0, 1))
    shear_y = ((1, 0), (1, 1))
    one = identity(2)
    assert _pairwise_commute([shear_x, one, shear_x, one, shear_x])
    assert not _pairwise_commute(
        [shear_x, one, shear_x, shear_x, shear_y, one, shear_x, shear_y])


def test_memoized_tree_transport_matches_path_walk(simplex3_pipe):
    # The per-node memo pushes the base basis, and multiplies the way back's
    # linear parts, through the same chart transitions as walking the tree
    # path from the base.  The BFS tree of the test inputs has depth one,
    # so a depth-first tree is used to make memoized nodes serve as
    # intermediate stops.
    from nefsphere.monodromy import _tree_transport
    graph = simplex3_pipe.graph()
    d = simplex3_pipe.nef.ambient
    base = min(("P", i) for i in graph.p_nodes)
    parent = {base: None}
    stack = [base]
    while stack:
        v = stack[-1]
        w_next = next((x for x in graph.neighbors(v) if x not in parent), None)
        if w_next is None:
            stack.pop()
        else:
            parent[w_next] = v
            stack.append(w_next)
    chart = simplex3_pipe.atlas().base(base[1])
    transport = {base: (chart.basis, identity(d), chart.inverse)}
    # Deepest first: one call fills the memo along a whole path.
    nodes = sorted((n for n in parent if n[0] == "P"),
                   key=lambda n: -len(tree_path(parent, n)))
    assert len(tree_path(parent, nodes[0])) >= 5
    for node in nodes:
        fwd, back = _composed_tree_maps(graph, parent, node,
                                        affine_transitions(simplex3_pipe), d)
        frame, got_back, coords = _tree_transport(
            parent, transport, node, simplex3_pipe.atlas(), chart)
        assert frame == tuple(fwd.apply_linear(b) for b in chart.basis)
        assert got_back == back.m
        assert coords == mat_mul(chart.inverse, back.m)
        assert mat_mul(coords, transpose(frame)) == \
            identity(len(chart.basis))


def test_one_chart_transition_per_pair(monkeypatch):
    # report --verify full --dual builds each (destination, via) transition
    # once per run, and only on the edges of the spanning tree: every
    # holonomy is read from the closed formula, and global transport runs
    # the tree only.
    from nefsphere import Pipeline, monodromy
    from nefsphere.cli import load_input
    from test_cli import path
    calls = []
    real = monodromy.chart_transition

    def counted(dst, via):
        calls.append((dst, via))
        return real(dst, via)

    monkeypatch.setattr(monodromy, "chart_transition", counted)
    nef, omega, nu = load_input(path("simplex3.json"))
    pipe = Pipeline(nef, omega_spec=omega, nu_spec=nu)
    pipe.report(verify="full", include_dual=True)
    assert calls
    assert len(calls) == len(set(calls))
    graph, points = pipe.graph(), pipe.atlas().points
    parent = graph.spanning_tree(graph.nodes()[0])
    tree_edges = set()
    for node, up in parent.items():
        if up is not None:
            p_node, q_node = sorted((node, up))
            tree_edges.add((points(p_node), points(q_node)))
    assert set(calls) <= tree_edges
    assert len(calls) < len(pipe.loops())


def _fraction_affine(m, t):
    """Reference affine map over Fractions: (M, t) with rational t."""
    return ([[Fraction(x) for x in row] for row in m],
            [Fraction(x) for x in t])


def _fraction_compose(a, b):
    (ma, ta), (mb, tb) = a, b
    m = [[sum(ma[i][k] * mb[k][j] for k in range(len(mb)))
          for j in range(len(mb[0]))] for i in range(len(ma))]
    t = [sum(ma[i][k] * tb[k] for k in range(len(tb))) + ta[i]
         for i in range(len(ma))]
    return m, t


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_integer_affine_map_matches_fraction_reference(d, seed):
    import random
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3, 4, 6]))

    maps = []
    for _ in range(3):
        m = tuple(tuple(rng.randrange(-3, 4) for _ in range(d))
                  for _ in range(d))
        t = tuple(rational() for _ in range(d))
        den = 1
        for x in t:
            den = den * x.denominator // gcd(den, x.denominator)
        amap = AffineMap(m, tuple(int(x * den) for x in t), den)
        assert _translation(amap) == tuple(exact(x) for x in t)
        maps.append((amap, _fraction_affine(m, t)))
    (f, rf), (g, rg), (h, rh) = maps
    got = f.compose(g).compose(h)
    want = _fraction_compose(_fraction_compose(rf, rg), rh)
    assert got.m == tuple(tuple(row) for row in want[0])
    assert got.den > 0 and \
        _translation(got) == tuple(exact(x) for x in want[1])
    y = tuple(rational() for _ in range(d))
    want_y = [sum(a * b for a, b in zip(row, y)) + c
              for row, c in zip(want[0], want[1])]
    assert _apply(got, y) == tuple(exact(x) for x in want_y)
    assert all(type(x) is int or x.denominator > 1 for x in _apply(got, y))
    # Pushing a frame through h, g, f in turn agrees with the composite.
    vectors = tuple(tuple(rng.randrange(-3, 4) for _ in range(d))
                    for _ in range(2))
    q = denominator_lcm(y)
    images, point = _push((vectors, (to_numerators(y, q), q)), (h, g, f))
    assert images == tuple(got.apply_linear(v) for v in vectors)
    assert from_numerators(*point) == tuple(exact(x) for x in want_y)


# Every tests/data input but P^7 (4,4), whose Sigma alone takes seconds.
ORACLE_NAMES = [n for n in DATA_NAMES if n != "simplex_p7_44"]


def _both_runs(pipe):
    """The run and its role-swapped run, whose loops the duality suite
    pairs with this run's."""
    return pipe, pipe.dual_pipeline()


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_transported_linears_match_compose_then_solve(name):
    # global_group reads each loop's transported linear part from the
    # formula; the oracle composes back o loop o fwd and solves in the
    # basis.  The kinked prism has rational translations and base points.
    from nefsphere.monodromy import transported_loops
    pipe = _data_pipe(name)
    graph = pipe.graph()
    base = min(("P", i) for i in graph.p_nodes)
    parent = graph.spanning_tree(base)
    moved = transported_loops(parent, pipe.loops(), pipe.atlas())
    assert moved
    chart = pipe.atlas().base(base[1])
    transition = affine_transitions(pipe)
    want = []
    for loop in pipe.loops():
        if ("P", loop.p0) not in parent:
            continue
        fwd, back = _composed_tree_maps(graph, parent, ("P", loop.p0),
                                        transition, pipe.nef.ambient)
        amb = back.compose(_composed_loop_map(loop, transition))
        want.append((loop, _restrict_by_solving(amb.compose(fwd), chart)[0]))
    assert moved == want


def _pushed_loops(graph, loops, transition, atlas):
    """Oracle for transported_loops that pushes the base frame along the
    spanning tree, around the loop and back through the affine chart
    transitions `transition`, for every loop in the base component,
    degenerate ones included; `atlas` gives the base chart."""
    base = min(("P", i) for i in graph.p_nodes)
    parent = graph.spanning_tree(base)
    chart = atlas.base(base[1])
    transport = {base: (_frame(chart),
                        AffineMap.identity(len(chart.rows[0])))}
    out = []
    for loop in loops:
        if ("P", loop.p0) not in parent:
            continue
        frame, back = _pushed_tree_transport(parent, transport,
                                             ("P", loop.p0), transition)
        images, (image, den) = _push(
            frame, _loop_maps(loop, transition) + (back,))
        out.append((loop, _restrict(chart, images, image, den)[0]))
    return out


def _assert_transport_matches_pushing(pipe):
    from nefsphere.monodromy import transported_loops
    graph, loops = pipe.graph(), pipe.loops()
    if not graph.p_nodes:
        return
    parent = graph.spanning_tree(graph.nodes()[0])
    assert transported_loops(parent, loops, pipe.atlas()) == \
        _pushed_loops(graph, loops, affine_transitions(pipe), pipe.atlas())


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_transported_linears_match_pushing_through_the_tree(name):
    for run in _both_runs(_data_pipe(name)):
        _assert_transport_matches_pushing(run)


def test_transported_linears_match_pushing_randomized(randomized_partitions):
    from nefsphere import Pipeline
    for nef in randomized_partitions:
        for run in _both_runs(Pipeline(nef)):
            _assert_transport_matches_pushing(run)


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_global_group_matches_pushing_every_loop(name, monkeypatch):
    # transported_loops appends a degenerate loop as the identity without
    # transporting anything; the global report must equal the one built
    # from pushing the frame around every loop.  Both kinds of degenerate
    # loop occur in the base component.
    from nefsphere import monodromy
    pipe = _data_pipe(name)
    sigma, graph, loops = pipe.sigma(), pipe.graph(), pipe.loops()
    parent = graph.spanning_tree(min(("P", i) for i in graph.p_nodes))
    based = [l for l in loops if ("P", l.p0) in parent]
    assert any(l.p0 == l.p1 and l.q0 != l.q1 for l in based)
    assert any(l.q0 == l.q1 and l.p0 != l.p1 for l in based)
    assert any(not l.degenerate for l in based)
    args = (sigma, graph, loops, pipe.atlas(), pipe.discriminant())
    got = monodromy.global_group(*args)
    monkeypatch.setattr(
        monodromy, "transported_loops",
        lambda parent, loops, atlas: _pushed_loops(
            graph, loops, affine_transitions(pipe), atlas))
    assert monodromy.global_group(*args) == got


def _assert_formula_matches_compose_then_solve(pipe):
    # The oracle composes the loop's two affine transitions and solves in
    # the basis; its images are the composite's linear part applied to the
    # basis, as the duality pairing reads them.
    monos = pipe.monodromies()
    assert len(monos) == len(pipe.loops())
    transition = affine_transitions(pipe)
    for loop, mono in zip(pipe.loops(), monos):
        chart = pipe.atlas().base(loop.p0)
        amb = _composed_loop_map(loop, transition)
        assert (mono.linear, mono.translation) == \
            _restrict_by_solving(amb, chart)
        assert mono.basis == chart.basis
        assert mono.images == tuple(amb.apply_linear(b) for b in chart.basis)
    return monos


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_monodromy_matches_compose_then_solve(name):
    # monodromy() reads every loop from the closed formula, on both runs.
    for run in _both_runs(_data_pipe(name)):
        monos = _assert_formula_matches_compose_then_solve(run)
        if name == "prism_pair_5d_kinked":
            assert any(type(x) is not int
                       for m in monos for x in m.translation)


def test_monodromy_matches_compose_then_solve_randomized(
        randomized_partitions):
    from nefsphere import Pipeline
    for nef in randomized_partitions:
        for run in _both_runs(Pipeline(nef)):
            _assert_formula_matches_compose_then_solve(run)


def _image_in_w_by_solving(pipe, pair_idx, drop_last):
    """local_group's image_in_w, one solve per image column: every non-zero
    column of every loop's log lies in W's chart coordinates.  With
    `drop_last`, W misses the last vector of its basis."""
    from nefsphere.linalg import dot, saturated_span_basis
    from nefsphere.monodromy import PrimaryLoop, monodromy
    sigma = pipe.sigma()
    i, j = sigma.pairs[pair_idx]
    p_min = sigma.p_poset.minimal_below(i)
    q_min = sigma.q_poset.minimal_below(j)
    chart = pipe.atlas().base(p_min[0])
    mats = [monodromy(PrimaryLoop(p_min[0], a, pk, b), pipe.atlas()).linear
            for pk in p_min for a in q_min for b in q_min
            if not (a == b and pk == p_min[0])]
    diffs = []
    for x, a in enumerate(q_min):
        for b in q_min[x + 1:]:
            qa = sigma.q_poset.elements[a]
            qb = sigma.q_poset.elements[b]
            for jj in range(sigma.r):
                diff = tuple(u - v for u, v in zip(qa.slice_points()[jj],
                                                   qb.slice_points()[jj]))
                if any(diff):
                    diffs.append(diff)
    d = sigma.p_poset.elements[i].cell.ambient
    w_basis = saturated_span_basis(diffs, d) if diffs else ()
    if drop_last:
        w_basis = w_basis[:-1]
    w_coords = []
    for w in w_basis:
        if any(dot(s, w) for s in chart.rows):
            return False
        w_coords.append(tuple(dot(row, w) for row in chart.inverse))
    for m in mats:
        for col in zip(*_nilpotent(m)):
            if any(col) and (not w_coords or solve_rational(
                    [list(c) for c in zip(*w_coords)], col) is None):
                return False
    return True


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_local_group_rank_test_matches_per_column_solve(name, monkeypatch):
    # One rank test decides image_in_w; the oracle solves every column.  A
    # W that misses one direction must be caught where the logs reach it.
    from nefsphere import monodromy
    pipe = _data_pipe(name)
    sigma = pipe.sigma()
    vertices = pipe.discriminant().vertex_ids
    assert vertices
    for k in vertices:
        report = monodromy.local_group(sigma, k, pipe.atlas())
        assert report["image_in_w"] is _image_in_w_by_solving(pipe, k, False)
        assert report["image_in_w"]
    real = monodromy.saturated_span_basis
    monkeypatch.setattr(monodromy, "saturated_span_basis",
                        lambda vectors, d: real(vectors, d)[:-1])
    missed = 0
    for k in vertices:
        report = monodromy.local_group(sigma, k, pipe.atlas())
        want = _image_in_w_by_solving(pipe, k, True)
        assert report["image_in_w"] is want
        missed += not want
    assert missed > 0


@pytest.mark.parametrize("name", ["simplex3", "simplex3_generic",
                                  "prism_pair_5d_kinked", "simplex_p5_33"])
def test_local_commuting_matches_the_pairwise_products(name, monkeypatch):
    # local_group reads commuting from image_in_w and vanishes_on_w when
    # both hold; the products of every pair of the group's matrices, taken
    # here, must say the same.
    from nefsphere import monodromy
    pipe = _data_pipe(name)
    sigma, atlas = pipe.sigma(), pipe.atlas()
    real = monodromy._unipotent
    mats = []

    def recorded(frame, coords, terms):
        out = real(frame, coords, terms)
        mats.append(out[0])
        return out

    monkeypatch.setattr(monodromy, "_unipotent", recorded)
    vertices = pipe.discriminant().vertex_ids
    assert vertices
    for k in vertices:
        mats.clear()
        report = monodromy.local_group(sigma, k, atlas)
        assert mats and len(mats) == report["loops"]
        assert report["commuting"] is monodromy._pairwise_commute(mats), k


def test_component_parts_read_the_pinched_predicate(prism_pair_pipe):
    # The discriminant and the report's component_parts read one predicate:
    # a cell is off the smooth locus exactly when it is pinched in a part.
    from nefsphere.monodromy import pinched_parts
    sigma = prism_pair_pipe.sigma()
    disc = prism_pair_pipe.discriminant()
    nonsmooth = set(disc.vertex_ids)
    for k in range(len(sigma.pairs)):
        parts = pinched_parts(sigma, k)
        assert smooth_pair(sigma, k) == (not parts) == (k not in nonsmooth)
        i, j = sigma.pairs[k]
        assert parts == [a for a in range(sigma.r)
                         if sigma.p_poset.elements[i].slices[a].dim > 0
                         and sigma.q_poset.elements[j].slices[a].dim > 0]
    assert disc.component_parts == [
        sorted({a for k in comp for a in pinched_parts(sigma, k)})
        for comp in disc.components]


def test_rational_slice_point_is_refused():
    # A hand-built minimal cell whose first slice point is not a lattice
    # point: the slice points every chart and transition is built from
    # refuse it, on either side, naming the cell, instead of truncating it.
    from types import SimpleNamespace
    from nefsphere.polytope import convex_hull
    from nefsphere.sphere import TransversalCell
    half = (Fraction(1, 2), 0, 0)
    slices = (convex_hull([half], "M"), convex_hull([(0, 1, 0)], "M"))
    cell = convex_hull([half, (0, 1, 0)], "M")
    bad = TransversalCell(cell, slices, cell)
    good_slices = (convex_hull([(1, 0, 0)], "M"),
                   convex_hull([(0, 1, 0)], "M"))
    good_cell = convex_hull([(1, 0, 0), (0, 1, 0)], "M")
    good = TransversalCell(good_cell, good_slices, good_cell)
    poset = SimpleNamespace(elements=(bad, good))

    def weight(pt):
        return 1

    atlas = ChartAtlas(poset, poset, weight)
    for node in (("P", 0), ("Q", 0)):
        with pytest.raises(FalsificationError) as err:
            atlas.points(node)
        assert "not integral" in err.value.claim
        assert err.value.certificate["cell"] == [["0", "1", "0"],
                                                 ["1/2", "0", "0"]]
        assert err.value.certificate["point"] == ["1/2", "0", "0"]
    chart = atlas.base(1)
    assert _x0(chart) == (1, 1, 0)
    assert chart.basis == ((0, 0, 1),)


def test_one_base_chart_per_cell(monkeypatch):
    # report --verify full --dual builds each minimal cell's chart once per
    # run, across monodromies, the global group, the local groups and the
    # dual monodromies.
    from nefsphere import Pipeline, monodromy
    from nefsphere.cli import load_input
    from test_cli import path
    calls = []
    real = monodromy.base_chart_data

    def counted(base_cell, rows, weight):
        calls.append(base_cell.cell.key())
        return real(base_cell, rows, weight)

    monkeypatch.setattr(monodromy, "base_chart_data", counted)
    nef, omega, nu = load_input(path("simplex3.json"))
    Pipeline(nef, omega_spec=omega, nu_spec=nu).report(
        verify="full", include_dual=True)
    assert calls
    assert len(calls) == len(set(calls))


def test_each_slice_point_is_read_once_per_run(monkeypatch):
    # report --verify full --dual reads each minimal cell's slice points
    # once, across the charts, the transitions, every holonomy, the
    # triviality check and the role-swapped run, whose posets hold the same
    # cells.
    from nefsphere import Pipeline, sphere
    from nefsphere.cli import load_input
    from test_cli import path
    calls = []
    real = sphere._lattice_slice_point

    def counted(cell, j):
        calls.append((id(cell), j))
        return real(cell, j)

    monkeypatch.setattr(sphere, "_lattice_slice_point", counted)
    nef, omega, nu = load_input(path("prism_pair_5d_kinked.json"))
    Pipeline(nef, omega_spec=omega, nu_spec=nu).report(verify="full",
                                                       include_dual=True)
    assert calls
    assert len(calls) == len(set(calls))


def _falsified(capsys, name, monkeypatch, method, corrupt):
    """(exit code, certificate) of `nefsphere monodromy` on an input whose
    run reads the ChartAtlas method `method` through `corrupt`, which gets
    the atlas, the true value and the method's arguments."""
    import json
    from nefsphere import cli
    from test_cli import path
    real = getattr(ChartAtlas, method)
    monkeypatch.setattr(
        ChartAtlas, method,
        lambda atlas, *args: corrupt(atlas, real(atlas, *args), *args))
    code = cli.main(["monodromy", path(f"{name}.json")])
    return code, json.loads(capsys.readouterr().out)["falsified"]


def test_corrupted_loop_corner_raises_the_pairing_certificate(
        monkeypatch, capsys):
    # Double the first slice point n_0 of a Q corner tau of a loop that no
    # tree path runs through, as the run's atlas reads it: no transition
    # reads it, and every non-degenerate loop at it then has
    # <m_0(sigma0), dn_0> = +-<m_0(sigma0), n_0(tau)> = +-1.  The run stops
    # with exit 3 and the pairing certificate, naming the loop.
    pipe = _data_pipe("simplex3")
    graph = pipe.graph()
    parent = graph.spanning_tree(graph.nodes()[0])
    vias = {parent[n] for n in parent if n[0] == "P"}
    loop = next(l for l in pipe.loops() if not l.degenerate
                and ("P", l.p0) in parent and ("Q", l.q1) not in vias)
    target = pipe.q_poset().elements[loop.q1].cell.key()

    def corrupt(atlas, pts, node):
        if node[0] == "Q" and \
                atlas.q_poset.elements[node[1]].cell.key() == target:
            return (tuple(2 * x for x in pts[0]),) + pts[1:]
        return pts

    code, falsified = _falsified(capsys, "simplex3", monkeypatch, "points",
                                 corrupt)
    assert code == 3
    assert falsified["claim"] == "monodromy does not preserve the base chart"
    cert = falsified["certificate"]
    assert len(cert["loop"]) == 4
    assert any(map(any, cert["pairing"]))
    assert abs(cert["pairing"][0][0]) == 1


def test_corrupted_tree_transition_raises_the_transport_certificate(
        monkeypatch, capsys):
    # Doubling every transition's linear part keeps the pushed frame
    # tangent but brings it back as 4 B: the node certificate fires, and
    # no loop certificate reads a transition.
    def corrupt(atlas, step, i, j):
        return tuple(tuple(2 * x for x in row) for row in step)

    code, falsified = _falsified(capsys, "prism_pair_5d_kinked", monkeypatch,
                                 "transition", corrupt)
    assert code == 3
    assert falsified["claim"] == \
        "global transport does not carry the base frame to a chart and back"
    assert falsified["certificate"]["node"]


def _golden_primary_loops(name):
    """`stages.monodromy.primary_loops` in the input's first report golden."""
    golden = os.path.join(DATA, "golden")
    for suffix in ("", "_fast", "_full_dual", "_full"):
        target = os.path.join(golden, f"{name}{suffix}.json")
        if os.path.exists(target):
            with open(target) as fh:
                return json.load(fh)["stages"]["monodromy"]["primary_loops"]
    raise AssertionError(f"no report golden for {name}")


@pytest.mark.parametrize("name", DATA_NAMES)
def test_enclosing_smooth_pair_matches_pair_scan(name):
    # The loop's star meets the smooth cells exactly when scanning every
    # cell of Sigma finds a smooth pair above all four nodes of the loop.
    from nefsphere.monodromy import loop_star
    pipe = _data_pipe(name)
    sigma = pipe.sigma()
    smooth = pipe.discriminant().smooth_mask()
    pp, qp = sigma.p_poset, sigma.q_poset
    smooth_cells = [(i, j) for k, (i, j) in enumerate(sigma.pairs)
                    if smooth_pair(sigma, k)]
    checked = 0
    for loop in pipe.loops():
        scan = any(pp.leq(loop.p0, i) and pp.leq(loop.p1, i)
                   and qp.leq(loop.q0, j) and qp.leq(loop.q1, j)
                   for i, j in smooth_cells)
        assert bool(loop_star(sigma, loop) & smooth) == scan
        checked += 1
    assert checked == _golden_primary_loops(name)


# -- primary loops: the partner-mask join against the pair scan ---------------


def primary_loops_by_pair_scan(sigma, s_boundary, t_boundary):
    """The route the partner masks replaced: every span pair of P against
    every span pair of Q, with four lookups in the adjoint pairs."""
    p_min = sorted(sigma.p_poset.minimal,
                   key=lambda i: sigma.p_poset.elements[i].cell.key())
    q_min = sorted(sigma.q_poset.minimal,
                   key=lambda j: sigma.q_poset.elements[j].cell.key())
    p_pairs = _span_pairs(sigma.p_poset, p_min, s_boundary)
    q_pairs = _span_pairs(sigma.q_poset, q_min, t_boundary)
    pair_set = set(sigma.pairs)
    loops = []
    for (a, b) in p_pairs:
        for (c, e) in q_pairs:
            if a == b and c == e:
                continue
            if all(pq in pair_set
                   for pq in ((a, c), (a, e), (b, c), (b, e))):
                loops.append(PrimaryLoop(a, c, b, e))
    return loops


def _assert_loops_match_pair_scan(pipe):
    args = (pipe.sigma(), pipe.s_boundary(), pipe.t_boundary())
    # List order included: loop indices name loops in the report.
    assert primary_loops(*args) == primary_loops_by_pair_scan(*args)


@pytest.mark.parametrize("name", DATA_NAMES)
def test_primary_loops_match_the_pair_scan(name):
    _assert_loops_match_pair_scan(_data_pipe(name))


def test_primary_loops_match_the_pair_scan_randomized(randomized_partitions):
    from nefsphere import Pipeline
    assert randomized_partitions
    for nef in randomized_partitions:
        pipe = Pipeline(nef)
        _assert_loops_match_pair_scan(pipe)
        _assert_loops_match_pair_scan(pipe.dual_pipeline())


@pytest.mark.parametrize("name", DATA_NAMES)
def test_smith_form_of_the_distinct_logs_is_that_of_every_log(name):
    # global_group takes the Smith form of the distinct logs: a repeated
    # row leaves the row lattice, so the divisors and the rank, as they
    # are.  Oracle: the Smith form of every log, repeats included, over
    # the base component and per discriminant component.
    from nefsphere.linalg import smith_normal_form
    from nefsphere.monodromy import (_loop_discriminant_component,
                                     transported_loops)
    pipe = _data_pipe(name)
    report = pipe.global_report()
    graph = pipe.graph()
    logs, per_comp = [], {}
    if graph.p_nodes:
        parent = graph.spanning_tree(graph.nodes()[0])
        for loop, m in transported_loops(parent, pipe.loops(), pipe.atlas()):
            flat = tuple(v for row in _nilpotent(m) for v in row)
            if any(flat):
                logs.append(flat)
                comp = _loop_discriminant_component(pipe.sigma(), loop,
                                                    pipe.discriminant())
                if comp is not None:
                    per_comp.setdefault(comp, []).append(flat)
    divisors, rank = smith_normal_form(logs) if logs else ((), 0)
    assert report["divisors"] == list(divisors)
    assert report["log_rank"] == rank
    assert report["component_divisors"] == {
        comp: list(smith_normal_form(vecs)[0])
        for comp, vecs in sorted(per_comp.items())}
    if name.startswith("prism_pair"):
        assert len(set(logs)) < len(logs)


def _tangent_coordinates(basis, y):
    """u with sum_b u_b B_b the orthogonal projection of y onto the span
    of the basis rows B: the solution of (B B^T) u = B y."""
    gram = [[dot(a, b) for b in basis] for a in basis]
    return solve_rational(gram, [dot(b, y) for b in basis])


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_a_linear_shear_of_omega_moves_only_the_translations(name):
    # Replacing omega by omega + <., y> leaves the subdivisions, and so the
    # full+dual report but for input.omega, as they are.  On chart sigma0
    # the base point moves by the part of y normal to the tangent space,
    # so c_j = <m_j(sigma1), x0> - omega(m_j(sigma1)) drops by
    # <dm_j, y_T>, y_T = sum_b u_b B_b the tangent part of y: every loop
    # keeps its basis and linear part A, and its translation t becomes
    # t - L sum_j <dm_j, y_T> dn_j = t - (A - I) u.  The shift is read from
    # the loop's corners, so a translation that is always 0 or a dn of the
    # wrong sign fails here; no golden pins a translation.
    import random
    from nefsphere import Pipeline
    pipe = _data_pipe(name)
    rng = random.Random(26)
    y = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
              for _ in range(pipe.nef.ambient))
    table = [(pt, v + dot(pt, y))
             for pt, v in sorted(pipe.omega().values.items())]
    sheared = Pipeline(pipe.nef, omega_spec=table, nu_spec=pipe.nu_spec)
    want = pipe.report(verify="full", include_dual=True)
    got = sheared.report(verify="full", include_dual=True)
    assert got["input"]["omega"] != want["input"]["omega"]
    got["input"]["omega"] = want["input"]["omega"]
    assert got == want
    points = pipe.atlas().points
    moved = 0
    assert sheared.loops() == pipe.loops()
    for loop, a, b in zip(pipe.loops(), pipe.monodromies(),
                          sheared.monodromies(), strict=True):
        assert (b.basis, b.linear) == (a.basis, a.linear)
        u = _tangent_coordinates(a.basis, y)
        y_t = [sum(c * v[k] for c, v in zip(u, a.basis))
               for k in range(len(y))]
        m0, n0, m1, n1 = (points(node) for node in (
            ("P", loop.p0), ("Q", loop.q0), ("P", loop.p1), ("Q", loop.q1)))
        dm = [[p - q for p, q in zip(a1, a0)] for a0, a1 in zip(m0, m1)]
        dn = [[p - q for p, q in zip(b1, b0)] for b0, b1 in zip(n0, n1)]
        shift = [sum(dot(dm_j, y_t) * dn_j[k] for dm_j, dn_j in zip(dm, dn))
                 for k in range(len(y))]
        shift = tuple(dot(row, shift)
                      for row in pipe.atlas().base(loop.p0).inverse)
        assert shift == tuple(dot(row, u) for row in _nilpotent(a.linear))
        assert b.translation == tuple(exact(t - s) for t, s in
                                      zip(a.translation, shift))
        moved += any(shift)
    assert moved
