"""Integral homology of literal spaces, through every route.

Each space is the simplicial complex spanned by a list of simplices.  Its
face poset feeds :func:`chain_homology` twice: on its own cells, at the
incidences :func:`facet_signs` fixes (``cellular``), and through
:func:`order_complex_homology` (the chains, i.e. the barycentric
subdivision), and all must give the space's known groups.  Two oracles
that share no reduction with :func:`chain_homology` are kept here: the
heap-driven sparse elimination of each boundary matrix
(``per_dimension_homology`` on the oriented cells) and the order complex
built two chain levels at a time and eliminated the same way
(``two_level_order_complex_homology``).
"""

import copy
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from nefsphere import cli, homology, sphere
from nefsphere.errors import FalsificationError
from nefsphere.homology import (
    chain_homology,
    facet_signs,
    order_complex_homology,
    sparse_rank_and_divisors,
)
from nefsphere.monodromy import complement_homology, discriminant
from nefsphere.sphere import is_closed_pseudomanifold
from conftest import smooth_pair
from test_cli import path
from test_monodromy import DATA_NAMES, _data_pipe

TORUS = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
         (3, 4, 6), (4, 6, 7), (4, 5, 7), (5, 7, 8), (3, 5, 8), (3, 6, 8),
         (0, 6, 7), (0, 1, 7), (1, 7, 8), (1, 2, 8), (2, 6, 8), (0, 2, 6)]
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2), (2, 3, 5),
       (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
CIRCLE = [(0, 1), (1, 2), (0, 2)]
S2 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
S3 = [tuple(sorted(set(range(5)) - {i})) for i in range(5)]
# The inputs whose Sigma and discriminant are checked here: all but the
# scale input P^7 (4,4), whose Sigma takes 4.5 s to build and whose
# discriminant takes the heap oracle 13 s (one 2-vCPU host, CPython 3.11).
# Its golden report, discriminant included, was frozen from the heap route,
# and CI compares it byte for byte.
ORACLE_NAMES = [name for name in DATA_NAMES if name != "simplex_p7_44"]


# -- the oracles: heap-driven elimination, one boundary matrix at a time ------


def heap_rank_and_divisors(columns):
    """Rank and elementary divisors of a sparse integer matrix (`columns`,
    a list of dicts row->value, consumed), with divisors of 1 included.

    Rows are taken from a heap, fewest entries first, and each is
    eliminated at a unit entry of its shortest column; a row with no unit
    entry is parked until an elimination touches it.  The columns no unit
    pivot reached go to the dense Smith step.
    """
    col_entries = {}
    row_cols = {}
    for ci, col in enumerate(columns):
        live = {r: v for r, v in col.items() if v}
        if live:
            col_entries[ci] = live
            for r in live:
                row_cols.setdefault(r, set()).add(ci)
    rank = 0
    heap = []
    for r, cols in row_cols.items():
        heappush(heap, (len(cols), r))
    parked = {}
    while heap:
        nnz, r = heappop(heap)
        cols = row_cols.get(r)
        if not cols:
            continue
        if len(cols) != nnz:
            heappush(heap, (len(cols), r))
            continue
        if parked.get(r) == nnz:
            continue
        pivot_col = None
        best = None
        for c in cols:
            v = col_entries[c][r]
            if v == 1 or v == -1:
                size = len(col_entries[c])
                if best is None or size < best:
                    best = size
                    pivot_col = c
        if pivot_col is None:
            parked[r] = nnz
            continue
        parked.pop(r, None)
        pcol = col_entries.pop(pivot_col)
        pval = pcol[r]
        for rr in pcol:
            s = row_cols.get(rr)
            if s is not None and pivot_col in s:
                s.discard(pivot_col)
                parked.pop(rr, None)
                heappush(heap, (len(s), rr))
        del row_cols[r]
        rank += 1
        for c in [c for c in cols if c != pivot_col]:
            col = col_entries[c]
            f = col[r] * pval  # pval is +-1, so f/pval == f*pval
            for rr, vv in pcol.items():
                if rr == r:
                    continue
                new = col.get(rr, 0) - f * vv
                if new:
                    if rr not in col:
                        row_cols.setdefault(rr, set()).add(c)
                    parked.pop(rr, None)
                    heappush(heap, (len(row_cols[rr]), rr))
                    col[rr] = new
                elif rr in col:
                    del col[rr]
                    s = row_cols.get(rr)
                    if s is not None:
                        s.discard(c)
                        parked.pop(rr, None)
                        heappush(heap, (len(s), rr))
            del col[r]
            if not col:
                del col_entries[c]
    extra, divisors = sparse_rank_and_divisors(
        [col_entries[c] for c in sorted(col_entries)])
    return rank + extra, (1,) * rank + tuple(divisors)


def per_dimension_homology(dims, boundary):
    """The oracle: each boundary matrix eliminated on its own, with no
    reduction of the complex first."""
    if not dims:
        return []
    top = max(dims)
    counts = [0] * (top + 1)
    for d in dims:
        counts[d] += 1
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 1)
    for k in range(1, top + 1):
        cols = [dict(boundary[c]) for c in range(len(dims)) if dims[c] == k]
        r, divs = heap_rank_and_divisors(cols)
        ranks[k] = r
        torsions[k - 1] = tuple(v for v in divs if v > 1)
    return [(counts[k] - ranks[k] - ranks[k + 1], torsions[k])
            for k in range(top + 1)]


def two_level_order_complex_homology(n_elements, successors):
    """The oracle for :func:`order_complex_homology`: the chains are built
    level by level, and each boundary matrix, from two adjacent levels, is
    eliminated by :func:`heap_rank_and_divisors`."""
    if n_elements == 0:
        return []
    prev = [(i,) for i in range(n_elements)]
    counts = [len(prev)]
    ranks = []
    torsions = []
    while True:
        nxt = [ch + (j,) for ch in prev for j in successors[ch[-1]]]
        if not nxt:
            break
        counts.append(len(nxt))
        face_index = {ch: i for i, ch in enumerate(prev)}
        r, divs = heap_rank_and_divisors(
            [{face_index[ch[:i] + ch[i + 1:]]: (-1) ** i
              for i in range(len(ch))} for ch in nxt])
        ranks.append(r)
        torsions.append(tuple(d for d in divs if d > 1))
        prev = nxt
    out = []
    for k in range(len(counts)):
        rk = ranks[k - 1] if k >= 1 else 0
        rk1 = ranks[k] if k < len(ranks) else 0
        tor = torsions[k] if k < len(torsions) else ()
        out.append((counts[k] - rk - rk1, tor))
    return out


def signed_boundaries(dims, facets):
    """Boundary dicts {face: incidence} at the signs facet_signs fixes."""
    return [{f: -1 if neg >> t & 1 else 1 for t, f in enumerate(faces)}
            for faces, neg in zip(facets, facet_signs(dims, facets))]


def oracle_homology(dims, facets):
    return per_dimension_homology(dims, signed_boundaries(dims, facets))


def cellular(dims, facets):
    """The cellular homology of a regular CW complex: its own cells, at the
    incidences facet_signs fixes, through the one kernel."""
    return chain_homology(dims, signed_boundaries(dims, facets))


def face_poset(simplices):
    """(cells, dims, facets, below) of the face poset of the complex spanned
    by the simplices: cells in sorted order, facets[c] the codimension-one
    faces of cell c, below[c] the bitmask of its faces (c included)."""
    cells = set()
    for s in simplices:
        s = tuple(sorted(s))
        for mask in range(1, 1 << len(s)):
            cells.add(tuple(v for t, v in enumerate(s) if mask >> t & 1))
    cells = sorted(cells)
    index = {c: k for k, c in enumerate(cells)}
    dims = [len(c) - 1 for c in cells]
    facets = [[index[c[:i] + c[i + 1:]] for i in range(len(c))]
              if len(c) > 1 else [] for c in cells]
    below = [sum(1 << index[f] for f in cells if set(f) <= set(c))
             for c in cells]
    return cells, dims, facets, below


def successors(below, mask=None):
    """successors[t]: the cells strictly above the t-th cell, among the
    cells of `mask` (all cells by default), renumbered in order."""
    keep = [k for k in range(len(below)) if mask is None or mask >> k & 1]
    pos = {k: t for t, k in enumerate(keep)}
    return [[pos[j] for j in keep if j != k and below[j] >> k & 1]
            for k in keep]


def bsd(simplices):
    """The simplices of the barycentric subdivision: chains of faces."""
    _, dims, _, below = face_poset(simplices)
    succ = successors(below)
    chains, current = [], [(k,) for k in range(len(dims))]
    while current:
        chains.extend(current)
        current = [ch + (j,) for ch in current for j in succ[ch[-1]]]
    return chains


def both_routes(simplices):
    """The cellular homology of the complex, after checking that the
    order complex of its face poset has the same."""
    _, dims, facets, below = face_poset(simplices)
    hom = cellular(dims, facets)
    assert oracle_homology(dims, facets) == hom
    succ = successors(below)
    assert order_complex_homology(len(dims), succ) == hom
    assert two_level_order_complex_homology(len(dims), succ) == hom
    return hom


def test_point():
    assert both_routes([(0,)]) == [(1, ())]


def test_circle():
    assert both_routes(CIRCLE) == [(1, ()), (1, ())]


def test_two_spheres_of_dims():
    assert both_routes(S2) == [(1, ()), (0, ()), (1, ())]
    assert both_routes(S3) == [(1, ()), (0, ()), (0, ()), (1, ())]


def test_torus():
    assert both_routes(TORUS) == [(1, ()), (2, ()), (1, ())]
    _, dims, facets, below = face_poset(TORUS)
    assert is_closed_pseudomanifold(dims, below, facets)


def test_projective_plane_torsion():
    assert both_routes(RP2) == [(1, ()), (0, (2,)), (0, ())]
    _, dims, facets, below = face_poset(RP2)
    assert is_closed_pseudomanifold(dims, below, facets)


def test_barycentric_subdivision_invariance():
    # The cells of bsd(RP^2), and the chains of its face poset (the second
    # subdivision), give RP^2's groups.
    assert both_routes(bsd(RP2)) == both_routes(RP2)


def test_disjoint_components():
    assert both_routes(CIRCLE + [(3,)]) == [(2, ()), (1, ())]


def test_order_complex_homology_matches_bsd():
    # The order complex of the torus's face poset is bsd(torus), cell by
    # cell: the chain route on the poset is the cellular route on bsd.
    _, dims, _, below = face_poset(TORUS)
    _, bsd_dims, bsd_facets, _ = face_poset(bsd(TORUS))
    assert order_complex_homology(len(dims), successors(below)) == \
        cellular(bsd_dims, bsd_facets) == [(1, ()), (2, ()), (1, ())]


def test_sparse_rank_and_divisors():
    cols = [{0: 2, 1: 6}, {0: 4, 1: 8}]
    rank, divs = sparse_rank_and_divisors(cols)
    assert rank == 2
    assert tuple(divs) == (2, 4)
    rank, divs = sparse_rank_and_divisors([{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert rank == 1
    # Zero entries and empty columns are dropped; rows are sparse indices.
    assert sparse_rank_and_divisors([{7: 0}, {}, {3: 2, 9: 0}]) == (1, (2,))
    assert sparse_rank_and_divisors([]) == sparse_rank_and_divisors([{}]) \
        == (0, ())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4),
                                max_size=6), max_size=6))
def test_sparse_rank_and_divisors_matches_oracle(columns):
    # Any integer matrix, unit entries included, against the heap route.
    assert sparse_rank_and_divisors([dict(c) for c in columns]) == \
        heap_rank_and_divisors([dict(c) for c in columns])


def test_full_subcomplex():
    # A triangle with a whisker: the order complex of the cells on
    # {0, 1, 2} is the full subcomplex of bsd there (a disc), and the upper
    # set of cells at vertex 3 is the edge (3) < (2, 3).
    cells, _, _, below = face_poset([(0, 1, 2), (2, 3)])
    on_012 = sum(1 << k for k, c in enumerate(cells) if 3 not in c)
    at_3 = sum(1 << k for k, c in enumerate(cells) if 3 in c)
    assert order_complex_homology(
        on_012.bit_count(), successors(below, on_012)) == \
        [(1, ()), (0, ()), (0, ())]
    assert order_complex_homology(2, successors(below, at_3)) == \
        [(1, ()), (0, ())]


@pytest.mark.parametrize("simplices", [
    (CIRCLE, [(1, ()), (1, ())]),
    (S3, [(1, ()), (0, ()), (0, ()), (1, ())]),
    (TORUS, [(1, ()), (2, ()), (1, ())]),
    (RP2, [(1, ()), (0, (2,)), (0, ())]),
    ([(0, 1, 2), (2, 3), (4,)], [(2, ()), (0, ()), (0, ())]),
])
def test_cellular_homology_matches_simplicial(simplices):
    # Each case is (simplices, groups); both_routes checks the cellular
    # groups against the simplicial groups of the barycentric subdivision.
    spanned, want = simplices
    assert both_routes(spanned) == want


def test_cellular_homology_square_cell():
    # One square 2-cell on a 4-cycle (not a simplex): a disc.
    dims = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    facets = [[], [], [], [], [0, 1], [1, 2], [2, 3], [0, 3], [4, 5, 6, 7]]
    assert cellular(dims, facets) == [(1, ()), (0, ()), (0, ())]
    assert oracle_homology(dims, facets) == [(1, ()), (0, ()), (0, ())]
    assert facet_signs([], []) == []
    assert oracle_homology([], []) == []


def test_cellular_homology_rejects_broken_diamond():
    # A 2-cell whose "boundary" is a triangle with a whisker: vertex 0 lies
    # in three of its edges and vertex 3 in only one.
    dims = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    facets = [[], [], [], [], [0, 1], [1, 2], [0, 2], [0, 3], [4, 5, 6, 7]]
    with pytest.raises(FalsificationError) as err:
        cellular(dims, facets)
    assert "diamond" in err.value.claim
    assert err.value.certificate["cell"] == 8


def test_cellular_homology_rejects_disconnected_facets():
    # A 2-cell bounded by two disjoint triangles.
    dims = [0] * 6 + [1] * 6 + [2]
    facets = [[]] * 6 + [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]] + \
        [list(range(6, 12))]
    with pytest.raises(FalsificationError) as err:
        cellular(dims, facets)
    assert err.value.certificate["cell"] == 12


def test_cellular_homology_rejects_bad_edge():
    with pytest.raises(FalsificationError) as err:
        cellular([0, 1], [[], [0]])
    assert err.value.certificate["cell"] == 1


def test_cellular_homology_rejects_non_orientable_facets():
    # A 3-cell glued onto RP^2: every ridge (edge) lies in exactly two
    # facets and the facets are connected, but no signs make them cancel.
    _, dims, facets, _ = face_poset(RP2)
    triangles = [c for c, d in enumerate(dims) if d == 2]
    dims.append(3)
    facets.append(triangles)
    with pytest.raises(FalsificationError) as err:
        cellular(dims, facets)
    assert "inconsistent" in err.value.claim
    assert err.value.certificate["cell"] == len(dims) - 1


# -- the coreduction pass against the per-dimension oracle --------------------


def fill_in_pivot_by_scan(boundary, cofaces):
    """The oracle: the pivot search as a full scan of the cells, with the
    same choice rule as :func:`homology._fill_in_pivot`."""
    best = None
    for c, faces in enumerate(boundary):
        if faces and (best is None or len(faces) < best[0]):
            units = [(len(cofaces[a]), a) for a, u in faces.items()
                     if u == 1 or u == -1]
            if units:
                best = (len(faces), min(units)[1], c)
    return None if best is None else best[1:]


def count_fill_in_pivots(monkeypatch):
    """Wrap the pivot search: each pivot must be the one the full scan
    picks on the same complex, so the whole sequence is the scan's; the
    returned list gets one entry per pair eliminated with fill-in."""
    found = []
    search = homology._fill_in_pivot

    def counted(boundary, cofaces, heap):
        pair = search(boundary, cofaces, heap)
        assert pair == fill_in_pivot_by_scan(boundary, cofaces)
        if pair is not None:
            found.append(pair)
        return pair

    monkeypatch.setattr(homology, "_fill_in_pivot", counted)
    return found


def test_projective_plane_takes_the_fill_in_path(monkeypatch):
    pivots = count_fill_in_pivots(monkeypatch)
    assert both_routes(RP2) == [(1, ()), (0, (2,)), (0, ())]
    assert pivots


def test_fill_in_pivots_match_the_full_scan_on_an_order_complex(monkeypatch):
    # The order complex of the 6D product's Sigma, a 3-torus with an empty
    # discriminant, so all of it is smooth: 1 929 fill-in pivots.
    from test_order_masks import complement_by_order_complex
    sigma = _data_pipe("product_triangles_6d").sigma()
    pivots = count_fill_in_pivots(monkeypatch)
    assert complement_by_order_complex(sigma) == \
        [(1, ()), (3, ()), (3, ()), (1, ())]
    assert len(pivots) == 1929


def test_torus_takes_the_fill_in_path(monkeypatch):
    # On this triangulation the breadth-first walk runs dry before only
    # the torus's three generators are left, so at least one pair is
    # eliminated with fill-in, and the groups stay the torus's.
    pivots = count_fill_in_pivots(monkeypatch)
    assert both_routes(TORUS) == [(1, ()), (2, ()), (1, ())]
    assert pivots


def test_sphere_needs_no_fill_in(monkeypatch):
    pivots = count_fill_in_pivots(monkeypatch)
    assert both_routes(S3) == [(1, ()), (0, ()), (0, ()), (1, ())]
    assert not pivots


@pytest.mark.parametrize("dims, boundary, want", [
    # RP^2 with one cell per dimension: the 2-cell wraps twice round the
    # loop, so no pair is a unit and the Smith form gives the Z/2.
    pytest.param([0, 1, 2], [{}, {}, {1: 2}],
                 [(1, ()), (0, (2,)), (0, ())], id="rp2_cw"),
    # An edge whose boundary is twice a difference of vertices: dropping
    # vertex 0 leaves the edge with one face at incidence 2.
    pytest.param([0, 0, 1], [{}, {}, {0: -2, 1: 2}],
                 [(1, (2,)), (0, ())], id="double_edge"),
    # The same edge e beside a unit edge e': the coreduction of e' leaves
    # e with no face, the cycle e - 2e'.
    pytest.param([0, 0, 1, 1], [{}, {}, {0: -1, 1: 1}, {0: -2, 1: 2}],
                 [(1, ()), (1, ())], id="double_edge_beside_unit_edge"),
])
def test_non_unit_incidences_are_not_pivots(dims, boundary, want):
    oracle = per_dimension_homology(dims, boundary)
    assert chain_homology(dims, [dict(b) for b in boundary]) == oracle == want


def test_each_component_keeps_its_vertex():
    # Only the lowest vertex is dropped: each other component keeps one.
    assert both_routes([(0, 1), (2, 3), (4,), (5, 6, 7)]) == \
        [(4, ()), (0, ()), (0, ())]


def sigma_cells(sigma, mask):
    """(dims, facets) of Sigma's subcomplex on the cells of `mask`, with
    the facets read from the product-order masks."""
    keep = [k for k in range(len(sigma)) if mask >> k & 1]
    pos = {k: t for t, k in enumerate(keep)}
    return ([sigma.dims[k] for k in keep],
            [[pos[j] for j in keep if sigma.dims[j] == sigma.dims[k] - 1
              and sigma._above[j] >> k & 1] for k in keep])


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_reduction_matches_oracle_on_sigma(name):
    sigma = _data_pipe(name).sigma()
    every = (1 << len(sigma)) - 1
    smooth = sum(1 << k for k in range(len(sigma)) if smooth_pair(sigma, k))
    for mask in (every, smooth):
        hom = sigma.homology(None if mask == every else mask)
        assert hom == oracle_homology(*sigma_cells(sigma, mask)), name


# -- Sigma's one orientation --------------------------------------------------


def sigma_chains(sigma, mask, monkeypatch):
    """The cells (Sigma's indices) and boundary dicts, on Sigma's indices,
    that Sigma.homology hands the kernel for its subcomplex on `mask`."""
    handed = []
    kernel = sphere.chain_homology

    def recorded(dims, boundary):
        handed.append([dict(b) for b in boundary])
        return kernel(dims, boundary)

    with monkeypatch.context() as patch:
        patch.setattr(sphere, "chain_homology", recorded)
        sigma.homology(mask)
    if not mask:  # an empty subcomplex has no chains to hand over
        assert handed == []
        return [], []
    (boundary,) = handed
    cells = [k for k in range(len(sigma)) if mask >> k & 1]
    return cells, [{cells[f]: u for f, u in b.items()} for b in boundary]


def boundary_defects(sigma, cells, boundary):
    """The cells whose boundary's boundary is not 0, or, for an edge,
    whose two incidences do not sum to 0."""
    by_cell = dict(zip(cells, boundary))
    bad = []
    for k, faces in by_cell.items():
        twice = {}
        for f, u in faces.items():
            for g, v in by_cell[f].items():
                twice[g] = twice.get(g, 0) + u * v
        if any(twice.values()) or sigma.dims[k] == 1 and sum(faces.values()):
            bad.append(k)
    return bad


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_sigma_and_its_smooth_cells_read_one_orientation(name, monkeypatch):
    # Every boundary of a boundary cancels, and the smooth subcomplex's
    # cells carry Sigma's own incidences, not a second orientation's.
    sigma = _data_pipe(name).sigma()
    every = (1 << len(sigma)) - 1
    smooth = sum(1 << k for k in range(len(sigma)) if smooth_pair(sigma, k))
    cells, boundary = sigma_chains(sigma, every, monkeypatch)
    assert boundary_defects(sigma, cells, boundary) == [], name
    sub_cells, sub_boundary = sigma_chains(sigma, smooth, monkeypatch)
    assert sub_boundary == [boundary[k] for k in sub_cells], name


@pytest.mark.parametrize("name", ["simplex3", "prism_pair_5d_kinked"])
def test_a_planted_sign_flip_fails_the_boundary_check(name, monkeypatch):
    # One facet of one top cell changes sign in Sigma's stored orientation:
    # that cell's boundary no longer cancels.  The groups do not show it,
    # since the coreductions never read a sign.
    sigma = copy.copy(_data_pipe(name).sigma())
    sigma.homology()
    top = sigma.dims.index(max(sigma.dims))
    sigma._negative = list(sigma._negative)
    sigma._negative[top] ^= 1
    every = (1 << len(sigma)) - 1
    cells, boundary = sigma_chains(sigma, every, monkeypatch)
    assert boundary_defects(sigma, cells, boundary) == [top]


@pytest.mark.parametrize("name", ["simplex3", "simplex3_generic"])
def test_one_full_dual_report_orients_sigma_once(name, monkeypatch, capsys):
    # Sigma's homology and its smooth subcomplex's (complement_homology),
    # in the run and in its role-swapped dual run, read one orientation.
    calls = []

    def counted(real):
        def oriented(dims, facets):
            calls.append(len(dims))
            return real(dims, facets)
        return oriented

    for module in (homology, sphere):
        monkeypatch.setattr(module, "facet_signs",
                            counted(module.facet_signs))
    code = cli.main(["report", path(f"{name}.json"), "--verify", "full",
                     "--dual"])
    assert code == 0
    assert '"complement_homology"' in capsys.readouterr().out
    assert calls == [len(_data_pipe(name).sigma())]


@pytest.mark.parametrize("name, flags", [
    pytest.param("simplex3", ["--verify", "fast"], id="simplex3-fast"),
    pytest.param("simplex3", ["--verify", "full", "--dual"],
                 id="simplex3-full-dual"),
    pytest.param("simplex3_generic", ["--verify", "full", "--dual"],
                 id="simplex3_generic-full-dual"),
])
def test_one_report_builds_sigmas_facet_table_once(name, flags, monkeypatch,
                                                   capsys):
    # The orientation, the kernel's boundary dicts of Sigma and of its
    # smooth subcomplex, and the pseudomanifold test read the one facet
    # table that Sigma builds with itself.
    cells = len(_data_pipe(name).sigma())
    sigmas, tables = [], []
    init, masks = sphere.SigmaComplex.__init__, sphere._facet_masks

    def counted_init(self, *posets):
        sigmas.append(self)
        init(self, *posets)

    def counted_masks(dims, below):
        tables.append(len(dims))
        return masks(dims, below)

    monkeypatch.setattr(sphere.SigmaComplex, "__init__", counted_init)
    monkeypatch.setattr(sphere, "_facet_masks", counted_masks)
    assert cli.main(["report", path(f"{name}.json"), *flags]) == 0
    assert '"pseudomanifold": true' in capsys.readouterr().out
    assert tables == [len(s) for s in sigmas] == [cells]


def simplicial_complexes():
    """Complexes spanned by 1 to 20 simplices of dimension <= 3 on 7
    vertices: dense enough in triangles to carry 1- and 2-cycles."""
    return st.lists(
        st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
        min_size=1, max_size=20)


@settings(max_examples=80, deadline=None)
@given(simplicial_complexes())
def test_reduction_matches_oracle_randomized(simplices):
    _, dims, facets, _ = face_poset(simplices)
    assert cellular(dims, facets) == oracle_homology(dims, facets)


# -- the order complex through the coreductions, against its oracle -----------


def test_order_complex_boundary_squares_to_zero(monkeypatch):
    # The chains of the torus's face poset as they reach chain_homology:
    # each face is one degree down, every boundary of a boundary cancels,
    # and each degree-1 boundary sums to 0 (the augmentation that the
    # relative step needs).  The groups alone would not show wrong signs:
    # coreductions and collapses never read them.
    complexes = []
    kernel = homology.chain_homology

    def recorded(dims, boundary):
        complexes.append((list(dims), [dict(b) for b in boundary]))
        return kernel(dims, boundary)

    monkeypatch.setattr(homology, "chain_homology", recorded)
    _, dims, _, below = face_poset(TORUS)
    assert order_complex_homology(len(dims), successors(below)) == \
        [(1, ()), (2, ()), (1, ())]
    (chain_dims, boundary), = complexes
    assert max(chain_dims) == 2
    for c, faces in enumerate(boundary):
        assert all(chain_dims[f] == chain_dims[c] - 1 for f in faces)
        if chain_dims[c] == 1:
            assert sorted(faces.values()) == [-1, 1]
        twice = {}
        for f, u in faces.items():
            for g, v in boundary[f].items():
                twice[g] = twice.get(g, 0) + u * v
        assert not any(twice.values()), c


@settings(max_examples=60, deadline=None)
@given(simplicial_complexes(), st.data())
def test_order_complex_matches_oracle_randomized(simplices, data):
    # The face poset of a random complex, and a random upper set of it (the
    # cells above some of its cells: a discriminant component's shape).
    _, dims, _, below = face_poset(simplices)
    seeds = data.draw(st.sets(st.integers(0, len(dims) - 1), max_size=4))
    upper = sum(1 << j for j in range(len(dims))
                if any(below[j] >> k & 1 for k in seeds))
    for mask in (None, upper):
        succ = successors(below, mask)
        assert order_complex_homology(len(succ), succ) == \
            two_level_order_complex_homology(len(succ), succ)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_discriminant_components_match_oracle(name):
    # Each component's successors are read from Sigma's down-masks here,
    # not from the up-masks that discriminant() reads.
    pipe = _data_pipe(name)
    sigma, disc = pipe.sigma(), pipe.discriminant()
    assert len(disc.component_masks) == len(disc.component_homology)
    for comp, hom in zip(disc.component_masks, disc.component_homology):
        succ = successors(sigma._below, comp)
        assert hom == two_level_order_complex_homology(len(succ), succ), name


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_no_unit_entry_reaches_the_smith_step(name, monkeypatch):
    # Sigma's, its smooth subcomplex's and every discriminant component's
    # homology: the reduction removes every unit incidence before the
    # leftover columns go to the Smith normal form.
    calls, entries = [], []
    smith_step = homology.sparse_rank_and_divisors

    def recorded(columns):
        calls.append(len(columns))
        entries.extend(v for col in columns for v in col.values())
        return smith_step(columns)

    monkeypatch.setattr(homology, "sparse_rank_and_divisors", recorded)
    pipe = _data_pipe(name)
    sigma = pipe.sigma()
    sigma.homology()
    complement_homology(sigma, pipe.discriminant().smooth_mask())
    discriminant(sigma)
    # A point pair has no boundary, and an empty Sigma (r = d + 1) no chain.
    assert calls or sigma.dim() in (0, -1)
    assert not [v for v in entries if v in (1, -1)], name
