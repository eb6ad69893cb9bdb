"""Integral homology of finite posets and regular CW complexes, exactly.

Every homology goes through one kernel, :func:`chain_homology`, and the
complexes reach it by two routes:

* a regular CW complex (a polytopal complex, say) on its own cells, without
  subdividing, at the signs :func:`facet_signs` returns: Sigma is oriented
  once, and its subcomplexes keep its signs.
* :func:`order_complex_homology` takes the order complex of a finite poset:
  one simplex per chain, with the simplicial boundary.  A discriminant
  component is an upper set of Sigma's cells, not a subcomplex, so its
  homology is taken on this order complex.

The kernel walks the chain complex breadth-first from one vertex and
removes every pair of a cell and a face at a unit incidence where the cell
has no other face or the face no other coface (a coreduction or a
collapse); when none is left it removes one unit pair with fill-in, and so
on until no unit incidence is left.  Removing a pair is a unimodular change
of basis that splits off an acyclic summand Z -> Z, so the homology is
unchanged; on a sphere Sigma the pass leaves one top cell.  Whatever is
left, with no unit entry, goes through the dense Smith normal form
(:func:`sparse_rank_and_divisors`) for exact torsion.
"""

from collections import deque
from heapq import heapify, heappop, heappush

from .errors import FalsificationError
from .linalg import smith_normal_form


def sparse_rank_and_divisors(columns):
    """Rank and elementary divisors of a sparse integer matrix.

    `columns` is a list of dicts row->value.  Zero entries and empty columns
    are dropped, and the rest goes densely, on the rows still present, to
    :func:`smith_normal_form`.  Divisors of 1 are included, so their count
    equals the rank.  :func:`chain_homology` calls it on the columns its
    reduction leaves, which hold no unit entry.
    """
    live = [c for c in ({r: v for r, v in col.items() if v}
                        for col in columns) if c]
    rows = sorted({r for col in live for r in col})
    idx = {r: i for i, r in enumerate(rows)}
    dense = []
    for col in live:
        row = [0] * len(rows)
        for r, v in col.items():
            row[idx[r]] = v
        dense.append(row)
    divisors, rank = smith_normal_form(dense)
    return rank, divisors


def order_complex_homology(n_elements, successors):
    """Homology of the order complex of a poset given by strict successors.

    successors[i] lists all j with element_i < element_j.  The chains are
    enumerated level by level (chain length) and numbered in that order;
    chain ch gets the simplicial boundary {ch without ch[i]: (-1)**i}, and
    the complex goes to :func:`chain_homology`.  A degree-1 boundary
    {(b,): +1, (a,): -1} sums to 0, which is the augmentation that
    :func:`chain_homology`'s relative step needs.  The faces of a chain are
    one level down, so only the previous level's numbering is kept.
    """
    if n_elements == 0:
        return []
    dims = [0] * n_elements
    boundary = [{} for _ in range(n_elements)]
    level = {(i,): i for i in range(n_elements)}
    while level:
        nxt = {}
        for ch in level:
            for j in successors[ch[-1]]:
                up = ch + (j,)
                nxt[up] = len(dims)
                dims.append(len(ch))
                boundary.append({level[up[:i] + up[i + 1:]]: -1 if i & 1 else 1
                                 for i in range(len(up))})
        level = nxt
    return chain_homology(dims, boundary)


def facet_signs(dims, facets):
    """Facet signs of a regular CW complex, one int per cell: bit t of
    cell c's int marks facets[c][t] at incidence -1, the others are at +1.

    Signs are fixed cell by cell, in increasing dimension, from the lower
    cells' ints: an edge gets -1 on its first vertex and +1 on its second,
    and a cell of dimension >= 2 signs its facets by propagation across
    shared ridges, so that every ridge cancels in the boundary of the
    boundary.  That needs every ridge of the cell in exactly two of its
    facets (the diamond property), consistent signs, and connected facets;
    a cell violating any of these, or an edge without two vertices, raises
    a falsification certificate naming it.
    """
    negative = [0] * len(dims)
    for c in sorted(range(len(dims)), key=dims.__getitem__):
        d = dims[c]
        faces = facets[c]
        if any(dims[f] != d - 1 for f in faces):
            raise FalsificationError(
                "cell face is not of codimension one", {"cell": c, "dim": d})
        if d == 1:
            if len(faces) != 2:
                raise FalsificationError(
                    "edge does not have exactly two vertices",
                    {"cell": c, "faces": list(faces)})
            negative[c] = 1
        elif d >= 2:
            negative[c] = _orient_facets(c, faces, facets, negative)
    return negative


def chain_homology(dims, boundary):
    """Homology of the chain complex with one generator per cell, cell c in
    degree dims[c] with boundary {face: coefficient} `boundary[c]`
    (consumed: the dicts are reduced in place).

    The lowest-index vertex is dropped first, which leaves the relative
    complex of (X, vertex): its homology is the reduced homology of X, and
    1 is added back to b_0.  That needs the coefficients of each degree-1
    boundary to sum to 0, as an edge's v1 - v0 does.  The complex is then
    walked breadth-first from that vertex with a FIFO queue of the cells
    whose faces or cofaces changed, and every coreduction pair (a cell with
    exactly one face left, at a unit incidence) and collapse pair (a face
    with exactly one coface left, at a unit incidence) is removed
    (Kaczynski-Mrozek-Slusarek, "Homology computation by reduction of chain
    complexes", 1998; Mrozek-Batko, "Coreduction homology algorithm", DCG
    41, 2009).  When
    the queue runs dry, one unit pair with fill-in is removed, from the cell
    with the fewest faces left (then the lowest index), found on a heap
    that every cell leaving the queue is pushed back onto, and the walk
    resumes.  The cells left over, with no unit incidence among them, go
    to :func:`sparse_rank_and_divisors`, so torsion comes from the exact
    Smith form.

    Why removing a pair (a, b) with <db, a> = u = +-1 keeps the homology:
    in degree dim b the basis b, x - <dx, a> u b (x != b) and in degree
    dim a the basis db, y (y != a) are unimodular changes of basis, since
    db has the unit u at a.  In the new bases b -> db is a summand
    0 -> Z -> Z -> 0 with no homology, split off; the rest is the complex
    without a and b in which each coface x of a has boundary
    dx - <dx, a> u db, restricted.  When b has no face but a (coreduction)
    or a no coface but b (collapse), that is the old boundary with a or b
    left out: no fill-in.
    """
    n = len(dims)
    top = max(dims)
    cofaces = [[] for _ in range(n)]
    for c, faces in enumerate(boundary):
        for f in faces:
            cofaces[f].append(c)
    # (faces left, cell) of every cell with faces, re-pushed whenever the
    # cell leaves the queue: the fill-in pivot search's candidates.
    heap = [(len(faces), c) for c, faces in enumerate(boundary) if faces]
    heapify(heap)
    queue = deque()
    _drop(dims.index(0), boundary, cofaces, queue)
    while True:
        while queue:
            c = queue.popleft()
            faces = boundary[c]
            if faces is None:
                continue
            if faces:
                heappush(heap, (len(faces), c))
            if len(faces) == 1:
                (a, u), = faces.items()
                if u == 1 or u == -1:
                    _remove_pair(a, c, boundary, cofaces, queue)
                    continue
            up = cofaces[c]
            if len(up) == 1:
                b = up[0]
                u = boundary[b][c]
                if u == 1 or u == -1:
                    _remove_pair(c, b, boundary, cofaces, queue)
        pair = _fill_in_pivot(boundary, cofaces, heap)
        if pair is None:
            break
        _remove_pair(*pair, boundary, cofaces, queue)
    counts = [0] * (top + 1)
    columns = [[] for _ in range(top + 1)]
    for c, faces in enumerate(boundary):
        if faces is not None:
            counts[dims[c]] += 1
            columns[dims[c]].append(faces)
    counts[0] += 1
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 1)
    for k in range(1, top + 1):
        if columns[k]:
            r, divs = sparse_rank_and_divisors(columns[k])
            ranks[k] = r
            torsions[k - 1] = tuple(v for v in divs if v > 1)
    return [(counts[k] - ranks[k] - ranks[k + 1], torsions[k])
            for k in range(top + 1)]


def _drop(c, boundary, cofaces, queue):
    """Remove cell c from the complex; queue its faces and cofaces."""
    for f in boundary[c]:
        cofaces[f].remove(c)
        queue.append(f)
    for x in cofaces[c]:
        del boundary[x][c]
        queue.append(x)
    boundary[c] = cofaces[c] = None


def _remove_pair(a, b, boundary, cofaces, queue):
    """Remove the pair (a, b), <db, a> = u a unit, after subtracting
    <dx, a> u db from every other coface x of a (the fill-in).  Dropping b
    queues its faces, the cells whose cofaces the fill-in changed."""
    bb = boundary[b]
    u = bb.pop(a)
    cofaces[a].remove(b)
    for x in cofaces[a]:
        bx = boundary[x]
        f = bx.pop(a) * u
        for g, v in bb.items():
            new = bx.get(g, 0) - f * v
            if new:
                if g not in bx:
                    cofaces[g].append(x)
                bx[g] = new
            else:
                del bx[g]
                cofaces[g].remove(x)
        queue.append(x)
    cofaces[a] = []
    _drop(a, boundary, cofaces, queue)
    _drop(b, boundary, cofaces, queue)


def _fill_in_pivot(boundary, cofaces, heap):
    """A unit pair (face, cell) for an elimination with fill-in: the cell
    with the fewest faces left, then the lowest index, and its unit face
    with the fewest cofaces left, then the lowest index; None when no
    unit incidence is left.

    `heap` holds (faces left, cell) for every cell with faces as it was
    when the cell last changed, possibly among stale entries: every cell
    whose faces change is queued and re-pushed when it leaves the queue,
    and the queue is empty here.  Entries are popped in order; a stale
    one is skipped, and so is a cell with no unit face, which can gain
    one only through a change that re-pushes it.
    """
    while heap:
        k, c = heappop(heap)
        faces = boundary[c]
        if faces is None or len(faces) != k:
            continue
        units = [(len(cofaces[a]), a) for a, u in faces.items()
                 if u == 1 or u == -1]
        if units:
            return min(units)[1], c
    return None


def _orient_facets(cell, faces, facets, negative):
    """The sign int of one cell: facet signs s_F, read from the facets'
    own ints, with sum_F s_F * boundary(F) free of ridges."""
    if not faces:
        raise FalsificationError("cell has no facets", {"cell": cell})
    ridges = {}
    for f in faces:
        neg = negative[f]
        for t, ridge in enumerate(facets[f]):
            ridges.setdefault(ridge, []).append((f, -1 if neg >> t & 1 else 1))
    for ridge, incident in ridges.items():
        if len(incident) != 2:
            raise FalsificationError(
                "ridge of a cell does not lie in exactly two of its facets "
                "(diamond property)",
                {"cell": cell, "ridge": ridge,
                 "facets": [f for f, _ in incident]})
    signs = {faces[0]: 1}
    stack = [faces[0]]
    while stack:
        f = stack.pop()
        for ridge in facets[f]:
            (f1, s1), (f2, s2) = ridges[ridge]
            g = f2 if f1 == f else f1
            want = -signs[f] * s1 * s2
            if g not in signs:
                signs[g] = want
                stack.append(g)
            elif signs[g] != want:
                raise FalsificationError(
                    "facet orientations of a cell are inconsistent",
                    {"cell": cell, "ridge": ridge, "facets": [f, g]})
    if len(signs) != len(faces):
        raise FalsificationError(
            "facets of a cell are not connected through ridges",
            {"cell": cell, "reached": sorted(signs), "facets": list(faces)})
    return sum(1 << t for t, f in enumerate(faces) if signs[f] < 0)
