"""Integral homology of finite posets and regular CW complexes, exactly.

Two usage modes:

* :func:`order_complex_homology` computes the homology of the order complex
  of a finite poset degree by degree, holding only two chain levels at a
  time.  A discriminant component is an upper set of Sigma's cells, not a
  subcomplex, so its homology is taken on this order complex.
* :func:`cellular_homology` computes the cellular homology of a regular CW
  complex (a polytopal complex, say) on its own cells, without subdividing.
  After the cells are oriented, a coreduction pass (:func:`chain_homology`)
  walks the complex breadth-first from one vertex and removes every pair
  of a cell and a face at a unit incidence where the cell has no other face
  or the face no other coface.  Removing such a pair is a unimodular change
  of basis that splits off an acyclic summand Z -> Z and changes no other
  boundary, so no coefficient grows; on a sphere Sigma the pass leaves one
  top cell.

Whatever is left is eliminated sparsely at unit pivots, and the remainder
goes through the dense Smith normal form for exact torsion.
"""

from collections import deque
from heapq import heappush, heappop

from .errors import FalsificationError
from .linalg import smith_normal_form


def sparse_rank_and_divisors(columns):
    """Rank and elementary divisors of a sparse integer matrix.

    `columns` is a list of dicts row->value (consumed).  Divisors of 1 are
    included so the count equals the rank.
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
    # Rows with no unit entry are parked until an elimination touches them;
    # whatever is still parked at the end goes to the dense Smith step.
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
        # Pick a unit entry in this row, preferring short columns.
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
        targets = [c for c in cols if c != pivot_col]
        for c in targets:
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
                else:
                    if rr in col:
                        del col[rr]
                        s = row_cols.get(rr)
                        if s is not None:
                            s.discard(c)
                            parked.pop(rr, None)
                            heappush(heap, (len(s), rr))
            del col[r]
            if not col:
                del col_entries[c]
    divisors = [1] * rank
    # Dense leftover block: rows/cols that never saw a unit pivot.
    if col_entries:
        live_rows = sorted({r for col in col_entries.values() for r in col})
        idx = {r: i for i, r in enumerate(live_rows)}
        dense = []
        for c in sorted(col_entries):
            row = [0] * len(live_rows)
            for r, v in col_entries[c].items():
                row[idx[r]] = v
            dense.append(row)
        divs, extra_rank = smith_normal_form(dense)
        rank += extra_rank
        divisors.extend(divs)
    return rank, tuple(divisors)


def boundary_columns(simplices, face_index):
    """Sparse boundary columns for a list of k-simplices (k >= 1)."""
    cols = []
    for s in simplices:
        col = {}
        sign = 1
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            col[face_index[face]] = sign
            sign = -sign
        cols.append(col)
    return cols


def order_complex_homology(n_elements, successors):
    """Homology of the order complex of a poset given by strict successors.

    successors[i] lists all j with element_i < element_j.  Chains are built
    level by level; only two adjacent levels are alive at any time.
    """
    if n_elements == 0:
        return []
    prev = [(i,) for i in range(n_elements)]
    counts = [len(prev)]
    ranks = []
    torsions = []
    level = 1
    while True:
        nxt = []
        for ch in prev:
            for j in successors[ch[-1]]:
                nxt.append(ch + (j,))
        if not nxt:
            break
        counts.append(len(nxt))
        face_index = {ch: i for i, ch in enumerate(prev)}
        cols = boundary_columns(nxt, face_index)
        del face_index
        r, divs = sparse_rank_and_divisors(cols)
        ranks.append(r)
        torsions.append(tuple(d for d in divs if d > 1))
        prev = nxt
        level += 1
    out = []
    for k in range(len(counts)):
        rk = ranks[k - 1] if k >= 1 else 0
        rk1 = ranks[k] if k < len(ranks) else 0
        tor = torsions[k] if k < len(torsions) else ()
        out.append((counts[k] - rk - rk1, tor))
    return out


def cellular_homology(dims, facets):
    """Integral homology of a regular CW complex from its face poset.

    dims[c] is the dimension of cell c and facets[c] lists its codimension-
    one faces.  Incidence numbers are fixed by :func:`oriented_boundaries`,
    which raises a falsification certificate for a cell that is not a
    regular cell; the chain complex they define is then reduced by
    :func:`chain_homology`.  Returns [(betti_k, torsion_k)] like
    :func:`order_complex_homology`, whose order complex (the barycentric
    subdivision) has the same homology for a regular complex.
    """
    if not dims:
        return []
    return chain_homology(dims, oriented_boundaries(dims, facets))


def oriented_boundaries(dims, facets):
    """Boundary dicts {face: incidence} of a regular CW complex.

    Incidence numbers are fixed cell by cell, in increasing dimension: an
    edge gets {v0: -1, v1: +1}, and a cell of dimension >= 2 signs its
    facets by propagation across shared ridges, so that every ridge cancels
    in the boundary of the boundary.  That needs every ridge of the cell in
    exactly two of its facets (the diamond property), consistent signs, and
    connected facets; a cell violating any of these raises a falsification
    certificate naming it.
    """
    boundary = [None] * len(dims)
    for c in sorted(range(len(dims)), key=dims.__getitem__):
        d = dims[c]
        faces = facets[c]
        if any(dims[f] != d - 1 for f in faces):
            raise FalsificationError(
                "cell face is not of codimension one", {"cell": c, "dim": d})
        if d == 0:
            boundary[c] = {}
        elif d == 1:
            if len(faces) != 2:
                raise FalsificationError(
                    "edge does not have exactly two vertices",
                    {"cell": c, "faces": list(faces)})
            boundary[c] = {faces[0]: -1, faces[1]: 1}
        else:
            boundary[c] = _orient_facets(c, faces, boundary)
    return boundary


def chain_homology(dims, boundary):
    """Homology of the chain complex with one generator per cell, cell c in
    degree dims[c] with boundary {face: coefficient} `boundary[c]`
    (consumed: the dicts are reduced in place).

    The lowest-index vertex is dropped first, which leaves the relative
    complex of (X, vertex): its homology is the reduced homology of X, and
    1 is added back to b_0.  That needs the coefficients of each degree-1
    boundary to sum to 0, as an edge's v1 - v0 does.  The complex is then walked breadth-first from
    that vertex with a FIFO queue of the cells whose faces or cofaces
    changed, and every coreduction pair (a cell with exactly one face left,
    at a unit incidence) and collapse pair (a face with exactly one coface
    left, at a unit incidence) is removed (Kaczynski-Mrozek-Slusarek,
    "Homology computation by reduction of chain complexes", 1998;
    Mrozek-Batko, "Coreduction homology algorithm", DCG 41, 2009).  When
    the queue runs dry, one unit pair with fill-in is removed, from the cell
    with the fewest faces left (then the lowest index), and the walk
    resumes.  The cells left over go to :func:`sparse_rank_and_divisors`,
    so torsion still comes from the exact Smith form.

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
    queue = deque()
    _drop(dims.index(0), boundary, cofaces, queue)
    while True:
        while queue:
            c = queue.popleft()
            faces = boundary[c]
            if faces is None:
                continue
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
        pair = _fill_in_pivot(boundary, cofaces)
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


def _fill_in_pivot(boundary, cofaces):
    """A unit pair (face, cell) for an elimination with fill-in: the cell
    with the fewest faces left, then the lowest index, and its unit face
    with the fewest cofaces left, then the lowest index; None when no
    unit incidence is left."""
    best = None
    for c, faces in enumerate(boundary):
        if faces and (best is None or len(faces) < best[0]):
            units = [(len(cofaces[a]), a) for a, u in faces.items()
                     if u == 1 or u == -1]
            if units:
                best = (len(faces), min(units)[1], c)
    return None if best is None else best[1:]


def _orient_facets(cell, faces, boundary):
    """Facet signs of one cell with sum_F s_F * boundary(F) free of ridges."""
    if not faces:
        raise FalsificationError("cell has no facets", {"cell": cell})
    ridges = {}
    for f in faces:
        for ridge, sign in boundary[f].items():
            ridges.setdefault(ridge, []).append((f, sign))
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
        for ridge, sign in boundary[f].items():
            (f1, s1), (f2, s2) = ridges[ridge]
            g, g_sign = (f2, s2) if f1 == f else (f1, s1)
            want = -signs[f] * sign * g_sign
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
    return {f: signs[f] for f in faces}
