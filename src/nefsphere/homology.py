"""Integral homology of finite posets and regular CW complexes via sparse
elimination and Smith form.

Two usage modes:

* :func:`order_complex_homology` computes the homology of the order complex
  of a finite poset degree by degree, holding only two chain levels at a
  time.  A discriminant component is an upper set of Sigma's cells, not a
  subcomplex, so its homology is taken on this order complex.
* :func:`cellular_homology` computes the cellular homology of a regular CW
  complex (a polytopal complex, say) on its own cells, without subdividing.

Unit pivots are eliminated sparsely (no coefficient growth); whatever is
left goes through the dense Smith normal form for exact torsion.
"""

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
    one faces.  Incidence numbers are fixed cell by cell, in increasing
    dimension: an edge gets {v0: -1, v1: +1}, and a cell of dimension >= 2
    signs its facets by propagation across shared ridges, so that every
    ridge cancels in the boundary of the boundary.  That needs every ridge of
    the cell in exactly two of its facets (the diamond property), consistent
    signs, and connected facets; a cell violating any of these raises a
    falsification certificate naming it.  Returns [(betti_k, torsion_k)]
    like :func:`order_complex_homology`, whose order complex (the
    barycentric subdivision) has the same homology for a regular complex.
    """
    if not dims:
        return []
    top = max(dims)
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
    counts = [0] * (top + 1)
    for d in dims:
        counts[d] += 1
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 1)
    for k in range(1, top + 1):
        cols = [dict(boundary[c]) for c in range(len(dims)) if dims[c] == k]
        r, divs = sparse_rank_and_divisors(cols)
        ranks[k] = r
        torsions[k - 1] = tuple(v for v in divs if v > 1)
    return [(counts[k] - ranks[k] - ranks[k + 1], torsions[k])
            for k in range(top + 1)]


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
