"""Integer homology of regular CW complexes via Smith normal form.

The workhorse is a sparse elimination over Z with unit-pivot preference;
invariant factors come from the eliminated diagonal after a gcd/lcm
normalization.  Cellular boundaries of a regular CW complex are
assembled from its cover pairs and grades alone: each incidence number
is +-1 and, once one sign per cell is fixed, the diamond property of the
cell's boundary forces the rest.  Simplicial boundaries are assembled
from per-dimension lists of faces, given as increasing index tuples
(the chains of a poset, for the matrix dump of the CLI).  Nothing is
reduced beforehand, and the constructor checks that consecutive
boundaries compose to zero.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import NamedTuple

from .errors import ConsistencyFailure


# -- Smith normal form ------------------------------------------------------


def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix.

    Accepts a dense list of rows.  Returns (factors, rank) where factors
    is the tuple d_1 | d_2 | ... of positive invariant factors; rank is
    the number of nonzero factors.  Empty matrices give ((), 0).
    """
    rows = {}
    for i, row in enumerate(matrix):
        r = {j: int(v) for j, v in enumerate(row) if v}
        if r:
            rows[i] = r
    factors = _normalize_factors(_sparse_eliminate(rows))
    return factors, len(factors)


def _normalize_factors(diag):
    # Units divide every factor, so only the other pivots need the
    # pairwise gcd/lcm passes; the units lead the sorted result.
    units = sum(1 for d in diag if abs(d) == 1)
    ds = sorted(abs(d) for d in diag if abs(d) != 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return (1,) * units + tuple(ds)


def _sparse_eliminate(rows):
    """Diagonalize a sparse integer matrix in place; return pivot values.

    rows maps row index -> {col: value}, mutated destructively.  Only
    unimodular row and column operations are used, so the invariant
    factors of the original matrix are those of the returned diagonal.
    """
    cols: dict[int, set] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def score(i, j, v):
        # Markowitz fill-in count; non-unit pivots only as a last resort.
        fill = (len(rows[i]) - 1) * (len(cols[j]) - 1)
        return fill if abs(v) == 1 else (1 << 40) + abs(v) * 1024 + fill

    diag = []

    def eliminate(i, j):
        # Pivot column must already be clear unless the pivot is a unit.
        v = rows[i][j]
        prow = rows[i]
        for i2 in list(cols[j]):
            if i2 == i:
                continue
            factor = rows[i2][j] * v
            r2 = rows[i2]
            for j2, vj in prow.items():
                nv = r2.get(j2, 0) - factor * vj
                if nv:
                    r2[j2] = nv
                    cols.setdefault(j2, set()).add(i2)
                    if abs(nv) == 1:
                        heapq.heappush(heap, (score(i2, j2, nv), i2, j2))
                else:
                    if j2 in r2:
                        del r2[j2]
                        cols[j2].discard(i2)
            if not r2:
                del rows[i2]
        # The implicit column ops clearing the pivot row are unimodular
        # because the pivot is now alone in its column and divides its row.
        for j2 in prow:
            cols[j2].discard(i)
        del rows[i]
        diag.append(v)

    def reduce_nonunit(i, j):
        # Shrink the pivot until it divides its row and column, then
        # clear both so eliminate() sees an isolated entry.
        while True:
            v = rows[i][j]
            moved = False
            for i2 in list(cols[j]):
                if i2 == i:
                    continue
                q = rows[i2][j] // v
                if q:
                    _row_addmul(rows, cols, i2, i, -q)
                rem = rows[i2].get(j, 0) if i2 in rows else 0
                if rem:
                    i, moved = i2, True
                    break
            if moved:
                continue
            r = rows[i]
            target = next((j2 for j2, c in r.items() if j2 != j and c % v), None)
            if target is None:
                for j2 in [c for c in r if c != j]:
                    _col_addmul(rows, cols, j2, j, -(r[j2] // v))
                return i, j
            _col_addmul(rows, cols, target, j, -(r[target] // v))
            j = target

    heap = [(score(i, j, v), i, j) for i, r in rows.items() for j, v in r.items()]
    heapq.heapify(heap)
    while True:
        while heap:
            s, i, j = heapq.heappop(heap)
            if i not in rows or j not in rows[i]:
                continue
            v = rows[i][j]
            cur = score(i, j, v)
            if cur > s and heap and heap[0][0] < cur:
                heapq.heappush(heap, (cur, i, j))
                continue
            if abs(v) != 1:
                i, j = reduce_nonunit(i, j)
            eliminate(i, j)
        if not rows:
            return diag
        # Fill-in from non-unit reduction never enters the heap; resweep.
        heap = [(score(i, j, v), i, j) for i, r in rows.items() for j, v in r.items()]
        heapq.heapify(heap)


def _row_addmul(rows, cols, dst, src, k):
    rdst = rows[dst]
    for j, v in rows[src].items():
        nv = rdst.get(j, 0) + k * v
        if nv:
            rdst[j] = nv
            cols[j].add(dst)
        elif j in rdst:
            del rdst[j]
            cols[j].discard(dst)
    if not rdst:
        del rows[dst]


def _col_addmul(rows, cols, dst, src, k):
    for i in list(cols.get(src, ())):
        v = rows[i][src]
        nv = rows[i].get(dst, 0) + k * v
        if nv:
            rows[i][dst] = nv
            cols.setdefault(dst, set()).add(i)
        else:
            rows[i].pop(dst, None)
            cols[dst].discard(i)


# -- chain complexes and homology ------------------------------------------


class HomologyGroup(NamedTuple):
    betti: int
    torsion: tuple[int, ...] = ()

    def __str__(self):
        parts = []
        if self.betti:
            parts.append(f"Z^{self.betti}" if self.betti > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class IntegerChainComplex:
    """Boundaries over Z; boundary k maps degree k to degree k-1.

    Each boundary is given and stored sparsely as row dicts
    {row: {col: value}} with exact int entries; dims fixes the shapes.
    Vanishing of consecutive compositions is checked on construction.
    """

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        self.boundaries = []
        for b in boundaries:
            rows = {i: {j: int(v) for j, v in r.items() if v} for i, r in b.items()}
            self.boundaries.append({i: r for i, r in rows.items() if r})
        for k in range(1, len(self.boundaries)):
            if not _sparse_product_is_zero(self.boundaries[k - 1], self.boundaries[k]):
                raise ConsistencyFailure(
                    f"boundary_{k - 1} o boundary_{k} is not zero")

    @classmethod
    def from_faces(cls, faces_by_dim):
        """Simplicial boundary matrices from per-dimension face lists.

        faces_by_dim[k] lists the k-faces as increasing tuples of vertex
        indices, in the order of the rows and columns; the facet that
        drops the vertex at position p gets the sign (-1)^p.
        """
        dims = tuple(len(layer) for layer in faces_by_dim)
        boundaries = [{}]
        for k in range(1, len(faces_by_dim)):
            idx = {f: r for r, f in enumerate(faces_by_dim[k - 1])}
            rows: dict[int, dict[int, int]] = {}
            for c, f in enumerate(faces_by_dim[k]):
                for pos in range(len(f)):
                    r = idx[f[:pos] + f[pos + 1:]]
                    rows.setdefault(r, {})[c] = -1 if pos % 2 else 1
            boundaries.append(rows)
        return cls(dims, boundaries)

    @classmethod
    def from_cw_covers(cls, grades, covers):
        """Cellular boundary matrices of a regular CW complex.

        grades[i] is the dimension of cell i and covers holds the index
        pairs (f, c) with f a facet of c.  The cells of one dimension are
        numbered in index order.  A 1-cell gets -1 on its lower-indexed
        endpoint and +1 on the other.  A cell c of dimension >= 2 gets +1
        on its first facet; every codim-2 face e of c lies in exactly two
        facets f and g (the diamond property), which forces
        [c:g] = -[c:f][f:e][g:e].  ConsistencyFailure is raised when a
        cover does not raise the dimension by one, a face lies in other
        than two facets, a facet is not reached, or two routes give a
        facet different signs.
        """
        grades = list(grades)
        dims = [0] * (max(grades, default=-1) + 1)
        pos = []
        for d in grades:
            pos.append(dims[d])
            dims[d] += 1
        facets = [set() for _ in grades]
        for f, c in covers:
            if grades[c] != grades[f] + 1:
                raise ConsistencyFailure(
                    f"cell {f} (dim {grades[f]}) is not a facet of "
                    f"cell {c} (dim {grades[c]})")
            facets[c].add(f)
        inc = [{} for _ in grades]  # cell -> {facet: incidence number}
        boundaries = [{} for _ in dims]
        for c in sorted(range(len(grades)), key=grades.__getitem__):
            fs = sorted(facets[c])
            if grades[c] == 1:
                if len(fs) != 2:
                    raise ConsistencyFailure(
                        f"1-cell {c} has {len(fs)} endpoints")
                inc[c] = {fs[0]: -1, fs[1]: 1}
            elif grades[c] >= 2:
                inc[c] = _diamond_signs(c, fs, inc)
            rows = boundaries[grades[c]]
            for f, s in inc[c].items():
                rows.setdefault(pos[f], {})[pos[c]] = s
        return cls(dims, boundaries)

    def homology(self) -> list[HomologyGroup]:
        top = len(self.dims) - 1
        ranks = [0] * (top + 2)
        factors = [()] * (top + 2)
        for k in range(1, top + 1):
            copy = {i: dict(r) for i, r in self.boundaries[k].items()}
            f = _normalize_factors(_sparse_eliminate(copy))
            ranks[k], factors[k] = len(f), f
        return [HomologyGroup(self.dims[k] - ranks[k] - ranks[k + 1],
                              tuple(d for d in factors[k + 1] if d > 1))
                for k in range(top + 1)]


def _diamond_signs(c, fs, inc):
    """Incidence numbers of cell c on its sorted facets fs.

    inc holds the incidence numbers of every facet on its own facets.
    """
    if not fs:
        raise ConsistencyFailure(f"cell {c} has no facets")
    around: dict[int, list[int]] = {}
    for f in fs:
        for e in inc[f]:
            around.setdefault(e, []).append(f)
    for e, pair in around.items():
        if len(pair) != 2:
            raise ConsistencyFailure(
                f"face {e} lies in {len(pair)} facets of cell {c}")
    sign = {fs[0]: 1}
    stack = [fs[0]]
    while stack:
        f = stack.pop()
        for e, s in inc[f].items():
            a, b = around[e]
            g = b if a == f else a
            want = -sign[f] * s * inc[g][e]
            if g not in sign:
                sign[g] = want
                stack.append(g)
            elif sign[g] != want:
                raise ConsistencyFailure(
                    f"facets {f} and {g} of cell {c} meet in face {e} "
                    f"with inconsistent orientations")
    if len(sign) != len(fs):
        raise ConsistencyFailure(
            f"the facets of cell {c} are not connected through their faces")
    return sign


def _sparse_product_is_zero(lower, upper):
    for r in lower.values():
        acc: dict[int, int] = {}
        for mid, v in r.items():
            for j, w in upper.get(mid, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


def write_matrix_text(rows, path, shape):
    """Row-major plain text dump of a sparse integer matrix.

    rows maps row index -> {col: value} and shape is (rows, columns);
    every entry is written, zeros included, one row per line.
    """
    m, n = shape
    zero = " ".join(["0"] * n) + "\n"
    with open(path, "w") as fh:
        for i in range(m):
            r = rows.get(i)
            if not r:
                fh.write(zero)
                continue
            line = ["0"] * n
            for j, v in r.items():
                line[j] = str(v)
            fh.write(" ".join(line) + "\n")
