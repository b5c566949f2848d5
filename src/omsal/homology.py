"""Integer simplicial homology via Smith normal form.

The workhorse is a sparse elimination over Z with unit-pivot preference;
invariant factors come from the eliminated diagonal after a gcd/lcm
normalization.  Boundary matrices are assembled from the full face list
of the complex; nothing is reduced beforehand.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import NamedTuple

from .errors import ConsistencyFailure


class SimplicialComplex:
    """Finite abstract simplicial complex on labelled vertices.

    Stored as facets (maximal faces); all faces are implied by downward
    closure.  Internally faces are frozensets of indices into the vertex
    label tuple.
    """

    def __init__(self, vertices, facets, _faces=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        fs = []
        for f in facets:
            fi = frozenset(f) if _faces is not None else frozenset(self._index[v] for v in f)
            if not fi:
                raise ValueError("empty facet")
            fs.append(fi)
        self.facets = tuple(fs)
        self._faces = None if _faces is None else set(_faces)

    def faces(self) -> set[frozenset[int]]:
        """Every face, as frozensets of vertex indices."""
        if self._faces is None:
            out: set[frozenset[int]] = set()
            for f in self.facets:
                _close_down(f, out)
            self._faces = out
        return self._faces

    def faces_by_dim(self) -> list[list[frozenset[int]]]:
        byd: dict[int, list] = {}
        for f in self.faces():
            byd.setdefault(len(f) - 1, []).append(f)
        top = max(byd, default=-1)
        return [sorted(byd.get(d, []), key=sorted) for d in range(top + 1)]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.faces_by_dim())

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(layer)
                   for d, layer in enumerate(self.faces_by_dim()))

    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def face_labels(self) -> set[frozenset]:
        return {frozenset(self.vertices[i] for i in f) for f in self.faces()}


def _close_down(face, out):
    stack = [face]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if len(f) > 1:
            for v in f:
                g = f - {v}
                if g not in out:
                    stack.append(g)


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

    Matrices are stored sparsely as row dicts {row: {col: value}} with
    exact int entries; dims fixes the shapes.  Vanishing of consecutive
    compositions is checked on construction.
    """

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        self.boundaries = []
        for b in boundaries:
            if isinstance(b, dict):
                rows = {i: {j: int(v) for j, v in r.items() if v} for i, r in b.items()}
                rows = {i: r for i, r in rows.items() if r}
            else:
                rows = {}
                for i, row in enumerate(b):
                    r = {j: int(v) for j, v in enumerate(row) if v}
                    if r:
                        rows[i] = r
            self.boundaries.append(rows)
        for k in range(1, len(self.boundaries)):
            if not _sparse_product_is_zero(self.boundaries[k - 1], self.boundaries[k]):
                raise ConsistencyFailure(
                    f"boundary_{k - 1} o boundary_{k} is not zero")

    @classmethod
    def from_faces(cls, faces_by_dim):
        """Simplicial boundary matrices from per-dimension face lists."""
        dims = tuple(len(layer) for layer in faces_by_dim)
        boundaries = [{}]
        for k in range(1, len(faces_by_dim)):
            idx = {f: r for r, f in enumerate(faces_by_dim[k - 1])}
            rows: dict[int, dict[int, int]] = {}
            for c, f in enumerate(faces_by_dim[k]):
                for pos, v in enumerate(sorted(f)):
                    r = idx[frozenset(f - {v})]
                    rows.setdefault(r, {})[c] = -1 if pos % 2 else 1
            boundaries.append(rows)
        return cls(dims, boundaries)

    def boundary_matrix(self, k):
        """Dense copy of boundary k, for debugging and text export."""
        m = self.dims[k - 1] if k else 0
        n = self.dims[k] if k < len(self.dims) else 0
        out = [[0] * n for _ in range(m)]
        for i, r in self.boundaries[k].items():
            for j, v in r.items():
                out[i][j] = v
        return out

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


def _sparse_product_is_zero(lower, upper):
    for r in lower.values():
        acc: dict[int, int] = {}
        for mid, v in r.items():
            for j, w in upper.get(mid, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


def homology(complex_: SimplicialComplex) -> list[HomologyGroup]:
    """Unreduced integer homology of a simplicial complex, per degree.

    The empty complex has no degrees; a single point has H_0 = Z.
    """
    return IntegerChainComplex.from_faces(complex_.faces_by_dim()).homology()


def betti_numbers(complex_: SimplicialComplex) -> tuple[int, ...]:
    return tuple(g.betti for g in homology(complex_))


def write_matrix_text(matrix, path):
    """Row-major plain text dump of a dense integer matrix."""
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(" ".join(str(v) for v in row) + "\n")
