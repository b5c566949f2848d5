"""Integer homology of regular CW complexes via Smith normal form.

The workhorse is a sparse elimination over Z: one sweep over the
columns clears each with a unit pivot from its shortest row, and a plain
dense diagonalization takes whatever has no unit when its column is
visited.  Invariant factors come from the eliminated diagonal after a
gcd/lcm normalization.  Cellular boundaries of a regular CW complex are
assembled from its cover pairs and grades alone: each incidence number
is +-1 and, once one sign per cell is fixed, the diamond property of the
cell's boundary forces the rest.  Simplicial boundaries are assembled
from per-dimension lists of faces, given as index tuples in one
vertex order; the matrix dump writes those of a poset's order complex,
whose faces are its chains bottom up.  Nothing is reduced beforehand,
and the constructor checks that consecutive boundaries compose to zero.
"""

from __future__ import annotations

import os
from math import gcd
from typing import NamedTuple

from .errors import ConsistencyFailure, EnumerationLimitExceeded

DUMP_BYTES_CAP = 256 << 20  # 256 MiB


# -- Smith normal form ------------------------------------------------------


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
    The columns are swept once in index order, and each is cleared by a
    unit pivot from its shortest row (the lowest index on ties).  What
    the sweep leaves goes to _dense_diagonalize: the columns with no
    unit when visited, and units that fill-in makes in columns already
    passed.  Explicit zero entries and empty rows are allowed: they are
    never pivots, a row update drops the zeros it meets, and the dense
    stage reads any left as 0.
    """
    cols: dict[int, set] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    diag = []
    for j in sorted(cols):
        units = [i for i in cols[j] if abs(rows[i][j]) == 1]
        if not units:
            continue
        i = min(units, key=lambda u: (len(rows[u]), u))
        prow = rows.pop(i)
        v = prow[j]
        # The implicit column ops clearing the pivot row are unimodular
        # because the pivot is a unit and alone in its column once the
        # other rows are cleared.
        for j2 in prow:
            cols[j2].discard(i)
        for i2 in list(cols[j]):
            r2 = rows[i2]
            factor = r2[j] * v
            for j2, vj in prow.items():
                nv = r2.get(j2, 0) - factor * vj
                if nv:
                    r2[j2] = nv
                    cols[j2].add(i2)
                else:
                    r2.pop(j2, None)
                    cols[j2].discard(i2)
            if not r2:
                del rows[i2]
        diag.append(v)
    return diag + _dense_diagonalize(rows)


def _dense_diagonalize(rows):
    """Pivot values of a plain dense diagonalization of sparse rows.

    Each step takes the smallest nonzero entry and reduces its row and
    column by division.  Once no remainder is left the entry stands
    alone and is struck out; otherwise a smaller remainder is the next
    pivot.
    """
    cs = sorted({j for r in rows.values() for j in r})
    a = [[r.get(j, 0) for j in cs] for _, r in sorted(rows.items())]
    diag = []
    while True:
        nz = [(abs(v), i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v]
        if not nz:
            return diag
        _, p, q = min(nz)
        prow, v = a[p], a[p][q]
        for i, r in enumerate(a):
            if i != p and r[q]:
                k = r[q] // v
                a[i] = [x - k * y for x, y in zip(r, prow)]
        for j, x in enumerate(prow):
            if j != q and x:
                k = x // v
                for r in a:
                    r[j] -= k * r[q]
        if sum(map(bool, prow)) == 1 and sum(1 for r in a if r[q]) == 1:
            diag.append(v)
            del a[p]
            for r in a:
                del r[q]


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

    Each boundary is a sparse row dict {row: {col: value}} whose entries
    are nonzero ints and whose rows are nonempty; the rows are stored as
    given, with no copy.  from_faces and from_cw_covers build them so;
    an explicit zero or an empty row changes neither homology() nor a
    dump.  dims fixes the shapes.  Vanishing of consecutive compositions
    is checked on construction.
    """

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        self.boundaries = list(boundaries)
        for k in range(1, len(self.boundaries)):
            if not _sparse_product_is_zero(self.boundaries[k - 1], self.boundaries[k]):
                raise ConsistencyFailure(
                    f"boundary_{k - 1} o boundary_{k} is not zero")

    @classmethod
    def from_faces(cls, faces_by_dim):
        """Simplicial boundary matrices from per-dimension face lists.

        faces_by_dim[k] lists the k-faces as tuples of vertex indices, in
        the order of the rows and columns.  Every tuple lists its vertices
        in one order shared by all faces (a chain bottom up, say), so
        dropping a position gives a facet as faces_by_dim[k - 1] lists
        it; the facet that drops position p gets the sign (-1)^p.
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
    every entry is written, zeros included, one row per line and one
    line per write.  Entry (i, j) sits at offset 2j of the all-zero row,
    so a nonzero row is that row with its entries spliced in, in column
    order.  A row or column outside the shape raises ConsistencyFailure:
    a row before the file is opened, a column when its row is reached.
    """
    m, n = shape
    for i, r in rows.items():
        if not 0 <= i < m:
            raise ConsistencyFailure(
                f"row {i} (columns {sorted(r)}) lies outside the shape ({m}, {n})")
    zero = " ".join(["0"] * n) + "\n"
    with open(path, "w") as fh:
        for i in range(m):
            r = rows.get(i)
            if not r:
                fh.write(zero)
                continue
            cols = sorted(r)
            if cols[0] < 0 or cols[-1] >= n:
                j = cols[0] if cols[0] < 0 else cols[-1]
                raise ConsistencyFailure(
                    f"column {j} of row {i} lies outside the shape ({m}, {n})")
            parts = []
            at = 0
            for j in cols:
                parts.append(zero[at:2 * j])
                parts.append(str(r[j]))
                at = 2 * j + 1
            parts.append(zero[at:])
            fh.write("".join(parts))


def write_order_complex_dump(poset, out_dir):
    """Write boundary_k.txt of the order complex of poset into out_dir.

    The k-faces are the chains of k + 1 elements, listed bottom up.  A
    dump over DUMP_BYTES_CAP is refused with EnumerationLimitExceeded
    before any chain is listed or any file is opened: boundary k is a
    dense text matrix of at least two bytes per entry, so the sum of
    2 * dims[k-1] * dims[k] over the chain counts bounds it from below.
    """
    dims = poset.chain_counts()
    size = sum(2 * a * b for a, b in zip(dims, dims[1:]))
    if size > DUMP_BYTES_CAP:
        raise EnumerationLimitExceeded(
            f"the matrix dump would write at least {size} bytes, over the "
            f"cap of {DUMP_BYTES_CAP}")
    chain = IntegerChainComplex.from_faces(poset.chain_layers())
    os.makedirs(out_dir, exist_ok=True)
    for k in range(1, len(chain.dims)):
        write_matrix_text(chain.boundaries[k],
                          os.path.join(out_dir, f"boundary_{k}.txt"),
                          chain.dims[k - 1:k + 1])
