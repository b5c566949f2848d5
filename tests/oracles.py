"""Independent brute-force oracles for the exact engines.

Deliberately naive re-derivations on different code paths: sign
patterns are plain strings, the feasibility test is longhand
Fourier-Motzkin over Fraction, path counting is a layered BFS sum
over a string-keyed flip graph, the Smith normal form is the dense
textbook reduction that also returns its unimodular transforms, the
covector closure composes every vector with every other, both ways, and
the cocircuits of an arrangement are the sign vectors of the kernel
lines of its corank-1 normal subsets, found by Fraction RREF, the
MH tables ask every (context, vertex, subcell) question afresh, and
the matrix text dump writes a dense copy of each boundary entry by entry.

The simplicial reference for Salvetti homology lives here too: a
SimplicialComplex keeps its facets and closes them downward into faces,
and order_complex takes the maximal chains of a poset as its facets.
Its homology is the check on the cellular route of the package, which
assembles boundaries from covers; the two share only the Smith engine
of IntegerChainComplex.

Nothing here imports from the package beyond the sign-vector primitives
that closure composes, the per-cell MH primitives the unshared tables
call, the chain complex the simplicial reference feeds, and test
parametrization done by the callers.
"""

from fractions import Fraction
from itertools import combinations, product

from omsal.homology import HomologyGroup, IntegerChainComplex
from omsal.mh import MHCheck, _lower_constraints, _omega_pair
from omsal.signs import SignVector, compose


def sign_pattern_feasible(normals, pattern):
    """Is {x : sign(v_i . x) = pattern_i for all i} nonempty over Q^l?

    Fourier-Motzkin elimination on the homogeneous system.  At each
    variable an equality containing it is substituted out if one exists;
    otherwise positive and negative inequality rows are combined
    pairwise.  The system is homogeneous throughout, so at the end a
    surviving strict row means exactly 0 > 0.
    """
    cons = []  # (is_eq, coeffs); an inequality row asserts coeffs . x > 0
    for v, s in zip(normals, pattern):
        row = [Fraction(a) for a in v]
        if s == "0":
            cons.append((True, row))
        elif s == "+":
            cons.append((False, row))
        elif s == "-":
            cons.append((False, [-a for a in row]))
        else:
            raise ValueError(f"bad sign char {s!r}")
    nvar = len(cons[0][1])
    for j in range(nvar):
        eq = next((c for is_eq, c in cons if is_eq and c[j]), None)
        if eq is not None:
            new = []
            for is_eq, c in cons:
                if c is eq:
                    continue
                if c[j]:
                    scale = c[j] / eq[j]
                    c = [a - scale * b for a, b in zip(c, eq)]
                new.append((is_eq, c))
            cons = new
            continue
        pos = [c for is_eq, c in cons if not is_eq and c[j] > 0]
        neg = [c for is_eq, c in cons if not is_eq and c[j] < 0]
        keep = [(is_eq, c) for is_eq, c in cons if not c[j]]
        for p in neg:
            for q in pos:
                keep.append((False, [a * q[j] - b * p[j]
                                     for a, b in zip(p, q)]))
        cons = keep
    return not any(not is_eq for is_eq, _ in cons)


def enumerate_covector_strings(normals):
    """All feasible sign patterns over the normals, sorted."""
    n = len(normals)
    out = []
    for pat in product("+-0", repeat=n):
        s = "".join(pat)
        if sign_pattern_feasible(normals, s):
            out.append(s)
    return sorted(out)


def tope_string_distance(a, b):
    """Positions where two full-support sign strings disagree."""
    return sum(1 for x, y in zip(a, b) if x != y)


def flip_graph_neighbors(tope_strings):
    """u ~ v when the strings differ in exactly one position."""
    verts = sorted(tope_strings)
    return {u: [v for v in verts if tope_string_distance(u, v) == 1]
            for u in verts}


def geodesic_counts_from(nbrs, a):
    """(distance, path count) to every vertex reachable from a.

    Layered BFS; ways[v] sums ways over all predecessors one layer
    closer.  A walk of length d(a, b) flips each disagreeing position
    exactly once and nothing else, so geodesics are exactly the minimal
    positive paths.
    """
    dist = {a: 0}
    ways = {a: 1}
    frontier = [a]
    while frontier:
        fresh = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    ways[v] = 0
                    fresh.append(v)
        for u in frontier:
            for v in nbrs[u]:
                if dist[v] == dist[u] + 1:
                    ways[v] += ways[u]
        frontier = fresh
    return dist, ways


def count_geodesics(tope_strings, a, b):
    """(distance, number of minimal paths) a -> b in the flip graph."""
    dist, ways = geodesic_counts_from(flip_graph_neighbors(tope_strings), a)
    if b not in dist:
        return None, 0
    return dist[b], ways[b]


def whitney_numbers(flats):
    """Unsigned Whitney numbers of the first kind of a flat family.

    Mobius recursion mu(0, F) = -sum over proper subflats, heights as
    longest chains; w_k collects |mu| over flats of height k.  No
    broken-circuit counting anywhere, so this cross-checks the nbc
    route through an entirely different theorem.
    """
    flats = sorted({frozenset(f) for f in flats}, key=lambda f: (len(f), sorted(f)))
    mu, height = {}, {}
    for f in flats:
        below = [g for g in flats if g < f]
        mu[f] = -sum(mu[g] for g in below) if below else 1
        height[f] = 1 + max((height[g] for g in below), default=-1)
    w = [0] * (max(height.values()) + 1)
    for f in flats:
        w[height[f]] += abs(mu[f])
    return tuple(w)


def smith_normal_form_with_transforms(matrix):
    """Classical dense SNF returning (D, P, Q) with P @ A @ Q = D.

    Slow but self-certifying; tests validate it by re-multiplication on
    matrices up to 50x50 and check it against the sparse engine.  P and
    Q are unimodular by construction (elementary operations only).
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(dst, src, k):
        for t in range(n):
            a[dst][t] += k * a[src][t]
        for t in range(m):
            p[dst][t] += k * p[src][t]

    def col_op(dst, src, k):
        for t in range(m):
            a[t][dst] += k * a[t][src]
        for t in range(n):
            q[t][dst] += k * q[t][src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for t in range(m):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(n):
            q[t][i], q[t][j] = q[t][j], q[t][i]

    t = 0
    while t < min(m, n):
        pivot, best = None, None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            v = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, -(a[i][t] // v))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, -(a[t][j] // v))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            v = a[t][t]
            offender = next((i for i in range(t + 1, m)
                             for j in range(t + 1, n) if a[i][j] % v), None)
            if offender is None:
                break
            row_op(t, offender, 1)
        if a[t][t] < 0:
            for tt in range(n):
                a[t][tt] = -a[t][tt]
            for tt in range(m):
                p[t][tt] = -p[t][tt]
        t += 1
    return a, p, q


class SimplicialComplex:
    """Finite abstract simplicial complex on labelled vertices.

    Stored as facets (maximal faces); all faces are implied by downward
    closure.  Internally faces are frozensets of indices into the vertex
    label tuple.
    """

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        fs = []
        for f in facets:
            fi = frozenset(self._index[v] for v in f)
            if not fi:
                raise ValueError("empty facet")
            fs.append(fi)
        self.facets = tuple(fs)
        self._faces = None

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

    def chain_complex(self) -> IntegerChainComplex:
        """Simplicial boundaries, rows and columns in faces_by_dim order."""
        return IntegerChainComplex.from_faces(
            [[tuple(sorted(f)) for f in layer] for layer in self.faces_by_dim()])

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


def homology(complex_: SimplicialComplex) -> list[HomologyGroup]:
    """Unreduced integer homology of a simplicial complex, per degree.

    The empty complex has no degrees; a single point has H_0 = Z.
    """
    return complex_.chain_complex().homology()


def betti_numbers(complex_: SimplicialComplex) -> tuple[int, ...]:
    return tuple(g.betti for g in homology(complex_))


def order_complex(poset) -> SimplicialComplex:
    """The simplicial complex of chains of a poset, closed down from its
    maximal chains."""
    facets = [[poset.elements[i] for i in chain]
              for chain, mx in poset.iter_chains() if mx]
    return SimplicialComplex(poset.elements, facets)


def dense_boundary_matrix(chain, k):
    """Dense copy of boundary k, for debugging and text export."""
    m = chain.dims[k - 1] if k else 0
    n = chain.dims[k] if k < len(chain.dims) else 0
    out = [[0] * n for _ in range(m)]
    for i, r in chain.boundaries[k].items():
        for j, v in r.items():
            out[i][j] = v
    return out


def write_dense_matrix_text(matrix, path):
    """Row-major plain text dump of a dense integer matrix."""
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(" ".join(str(v) for v in row) + "\n")


def two_sided_closure(cc):
    """{0} and the cocircuits, closed under composition of every new
    vector with every known one, both ways round."""
    cc = set(cc)
    n = next(iter(cc)).n
    covs = {SignVector.zero(n)} | cc
    frontier = list(covs)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(covs):
                for z in (compose(x, y), compose(y, x)):
                    if z not in covs:
                        covs.add(z)
                        fresh.append(z)
        frontier = fresh
    return covs


def _rref(rows, ncols):
    """Reduced row echelon form over Fraction; returns (matrix, pivot cols)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows, ncols) -> int:
    return len(_rref(rows, ncols)[1])


def kernel_basis(rows, ncols):
    """Basis of {x : rows @ x = 0}, exact rational."""
    m, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(v)
    return basis


def sign_vector_at(arr, point) -> SignVector:
    """The sign vector of a point: sign(normal . point) per element."""
    sigs = []
    for v in arr.normals:
        s = sum(a * b for a, b in zip(v, point))
        sigs.append(0 if s == 0 else (1 if s > 0 else -1))
    return SignVector.from_signs(sigs)


def kernel_line_cocircuits(arr):
    """The +- pairs of sign vectors of the kernel lines of the corank-1
    subsets of an essential arrangement's normals."""
    cocircuits = set()
    for subset in combinations(range(arr.n), arr.l - 1):
        sub = [arr.normals[i] for i in subset]
        if matrix_rank(sub, arr.l) != arr.l - 1:
            continue
        (p,) = kernel_basis(sub, arr.l)
        x = sign_vector_at(arr, p)
        cocircuits.add(x)
        cocircuits.add(-x)
    return cocircuits


def global_tables_unshared(a):
    """mh._global_tables with one _omega_pair call per (vertex, cell)."""
    q = a.q
    labels = q.vertex_labels()
    lo_tab = {}
    hi_tab = {}
    for v in range(len(labels)):
        for ci in range(len(q.poset.elements)):
            lo, hi = _omega_pair(v, q._cell_vslots[ci], a.global_get)
            if hi is None:
                return (MHCheck(False, (labels[v], q.poset.elements[ci], 3)),
                        None, None)
            lo_tab[(v, ci)] = lo
            hi_tab[(v, ci)] = hi
    return MHCheck(True, None), lo_tab, hi_tab


def local_tables_unshared(a):
    """mh._local_tables with one _omega_pair call per (context, vertex,
    subcell) triple, however many contexts share a local table."""
    q = a.q
    labels = q.vertex_labels()
    elements = q.poset.elements
    lo_inter = {}
    hi_seen = {}
    for ctx in range(len(elements)):
        table = a.local_dist(ctx)
        dget = lambda x, y: table[x].get(y)
        subcells = list(q.poset.iter_mask(q.poset.down_mask(ctx)))
        for v in q._cell_vslots[ctx]:
            for k in subcells:
                lo, hi = _omega_pair(v, q._cell_vslots[k], dget)
                if hi is None:
                    return (MHCheck(False,
                                    ("local", elements[ctx], labels[v],
                                     elements[k], 3)),
                            None, None)
                key = (v, k)
                seen = hi_seen.get(key)
                if seen is None:
                    hi_seen[key] = (hi, ctx)
                elif seen[0] != hi:
                    witness = ("upper", labels[v], elements[k],
                               (elements[seen[1]], labels[seen[0]]),
                               (elements[ctx], labels[hi]))
                    return MHCheck(False, witness), None, None
                cur = lo_inter.get(key)
                if cur is None:
                    lo_inter[key] = lo
                elif not (cur & lo):
                    witness = ("lower", labels[v], elements[k],
                               _lower_constraints(a, v, k))
                    return MHCheck(False, witness), None, None
                else:
                    lo_inter[key] = cur & lo
    return MHCheck(True, None), lo_inter, hi_seen
