"""Independent brute-force oracles for the exact engines.

Deliberately naive re-derivations on different code paths: sign
patterns are plain strings, the feasibility test is longhand
Fourier-Motzkin over Fraction, path counting is a layered BFS sum
over a string-keyed flip graph, the Smith normal form is the dense
textbook reduction that also returns its unimodular transforms, simple
matroids are tested for loops and parallel pairs on every covector
rather than by the parallel-element check of the paths layer, the
covector closure composes every vector with every other, both ways, and
the cocircuits of an arrangement are the sign vectors of the kernel
lines of its corank-1 normal subsets, found by Fraction RREF, the
MH check takes the full route with no early verdict, asking every
(context, vertex, subcell) question afresh, one pair at a time with an
additivity test per vertex (_omega_pair), under hop counts from a dict
BFS over each closed cell, its edge ends read off the poset, and over
the whole 1-skeleton, and the matrix
text dump writes a dense copy of each boundary entry by entry.

The relation scan build_poset is the reference for every poset the
package closes from covers: it tests leq on every ordered pair and
fills the up-masks, the down-masks and the pairs above and below each
element from that one scan.

The simplicial reference for Salvetti homology lives here too: a
SimplicialComplex keeps its facets and closes them downward into faces,
and order_complex takes the maximal chains of a poset as its facets:
maximal_chains walks the paths of covers() from an element with no
cover below to one with no cover above, and reads nothing from the
package's chain counter or chain lister.
Its homology is the check on the cellular route of the package, which
assembles boundaries from covers; the two share only the Smith engine
of IntegerChainComplex.  max_cliques, a Bron-Kerbosch enumeration over
bitmask adjacency, lists the facets of a clique complex, so the tests
can compare the nerve of the Salvetti open-star cover with the order
complex facet by facet.

smith_normal_form is not an oracle but a dense-list adapter over the
package's sparse elimination, so tests can state invariant factors of
small literal matrices.

Small references the package itself never reads close the file:
element_set and separation_set spell masks out as sets of elements,
crossing_element and crossed name the element each step of a positive
path crosses (refusing a step across more or fewer than one), flats
takes the zero sets of the covectors, is_graded compares heights across
covers, f_vector counts the cells of each dimension of a CW poset,
closed_cell and edge_endpoints read a cell's closure off its
down-mask, tope_graph_distances takes tope distance by BFS over the tope
graph, and skeleton_is_bipartite two-colours the 1-skeleton of a CW
poset.

Nothing here imports from the package beyond the sign-vector primitives
that closure composes, the CW poset and report types the unshared
check reads and returns, the chain complex the simplicial reference
feeds and the sparse elimination the dense adapter wraps, the oriented
matroid class the simplicity test reads, the poset class the relation
scan fills and its bit iterator, the tope adjacency and the separation
mask the small references read, the consistency error a bad crossing
raises, and test parametrization done by the callers.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product

from omsal.errors import ConsistencyFailure
from omsal.homology import (HomologyGroup, IntegerChainComplex,
                            _normalize_factors, _sparse_eliminate)
from omsal.matroid import OrientedMatroid
from omsal.mh import CWPoset, MHCheck, MHReport
from omsal.paths import skeleton_adjacency
from omsal.posets import FinitePoset, iter_bits
from omsal.signs import SignVector, compose, separation_mask


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


def maximal_chains(poset) -> list[tuple[int, ...]]:
    """Every maximal chain of a poset as its indices bottom up: the paths
    along covers() from an element with no cover below it to one with
    no cover above it."""
    up: dict[int, list[int]] = {}
    for i, j in poset.covers():
        up.setdefault(i, []).append(j)
    covered = {j for _, j in poset.covers()}
    out = []
    stack = [(i,) for i in range(len(poset)) if i not in covered]
    while stack:
        path = stack.pop()
        if path[-1] in up:
            stack.extend(path + (j,) for j in up[path[-1]])
        else:
            out.append(path)
    return sorted(out)


def order_complex(poset) -> SimplicialComplex:
    """The simplicial complex of chains of a poset, closed down from its
    maximal chains."""
    facets = [[poset.elements[i] for i in chain] for chain in maximal_chains(poset)]
    return SimplicialComplex(poset.elements, facets)


def max_cliques(adj, n):
    """Bron-Kerbosch with pivoting; adjacency as bitmasks."""
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        # pivot: the lowest vertex of p | x with the most neighbours in p
        best = max(iter_bits(p | x), key=lambda v: (p & adj[v]).bit_count())
        for v in iter_bits(p & ~adj[best]):
            low = 1 << v
            bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
    if n:
        bk(0, (1 << n) - 1, 0)
    return out


def build_poset(elements, leq) -> FinitePoset:
    """The FinitePoset of a partial order leq(a, b), by a relation scan.

    leq is tested on every ordered pair of distinct elements and closed
    reflexively; it must already be antisymmetric and transitive, since
    nothing here checks either.  Every comparable pair stands in for the
    generating pairs, above and below each element, and the down-masks
    come from the same scan, not from the up-masks.
    """
    elements = list(elements)
    n = len(elements)
    above, below = [0] * n, [0] * n
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if i != j and leq(x, y):
                above[i] |= 1 << j
                below[j] |= 1 << i
    return FinitePoset(elements, [a | 1 << i for i, a in enumerate(above)],
                       [b | 1 << i for i, b in enumerate(below)], above, below)


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


def is_simple(m: OrientedMatroid):
    """(True, ()) iff no loops and no (anti)parallel element pairs.

    Offenders are returned 1-based: loops, then every element of each
    parallel pair.
    """
    covs = m.sorted_covectors()
    seen = 0
    for x in covs:
        seen |= x.support_mask
    bad = {e + 1 for e in range(m.n) if not (seen >> e) & 1}
    for e in range(m.n):
        for f in range(e + 1, m.n):
            same = all(((x.plus >> e) & 1) == ((x.plus >> f) & 1)
                       and ((x.minus >> e) & 1) == ((x.minus >> f) & 1)
                       for x in covs)
            anti = all(((x.plus >> e) & 1) == ((x.minus >> f) & 1)
                       and ((x.minus >> e) & 1) == ((x.plus >> f) & 1)
                       for x in covs)
            if same or anti:
                bad.update((e + 1, f + 1))
    return not bad, tuple(sorted(bad))


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


def _omega_pair(vslot, kslots, rows):
    """Nearest candidates and the forced farthest vertex of one cell.

    Returns (lo, hi): lo is the frozenset of distance minimizers in
    kslots seen from vslot, hi the unique additive farthest slot or None
    when no vertex satisfies the additivity clause (including the case
    of a vertex of kslots not reached from vslot).
    """
    if len(kslots) == 1:
        return frozenset(kslots), kslots[0]
    dv = [rows[vslot][u] for u in kslots]
    mn = min(dv)
    if mn < 0:
        return frozenset(), None
    mx = max(dv)
    lo = frozenset(u for u, d in zip(kslots, dv) if d == mn)
    # all of kslots is reached from vslot, so each reaches the others
    for w, dw in zip(kslots, dv):
        if dw == mx and all(dw == du + rows[u][w] for u, du in zip(kslots, dv)):
            return lo, w
    return lo, None


def _dict_bfs_rows(adj, sources, nv):
    """Hop counts from each source over a {slot: neighbours} dict, as
    _omega_pair rows: slot -> list over all nv slots, -1 if not reached."""
    rows = {}
    for s in sources:
        dist = {s: 0}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        rows[s] = [dist.get(t, -1) for t in range(nv)]
    return rows


def skeleton_hop_rows(q):
    """Hop counts on the whole 1-skeleton, by the dict BFS."""
    nv = len(q._adj)
    return _dict_bfs_rows(dict(enumerate(q._adj)), range(nv), nv)


def closure_hop_rows(q, ctx):
    """Hop counts inside the closure of the cell at poset index ctx, by
    the dict BFS over its edges.  The vertex slots and the ends of each
    edge are read off the poset and the dimensions, not off the tables
    of the CW poset under test."""
    vertex_ids = [i for i, d in enumerate(q.dims) if d == 0]
    slot = {i: s for s, i in enumerate(vertex_ids)}
    closure = list(iter_bits(q.poset.down_mask(ctx)))
    adj = {slot[j]: set() for j in closure if q.dims[j] == 0}
    for j in closure:
        if q.dims[j] == 1:
            a, b = [slot[i] for i in iter_bits(q.poset.down_mask(j))
                    if q.dims[i] == 0]
            adj[a].add(b)
            adj[b].add(a)
    return _dict_bfs_rows(adj, sorted(adj), len(vertex_ids))


def global_tables_unshared(q, dist):
    """(check, lo_table, hi_table) under the whole-complex metric, one
    _omega_pair call per (vertex, cell); the check is mh._global_tables'."""
    labels = q.vertex_labels()
    lo_tab = {}
    hi_tab = {}
    for v in range(len(labels)):
        for ci in range(len(q.poset.elements)):
            lo, hi = _omega_pair(v, q._cell_vslots[ci], dist)
            if hi is None:
                return (MHCheck(False, (labels[v], q.poset.elements[ci], 3)),
                        None, None)
            lo_tab[(v, ci)] = lo
            hi_tab[(v, ci)] = hi
    return MHCheck(True, None), lo_tab, hi_tab


def local_tables_unshared(q):
    """mh._local_tables with one _omega_pair call per (context, vertex,
    subcell) triple, each context's hop counts found by its own BFS."""
    labels = q.vertex_labels()
    elements = q.poset.elements
    lo_inter = {}
    hi_seen = {}
    for ctx in range(len(elements)):
        rows = closure_hop_rows(q, ctx)
        subcells = list(iter_bits(q.poset.down_mask(ctx)))
        for v in q._cell_vslots[ctx]:
            for k in subcells:
                lo, hi = _omega_pair(v, q._cell_vslots[k], rows)
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
                               lower_constraints_unshared(q, v, k))
                    return MHCheck(False, witness), None, None
                else:
                    lo_inter[key] = cur & lo
    return MHCheck(True, None), lo_inter, hi_seen


def lower_constraints_unshared(q, v, k):
    """mh._lower_constraints with each context's nearest set for the
    pair (v, k) taken under that context's own closure_hop_rows."""
    labels = q.vertex_labels()
    out = []
    for ctx, cell in enumerate(q.poset.elements):
        if q.poset.down_mask(ctx) >> k & 1 and v in q._cell_vslots[ctx]:
            lo, _ = _omega_pair(v, q._cell_vslots[k], closure_hop_rows(q, ctx))
            out.append((cell, tuple(labels[s] for s in sorted(lo))))
    return tuple(out)


def mh_check_unshared(q):
    """The full MH route on the unshared tables, with no early verdict:
    (report, maps) with maps as mh.omega_tables gives them, or the text
    of the ConsistencyFailure for a cell whose hop counts differ from
    the global ones although every (vertex, cell) key agrees.  On a full
    pass the lower map reads the global set narrowed by the local one."""
    labels = q.vertex_labels()
    elements = q.poset.elements
    dist = skeleton_hop_rows(q)
    qmh, glob_lo, glob_hi = global_tables_unshared(q, dist)
    lmh, loc_inter, loc_hi = local_tables_unshared(q)

    def maps(narrowed):
        if not qmh.passed:
            return None
        lower = {}
        upper = {}
        for (v, ci), lo in glob_lo.items():
            key = (labels[v], elements[ci])
            lower[key] = labels[min(narrowed.get((v, ci), lo))]
            upper[key] = labels[glob_hi[v, ci]]
        return {"lower": lower, "upper": upper}

    if not (qmh.passed and lmh.passed):
        witness = qmh.witness if not qmh.passed else lmh.witness
        return MHReport(qmh, lmh, MHCheck(False, witness)), maps({})

    narrowed = {vk: glob_lo[vk] & loc_inter[vk] for vk in loc_hi}
    failed = [vk for vk, (hi_local, _) in sorted(loc_hi.items())
              if glob_hi[vk] != hi_local or not narrowed[vk]]
    if not failed:
        for ctx in range(len(elements)):
            rows = closure_hop_rows(q, ctx)
            vsl = q._cell_vslots[ctx]
            for s, t in product(vsl, vsl):
                if rows[s][t] != dist[s][t]:
                    return (f"cell {elements[ctx]}: distance {rows[s][t]} "
                            f"between {labels[s]} and {labels[t]} differs "
                            f"from the global {dist[s][t]}")
        return MHReport(qmh, lmh, MHCheck(True, None)), maps(narrowed)

    v, k = failed[0]
    hi_local, ctx = loc_hi[v, k]
    if glob_hi[v, k] != hi_local:
        witness = ("upper", labels[v], elements[k],
                   ("global", labels[glob_hi[v, k]]),
                   (elements[ctx], labels[hi_local]))
    else:
        witness = ("lower", labels[v], elements[k],
                   (("global",
                     tuple(labels[s] for s in sorted(glob_lo[v, k]))),)
                   + lower_constraints_unshared(q, v, k))
    return MHReport(qmh, lmh, MHCheck(False, witness)), maps({})


# -- small references read only by the tests --------------------------------


def element_set(mask: int) -> frozenset[int]:
    """The elements (1-based) whose bits are set in a sign-vector mask."""
    return frozenset(e + 1 for e in iter_bits(mask))


def separation_set(x: SignVector, y: SignVector) -> frozenset[int]:
    """Elements where x and y carry strictly opposite signs."""
    return element_set(separation_mask(x, y))


def crossing_element(source: SignVector, target: SignVector) -> int:
    """The unique element separating two adjacent topes (1-based)."""
    diff = separation_mask(source, target)
    if diff.bit_count() != 1:
        raise ConsistencyFailure(
            f"adjacent topes {source}, {target} differ on {diff.bit_count()} elements")
    return diff.bit_length()


def crossed(path) -> tuple[int, ...]:
    """The element crossed by each step of a positive path, in order."""
    topes = path.topes()
    return tuple(crossing_element(a, b) for a, b in zip(topes, topes[1:]))


def flats(m: OrientedMatroid) -> frozenset:
    """The flats of m by definition: the zero sets of its covectors."""
    return frozenset(element_set(x.zero_mask) for x in m.covectors)


def is_graded(p: FinitePoset) -> bool:
    """Every cover raises the longest-chain height by exactly one."""
    h = p.heights()
    return all(h[j] == h[i] + 1 for i, j in p.covers())


def f_vector(q: CWPoset) -> tuple[int, ...]:
    """The number of cells of each dimension of a CW poset."""
    return tuple(q.dims.count(d) for d in range(max(q.dims) + 1))


def closed_cell(q: CWPoset, cell) -> list:
    """All cells in the closure of cell, in poset element order."""
    down = q.poset.down_mask(q.poset.index[cell])
    return [q.poset.elements[j] for j in iter_bits(down)]


def edge_endpoints(q: CWPoset, cell) -> tuple:
    """The endpoints of a 1-cell: the vertices in its closure, in
    poset element order."""
    return tuple(x for x in closed_cell(q, cell) if q.dims[q.poset.index[x]] == 0)


def tope_graph_distances(m: OrientedMatroid):
    """All-pairs BFS distances on the undirected tope graph."""
    adj = skeleton_adjacency(m)
    dist = {}
    for start in adj:
        d = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for _, v, _ in adj[u]:
                    if v not in d:
                        d[v] = d[u] + 1
                        nxt.append(v)
            frontier = nxt
        for v, k in d.items():
            dist[start, v] = k
    return dist



def skeleton_is_bipartite(q: CWPoset) -> bool:
    """Two-colorability of the 1-skeleton (loops already excluded)."""
    color = [-1] * len(q._adj)
    for start in range(len(q._adj)):
        if color[start] >= 0:
            continue
        color[start] = 0
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for w in q._adj[u]:
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    dq.append(w)
                elif color[w] == color[u]:
                    return False
    return True
