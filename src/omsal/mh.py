"""Metrical-hemisphere structure on regular CW complexes.

A complex is presented by its face poset together with a dimension for
each cell.  The three nested checks ask for nearest/farthest vertex maps
on (vertex, cell) pairs:

  * quasi (qmh_check): globally, every cell has a unique farthest vertex
    from each v that is distance-additive over the whole vertex set of
    the cell;
  * local (lmh_check): the same holds inside every closed cell under its
    own 1-skeleton metric, and the per-cell choices can be made to agree
    wherever two closed cells share a vertex and a subcell;
  * full (mh_check): additionally the global maps restrict to the local
    ones.

The farthest map is forced (additivity applied to two candidates pins
them together), so only the nearest map needs a search.  Its constraints
never couple different (vertex, target-cell) pairs, hence a consistent
choice exists iff the candidate sets for each pair have a common member;
the checker intersects them and reports the first empty intersection.

Each metric answers the farthest question one cell vertex set at a
time, for every vertex at once: the distances to the set's vertices are
reduced column by column (min, max, sum and the first farthest vertex),
and a sum identity stands in for the additivity test.  Nearest sets are
built only where a check reads them, which the early verdict never does.

MH is QMH plus isometry: once QMH passes and every closed cell is
isometric to the 1-skeleton, each local answer is the global one, so
LMH and MH pass and mh_check stops there.  On the dual and Salvetti
complexes of an oriented matroid every closed cell is isometric (the
topes above a covector are T-convex, BLSWZ 4.2).  omega_tables builds
the maps.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from .errors import ConsistencyFailure, Disconnected, EmptyInput
from .matroid import OrientedMatroid
from .posets import FinitePoset, iter_bits
from .salvetti import build_salvetti_poset


class CWPoset:
    """Face poset of a regular CW complex with explicit cell dimensions.

    dims is a sequence aligned with poset.elements.  Checked invariants:
    dimensions drop strictly from a cell to its faces, every closed cell
    contains a vertex, every 1-cell has exactly two distinct endpoints
    (parallel edges are fine, loops are not), and the 1-skeleton is
    connected.
    """

    def __init__(self, poset: FinitePoset, dims):
        if not len(poset):
            raise EmptyInput("a CW complex needs at least one cell")
        self.poset = poset
        self.dims = tuple(dims)
        if len(self.dims) != len(poset.elements):
            raise ConsistencyFailure("one dimension per cell required")
        self._index_structure()

    def _index_structure(self):
        poset, dims = self.poset, self.dims
        n = len(poset)
        for d in dims:
            if not isinstance(d, int) or d < 0:
                raise ConsistencyFailure(f"bad cell dimension {d!r}")
        for i, j in poset.covers():
            if dims[i] >= dims[j]:
                raise ConsistencyFailure(
                    f"face {poset.elements[i]} (dim {dims[i]}) under "
                    f"{poset.elements[j]} (dim {dims[j]})")
        self._vertex_ids = tuple(i for i in range(n) if dims[i] == 0)
        self._slot = {i: s for s, i in enumerate(self._vertex_ids)}
        nv = len(self._vertex_ids)
        if nv == 0:
            raise ConsistencyFailure("no 0-cells present")
        # vertex slots in the closure of each cell; a cell with none is
        # not the face poset of a CW complex
        vslots = []
        for i in range(n):
            below = poset.down_mask(i)
            vs = tuple(self._slot[j] for j in iter_bits(below)
                       if dims[j] == 0)
            if not vs:
                raise ConsistencyFailure(
                    f"cell {poset.elements[i]} has no vertex in its closure")
            vslots.append(vs)
        self._cell_vslots = tuple(vslots)
        ends = {}
        adj = [set() for _ in range(nv)]
        for i in range(n):
            if dims[i] != 1:
                continue
            vs = self._cell_vslots[i]
            if len(vs) != 2:
                raise ConsistencyFailure(
                    f"1-cell {poset.elements[i]} has endpoints "
                    f"{[self.vertex_labels()[s] for s in vs]}")
            a, b = vs
            ends[i] = (a, b)
            adj[a].add(b)
            adj[b].add(a)
        self._edge_ends = ends
        self._adj = [tuple(sorted(s)) for s in adj]
        seen = _bfs(self._adj, 0)
        for s in range(nv):
            if seen[s] < 0:
                raise Disconnected(
                    (self.vertex_labels()[0], self.vertex_labels()[s]))

    def __len__(self):
        return len(self.poset)

    def vertex_labels(self) -> tuple:
        return tuple(self.poset.elements[i] for i in self._vertex_ids)


def cw_from_covers(cells, covers) -> CWPoset:
    """Build a CWPoset from (label, dim) pairs and covering (face, cell) pairs.

    The cover relation is closed transitively; labels must be unique,
    and no cell covers itself.
    """
    cells = list(cells)
    labels = [c for c, _ in cells]
    index = {c: i for i, c in enumerate(labels)}
    if len(index) != len(labels):
        raise ConsistencyFailure("duplicate cell label")
    pairs = []
    for face, cell in covers:
        if face not in index or cell not in index:
            raise ConsistencyFailure(f"cover ({face}, {cell}) names unknown cells")
        i, j = index[face], index[cell]
        if i == j:
            raise ConsistencyFailure(f"cell {face} covers itself")
        pairs.append((i, j))
    poset = FinitePoset.from_covers(labels, pairs)
    return CWPoset(poset, [d for _, d in cells])


def _bfs(adj, source):
    dist = [-1] * len(adj)
    dist[source] = 0
    dq = deque([source])
    while dq:
        u = dq.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                dq.append(w)
    return dist


class SkeletonDistances(NamedTuple):
    global_d: dict
    local_d: dict


def skeleton_distances(q: CWPoset) -> SkeletonDistances:
    """All-pairs distances on the 1-skeleton and inside each closed cell.

    global_d maps ordered vertex-label pairs to hop counts; local_d maps
    each cell to the same kind of table restricted to the cell's closure
    (pairs unreachable inside the cell are absent).
    """
    a = _Analysis(q)
    labels = q.vertex_labels()
    glob = {(labels[s], labels[t]): d
            for s, row in enumerate(a.dist) for t, d in enumerate(row)}
    loc = {}
    for ctx, c in enumerate(a.contexts):
        vsl = q._cell_vslots[ctx]
        loc[q.poset.elements[ctx]] = {
            (labels[s], labels[t]): c.rows[s][t]
            for s in vsl for t in vsl if c.rows[s][t] >= 0}
    return SkeletonDistances(glob, loc)


class MHCheck(NamedTuple):
    passed: bool
    witness: tuple | None


class MHReport(NamedTuple):
    qmh: MHCheck
    lmh: MHCheck
    mh: MHCheck

    @property
    def passed(self) -> bool:
        return self.mh.passed

    def __str__(self):
        def line(name, chk):
            if chk.passed:
                return f"{name}: pass"
            return f"{name}: FAIL at {chk.witness}"
        return "; ".join((line("qmh", self.qmh), line("lmh", self.lmh),
                          line("mh", self.mh)))


class _Context(NamedTuple):
    """A closed cell as a context of the local checks."""
    rows: dict     # vertex slot of the cell -> _bfs row inside the closure
    metric: tuple  # the _Analysis.glob when rows agree with it on the cell


def _one_skeleton(q: CWPoset, ctx: int):
    """Vertex slots and sorted edge ends of the closure of cell ctx."""
    below = q.poset.down_mask(ctx)
    return q._cell_vslots[ctx], tuple(sorted(
        q._edge_ends[j] for j in iter_bits(below) if q.dims[j] == 1))


class _Analysis:
    """Distance rows and answers shared by the three checks.

    A metric is a pair (rows, answers).  rows[s][t] is the hop count
    from vertex slot s to t, -1 when t is not reached; a breadth-first
    search of an undirected graph is symmetric, so rows[u][v] is also
    d(v, u).  answers is a memo {kslots: column}, one column per
    distinct cell vertex set, filled by answer(), the one caller of
    _omega_column: entry v of a column is the forced farthest slot seen
    from vertex slot v, or None.  The first farthest vertex is accepted
    by a sum identity (see _omega_column), and a singleton answers
    itself for every vertex.  Nearest sets are not kept: nearest()
    builds one only when the local walk, a lower witness, the final
    comparison of mh_check or omega_tables reads it.

    glob is the 1-skeleton's metric.  An answer reads only distances
    among the vertex and the cell's vertices, so a closed cell whose
    rows equal the global ones on its vertices takes glob as its
    metric: equal distances give equal answers.
    """

    def __init__(self, q: CWPoset):
        self.q = q
        self.dist = [_bfs(q._adj, s) for s in range(len(q._adj))]
        self.glob = (self.dist, {})

    def answer(self, metric, k):
        """The farthest column of cell k under metric, computed once per
        vertex set: entry v is hi for vertex slot v, or None."""
        rows, answers = metric
        kslots = self.q._cell_vslots[k]
        column = answers.get(kslots)
        if column is None:
            column = answers[kslots] = _omega_column(kslots, rows)
        return column

    def nearest(self, metric, v, k):
        """The frozenset of distance minimizers of cell k seen from vertex
        slot v under metric: empty when a vertex of the cell is not
        reached, and the vertex itself for a singleton."""
        rows = metric[0]
        kslots = self.q._cell_vslots[k]
        if len(kslots) == 1:
            return frozenset(kslots)
        dv = [rows[u][v] for u in kslots]
        mn = min(dv)
        if mn < 0:
            return frozenset()
        return frozenset(u for u, d in zip(kslots, dv) if d == mn)

    @cached_property
    def contexts(self) -> list:
        """One _Context per cell, in poset index order.

        Closed cells with identical 1-skeleta share one _Context: the
        top cells of a doubled complex, and every Salvetti cell [X, T]
        over the same covector X.  Each kept rows dict is compared once
        with the global rows on its vertices; a metric that is glob
        certifies the closed cell isometric.
        """
        q, dist = self.q, self.dist
        kept = {}  # one-skeleton key -> _Context
        out = []
        for ctx in range(len(q)):
            key = _one_skeleton(q, ctx)
            c = kept.get(key)
            if c is None:
                vsl, pairs = key
                adj = [[] for _ in dist]
                for s, t in pairs:
                    adj[s].append(t)
                    adj[t].append(s)
                rows = {s: _bfs(adj, s) for s in vsl}
                if all(rows[s][t] == dist[s][t] for s in vsl for t in vsl):
                    metric = self.glob
                else:
                    metric = (rows, {})
                c = kept[key] = _Context(rows, metric)
            out.append(c)
        return out


def _omega_column(kslots, rows):
    """The forced farthest vertex of one cell, seen from every vertex slot.

    kslots are the cell's vertex slots, and rows[u][v] = d(v, u) for u in
    kslots.  Entry v of the returned list is the unique additive farthest
    slot of kslots seen from v, or None when no vertex satisfies the
    additivity clause (including the case of a vertex of kslots not
    reached from v).  A singleton answers itself for every vertex.

    With every vertex of kslots reached, the triangle inequality gives
    d(v, w) <= d(v, u) + d(u, w) for each u.  Summed over kslots, for the
    first farthest w of v: sum_v + sum_w == len(kslots) * d(v, w) holds
    exactly when w is additive.  An additive vertex is the unique
    farthest one, as d(u, w) > 0 for u != w, so no other needs a test.
    """
    if len(kslots) == 1:
        return [kslots[0]] * len(rows[kslots[0]])
    cols = list(zip(*[rows[u] for u in kslots]))
    sums = list(map(sum, cols))
    far = list(map(max, cols))
    firsts = map(kslots.__getitem__, map(tuple.index, cols, far))
    size = len(kslots)
    return [w if mn >= 0 and s + sums[w] == size * d else None
            for w, mn, d, s in zip(firsts, map(min, cols), far, sums)]


def _global_tables(a: _Analysis) -> MHCheck:
    """QMH: every (vertex, cell) has a farthest vertex under the
    whole-complex metric; the columns stay in a.glob's memo.

    Each distinct vertex set is answered once, at its first cell, so the
    smallest failing (vertex, cell) pair is the least (first None slot,
    first cell) over the failing columns.
    """
    q = a.q
    first = {}
    for ci, kslots in enumerate(q._cell_vslots):
        first.setdefault(kslots, ci)
    failed = []
    for ci in first.values():
        column = a.answer(a.glob, ci)
        if None in column:
            failed.append((column.index(None), ci))
    if not failed:
        return MHCheck(True, None)
    v, ci = min(failed)
    return MHCheck(False, (q.vertex_labels()[v], q.poset.elements[ci], 3))


def _local_tables(a: _Analysis):
    """(check, lo_intersections, hi_values) across all closed cells.

    lo_intersections[(v, k)] is the running intersection of nearest-
    vertex candidate sets over every context cell whose closure contains
    cell k and whose vertex set contains v; hi_values[(v, k)] is the
    common forced farthest vertex with the first context that set it.

    The answers under a context depend only on its rows, the vertex and
    the subcell's vertex slots, so they are read from the context's
    metric: an isometric context reads the global columns.  Contexts
    are walked in index order, each over every cell of its closure, so
    the first failing context names the failure.  A nearest set is
    built only once the pair's farthest vertex has passed.
    """
    q = a.q
    labels = q.vertex_labels()
    elements = q.poset.elements
    lo_inter = {}
    hi_seen = {}
    for ctx, c in enumerate(a.contexts):
        subcells = list(iter_bits(q.poset.down_mask(ctx)))
        columns = [a.answer(c.metric, k) for k in subcells]
        for v in q._cell_vslots[ctx]:
            for k, column in zip(subcells, columns):
                hi = column[v]
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
                lo = a.nearest(c.metric, v, k)
                cur = lo_inter.get(key, lo) & lo
                if not cur:
                    witness = ("lower", labels[v], elements[k],
                               _lower_constraints(a, v, k))
                    return MHCheck(False, witness), None, None
                lo_inter[key] = cur
    return MHCheck(True, None), lo_inter, hi_seen


def _lower_constraints(a: _Analysis, v, k):
    """Every context's nearest-candidate set for the pair (v, k)."""
    q = a.q
    labels = q.vertex_labels()
    out = []
    kmask = 1 << k
    for ctx, c in enumerate(a.contexts):
        if not (q.poset.down_mask(ctx) & kmask) or v not in q._cell_vslots[ctx]:
            continue
        lo = a.nearest(c.metric, v, k)
        out.append((q.poset.elements[ctx],
                    tuple(labels[s] for s in sorted(lo))))
    return tuple(out)


def qmh_check(q: CWPoset) -> MHCheck:
    """Existence of globally additive farthest vertices for every cell."""
    return _global_tables(_Analysis(q))


def lmh_check(q: CWPoset) -> MHCheck:
    """Per-closed-cell structure plus cross-cell agreement of the maps."""
    return _local_tables(_Analysis(q))[0]


def mh_check(q: CWPoset) -> MHReport:
    """Full report: global, local, and the agreement between the two.

    QMH with every closed cell isometric passes all three levels with
    no local walk.  Otherwise the smallest (vertex, cell) key whose local
    answers disagree with the global ones names the failure; with none,
    a non-isometric cell contradicts a full pass (a theorem for these
    complexes): the input was accepted wrongly, a ConsistencyFailure.
    """
    a = _Analysis(q)
    qmh = _global_tables(a)
    if qmh.passed and all(c.metric is a.glob for c in a.contexts):
        # every local answer is the global one, so LMH and MH pass as QMH
        return MHReport(qmh, qmh, qmh)
    lmh, loc_inter, loc_hi = _local_tables(a)
    if not (qmh.passed and lmh.passed):
        witness = qmh.witness if not qmh.passed else lmh.witness
        return MHReport(qmh, lmh, MHCheck(False, witness))

    def disagrees(vk):
        v, k = vk
        return (a.answer(a.glob, k)[v] != loc_hi[vk][0]
                or not a.nearest(a.glob, v, k) & loc_inter[vk])

    failed = min(filter(disagrees, loc_hi), default=None)
    if failed is None:
        # the early verdict was not taken, so some context is not
        # isometric and this raises
        _check_local_global_metric(a)
    labels = q.vertex_labels()
    elements = q.poset.elements
    v, k = failed
    hi_local, ctx = loc_hi[failed]
    glob_hi = a.answer(a.glob, k)[v]
    if glob_hi != hi_local:
        witness = ("upper", labels[v], elements[k],
                   ("global", labels[glob_hi]),
                   (elements[ctx], labels[hi_local]))
    else:
        witness = ("lower", labels[v], elements[k],
                   (("global", tuple(labels[s] for s in
                                     sorted(a.nearest(a.glob, v, k)))),)
                   + _lower_constraints(a, v, k))
    return MHReport(qmh, lmh, MHCheck(False, witness))


def omega_tables(q: CWPoset) -> dict | None:
    """'lower' and 'upper' {(vertex, cell): vertex} maps, None if QMH fails.

    The smallest nearest and the forced farthest vertex of each cell
    from each vertex, under the 1-skeleton metric, found once per
    distinct vertex set.
    """
    a = _Analysis(q)
    if not _global_tables(a).passed:
        return None
    labels = q.vertex_labels()
    pairs = {}  # vertex set -> (lower, upper) label pair per vertex slot
    for ci, kslots in enumerate(q._cell_vslots):
        if kslots not in pairs:
            column = a.answer(a.glob, ci)
            pairs[kslots] = [(labels[min(a.nearest(a.glob, v, ci))],
                              labels[hi]) for v, hi in enumerate(column)]
    lower = {}
    upper = {}
    for v, label in enumerate(labels):
        for cell, kslots in zip(q.poset.elements, q._cell_vslots):
            lower[label, cell], upper[label, cell] = pairs[kslots][v]
    return {"lower": lower, "upper": upper}


def _check_local_global_metric(a: _Analysis):
    """Within-cell hop counts must equal global ones on a full pass.

    The contexts compared their rows with the global ones once, so only
    those whose metric is not glob are scanned here, in context order,
    for the first pair that differs; it raises iff one of them exists.
    """
    q = a.q
    labels = q.vertex_labels()
    for ctx, c in enumerate(a.contexts):
        if c.metric is a.glob:
            continue
        vsl = q._cell_vslots[ctx]
        for s in vsl:
            for t in vsl:
                if c.rows[s][t] != a.dist[s][t]:
                    raise ConsistencyFailure(
                        f"cell {q.poset.elements[ctx]}: distance "
                        f"{c.rows[s][t]} between {labels[s]} and {labels[t]} "
                        f"differs from the global {a.dist[s][t]}")


def dual_complex(m: OrientedMatroid) -> CWPoset:
    """Chambers as 0-cells: the order-reversed covector poset.

    A covector of height h becomes a cell of dimension rank - h, so the
    1-cells are the walls between adjacent chambers and the zero
    covector is the unique top cell.  Expects a verified simple input.
    """
    face = m.face_poset()
    rank = face.height()
    return CWPoset(face.dual(), [rank - h for h in face.heights()])


def salvetti_cw(m: OrientedMatroid) -> CWPoset:
    """The doubled-chamber complex with its cell dimensions attached."""
    poset = build_salvetti_poset(m)
    return CWPoset(poset, [c.dim for c in poset.elements])
