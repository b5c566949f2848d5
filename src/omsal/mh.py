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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConsistencyFailure, Disconnected, EmptyInput
from .matroid import OrientedMatroid
from .posets import FinitePoset
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
            vs = tuple(self._slot[j] for j in poset.iter_mask(below)
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

    def dim(self) -> int:
        return max(self.dims)

    def dim_of(self, cell) -> int:
        return self.dims[self.poset.index[cell]]

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim() + 1)
        for d in self.dims:
            counts[d] += 1
        return tuple(counts)

    def edge_endpoints(self, cell) -> tuple:
        i = self.poset.index[cell]
        labels = self.vertex_labels()
        a, b = self._edge_ends[i]
        return labels[a], labels[b]

    def closed_cell(self, cell) -> list:
        """All cells in the closure of cell, in poset element order."""
        i = self.poset.index[cell]
        return [self.poset.elements[j]
                for j in self.poset.iter_mask(self.poset.down_mask(i))]


def cw_from_covers(cells, covers) -> CWPoset:
    """Build a CWPoset from (label, dim) pairs and covering (face, cell) pairs.

    The cover relation is closed transitively; labels must be unique.
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
        pairs.append((index[face], index[cell]))
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
    nv = len(labels)
    glob = {}
    for i in range(nv):
        row = a.dist[i]
        for j in range(nv):
            if row[j] < 0:
                raise Disconnected((labels[i], labels[j]))
            glob[(labels[i], labels[j])] = row[j]
    loc = {}
    for ci, cell in enumerate(q.poset.elements):
        table = a.local_dist(ci)
        out = {}
        for s, row in table.items():
            for t, d in row.items():
                out[(labels[s], labels[t])] = d
        loc[cell] = out
    return SkeletonDistances(glob, loc)


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


class MHCheck(NamedTuple):
    passed: bool
    witness: tuple | None


@dataclass(frozen=True)
class MHReport:
    qmh: MHCheck
    lmh: MHCheck
    mh: MHCheck
    omega_tables: dict | None

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


class _Analysis:
    """Distance tables shared by the three checks."""

    def __init__(self, q: CWPoset):
        self.q = q
        self.dist = [_bfs(q._adj, s) for s in range(len(q._adj))]
        self._local = {}

    def global_get(self, a, b):
        d = self.dist[a][b]
        return d if d >= 0 else None

    def local_dist(self, ctx: int) -> dict:
        """Hop counts inside the closure of the cell at poset index ctx.

        Keyed by the subgraph itself so that closed cells with identical
        1-skeleta share one table: the top cells of a doubled complex, and
        every Salvetti cell [X, T] over the same covector X.  The table
        returned is the one kept here, so a caller may key work on it:
        _local_tables walks each (table, subcell) pair once, which is exact
        because a second walk would repeat the same idempotent update.
        """
        q = self.q
        below = q.poset.down_mask(ctx)
        vsl = q._cell_vslots[ctx]
        pairs = tuple(sorted(q._edge_ends[j] for j in q.poset.iter_mask(below)
                             if q.dims[j] == 1))
        key = (vsl, pairs)
        table = self._local.get(key)
        if table is None:
            adj = {s: set() for s in vsl}
            for a, b in pairs:
                adj[a].add(b)
                adj[b].add(a)
            table = {}
            for s in vsl:
                dist = {s: 0}
                dq = deque([s])
                while dq:
                    u = dq.popleft()
                    du = dist[u] + 1
                    for w in adj[u]:
                        if w not in dist:
                            dist[w] = du
                            dq.append(w)
                table[s] = dist
            self._local[key] = table
        return table


def _omega_pair(vslot, kslots, dget):
    """Nearest candidates and the forced farthest vertex of one cell.

    Returns (lo, hi): lo is the frozenset of distance minimizers in
    kslots seen from vslot, hi the unique additive farthest slot or None
    when no vertex satisfies the additivity clause (including the case
    of a pair unreachable under the metric).
    """
    if len(kslots) == 1:
        return frozenset(kslots), kslots[0]
    dv = []
    for u in kslots:
        d = dget(vslot, u)
        if d is None:
            return frozenset(), None
        dv.append(d)
    mn = min(dv)
    mx = max(dv)
    lo = frozenset(u for u, d in zip(kslots, dv) if d == mn)
    for w, dw in zip(kslots, dv):
        if dw != mx:
            continue
        for u, du in zip(kslots, dv):
            duw = dget(u, w)
            if duw is None or dw != du + duw:
                break
        else:
            return lo, w
    return lo, None


def _global_tables(a: _Analysis):
    """(check, lo_table, hi_table) for the whole-complex metric."""
    q = a.q
    labels = q.vertex_labels()
    lo_tab = {}
    hi_tab = {}
    for v in range(len(labels)):
        # cells with the same vertex set ask v the same question
        answers = {}
        for ci in range(len(q.poset.elements)):
            kslots = q._cell_vslots[ci]
            pair = answers.get(kslots)
            if pair is None:
                pair = answers[kslots] = _omega_pair(v, kslots, a.global_get)
            lo, hi = pair
            if hi is None:
                return (MHCheck(False, (labels[v], q.poset.elements[ci], 3)),
                        None, None)
            lo_tab[(v, ci)] = lo
            hi_tab[(v, ci)] = hi
    return MHCheck(True, None), lo_tab, hi_tab


def _local_tables(a: _Analysis):
    """(check, lo_intersections, hi_values) across all closed cells.

    lo_intersections[(v, k)] is the running intersection of nearest-
    vertex candidate sets over every context cell whose closure contains
    cell k and whose vertex set contains v; hi_values[(v, k)] is the
    common forced farthest vertex with the first context that set it.

    The answers under a context depend only on its local table, the
    vertex and the subcell's vertex slots, so a (table, subcell) pair
    already walked under an earlier context is skipped.  That is exact:
    repeating it would set the same hi for the same keys and intersect
    each lo_intersections entry with a set that already contains it.
    Contexts are still walked in index order, so the first failing
    context and every witness are the same as with no skipping.
    """
    q = a.q
    labels = q.vertex_labels()
    elements = q.poset.elements
    lo_inter = {}
    hi_seen = {}
    walked = {}  # id of a table kept by a -> mask of subcells walked under it
    for ctx in range(len(elements)):
        table = a.local_dist(ctx)
        dget = lambda x, y: table[x].get(y)
        done = walked.get(id(table), 0)
        todo = q.poset.down_mask(ctx) & ~done
        walked[id(table)] = done | todo
        subcells = list(q.poset.iter_mask(todo))
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


def _lower_constraints(a: _Analysis, v, k):
    """Every context's nearest-candidate set for the pair (v, k)."""
    q = a.q
    labels = q.vertex_labels()
    out = []
    kmask = 1 << k
    for ctx in range(len(q.poset.elements)):
        if not (q.poset.down_mask(ctx) & kmask) or v not in q._cell_vslots[ctx]:
            continue
        table = a.local_dist(ctx)
        dget = lambda x, y: table[x].get(y)
        lo, _ = _omega_pair(v, q._cell_vslots[k], dget)
        out.append((q.poset.elements[ctx],
                    tuple(labels[s] for s in sorted(lo))))
    return tuple(out)


def qmh_check(q: CWPoset) -> MHCheck:
    """Existence of globally additive farthest vertices for every cell."""
    return _global_tables(_Analysis(q))[0]


def lmh_check(q: CWPoset) -> MHCheck:
    """Per-closed-cell structure plus cross-cell agreement of the maps."""
    return _local_tables(_Analysis(q))[0]


def mh_check(q: CWPoset) -> MHReport:
    """Full report: global, local, and the agreement between the two.

    On a full pass the report carries the chosen maps: omega_tables
    maps 'lower' and 'upper' to {(vertex, cell): vertex} dicts for a
    globally consistent assignment.  When only the global level passes
    the tables describe it alone.  A full pass additionally asserts
    that within-cell distances agree with global ones on every closed
    cell (a theorem for these complexes); disagreement means the input
    was accepted wrongly, reported as ConsistencyFailure.
    """
    a = _Analysis(q)
    qmh, glob_lo, glob_hi = _global_tables(a)
    lmh, loc_inter, loc_hi = _local_tables(a)
    labels = q.vertex_labels()
    elements = q.poset.elements

    def global_only_tables():
        if not qmh.passed:
            return None
        lower = {(labels[v], elements[ci]): labels[min(s)]
                 for (v, ci), s in glob_lo.items()}
        upper = {(labels[v], elements[ci]): labels[w]
                 for (v, ci), w in glob_hi.items()}
        return {"lower": lower, "upper": upper}

    if not (qmh.passed and lmh.passed):
        witness = qmh.witness if not qmh.passed else lmh.witness
        return MHReport(qmh, lmh, MHCheck(False, witness),
                        global_only_tables())

    chosen = {}
    for (v, k) in sorted(loc_hi):
        hi_local, ctx = loc_hi[(v, k)]
        if glob_hi[(v, k)] != hi_local:
            witness = ("upper", labels[v], elements[k],
                       ("global", labels[glob_hi[(v, k)]]),
                       (elements[ctx], labels[hi_local]))
            return MHReport(qmh, lmh, MHCheck(False, witness),
                            global_only_tables())
        full = glob_lo[(v, k)] & loc_inter[(v, k)]
        if not full:
            witness = ("lower", labels[v], elements[k],
                       (("global",
                         tuple(labels[s] for s in sorted(glob_lo[(v, k)]))),)
                       + _lower_constraints(a, v, k))
            return MHReport(qmh, lmh, MHCheck(False, witness),
                            global_only_tables())
        chosen[(v, k)] = min(full)

    _check_local_global_metric(a)
    lower = {}
    for (v, ci), s in glob_lo.items():
        pick = chosen.get((v, ci))
        lower[(labels[v], elements[ci])] = labels[pick if pick is not None
                                                  else min(s)]
    upper = {(labels[v], elements[ci]): labels[w]
             for (v, ci), w in glob_hi.items()}
    return MHReport(qmh, lmh, MHCheck(True, None),
                    {"lower": lower, "upper": upper})


def _check_local_global_metric(a: _Analysis):
    """Within-cell hop counts must equal global ones on a full pass."""
    q = a.q
    labels = q.vertex_labels()
    for ctx in range(len(q.poset.elements)):
        table = a.local_dist(ctx)
        for s, row in table.items():
            for t in q._cell_vslots[ctx]:
                if row.get(t) != a.dist[s][t]:
                    raise ConsistencyFailure(
                        f"cell {q.poset.elements[ctx]}: distance "
                        f"{row.get(t)} between {labels[s]} and {labels[t]} "
                        f"differs from the global {a.dist[s][t]}")


def dual_complex(m: OrientedMatroid) -> CWPoset:
    """Chambers as 0-cells: the order-reversed covector poset.

    A covector of height h becomes a cell of dimension rank - h, so the
    1-cells are the walls between adjacent chambers and the zero
    covector is the unique top cell.  Expects a verified simple input.
    """
    heights = m.heights()
    rank = m.rank
    poset = m.face_poset().dual()
    return CWPoset(poset, [rank - heights[x] for x in poset.elements])


def salvetti_cw(m: OrientedMatroid) -> CWPoset:
    """The doubled-chamber complex with its cell dimensions attached."""
    poset = build_salvetti_poset(m)
    return CWPoset(poset, [c.dim for c in poset.elements])
