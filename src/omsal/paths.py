"""Tope metrics, tope posets, simpliciality, minimal positive paths.

Tope distance is the separation count; the oriented 1-skeleton realizes
it as graph distance, and minimal positive paths are enumerated by a
depth-first walk that only ever steps closer to the target.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyFailure, EquivalenceViolation, NotATope, NotSimple
from .matroid import OrientedMatroid
from .posets import FinitePoset, build_poset, is_lattice
from .salvetti import DirectedEdge, oriented_one_skeleton
from .signs import SignVector, compose, separation_mask, separation_set


def _require_tope(m: OrientedMatroid, t: SignVector):
    if not m.is_tope(t):
        raise NotATope(f"{t} is not a tope")


def tope_distance(m: OrientedMatroid, t: SignVector, s: SignVector) -> int:
    """Number of elements separating the topes t and s."""
    _require_tope(m, t)
    _require_tope(m, s)
    return separation_mask(t, s).bit_count()


def crossing_element(source: SignVector, target: SignVector) -> int:
    """The unique element separating two adjacent topes (1-based)."""
    diff = separation_mask(source, target)
    if diff.bit_count() != 1:
        raise ConsistencyFailure(
            f"adjacent topes {source}, {target} differ on {diff.bit_count()} elements")
    return diff.bit_length()


def _adjacency(m: OrientedMatroid):
    sk = oriented_one_skeleton(m)
    adj: dict[SignVector, list] = {t: [] for t in sk.vertices}
    for e in sk.edges:
        diff = separation_mask(e.source, e.target)
        if diff & (diff - 1):
            elements = ", ".join(str(k + 1) for k in FinitePoset.iter_mask(diff))
            raise NotSimple(
                f"elements {elements} are parallel: adjacent topes "
                f"{e.source}, {e.target} differ on all of them")
        adj[e.source].append((diff.bit_length(), e.target, e))
    return {t: tuple((nb, e) for _, nb, e in sorted(steps, key=lambda s: s[0]))
            for t, steps in adj.items()}


def skeleton_adjacency(m: OrientedMatroid):
    """tope -> tuple of (neighbor, directed edge), sorted by crossed element.

    Built once per matroid from its oriented 1-skeleton; every caller
    gets the same dict of tuples, which must not be modified.
    """
    return m.derived(_adjacency)


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
                for v, _ in adj[u]:
                    if v not in d:
                        d[v] = d[u] + 1
                        nxt.append(v)
            frontier = nxt
        for v, k in d.items():
            dist[start, v] = k
    return dist


@dataclass(frozen=True)
class PositivePath:
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> SignVector:
        return self.edges[0].source

    @property
    def target(self) -> SignVector:
        return self.edges[-1].target

    def topes(self):
        out = [self.edges[0].source]
        out.extend(e.target for e in self.edges)
        return out

    def crossed(self) -> tuple[int, ...]:
        return tuple(crossing_element(e.source, e.target) for e in self.edges)

    def __str__(self):
        return " -> ".join(str(t) for t in self.topes())


def minimal_positive_paths(m: OrientedMatroid, t: SignVector, s: SignVector):
    """All minimal positive paths t -> s, lexicographic by crossed elements.

    Each returned path has length tope_distance(t, s) and crosses every
    separating element exactly once; that property is asserted, not
    assumed.
    """
    _require_tope(m, t)
    _require_tope(m, s)
    adj = skeleton_adjacency(m)
    sep = separation_mask(t, s)

    out = []
    stack = [(t, ())]
    while stack:
        cur, edges = stack.pop()
        if cur == s:
            out.append(PositivePath(edges))
            continue
        remaining = separation_mask(cur, s)
        steps = []
        for nb, e in adj[cur]:
            if separation_mask(nb, s).bit_count() == remaining.bit_count() - 1:
                steps.append((nb, e))
        for nb, e in reversed(steps):
            stack.append((nb, edges + (e,)))

    d = sep.bit_count()
    for p in out:
        crossed = p.crossed()
        if len(crossed) != d or len(set(crossed)) != d:
            raise ConsistencyFailure(f"path {p} repeats a crossing")
        if any(not (sep >> (e - 1)) & 1 for e in crossed):
            raise ConsistencyFailure(f"path {p} crosses a non-separating element")
    out.sort(key=lambda p: p.crossed())
    return out


def antipodal_extension_check(m: OrientedMatroid, pairs=None) -> bool:
    """Every minimal positive path t -> s extends to one from t to -t.

    The extension is completed greedily through the remaining separating
    elements (smallest crossing first); the concatenation is then
    re-checked to be a minimal positive path.  pairs limits the ordered
    tope pairs examined (default: all of them).
    """
    adj = skeleton_adjacency(m)
    tope_list = m.topes()
    if pairs is None:
        pairs = [(t, s) for t in tope_list for s in tope_list if t != s]
    for t, s in pairs:
        anti = -t
        if anti not in adj:
            return False
        for path in minimal_positive_paths(m, t, s):
            cur = s
            edges = list(path.edges)
            while cur != anti:
                rem = separation_mask(cur, anti)
                step = next(
                    ((nb, e) for nb, e in adj[cur]
                     if separation_mask(nb, anti).bit_count() == rem.bit_count() - 1),
                    None)
                if step is None:
                    return False
                cur = step[0]
                edges.append(step[1])
            full = PositivePath(tuple(edges))
            crossed = full.crossed()
            if len(crossed) != tope_distance(m, t, anti) or len(set(crossed)) != len(crossed):
                return False
    return True


# -- tope posets ---------------------------------------------------------------


@dataclass(frozen=True)
class TopePoset:
    base: SignVector
    poset: FinitePoset

    def distance_of(self, s: SignVector) -> int:
        return separation_mask(self.base, s).bit_count()


def tope_poset(m: OrientedMatroid, t: SignVector) -> TopePoset:
    """Topes ordered by inclusion of separation sets from the base t."""
    _require_tope(m, t)
    elems = m.topes()

    def leq(a, b):
        sa, sb = separation_mask(t, a), separation_mask(t, b)
        return sa & ~sb == 0

    return TopePoset(t, build_poset(elems, leq))


def literal_distance_preorder(m: OrientedMatroid, t: SignVector):
    """The raw distance comparison d(., t) <= d(., t) as ordered pairs.

    This relation is a total preorder, not a partial order (distinct
    topes at equal distance compare both ways); kept for side-by-side
    comparison with the separation-set order.
    """
    _require_tope(m, t)
    elems = m.topes()
    return {(a, b) for a in elems for b in elems
            if tope_distance(m, t, a) <= tope_distance(m, t, b)}


# -- simpliciality ---------------------------------------------------------------


def _interval_is_boolean(m: OrientedMatroid, t: SignVector) -> bool:
    rank = m.rank
    atoms = [c for c in m.cocircuits() if c.conforms_to(t)]
    if len(atoms) != rank:
        return False
    interval = {x for x in m.covectors if x.conforms_to(t)}
    if len(interval) != 1 << rank:
        return False
    elems = {}
    for bits in range(1 << rank):
        x = SignVector.zero(m.n)
        for i in range(rank):
            if (bits >> i) & 1:
                x = compose(x, atoms[i])
        elems[bits] = x
    if len(set(elems.values())) != 1 << rank or set(elems.values()) != interval:
        return False
    for a in elems:
        for b in elems:
            if (elems[a].conforms_to(elems[b])) != (a & ~b == 0):
                return False
    return True


def is_simplicial(m: OrientedMatroid):
    """True iff every interval [**0**, T] is Boolean on rank(M) atoms."""
    for t in m.topes():
        if not _interval_is_boolean(m, t):
            return False, t
    return True, None


@dataclass(frozen=True)
class LatticeEquivalenceReport:
    simplicial: bool
    simplicial_witness: SignVector
    all_lattices: bool
    lattice_witness: tuple
    k_pi_1_predicted: bool


def lattice_equivalence_check(m: OrientedMatroid) -> LatticeEquivalenceReport:
    """is_simplicial must agree with every tope poset being a lattice."""
    simp, wit = is_simplicial(m)
    all_lat, lat_wit = True, None
    for t in m.topes():
        ok, pair = is_lattice(tope_poset(m, t).poset)
        if not ok:
            all_lat, lat_wit = False, (t, pair)
            break
    if simp != all_lat:
        raise EquivalenceViolation(
            f"simplicial={simp} but all-tope-posets-lattices={all_lat}")
    return LatticeEquivalenceReport(simp, wit, all_lat, lat_wit, simp)
