"""Tope metrics, tope posets, simpliciality, minimal positive paths.

Tope distance is the separation count; the oriented 1-skeleton realizes
it as graph distance.  Each tope keeps its neighbours with the element
crossed to reach them, so minimal positive paths are enumerated by a
depth-first walk that carries the elements still separating it from the
target and steps only across one of them, clearing it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConsistencyFailure, EquivalenceViolation, NotATope, NotSimple
from .matroid import OrientedMatroid
from .posets import FinitePoset, is_lattice, iter_bits
from .salvetti import DirectedEdge, SalvettiCell, oriented_one_skeleton
from .signs import SignVector, separation_mask


def _require_tope(m: OrientedMatroid, t: SignVector):
    if not m.is_tope(t):
        raise NotATope(f"{t} is not a tope")


def tope_distance(m: OrientedMatroid, t: SignVector, s: SignVector) -> int:
    """Number of elements separating the topes t and s."""
    _require_tope(m, t)
    _require_tope(m, s)
    return separation_mask(t, s).bit_count()


def _adjacency(m: OrientedMatroid):
    adj: dict[SignVector, list] = {t: [] for t in m.topes()}
    for x, a, b in m.derived(oriented_one_skeleton):
        diff = separation_mask(a, b)
        if diff & (diff - 1):
            elements = ", ".join(str(k + 1) for k in iter_bits(diff))
            raise NotSimple(
                f"elements {elements} are parallel: adjacent topes "
                f"{a}, {b} differ on all of them")
        k = diff.bit_length()
        adj[a].append((k, b, DirectedEdge(SalvettiCell(x, a, 1), b)))
        adj[b].append((k, a, DirectedEdge(SalvettiCell(x, b, 1), a)))
    return {t: tuple(sorted(steps, key=lambda s: s[0]))
            for t, steps in adj.items()}


def skeleton_adjacency(m: OrientedMatroid):
    """tope -> (crossed element, neighbor, directed edge) triples, by element.

    Built once per matroid from its oriented 1-skeleton; every caller
    gets the same dict of tuples, which must not be modified.
    """
    return m.derived(_adjacency)


class PositivePath(NamedTuple):
    """A walk from the tope start along directed edges; () stays at start."""

    start: SignVector
    edges: tuple

    def topes(self):
        out = [self.start]
        out.extend(e.target for e in self.edges)
        return out

    def __str__(self):
        return " -> ".join(str(t) for t in self.topes())


def minimal_positive_paths(m: OrientedMatroid, t: SignVector, s: SignVector):
    """All minimal positive paths t -> s, lexicographic by crossed elements.

    The walk steps only across an element that still separates it from
    s and then drops that element, so each returned path has length
    tope_distance(t, s) and crosses every separating element exactly
    once by construction; a walk that has crossed them all must stand
    at s.  Steps are taken in the order of their crossed elements, so
    the paths come out sorted.
    """
    _require_tope(m, t)
    _require_tope(m, s)
    adj = skeleton_adjacency(m)
    out = []
    stack = [(t, separation_mask(t, s), ())]
    while stack:
        cur, left, edges = stack.pop()
        if not left:
            if cur != s:
                raise ConsistencyFailure(
                    f"path {PositivePath(t, edges)} crosses every element "
                    f"separating {t} from {s} but ends at {cur}")
            out.append(PositivePath(t, edges))
            continue
        for k, nb, e in reversed(adj[cur]):
            if left >> (k - 1) & 1:
                stack.append((nb, left ^ 1 << (k - 1), edges + (e,)))
    return out


def antipodal_extension_check(m: OrientedMatroid, pairs=None) -> bool:
    """Every minimal positive path t -> s extends to one from t to -t.

    Such a path crosses each element separating t from s once, and it
    extends exactly when a walk from s reaches -t across each of the
    other elements once.  Both walks, t -> s and s -> -t, are taken
    greedily, smallest crossing first; one stuck or ending off its target
    refutes the pair.  pairs limits the ordered tope pairs examined
    (default: all of them); a non-tope among them raises NotATope.
    """
    adj = skeleton_adjacency(m)
    tope_list = m.topes()
    if pairs is None:
        pairs = [(t, s) for t in tope_list for s in tope_list if t != s]

    def walk(cur, target):
        left = separation_mask(cur, target)
        while left:
            step = next(((k, nb) for k, nb, _ in adj[cur]
                         if left >> (k - 1) & 1), None)
            if step is None:
                return False
            left ^= 1 << (step[0] - 1)
            cur = step[1]
        return cur == target

    for t, s in pairs:
        _require_tope(m, t)
        _require_tope(m, s)
        if not (walk(t, s) and walk(s, -t)):
            return False
    return True


# -- tope posets ---------------------------------------------------------------


def tope_poset(m: OrientedMatroid, t: SignVector) -> FinitePoset:
    """Topes ordered by inclusion of separation sets from the base t.

    The tope graph directed away from t, a -> b with S(t, a) inside
    S(t, b), is the Hasse diagram of this order (BLSWZ, Oriented
    Matroids, 4.2; Edelman 1984), so the poset is the closure of the
    walls of the oriented 1-skeleton, each directed away from t.
    """
    _require_tope(m, t)
    topes = m.topes()
    pos = {s: i for i, s in enumerate(topes)}
    covers = ((pos[a], pos[b]) if not separation_mask(t, a) & ~separation_mask(t, b)
              else (pos[b], pos[a]) for _, a, b in m.derived(oriented_one_skeleton))
    return FinitePoset.from_covers(topes, covers)


# -- simpliciality ---------------------------------------------------------------


def _interval_is_boolean(m: OrientedMatroid, t: SignVector) -> bool:
    # [0, t] is read off t's down-mask.  It is atomic (BLSWZ 3.7), so
    # the 2^rank sets of its rank atoms reach all of it by composition,
    # and when it has 2^rank elements no two sets give one vector.  A
    # composition of atoms has t's signs on its support, so conformity
    # is support inclusion, and supp(A) <= supp(B) means A | B and B give
    # one vector, so A <= B: the interval is the Boolean lattice
    face = m.face_poset()
    heights = face.heights()
    below = face.down_mask(face.index[t])
    return below.bit_count() == 1 << m.rank and \
        sum(heights[j] == 1 for j in iter_bits(below)) == m.rank


def is_simplicial(m: OrientedMatroid):
    """True iff every interval [**0**, T] is Boolean on rank(M) atoms."""
    for t in m.topes():
        if not _interval_is_boolean(m, t):
            return False, t
    return True, None


class LatticeEquivalenceReport(NamedTuple):
    simplicial: bool
    simplicial_witness: SignVector
    lattice_witness: tuple


def lattice_equivalence_check(m: OrientedMatroid) -> LatticeEquivalenceReport:
    """is_simplicial must agree with every tope poset being a lattice;
    EquivalenceViolation is raised otherwise, so simplicial answers both."""
    simp, wit = is_simplicial(m)
    all_lat, lat_wit = True, None
    for t in m.topes():
        ok, pair = is_lattice(tope_poset(m, t))
        if not ok:
            all_lat, lat_wit = False, (t, pair)
            break
    if simp != all_lat:
        raise EquivalenceViolation(
            f"simplicial={simp} but all-tope-posets-lattices={all_lat}")
    return LatticeEquivalenceReport(simp, wit, lat_wit)
