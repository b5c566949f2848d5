"""The Salvetti complex of an oriented matroid as an explicit cell poset.

Cells are pairs [X, T] of a covector and a tope above it; the face
relation is [Y, S] <= [X, T] iff X <= Y and Y o T = S (the smaller cell
sits left so poset height equals cell dimension).  The poset is built
as the transitive closure of the facet covers: the facets of [X, T] are
the cells [Y, Y o T] with Y covering X in the face poset.  It is the face
poset of a regular CW complex, so its integer homology is computed on the
cells themselves from those covers.  The nerve
built from the pairwise intersection rule is checked to coincide with
the order complex, and the theorem-level count/retraction checks live
here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyFailure, InvalidCell, NotATope
from .homology import HomologyGroup, IntegerChainComplex
from .limits import check_cap
from .matroid import OrientedMatroid
from .posets import FinitePoset
from .signs import SignVector, compose, conforms


@dataclass(frozen=True)
class SalvettiCell:
    covector: SignVector
    tope: SignVector
    dim: int

    def __str__(self):
        return f"[{self.covector},{self.tope}]"

    def __repr__(self):
        return f"SalvettiCell({self.covector!r}, {self.tope!r}, dim={self.dim})"


def _sort_key(c: SalvettiCell):
    return (c.dim, str(c.covector), str(c.tope))


def cell_leq(a: SalvettiCell, b: SalvettiCell) -> bool:
    """a is a face of b: b.covector <= a.covector and a.covector o b.tope = a.tope."""
    return (conforms(b.covector, a.covector)
            and compose(a.covector, b.tope) == a.tope)


def _salvetti_poset(m: OrientedMatroid) -> FinitePoset:
    rank = m.rank
    heights = m.heights()
    tope_list = m.topes()
    face = m.face_poset()
    covs = face.elements
    above = [[t for t in tope_list if conforms(x, t)] for x in covs]
    cells = sorted((SalvettiCell(x, t, rank - heights[x])
                    for x, ts in zip(covs, above) for t in ts), key=_sort_key)
    index = {(c.covector, c.tope): k for k, c in enumerate(cells)}
    # [X, T] covers its facets [Y, Y o T], Y covering X; the face poset
    # is graded, so the closure of these covers is exactly cell_leq.
    covers = ((index[covs[j], compose(covs[j], t)], index[covs[i], t])
              for i, j in face.covers() for t in above[i])
    return FinitePoset.from_covers(cells, covers)


def build_salvetti_poset(m: OrientedMatroid) -> FinitePoset:
    """All cells [X, T] with X <= T, ordered by the face rule above.

    The cap is checked on every call; the poset is built once per
    matroid and shared, so it must not be modified.
    """
    check_cap(m.n)
    return m.derived(_salvetti_poset)


def cellular_homology(poset: FinitePoset) -> list[HomologyGroup]:
    """Integer homology of a Salvetti cell poset, computed on its cells.

    The incidence numbers come from the covers by the diamond rule of
    IntegerChainComplex.from_cw_covers, which raises ConsistencyFailure
    when the poset is not the face poset of a regular CW complex.
    """
    return IntegerChainComplex.from_cw_covers(
        [c.dim for c in poset.elements], poset.covers()).homology()


def boundary_cells(c: SalvettiCell, m: OrientedMatroid) -> set[SalvettiCell]:
    """All proper faces of c: {[Y, Y o T] : Y strictly above X in L}."""
    _validate_cell(c, m)
    rank = m.rank
    heights = m.heights()
    out = set()
    for y in m.covectors:
        if y != c.covector and conforms(c.covector, y):
            out.add(SalvettiCell(y, compose(y, c.tope), rank - heights[y]))
    return out


def _validate_cell(c: SalvettiCell, m: OrientedMatroid):
    if c.covector not in m.covectors:
        raise InvalidCell(f"{c.covector} is not a covector")
    if not m.is_tope(c.tope):
        raise NotATope(f"{c.tope} is not a tope")
    if not conforms(c.covector, c.tope):
        raise InvalidCell(f"{c.covector} is not a face of the tope {c.tope}")
    if c.dim != m.rank - m.height(c.covector):
        raise InvalidCell(f"cell {c} carries dimension {c.dim}, "
                          f"expected {m.rank - m.height(c.covector)}")


def f_vector_and_euler(poset: FinitePoset):
    """(f-vector, Euler characteristic) with the theorem checks applied.

    f_0 and f_rank must both equal the number of topes and the
    alternating sum must vanish; violations raise, since they would mean
    the complex upstream is corrupt.
    """
    top = max(c.dim for c in poset.elements)
    fv = [0] * (top + 1)
    for c in poset.elements:
        fv[c.dim] += 1
    fv = tuple(fv)
    euler = sum((-1) ** k * f for k, f in enumerate(fv))
    ntopes = len({c.tope for c in poset.elements if c.dim == 0})
    if fv[0] != ntopes or fv[top] != ntopes:
        raise ConsistencyFailure(
            f"f_0={fv[0]}, f_top={fv[top]} but #topes={ntopes}")
    if euler != 0:
        raise ConsistencyFailure(f"Euler characteristic {euler} != 0")
    return fv, euler


# -- oriented 1-skeleton ------------------------------------------------------


@dataclass(frozen=True)
class DirectedEdge:
    cell: SalvettiCell
    source: SignVector
    target: SignVector


@dataclass(frozen=True)
class OrientedSkeleton:
    vertices: tuple
    edges: tuple


def oriented_one_skeleton(m: OrientedMatroid) -> OrientedSkeleton:
    """Each 1-cell [X, T] becomes the directed edge [T,T] -> [T',T'].

    T' is the unique other tope above X, so edges come in opposite
    pairs and every vertex has in-degree equal to out-degree.
    """
    tope_list = m.topes()
    rank = m.rank
    heights = m.heights()
    edges = []
    for x in m.sorted_covectors():
        if heights[x] != rank - 1:
            continue
        above = [t for t in tope_list if conforms(x, t)]
        if len(above) != 2:
            raise ConsistencyFailure(
                f"1-cell covector {x} has {len(above)} topes above it")
        a, b = above
        edges.append(DirectedEdge(SalvettiCell(x, a, 1), a, b))
        edges.append(DirectedEdge(SalvettiCell(x, b, 1), b, a))
    return OrientedSkeleton(tuple(tope_list), tuple(edges))


# -- nerve comparison ---------------------------------------------------------


def _pairwise_intersecting(a: SalvettiCell, b: SalvettiCell) -> bool:
    # Open stars of (F1,T1), (F2,T2) meet iff F1 <= F2 and T2 = F2 o T1,
    # one way or the other.
    return ((conforms(a.covector, b.covector) and compose(b.covector, a.tope) == b.tope)
            or (conforms(b.covector, a.covector) and compose(a.covector, b.tope) == a.tope))


def _max_cliques(adj, n):
    """Bron-Kerbosch with pivoting; adjacency as bitmasks."""
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot_pool = p | x
        u = (pivot_pool & -pivot_pool).bit_length() - 1
        best = u
        best_deg = (p & adj[u]).bit_count()
        mm = pivot_pool
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            d = (p & adj[v]).bit_count()
            if d > best_deg:
                best, best_deg = v, d
        cand = p & ~adj[best]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
    if n:
        bk(0, (1 << n) - 1, 0)
    return out


def nerve_check(m: OrientedMatroid):
    """Nerve from the pairwise rule vs the Salvetti order complex.

    Builds the intersection graph of the open-star cover independently
    of the poset, takes its clique complex, and compares facets with the
    maximal chains of the Salvetti poset.  Returns (True, stats) or
    (False, witness).
    """
    poset = build_salvetti_poset(m)
    cells = poset.elements
    n = len(cells)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _pairwise_intersecting(cells[i], cells[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    for i in range(n):
        comparable = (poset.up_mask(i) | poset.down_mask(i)) & ~(1 << i)
        if adj[i] != comparable:
            diff = adj[i] ^ comparable
            j = (diff & -diff).bit_length() - 1
            return False, (cells[i], cells[j])

    nerve_facets = {frozenset(poset.iter_mask(mask)) for mask in _max_cliques(adj, n)}
    chain_facets = {frozenset(ch) for ch, mx in poset.iter_chains() if mx}
    if nerve_facets != chain_facets:
        odd = next(iter(nerve_facets ^ chain_facets))
        return False, tuple(cells[i] for i in sorted(odd))

    stats = {
        "vertices": n,
        "edges": sum(a.bit_count() for a in adj) // 2,
        "facets": len(nerve_facets),
    }
    return True, stats


# -- theorem-level checks -----------------------------------------------------


def retraction_check(m: OrientedMatroid, t: SignVector) -> bool:
    """The covector poset is a retract of the Salvetti poset via T.

    Verifies on the built poset that X -> [X, X o T] lands on cells and
    reverses order: [Y, Y o T] <= [X, X o T] for every face-poset cover
    X < Y, which suffices because the poset is transitive.  The
    projection [X, T'] -> X undoes the embedding and reverses order by
    construction of the cells, so it is not re-tested.
    """
    if not m.is_tope(t):
        raise NotATope(f"{t} is not a tope")
    poset = build_salvetti_poset(m)
    face = m.face_poset()
    embed = [poset.index.get(SalvettiCell(x, compose(x, t), m.rank - m.height(x)))
             for x in face.elements]
    if None in embed:
        return False
    return all(poset.up_mask(embed[j]) >> embed[i] & 1 for i, j in face.covers())


def chain_determination_check(m: OrientedMatroid) -> bool:
    """Chains are fixed by (covector chain, tope of the largest cell).

    Equivalently, the cells below [X, T] are exactly the cells
    [Y, Y o T] with X <= Y: every comparable pair of the built poset
    must satisfy cell_leq, and every cell must have as many cells below
    it as its covector has covectors above it, so that none is missing.
    """
    poset = build_salvetti_poset(m)
    face = m.face_poset()
    cells = poset.elements
    for j, d in enumerate(cells):
        below = poset.down_mask(j)
        if below.bit_count() != face.up_mask(face.index[d.covector]).bit_count():
            return False
        if not all(cell_leq(cells[i], d) for i in poset.iter_mask(below)):
            return False
    return True
