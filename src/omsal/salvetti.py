"""The Salvetti complex of an oriented matroid as its graded facet covers.

Cells are pairs [X, T] of a covector and a tope above it; the face
relation is [Y, S] <= [X, T] iff X <= Y and Y o T = S (the smaller cell
sits left so poset height equals cell dimension).  The facets of [X, T]
are the cells [Y, Y o T] with Y covering X in the face poset.  Both are
read off that poset: its covectors and topes are in sign-string order,
its up-masks name the topes above each covector and its covers give the
facets, so the cells come out in canonical order with no sort.  The
cells and their covers define the regular CW complex, and its f-vector,
integer homology and .poset text are read off them.  Only the callers
that read up- and down-masks (the checks below, MH and the matrix dump)
close the covers into a poset.  The nerve of the open-star cover is
checked against the order complex through the comparability masks of
that poset, and the theorem-level count/retraction checks live here too.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConsistencyFailure, NotATope
from .limits import check_cap
from .matroid import OrientedMatroid
from .posets import FinitePoset, iter_bits
from .signs import SignVector, compose, conforms


class SalvettiCell(NamedTuple):
    covector: SignVector
    tope: SignVector
    dim: int

    def __str__(self):
        return f"[{self.covector},{self.tope}]"

    def __repr__(self):
        return f"SalvettiCell({self.covector!r}, {self.tope!r}, dim={self.dim})"


def cell_leq(a: SalvettiCell, b: SalvettiCell) -> bool:
    """a is a face of b: b.covector <= a.covector and a.covector o b.tope = a.tope."""
    return (conforms(b.covector, a.covector)
            and compose(a.covector, b.tope) == a.tope)


def _salvetti_complex(m: OrientedMatroid):
    rank = m.rank
    face = m.face_poset()
    covs, heights = face.elements, face.heights()
    topes = sum(1 << i for i in face.maximal_indices())
    above = [list(iter_bits(face.up_mask(i) & topes)) for i in range(len(covs))]
    # covectors and topes are indexed in sign-string order, so visiting
    # the covectors by height, stably, emits the cells in canonical
    # (dimension, covector, tope) order; a cell is keyed by its covector
    # and its tope's plus mask, so [Y, Y o T] by (Y, Y+ | T+ & ~Y-)
    cells, index = [], {}
    for i in sorted(range(len(covs)), key=lambda i: -heights[i]):
        for t in above[i]:
            index[i, covs[t].plus] = len(cells)
            cells.append(SalvettiCell(covs[i], covs[t], rank - heights[i]))
    # [X, T] covers its facets [Y, Y o T], Y covering X; the face poset
    # is graded, so these pairs are exactly the covers of cell_leq.
    covers = sorted((index[j, covs[j].plus | covs[t].plus & ~covs[j].minus],
                     index[i, covs[t].plus]) for i, j in face.covers() for t in above[i])
    return cells, covers


def salvetti_complex(m: OrientedMatroid):
    """(cells, covers): the cells [X, T] with X <= T in canonical order,
    and the sorted index pairs (facet, cell) of the face rule above.

    The cap is checked on every call; the pair is built once per matroid
    and shared, so neither list may be modified.
    """
    check_cap(m.n)
    return m.derived(_salvetti_complex)


def _salvetti_poset(m: OrientedMatroid) -> FinitePoset:
    return FinitePoset.from_covers(*salvetti_complex(m))


def build_salvetti_poset(m: OrientedMatroid) -> FinitePoset:
    """The closure of salvetti_complex(m), for callers that read masks;
    capped, kept and shared like the pair, so it must not be modified."""
    check_cap(m.n)
    return m.derived(_salvetti_poset)


def f_vector_and_euler(cells):
    """(f-vector, Euler characteristic) of Salvetti cells, checked.

    f_0 and f_rank must both equal the number of topes and the
    alternating sum must vanish, except on the point, the complex of
    rank 0, whose sum is 1; violations raise, since they would mean the
    complex upstream is corrupt.
    """
    top = max(c.dim for c in cells)
    fv = [0] * (top + 1)
    for c in cells:
        fv[c.dim] += 1
    fv = tuple(fv)
    euler = sum((-1) ** k * f for k, f in enumerate(fv))
    ntopes = len({c.tope for c in cells if c.dim == 0})
    if fv[0] != ntopes or fv[top] != ntopes:
        raise ConsistencyFailure(
            f"f_0={fv[0]}, f_top={fv[top]} but #topes={ntopes}")
    expected = 1 if fv == (1,) else 0
    if euler != expected:
        raise ConsistencyFailure(f"Euler characteristic {euler} != {expected}")
    return fv, euler


# -- oriented 1-skeleton ------------------------------------------------------


class DirectedEdge(NamedTuple):
    cell: SalvettiCell  # its tope is the source
    target: SignVector


def oriented_one_skeleton(m: OrientedMatroid) -> tuple:
    """The walls (X, a, b) of the tope graph: X of height rank - 1, in
    index order, and a, b the two topes above it, in index order.  The
    1-cells [X, a] and [X, b] are the directed edges a -> b and b -> a.
    """
    face = m.face_poset()
    rank, heights, covs = face.height(), face.heights(), face.elements
    walls = []
    for i, x in enumerate(covs):
        if heights[i] != rank - 1:
            continue
        above = [covs[j] for j in iter_bits(face.up_mask(i) & ~(1 << i))]
        if len(above) != 2:
            raise ConsistencyFailure(
                f"1-cell covector {x} has {len(above)} topes above it")
        walls.append((x, *above))
    return tuple(walls)


# -- nerve comparison ---------------------------------------------------------


def nerve_check(m: OrientedMatroid):
    """Nerve of the open-star cover vs the Salvetti order complex.

    Two open stars meet iff one cell is a face of the other, so the
    intersection graph is built from cell_leq alone and compared, cell by
    cell, with the comparability masks of the closed covers; once they
    agree its cliques are the chains.  Returns (True, stats), the maximal
    chains counted along the covers, or (False, (cell, cell)).
    """
    poset = build_salvetti_poset(m)
    cells = poset.elements
    n = len(cells)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if cell_leq(cells[i], cells[j]) or cell_leq(cells[j], cells[i]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    for i in range(n):
        comparable = poset.comparability_mask(i) & ~(1 << i)
        if adj[i] != comparable:
            j = next(iter_bits(adj[i] ^ comparable))
            return False, (cells[i], cells[j])

    # saturated chains from a minimal cell up to each cell; cells are sorted
    # by dimension and covers() by face, so each count is final when read
    chains = [0] * n
    for i in poset.minimal_indices():
        chains[i] = 1
    for i, j in poset.covers():
        chains[j] += chains[i]
    stats = {
        "vertices": n,
        "edges": sum(a.bit_count() for a in adj) // 2,
        "facets": sum(chains[i] for i in poset.maximal_indices()),
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
    rank, heights = face.height(), face.heights()
    embed = [poset.index.get(SalvettiCell(x, compose(x, t), rank - heights[i]))
             for i, x in enumerate(face.elements)]
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
        if not all(cell_leq(cells[i], d) for i in iter_bits(below)):
            return False
    return True
