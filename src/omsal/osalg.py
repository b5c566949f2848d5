"""Underlying matroid, broken circuits, nbc counts, and the rank comparison.

The flats are the zero sets of the covectors (BLSWZ, Oriented Matroids);
they are ranked once per matroid, and rank, circuits and nbc sets are
read from that table.  The Orlik-Solomon algebra is represented only
through its nbc counts, which are compared degree by degree against
Salvetti homology.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import AxiomFailure, ComparisonFailure, NotSimple
from .matroid import OrientedMatroid
from .posets import iter_bits
from .salvetti import salvetti_chain_complex


def _flat_ranks(m) -> dict[int, int]:
    # {zero mask: rank} of the flats of m.  They form a lattice graded
    # by rank, so in order of size a flat's rank is one more than the
    # highest rank of a flat before it that it contains, or 0 for none
    report = m.verify()
    if not report.passes:
        raise AxiomFailure(report)
    ranks = {}
    for z in sorted({x.zero_mask for x in m.covectors}, key=int.bit_count):
        ranks[z] = 1 + max((r for f, r in ranks.items() if not f & ~z), default=-1)
    return ranks


class UnderlyingMatroid:
    """The matroid on {1..n} whose flats are the covector zero sets;
    built by flats_from_covectors."""

    def __init__(self, n, ranks):
        self.n = n
        self._ranks = ranks

    def rank(self, s=None) -> int:
        """The least rank of a flat containing s (default: the ground set)."""
        mask = (1 << self.n) - 1 if s is None else sum(1 << (e - 1) for e in set(s))
        return min(r for z, r in self._ranks.items() if not mask & ~z)


def flats_from_covectors(m: OrientedMatroid) -> UnderlyingMatroid:
    """The matroid whose flats are the covector zero sets.

    Raises AxiomFailure, with the report, when the set does not verify.
    """
    return UnderlyingMatroid(m.n, m.derived(_flat_ranks))


def circuits(u: UnderlyingMatroid) -> list[frozenset]:
    """Inclusion-minimal dependent sets, smallest first, then in
    lexicographic order.  None is larger than rank + 1: every larger
    set holds a dependent set of that size."""
    found = []
    for size in range(1, u.rank() + 2):
        for s in combinations(range(1, u.n + 1), size):
            fs = frozenset(s)
            if not any(c <= fs for c in found) and u.rank(fs) < size:
                found.append(fs)
    return found


class NbcTable(NamedTuple):
    broken_circuits: tuple
    nbc_by_size: tuple  # tuple of tuples of frozensets, index = cardinality

    def counts(self) -> tuple[int, ...]:
        """Ranks of the Orlik-Solomon algebra: b_k = #nbc sets of size k."""
        return tuple(len(layer) for layer in self.nbc_by_size)


def nbc_sets(u: UnderlyingMatroid, order=None) -> NbcTable:
    """Independent sets containing no broken circuit, grouped by size.

    A broken circuit is a circuit minus its order-minimal element, listed
    once however many circuits break to it; the default order is
    1 < 2 < ... < n.
    """
    order = tuple(range(1, u.n + 1)) if order is None else tuple(order)
    if sorted(order) != list(range(1, u.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{u.n}")
    pos = {e: i for i, e in enumerate(order)}
    broken = {c - {min(c, key=pos.get)} for c in circuits(u)}
    # no independence test: a dependent set holds a circuit C, and so
    # the broken circuit C - min C
    layers = tuple(tuple(s for s in map(frozenset, combinations(range(1, u.n + 1), size))
                         if not any(b <= s for b in broken))
                   for size in range(u.rank() + 1))
    return NbcTable(tuple(sorted(broken, key=lambda b: (len(b), sorted(b)))), layers)


def gr_comparison(m: OrientedMatroid) -> tuple[int, ...]:
    """The nbc counts, once they equal the Salvetti homology ranks degree
    by degree.

    Raises ComparisonFailure on the first degree where the ranks differ
    or torsion appears; also insists the nbc counts alternate to zero.
    The comparison holds only without loops, so a loop raises NotSimple.
    """
    # the loops are the elements of the rank-0 flat
    ranks = m.derived(_flat_ranks)
    loops = [str(e + 1) for e in iter_bits(min(ranks, key=ranks.get))]
    if loops:
        raise NotSimple(f"element {loops[0]} is a loop" if len(loops) == 1 else
                        f"elements {', '.join(loops)} are loops")
    groups = salvetti_chain_complex(m).homology()
    betti = tuple(g.betti for g in groups)
    bs = nbc_sets(flats_from_covectors(m)).counts()
    top = max(len(betti), len(bs))
    betti += (0,) * (top - len(betti))
    bs += (0,) * (top - len(bs))
    for k, g in enumerate(groups):
        if g.torsion:
            raise ComparisonFailure(f"torsion {g.torsion} in degree {k}")
    for k, (b, h) in enumerate(zip(bs, betti)):
        if b != h:
            raise ComparisonFailure(f"degree {k}: os rank {b} != homology rank {h}")
    if m.n and sum((-1) ** k * b for k, b in enumerate(bs)) != 0:
        raise ComparisonFailure("os ranks do not alternate to zero")
    return bs
