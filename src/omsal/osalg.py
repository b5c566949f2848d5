"""Underlying matroid, broken circuits, nbc counts, and the rank comparison.

The flats are the zero sets of the covectors; everything else (rank,
closure, circuits, nbc sets) is derived from the flat lattice.  The
Orlik-Solomon algebra is represented only through its nbc counts, which
are compared degree by degree against Salvetti homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ComparisonFailure
from .matroid import OrientedMatroid
from .posets import FinitePoset, build_poset
from .salvetti import build_salvetti_poset, cellular_homology


class UnderlyingMatroid:
    """A matroid given by its lattice of flats (subsets of {1..n})."""

    def __init__(self, n, flats):
        self.n = int(n)
        self.flats = frozenset(frozenset(f) for f in flats)
        ground = frozenset(range(1, self.n + 1))
        if ground not in self.flats:
            raise ValueError("ground set is not a flat")
        for a in self.flats:
            for b in self.flats:
                if a & b not in self.flats:
                    raise ValueError(f"flats not intersection-closed: {set(a)} & {set(b)}")
        self._poset = None
        self._rank_cache = {}

    def lattice(self) -> FinitePoset:
        if self._poset is None:
            elems = sorted(self.flats, key=lambda f: (len(f), sorted(f)))
            self._poset = build_poset(elems, lambda a, b: a <= b)
        return self._poset

    def closure(self, s) -> frozenset:
        s = frozenset(s)
        out = None
        for f in self.flats:
            if s <= f:
                out = f if out is None else out & f
        if out is None:
            raise ValueError(f"{set(s)} is not contained in the ground set")
        return out

    def rank(self, s=None) -> int:
        if s is None:
            s = frozenset(range(1, self.n + 1))
        key = frozenset(s)
        if key not in self._rank_cache:
            self._rank_cache[key] = self.lattice().height_of(self.closure(key))
        return self._rank_cache[key]

    def is_independent(self, s) -> bool:
        return self.rank(s) == len(frozenset(s))


def flats_from_covectors(m: OrientedMatroid) -> UnderlyingMatroid:
    """The matroid whose flats are the covector zero sets."""
    return UnderlyingMatroid(m.n, {x.zero_set() for x in m.covectors})


def circuits(u: UnderlyingMatroid) -> list[frozenset]:
    """Inclusion-minimal dependent sets, smallest first."""
    found = []
    ground = range(1, u.n + 1)
    for size in range(1, u.n + 1):
        for s in combinations(ground, size):
            fs = frozenset(s)
            if any(c <= fs for c in found):
                continue
            if u.rank(fs) < size:
                found.append(fs)
    return sorted(found, key=lambda c: (len(c), sorted(c)))


@dataclass(frozen=True)
class NbcTable:
    order: tuple
    circuits: tuple
    broken_circuits: tuple
    nbc_by_size: tuple  # tuple of tuples of frozensets, index = cardinality

    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.nbc_by_size)


def nbc_sets(u: UnderlyingMatroid, order=None) -> NbcTable:
    """Independent sets containing no broken circuit, grouped by size.

    A broken circuit is a circuit minus its order-minimal element; the
    default order is 1 < 2 < ... < n.
    """
    if order is None:
        order = tuple(range(1, u.n + 1))
    order = tuple(order)
    if sorted(order) != list(range(1, u.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{u.n}")
    pos = {e: i for i, e in enumerate(order)}
    circs = circuits(u)
    broken = [c - {min(c, key=pos.get)} for c in circs]
    rank = u.rank()
    layers = [[] for _ in range(rank + 1)]
    for size in range(rank + 1):
        for s in combinations(range(1, u.n + 1), size):
            fs = frozenset(s)
            if not u.is_independent(fs):
                continue
            if any(b <= fs for b in broken):
                continue
            layers[size].append(fs)
    return NbcTable(
        order,
        tuple(circs),
        tuple(sorted(broken, key=lambda b: (len(b), sorted(b)))),
        tuple(tuple(sorted(layer, key=sorted)) for layer in layers),
    )


def os_betti(u: UnderlyingMatroid, order=None) -> tuple[int, ...]:
    """Ranks of the Orlik-Solomon algebra: b_k = #nbc sets of size k."""
    return nbc_sets(u, order).counts()


@dataclass(frozen=True)
class GrComparison:
    os: tuple
    homology_betti: tuple
    torsion: tuple
    matches: bool

    def __str__(self):
        rows = ["deg  os  H_k"]
        for k, (b, h) in enumerate(zip(self.os, self.homology_betti)):
            rows.append(f"{k:>3} {b:>3} {h:>4}")
        rows.append("match" if self.matches else "MISMATCH")
        return "\n".join(rows)


def gr_comparison(m: OrientedMatroid) -> GrComparison:
    """Salvetti homology ranks vs nbc counts, degree by degree.

    Raises ComparisonFailure on the first degree where the ranks differ
    or torsion appears; also insists the nbc counts alternate to zero.
    """
    groups = cellular_homology(build_salvetti_poset(m))
    betti = tuple(g.betti for g in groups)
    bs = os_betti(flats_from_covectors(m))
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
    torsion = tuple(t for g in groups for t in g.torsion)
    return GrComparison(bs, betti, torsion, True)
