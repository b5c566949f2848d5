"""Finite posets closed from their covers, with grading, chains, lattices.

Up-sets and down-sets are bitmasks over element indices, so subset tests
and transitive reduction are single integer operations even for posets
with a few hundred elements.  Every poset of the package is closed from
a cover relation (face, Salvetti and tope posets and .cw files) or is
the dual of one.  The generating pairs are kept as masks
both ways, above and below each element, and one closure closes each
list, so neither the down-masks nor the dual are derived again; only
cycles need a check.  The pairs above an element are its only cover
candidates, and the pairs below it give its height.  Chains are counted
from the down-masks and listed, layer by layer, from the up-masks.  This
module is a leaf: it imports nothing from the package but its errors.
"""

from __future__ import annotations

from .errors import NotAntisymmetric


def iter_bits(mask: int):
    """The positions of the set bits of mask, lowest first (0-based)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(generated, ascending, once):
    """Reflexive, transitive closure: each index, in ascending or
    descending order, takes in the closed masks of its generating bits.
    One pass closes them when every bit comes earlier in that order
    (once); otherwise passes repeat until nothing changes."""
    n = len(generated)
    closed = [(1 << i) | g for i, g in enumerate(generated)]
    changed = True
    while changed:
        changed = False
        for i in range(n) if ascending else range(n - 1, -1, -1):
            m = closed[i]
            for j in iter_bits(generated[i]):
                m |= closed[j]
            if m != closed[i]:
                closed[i] = m
                changed = True
        changed = changed and not once
    return closed


class FinitePoset:
    """An explicit finite poset: reflexive, transitive up- and down-masks,
    and the generating pairs above and below each element.

    Build one with FinitePoset.from_covers, which closes a cover
    relation and rejects cycles, or take the dual of one.
    """

    def __init__(self, elements, up, down, above, below):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self._up, self._down = up, down
        self._above, self._below = above, below
        self._covers = None
        self._heights = None

    @classmethod
    def from_covers(cls, elements, index_cover_pairs) -> "FinitePoset":
        """The poset generated by index pairs (i, j), j covering i.

        The pairs are closed reflexively and transitively; a cycle raises
        NotAntisymmetric with the pair (x, y), x <= y <= x, of the lowest
        index x and then the lowest index y.  When every pair points to a
        higher index (the Salvetti poset) one sweep closes the up-masks
        from the top index down and one closes the down-masks from the
        bottom up; when every pair points to a lower index (the face
        poset) the sweeps run the other way.  Any other input is swept
        until nothing changes.

        Every cover of the closure is a generating pair, so the pairs
        above each element are the only candidates for covers().
        Duplicates, self pairs and pairs implied by others drop out.
        """
        n = len(elements)
        above, below = [0] * n, [0] * n
        rising = falling = True
        for a, b in index_cover_pairs:
            if a != b:
                above[a] |= 1 << b
                below[b] |= 1 << a
                rising = rising and a < b
                falling = falling and a > b
        poset = cls(elements, _close(above, falling, rising or falling),
                    _close(below, rising, rising or falling), above, below)
        for i in range(n):
            cycle = poset._up[i] & poset._down[i] & ~(1 << i)
            if cycle:
                j = next(iter_bits(cycle))
                raise NotAntisymmetric((poset.elements[i], poset.elements[j]))
        return poset

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def maximal_indices(self):
        return [i for i in range(len(self.elements))
                if self._up[i] == 1 << i]

    def minimal_indices(self):
        return [i for i in range(len(self.elements))
                if self._down[i] == 1 << i]

    # -- covers and heights ------------------------------------------------

    def covers(self):
        """Sorted list of index pairs (i, j) with j covering i.

        Only the pairs above each element are tested, one mask test
        each: the generating pairs of from_covers, or every comparable
        pair of a poset given by its relation.
        """
        if self._covers is None:
            out = []
            for i in range(len(self.elements)):
                for j in iter_bits(self._above[i]):
                    if not self._up[i] & self._down[j] & ~(1 << i | 1 << j):
                        out.append((i, j))
            self._covers = out
        return self._covers

    def heights(self):
        """Longest-chain height of every element (minimal elements at 0),
        one above the highest of the pairs below it, which hold its covers.
        """
        if self._heights is None:
            n = len(self.elements)
            h = [0] * n
            order = sorted(range(n), key=lambda i: self._down[i].bit_count())
            for i in order:
                h[i] = max((h[j] + 1 for j in iter_bits(self._below[i])),
                           default=0)
            self._heights = h
        return self._heights

    def height(self) -> int:
        return max(self.heights(), default=0)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.elements, self._down, self._up,
                           self._below, self._above)

    def comparability_mask(self, i: int) -> int:
        return self._up[i] | self._down[i]

    # -- chains -------------------------------------------------------------

    def chain_counts(self):
        """The number of chains with k + 1 elements, for each k, read off
        the down-masks without listing a chain: those topped by x extend
        the chains one element shorter topped by an element below x."""
        below = [list(iter_bits(d ^ (1 << i))) for i, d in enumerate(self._down)]
        counts = []
        level = [1] * len(below)
        while any(level):
            counts.append(sum(level))
            level = [sum(map(level.__getitem__, b)) for b in below]
        return counts

    def chain_layers(self):
        """Every nonempty chain as a tuple of indices, bottom up, in layers:
        layer k holds the chains of k + 1 elements.  Each layer extends
        every chain of the one before by each element strictly above its
        top, so each chain comes out once and every layer is in
        lexicographic order."""
        above = [list(iter_bits(u ^ (1 << i))) for i, u in enumerate(self._up)]
        layers = []
        layer = [(i,) for i in range(len(above))]
        while layer:
            layers.append(layer)
            layer = [c + (j,) for c in layer for j in above[c[-1]]]
        return layers


def is_lattice(poset: FinitePoset):
    """(True, None) when every pair has a meet and a join, else a witness.

    The witness is (x, y, which) where which is 'join' or 'meet'.
    """
    n = len(poset)
    for i in range(n):
        for j in range(i + 1, n):
            common_up = poset.up_mask(i) & poset.up_mask(j)
            if not _has_unique_extreme(poset, common_up, above=False):
                return False, (poset.elements[i], poset.elements[j], "join")
            common_dn = poset.down_mask(i) & poset.down_mask(j)
            if not _has_unique_extreme(poset, common_dn, above=True):
                return False, (poset.elements[i], poset.elements[j], "meet")
    return True, None


def _has_unique_extreme(poset, mask, above):
    if not mask:
        return False
    count = 0
    for k in iter_bits(mask):
        inner = (poset.down_mask(k) if not above else poset.up_mask(k)) & mask
        if inner == 1 << k:
            count += 1
            if count > 1:
                return False
    return count == 1
