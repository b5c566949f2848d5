"""Finite posets closed from their covers, with grading, chains, lattices.

Up-sets and down-sets are bitmasks over element indices, so subset tests
and transitive reduction are single integer operations even for posets
with a few hundred elements.  Every poset of the package is closed from
a cover relation (face, Salvetti and tope posets, flat lattices and .cw
files) or is the dual of one.  A closure is transitive by
construction, so only cycles need a check.  A poset
closed from its covers keeps the generating pairs as its only cover
candidates, so its covers need no transitive reduction over all
comparable pairs.  This module is a leaf: it imports nothing from the
package but its errors.
"""

from __future__ import annotations

from .errors import NotAntisymmetric


def iter_bits(mask: int):
    """The positions of the set bits of mask, lowest first (0-based)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """An explicit finite poset given by reflexive, transitive up-masks.

    Build one with FinitePoset.from_covers, which closes a cover
    relation and rejects cycles, or take the dual of one.
    """

    def __init__(self, elements, up_masks):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self._up = list(up_masks)
        n = len(self.elements)
        self._down = [0] * n
        for i in range(n):
            for j in iter_bits(self._up[i]):
                self._down[j] |= 1 << i
        self._cover_candidates = self._up
        self._covers = None
        self._heights = None

    @classmethod
    def from_covers(cls, elements, index_cover_pairs) -> "FinitePoset":
        """The poset generated by index pairs (i, j), j covering i.

        The pairs are closed reflexively and transitively; a cycle raises
        NotAntisymmetric with the pair (x, y), x <= y <= x, of the lowest
        index x and then the lowest index y.  When every pair points to a
        higher index (the Salvetti poset) one sweep from the top index
        down closes them, and when every pair points to a lower index
        (the face poset) one sweep from the bottom up does.  Any other
        input is swept from the top down until nothing changes.

        Every cover of the closure is a generating pair, so the poset
        keeps the generating pairs as the only candidates for covers():
        those (i, j), i != j, with nothing strictly between i and j.
        Duplicates, self pairs and pairs implied by others drop out.
        """
        n = len(elements)
        up = [1 << i for i in range(n)]
        rising = falling = True
        for a, b in index_cover_pairs:
            up[a] |= 1 << b
            rising = rising and a <= b
            falling = falling and a >= b
        generated = up[:]
        # in either one-way order each element's successors close first
        order = range(n) if falling and not rising else range(n - 1, -1, -1)
        changed = True
        while changed:
            changed = False
            for i in order:
                m = up[i]
                for j in iter_bits(m & ~(1 << i)):
                    m |= up[j]
                if m != up[i]:
                    up[i] = m
                    changed = True
            changed = changed and not (rising or falling)
        poset = cls(elements, up)
        for i in range(n):
            cycle = poset._up[i] & poset._down[i] & ~(1 << i)
            if cycle:
                j = next(iter_bits(cycle))
                raise NotAntisymmetric((poset.elements[i], poset.elements[j]))
        poset._cover_candidates = generated
        return poset

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, x, y) -> bool:
        return bool(self._up[self.index[x]] & (1 << self.index[y]))

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

        Only cover candidates are tested, one mask test each: every
        comparable pair, or the generating pairs of from_covers.
        """
        if self._covers is None:
            out = []
            for i in range(len(self.elements)):
                strict = self._up[i] & ~(1 << i)
                for j in iter_bits(self._cover_candidates[i] & strict):
                    between = strict & (self._down[j] & ~(1 << j))
                    if not between:
                        out.append((i, j))
            self._covers = out
        return self._covers

    def heights(self):
        """Longest-chain height of every element (minimal elements at 0)."""
        if self._heights is None:
            n = len(self.elements)
            h = [0] * n
            order = sorted(range(n), key=lambda i: self._down[i].bit_count())
            for i in order:
                below = self._down[i] & ~(1 << i)
                h[i] = max((h[j] + 1 for j in iter_bits(below)), default=0)
            self._heights = h
        return self._heights

    def height(self) -> int:
        return max(self.heights(), default=0)

    def height_of(self, x) -> int:
        return self.heights()[self.index[x]]

    def is_graded(self) -> bool:
        h = self.heights()
        return all(h[j] == h[i] + 1 for i, j in self.covers())

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.elements, self._down)

    def comparability_mask(self, i: int) -> int:
        return self._up[i] | self._down[i]

    # -- chains -------------------------------------------------------------

    def iter_chains(self):
        """Yield (chain_indices, is_maximal) for every nonempty chain.

        A chain is any pairwise comparable subset; it is enumerated once,
        as the increasing sequence of its element indices.  is_maximal is
        True when no further element is comparable to the whole chain.
        """
        n = len(self.elements)
        comp = [self.comparability_mask(i) for i in range(n)]
        stack = []
        for i in range(n - 1, -1, -1):
            higher = ~((1 << (i + 1)) - 1)
            stack.append(((i,), 1 << i, comp[i] & higher, comp[i]))
        while stack:
            chain, chain_mask, cand, cm = stack.pop()
            yield chain, not (cm & ~chain_mask)
            for j in iter_bits(cand):
                higher = ~((1 << (j + 1)) - 1)
                stack.append((chain + (j,), chain_mask | (1 << j),
                              cand & comp[j] & higher, cm & comp[j]))


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
