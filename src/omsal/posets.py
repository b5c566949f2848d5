"""Finite posets with explicit validation, covers and chains.

Up-sets and down-sets are bitmasks over element indices, so subset tests
and transitive reduction are single integer operations even for posets
with a few hundred elements.  A poset closed from its covers keeps the
generating pairs as its only cover candidates, so its covers need no
transitive reduction over all comparable pairs.  This module is a leaf:
it imports nothing from the package but its errors.
"""

from __future__ import annotations

from .errors import NotAntisymmetric, NotTransitive


class FinitePoset:
    """An explicit finite poset.  Use build_poset to validate a relation,
    or FinitePoset.from_covers to close a cover relation."""

    def __init__(self, elements, up_masks, _validated=False):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self._up = list(up_masks)
        n = len(self.elements)
        self._down = [0] * n
        for i in range(n):
            m = self._up[i]
            while m:
                low = m & -m
                self._down[low.bit_length() - 1] |= 1 << i
                m ^= low
        if not _validated:
            self._validate()
        self._cover_candidates = self._up
        self._covers = None
        self._heights = None

    @classmethod
    def from_covers(cls, elements, index_cover_pairs) -> "FinitePoset":
        """The poset generated by index pairs (i, j), j covering i.

        The pairs are closed reflexively and transitively, then validated
        like any relation: a cycle raises NotAntisymmetric.  Each sweep
        runs from the top index down, so covers that all point to higher
        indices (the Salvetti poset, .poset files) close in one sweep;
        any other input takes more sweeps until nothing changes.

        Every cover of the closure is a generating pair, so the poset
        keeps the generating pairs as the only candidates for covers():
        those (i, j), i != j, with nothing strictly between i and j.
        Duplicates, self pairs and pairs implied by others drop out.
        """
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in index_cover_pairs:
            up[a] |= 1 << b
        generated = up[:]
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                m = up[i]
                for j in cls.iter_mask(m & ~(1 << i)):
                    m |= up[j]
                if m != up[i]:
                    up[i] = m
                    changed = True
        poset = cls(elements, up)
        poset._cover_candidates = generated
        return poset

    def _validate(self):
        n = len(self.elements)
        for i in range(n):
            self._up[i] |= 1 << i
        for i in range(n):
            ui = self._up[i]
            m = ui & ~(1 << i)
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                if self._down[i] & (1 << j):
                    raise NotAntisymmetric((self.elements[i], self.elements[j]))
                extra = self._up[j] & ~ui
                if extra:
                    k = (extra & -extra).bit_length() - 1
                    raise NotTransitive(
                        (self.elements[i], self.elements[j], self.elements[k])
                    )

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

    @staticmethod
    def iter_mask(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

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
                for j in self.iter_mask(self._cover_candidates[i] & strict):
                    between = strict & (self._down[j] & ~(1 << j))
                    if not between:
                        out.append((i, j))
            self._covers = out
        return self._covers

    def cover_pairs(self):
        """Covering relations as label pairs (x, y) with y covering x."""
        return [(self.elements[i], self.elements[j]) for i, j in self.covers()]

    def heights(self):
        """Longest-chain height of every element (minimal elements at 0)."""
        if self._heights is None:
            n = len(self.elements)
            h = [0] * n
            order = sorted(range(n), key=lambda i: self._down[i].bit_count())
            for i in order:
                below = self._down[i] & ~(1 << i)
                h[i] = max((h[j] + 1 for j in self.iter_mask(below)), default=0)
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
        return FinitePoset(self.elements, self._down, _validated=True)

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
            m = cand
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                higher = ~((1 << (j + 1)) - 1)
                stack.append((chain + (j,), chain_mask | (1 << j),
                              cand & comp[j] & higher, cm & comp[j]))

    def max_chain_count(self) -> int:
        count = 0
        for _, mx in self.iter_chains():
            if mx:
                count += 1
        return count


def build_poset(elements, leq) -> FinitePoset:
    """Build and validate a FinitePoset from a relation leq(a, b).

    The relation is closed reflexively; antisymmetry and transitivity
    violations raise with an explicit witness.
    """
    elements = list(elements)
    n = len(elements)
    up = [0] * n
    for i, x in enumerate(elements):
        m = 1 << i
        for j, y in enumerate(elements):
            if i != j and leq(x, y):
                m |= 1 << j
        up[i] = m
    return FinitePoset(elements, up)


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
    for k in poset.iter_mask(mask):
        inner = (poset.down_mask(k) if not above else poset.up_mask(k)) & mask
        if inner == 1 << k:
            count += 1
            if count > 1:
                return False
    return count == 1
