"""Sign vectors over {+, 0, -} and their composition calculus.

A sign vector on ground set {1, ..., n} is stored as a pair of bitmasks
(plus, minus); bit e-1 corresponds to element e.  All hot-path operations
(composition, separation, conformality) are O(1) integer arithmetic.
`compose` returns a SignVector, for callers that keep X o Y; matroid and
salvetti compose bare (plus, minus) pairs where X o Y is only looked up.
This module is a leaf: it imports nothing from the package but its errors.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LengthMismatch

_CHARS = {1: "+", 0: "0", -1: "-"}
_SIGNS = {"+": 1, "0": 0, "-": -1}


class _Masks(NamedTuple):
    """SignVector's fields; a NamedTuple body may not define __new__."""
    n: int
    plus: int
    minus: int


class SignVector(_Masks):
    __slots__ = ()

    def __new__(cls, n, plus, minus):
        full = (1 << n) - 1
        if plus & minus:
            raise ValueError("an element cannot be both + and -")
        if (plus | minus) & ~full:
            raise ValueError("mask bits outside the ground set")
        return tuple.__new__(cls, (n, plus, minus))

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        plus = minus = 0
        for i, ch in enumerate(s):
            try:
                v = _SIGNS[ch]
            except KeyError:
                raise ValueError(f"bad sign character {ch!r}") from None
            if v > 0:
                plus |= 1 << i
            elif v < 0:
                minus |= 1 << i
        return cls(len(s), plus, minus)

    @classmethod
    def from_signs(cls, signs) -> "SignVector":
        plus = minus = 0
        n = 0
        for v in signs:
            if v > 0:
                plus |= 1 << n
            elif v < 0:
                minus |= 1 << n
            n += 1
        return cls(n, plus, minus)

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def zero_mask(self) -> int:
        return ((1 << self.n) - 1) & ~(self.plus | self.minus)

    def sign(self, e: int) -> int:
        """Sign at element e (1-based)."""
        bit = 1 << (e - 1)
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def __str__(self) -> str:
        return "".join(_CHARS[self.sign(e)] for e in range(1, self.n + 1))

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"


def _check_lengths(x: SignVector, y: SignVector):
    if x.n != y.n:
        raise LengthMismatch(f"sign vectors of length {x.n} and {y.n}")


def compose(x: SignVector, y: SignVector) -> SignVector:
    """(x o y)_e = x_e if x_e != 0 else y_e."""
    _check_lengths(x, y)
    free = ~(x.plus | x.minus)
    return SignVector(x.n, x.plus | (y.plus & free), x.minus | (y.minus & free))


def separation_mask(x: SignVector, y: SignVector) -> int:
    _check_lengths(x, y)
    return (x.plus & y.minus) | (x.minus & y.plus)


def conforms(y: SignVector, x: SignVector) -> bool:
    """y <= x: every nonzero entry of y agrees with x."""
    _check_lengths(y, x)
    return not ((y.plus & ~x.plus) | (y.minus & ~x.minus))
