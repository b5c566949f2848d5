"""A fixed piece of pure-Python work that measures the CPU's speed.

On a shared machine the speed a CPU gives one process swings by 20 % or
more within a second or two, and drifts by tens of percent over minutes;
CPU time swings with wall time, so the jobs do not wait, they run slower.
`run.py` keeps itself and its jobs on one CPU, times `chunk()` twice
after every job, and divides each job's times by the mean slowness of
the chunks just before and just after it.  Chunks on the same CPU as
the job follow its swings; on another CPU they do not.

The chunk does the kind of work the package does: small frozen objects
holding bitmasks, their composition, tuple, set and dict traffic,
sorting and exact fractions.  It imports nothing of the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

# Seconds one chunk takes at the reference speed, the unit of the
# benchmark's times.  It is near the median chunk time on the 2-core
# machine of README.md's numbers, so reference seconds read near raw
# seconds there.
REFERENCE_S = 0.07

N = 9
_FULL = (1 << N) - 1


@dataclass(frozen=True, slots=True)
class _Vec:
    plus: int
    minus: int

    def compose(self, other: "_Vec") -> "_Vec":
        free = _FULL & ~(self.plus | self.minus)
        return _Vec(self.plus | (other.plus & free),
                    self.minus | (other.minus & free))

    def separated(self, other: "_Vec") -> int:
        return (self.plus & other.minus) | (self.minus & other.plus)


def _vectors(count: int) -> list:
    out, state = [], 12345
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        plus = state & _FULL
        out.append(_Vec(plus, (state >> N) & _FULL & ~plus))
    return out


def chunk() -> int:
    """One fixed unit of work; returns a checksum so none of it is idle."""
    vecs = _vectors(360)
    seen: dict = {}
    for a in vecs:
        for b in vecs[::3]:
            c = a.compose(b)
            if not a.separated(b):
                seen[c] = seen.get(c, 0) + 1
    keys = sorted(seen, key=lambda v: (bin(v.plus | v.minus).count("1"),
                                       v.plus, v.minus))
    supports = {frozenset(i for i in range(N) if (v.plus >> i) & 1)
                for v in keys}
    total = Fraction(0)
    for i, v in enumerate(keys[:300]):
        total += Fraction(v.plus + 1, v.minus + i + 1)
    return len(seen) + len(supports) + total.denominator % 997


def speed() -> float:
    """Time one chunk: the CPU's slowness, 1.0 at the reference speed."""
    t0 = time.perf_counter()
    chunk()
    return (time.perf_counter() - t0) / REFERENCE_S
