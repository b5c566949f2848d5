"""Built-in inputs: named arrangements and a non-realizable covector set.

Fixture specs are strings: boolean:n (coordinate normals), generic:n:l
(moment-curve normals, provably generic), braid:n (essentialized
pairwise-difference normals), nonpappus (rank-3 non-realizable, built by
a single basis-sign flip).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import UnknownFixture
from .limits import check_cap
from .matroid import (Chirotope, OrientedMatroid, RationalArrangement,
                      cocircuits_from_chirotope, span_from_cocircuits)


class FixtureSpec(NamedTuple):
    name: str
    kind: str
    args: tuple = ()


def parse_fixture_spec(text: str) -> FixtureSpec:
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "boolean" and len(parts) == 2:
        n = _positive_int(parts[1], text)
        return FixtureSpec(text.strip(), "boolean", (n,))
    if kind == "generic" and len(parts) == 3:
        n = _positive_int(parts[1], text)
        l = _positive_int(parts[2], text)
        return FixtureSpec(text.strip(), "generic", (n, l))
    if kind == "braid" and len(parts) == 2:
        n = _positive_int(parts[1], text)
        if n < 2:
            raise UnknownFixture(f"braid needs n >= 2, got {text!r}")
        return FixtureSpec(text.strip(), "braid", (n,))
    if kind == "nonpappus" and len(parts) == 1:
        return FixtureSpec("nonpappus", "nonpappus")
    raise UnknownFixture(f"unrecognized fixture spec {text!r}")


def _positive_int(tok: str, spec: str) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise UnknownFixture(f"bad integer in fixture spec {spec!r}") from None
    if v < 1:
        raise UnknownFixture(f"parameters must be positive in {spec!r}")
    return v


def boolean_arrangement(n: int) -> RationalArrangement:
    one = Fraction(1)
    zero = Fraction(0)
    rows = [tuple(one if j == i else zero for j in range(n)) for i in range(n)]
    return RationalArrangement(n, rows)


def generic_arrangement(n: int, l: int) -> RationalArrangement:
    """Moment-curve normals: every l of them are independent (Vandermonde)."""
    rows = [tuple(Fraction(t) ** k for k in range(l)) for t in range(1, n + 1)]
    return RationalArrangement(l, rows)


def braid_arrangement(n: int) -> RationalArrangement:
    """Difference normals e_i - e_j written in coordinates on their span.

    The raw normals live in a hyperplane of R^n; taking inner products
    against a row basis of that span preserves every sign exactly, so
    the essentialized arrangement has the same covectors.  The basis is
    e_1 - e_j for j = 2..n, the first n - 1 difference rows.
    """
    raw = []
    for i, j in combinations(range(n), 2):
        row = [Fraction(0)] * n
        row[i] = Fraction(1)
        row[j] = Fraction(-1)
        raw.append(tuple(row))
    basis = raw[:n - 1]
    rows = [tuple(sum(a * b for a, b in zip(v, bvec)) for bvec in basis)
            for v in raw]
    return RationalArrangement(len(basis), rows)


# Nine lines in the projective plane: lines 1 and 2 carry the point
# triples (0,0),(1,0),(3,0) and (0,1),(2,1),(7,1), lines 3..8 are the
# six cross-joins, and line 9 passes through the three cross-join
# meeting points, which the first eight lines force to be collinear.
# The base points are chosen unevenly so the chirotope of this
# configuration vanishes on exactly the nine concurrent triples.
# Flipping the sign of the (5,6,9) basis detaches line 9 from one of
# the three points, which no straight line can do.
_NONPAPPUS_NORMALS = (
    (0, 1, 0),
    (0, 1, -1),
    (-1, 2, 0),
    (1, 1, -1),
    (-1, 7, 0),
    (1, 3, -3),
    (-1, 6, 1),
    (1, 1, -3),
    (1, 43, -15),
)
_NONPAPPUS_ZERO_BASIS = (5, 6, 9)

_cache: dict[str, OrientedMatroid] = {}


def nonpappus_chirotope() -> Chirotope:
    """The chirotope of the nine lines with the basis (5,6,9) set to +1.

    Either sign on that basis gives an oriented matroid; +1 is the one
    the fixture ships.
    """
    values = dict(Chirotope.from_normals(
        RationalArrangement(3, _NONPAPPUS_NORMALS)).values)
    values[_NONPAPPUS_ZERO_BASIS] = 1
    return Chirotope(3, 9, values)


def generate_fixture(spec) -> OrientedMatroid:
    """Build (and cache) the oriented matroid named by a fixture spec."""
    if isinstance(spec, str):
        spec = parse_fixture_spec(spec)
    hit = _cache.get(spec.name)
    if hit is not None:
        return hit
    if spec.kind != "nonpappus":
        # the cap counts normals; refuse before any normal is built
        n = spec.args[0]
        check_cap(n * (n - 1) // 2 if spec.kind == "braid" else n)
    m = span_from_cocircuits(cocircuits_from_chirotope(fixture_chirotope(spec)))
    _cache[spec.name] = m
    return m


def fixture_chirotope(spec) -> Chirotope:
    """The chirotope of a parsed fixture spec: nonpappus_chirotope(), or
    that of the fixture's arrangement."""
    if spec.kind == "nonpappus":
        return nonpappus_chirotope()
    return Chirotope.from_normals(fixture_arrangement(spec))


def fixture_arrangement(spec) -> RationalArrangement:
    """The realizing arrangement behind a realizable fixture spec."""
    if isinstance(spec, str):
        spec = parse_fixture_spec(spec)
    if spec.kind == "boolean":
        return boolean_arrangement(*spec.args)
    if spec.kind == "generic":
        return generic_arrangement(*spec.args)
    if spec.kind == "braid":
        return braid_arrangement(*spec.args)
    raise UnknownFixture(f"{spec.name} has no arrangement form")


# the eight standing test subjects, smallest first
ALL_FIXTURES = ("boolean:1", "boolean:2", "boolean:3", "generic:3:2",
                "braid:3", "generic:4:3", "generic:5:3", "nonpappus")
