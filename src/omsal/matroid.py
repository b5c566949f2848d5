"""Oriented matroids given as covector sets, arrangements, or chirotopes.

Covector axiom checking; arrangements and chirotopes alike enter
through their chirotope, whose basis signs give the cocircuits
(arrangements via exact determinants of their rational normals, so
realizable and non-realizable examples take one route); and the
isomorphism interrogation.  All arithmetic is exact.

A covector set is certified by its face poset.  Every covector Y >= X
is X o C1 o ... o Ck for cocircuits Ci <= Y (BLSWZ, Oriented Matroids,
3.7), so every cover of X is some X o C != X and the closure of those
pairs is the conformal order.  Let the cocircuits be the nonzero
vectors of minimal support: when they satisfy the cocircuit axioms
C0-C3, every X o C lies in the set and 0 is the closure's only minimal
element, every covector walks down to 0 and so is a composition of
cocircuits, and the set is the covector set of an oriented matroid,
passing V0-V3.  The closure is then kept as the face poset.  Otherwise
`verify_axioms` runs on the whole set and its report, witnesses
included, is the answer; it is also the oracle the certificate is
tested against.  Compositions here are (plus, minus) mask pairs; only a
covector the span keeps is a SignVector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (
    AxiomFailure,
    DegenerateChirotope,
    EmptyInput,
    LengthMismatch,
    NotAlternating,
    NotEssential,
    SearchBudgetExceeded,
    ZeroNormal,
)
from .limits import check_cap
from .posets import FinitePoset, iter_bits
from .signs import SignVector, separation_mask


# -- exact linear algebra ---------------------------------------------------


def det_sign(rows) -> int:
    """Sign of the determinant of a square rational matrix."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    sign = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        if m[c][c] < 0:
            sign = -sign
    return sign


# -- arrangements ------------------------------------------------------------


class RationalArrangement:
    """Central arrangement: n nonzero rational normal rows in dimension l."""

    def __init__(self, l, normals):
        self.l = int(l)
        rows = []
        for k, row in enumerate(normals, 1):
            row = tuple(Fraction(v) for v in row)
            if len(row) != self.l:
                raise LengthMismatch(
                    f"normal {k} has {len(row)} entries, expected {self.l}")
            if not any(row):
                raise ZeroNormal(f"normal {k} is the zero vector")
            rows.append(row)
        self.normals = tuple(rows)

    @property
    def n(self) -> int:
        return len(self.normals)


# -- axiom verification ------------------------------------------------------


class AxiomCheck(NamedTuple):
    name: str
    passed: bool
    witness: tuple = None

    def __str__(self):
        if self.passed:
            return f"{self.name} pass"
        wit = ", ".join(str(w) for w in self.witness)
        return f"{self.name} FAIL ({wit})"


class AxiomReport(NamedTuple):
    v0: AxiomCheck
    v1: AxiomCheck
    v2: AxiomCheck
    v3: AxiomCheck

    @property
    def checks(self):
        return (self.v0, self.v1, self.v2, self.v3)

    @property
    def passes(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> AxiomCheck:
        return next((c for c in self.checks if not c.passed), None)

    def __str__(self):
        return "; ".join(str(c) for c in self.checks)


def verify_axioms(candidate) -> AxiomReport:
    """Check the covector axioms V0-V3 on a set of sign vectors.

    V0: the zero vector belongs to the set.  V1: closure under negation.
    V2: closure under composition.  V3 (elimination): for all X, Y and
    every e in S(X, Y) some Z in the set has Z_e = 0 and Z_f = (X o Y)_f
    off the separation set.  Witnesses are reported per axiom; vectors
    are scanned in sign-string order so reports are deterministic.

    This compares O(N^2) pairs of vectors.  `OrientedMatroid.verify` proves
    a pass on the cocircuits instead and calls this only when that proof
    fails, so every failure report comes from here; it is also the
    oracle for that proof.
    """
    vecs = sorted(set(candidate), key=str)
    if not vecs:
        raise EmptyInput("no sign vectors given")
    n = vecs[0].n
    for x in vecs:
        if x.n != n:
            raise LengthMismatch(f"mixed lengths {n} and {x.n}")
    pool = {(x.plus, x.minus) for x in vecs}

    has_zero = (0, 0) in pool
    v0 = AxiomCheck("V0", has_zero, None if has_zero else (SignVector.zero(n),))

    x = next((x for x in vecs if (x.minus, x.plus) not in pool), None)
    v1 = AxiomCheck("V1", x is None, None if x is None else (x,))

    pair = next(((a, b) for i, x in enumerate(vecs) for y in vecs[i:]
                 for a, b in ((x, y), (y, x))
                 if (a.plus | b.plus & ~a.minus, a.minus | b.minus & ~a.plus)
                 not in pool), None)
    v2 = AxiomCheck("V2", pair is None, pair)

    v3 = _check_v3(vecs)
    return AxiomReport(v0, v1, v2, v3)


def _check_v3(vecs) -> AxiomCheck:
    # The condition on Z depends on the pair only through S(X,Y) and the
    # off-S restriction of X o Y (X | Y there), so results are cached on
    # that key and each unordered pair is tested once.
    pairs = [(x.plus, x.minus) for x in vecs]
    cache: dict[tuple, int] = {}
    for i, (xp, xm) in enumerate(pairs):
        for j, (yp, ym) in enumerate(pairs[i + 1:], i + 1):
            s = xp & ym | xm & yp
            if not s:
                continue
            p, q = (xp | yp) & ~s, (xm | ym) & ~s
            found = cache.get((p, q, s))
            if found is None:
                found = 0
                for zp, zm in pairs:
                    if zp & ~s == p and zm & ~s == q:
                        found |= s & ~(zp | zm)
                        if found == s:
                            break
                cache[p, q, s] = found
            missing = s & ~found
            if missing:
                e = next(iter_bits(missing)) + 1
                return AxiomCheck("V3", False, (vecs[i], vecs[j], e))
    return AxiomCheck("V3", True)


# -- the oriented matroid object ---------------------------------------------

# Builders of the data that OrientedMatroid.derived keeps per matroid.

def _sorted_covectors(m):
    # the one sign-string sort (ASCII '+' < '-' < '0'); the cocircuits,
    # the face poset, the topes and the Salvetti cells inherit its order
    return tuple(sorted(m.covectors, key=str))


_ALL_PASS = AxiomReport(*(AxiomCheck(name, True) for name in ("V0", "V1", "V2", "V3")))


def _axiom_report(m):
    # The nonzero covectors of minimal support are the cocircuits when m
    # is an oriented matroid.  If they satisfy the cocircuit axioms C0-C3
    # and m's face poset closes from their covers, m is the covector set
    # of the oriented matroid they define (BLSWZ, Oriented Matroids, 3.2
    # and 3.7), so V0-V3 hold.  Otherwise verify_axioms finds the
    # witnesses.  The closure goes first because it stops at the first
    # stray X o C, where elimination would scan every pair.
    cc = m.derived(_minimal_support_vectors)
    if cc and m.derived(_face_poset) and _cocircuit_axioms_hold(cc):
        return _ALL_PASS
    return verify_axioms(m.covectors)


def _minimal_support_vectors(m):
    # a support is minimal when no smaller nonzero one lies inside it;
    # every support inside a larger one contains a minimal one, so
    # testing against the minimal supports found so far is enough
    minimal = []
    for s in sorted({x.support_mask for x in m.covectors} - {0}, key=int.bit_count):
        if all(t & ~s for t in minimal):
            minimal.append(s)
    keep = set(minimal)
    return tuple(x for x in m.sorted_covectors() if x.support_mask in keep)


def _cocircuit_axioms_hold(cc) -> bool:
    # C0 holds: every vector in cc is nonzero.  C1 and C2: the supports
    # are minimal, so each one must carry exactly one pair X, -X.
    by_support = {}
    for x in cc:
        by_support.setdefault(x.support_mask, []).append(x)
    if any(len(xs) != 2 or xs[0].plus != xs[1].minus for xs in by_support.values()):
        return False
    # C3: for X != -Y and e in S(X, Y), some Z has Z_e = 0, Z+ inside
    # X+ | Y+ and Z- inside X- | Y-; the answer depends on the pair only
    # through those two unions and S, so it is cached on them.
    cache: dict[tuple, int] = {}
    for i, x in enumerate(cc):
        for y in cc[i + 1:]:
            s = separation_mask(x, y)
            if not s or (x.plus == y.minus and x.minus == y.plus):
                continue
            p, q = x.plus | y.plus, x.minus | y.minus
            found = cache.get((p, q, s))
            if found is None:
                found = 0
                for z in cc:
                    if not (z.plus & ~p or z.minus & ~q):
                        found |= s & ~(z.plus | z.minus)
                        if found == s:
                            break
                cache[p, q, s] = found
            if s & ~found:
                return False
    return True


def _face_poset(m):
    # the covers X < X o C of the module docstring, or None when they do
    # not close to a face poset with bottom 0: some X o C is not in m,
    # or some nonzero covector is not a composition of cocircuits
    covs = m.sorted_covectors()
    index = {(x.plus, x.minus): i for i, x in enumerate(covs)}
    cc = [(c.plus, c.minus) for c in m.derived(_minimal_support_vectors)]
    covers = ((i, index[xp | cp & ~xm, xm | cm & ~xp])
              for i, (xp, xm) in enumerate(index)
              for cp, cm in cc if (cp | cm) & ~(xp | xm))
    try:
        poset = FinitePoset.from_covers(covs, covers)
    except KeyError:
        # from_covers draws the pairs lazily, so a stray X o C surfaces here
        return None
    if poset.minimal_indices() != [index.get((0, 0))]:
        return None
    return poset


def _topes(m):
    poset = m.face_poset()
    return tuple(poset.elements[i] for i in poset.maximal_indices())


class OrientedMatroid:
    """Ground set {1..n} with a covector set; derived data computed once."""

    def __init__(self, n, covectors):
        self.n = int(n)
        covectors = tuple(covectors)
        # the first vector of the wrong length, in the caller's order
        for x in covectors:
            if x.n != self.n:
                raise LengthMismatch(
                    f"covector of length {x.n} in a ground set of size {self.n}")
        if not covectors:
            raise EmptyInput("no covectors")
        self.covectors = frozenset(covectors)
        self._derived = {}

    def derived(self, build):
        """build(self), computed on the first call and kept, keyed by build.

        The covector set is frozen, so a kept value never goes stale; it
        is shared by every caller and must be treated as read-only, but
        for a memo that only gains exact answers (the MH 1-skeleton states).
        """
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def sorted_covectors(self) -> tuple[SignVector, ...]:
        return self.derived(_sorted_covectors)

    def verify(self) -> AxiomReport:
        """The axiom report, computed on the first call and kept."""
        return self.derived(_axiom_report)

    def face_poset(self) -> FinitePoset:
        """(L, <=) under conformality, bottom **0**.

        Raises AxiomFailure, with the report, when the set does not verify.
        """
        report = self.verify()
        if not report.passes:
            raise AxiomFailure(report)
        return self.derived(_face_poset)

    @property
    def rank(self) -> int:
        """Height of the face poset, graded with the topes on top (BLSWZ 4.1.14)."""
        return self.face_poset().height()

    def height_profile(self) -> tuple[int, ...]:
        prof = [0] * (self.rank + 1)
        for h in self.face_poset().heights():
            prof[h] += 1
        return tuple(prof)

    def topes(self) -> list[SignVector]:
        """The topes in canonical order, as a fresh list."""
        return list(self.derived(_topes))

    def is_tope(self, x: SignVector) -> bool:
        face = self.face_poset()
        i = face.index.get(x)
        return i is not None and face.up_mask(i) == 1 << i

    def cocircuits(self) -> list[SignVector]:
        """Nonzero covectors of minimal support, in canonical order."""
        return list(self.derived(_minimal_support_vectors))


# -- constructions -----------------------------------------------------------


def _compositions(cc):
    """Yield the (plus, minus) masks of **0** and of every composition of
    vectors in cc, each once; X o C is (X+ | C+ & ~X-, X- | C- & ~X+)."""
    # composition is associative with identity 0, so composing one more
    # vector on the right, breadth first, reaches every composite
    cc = [(c.plus, c.minus) for c in cc]
    covs = [(0, 0)]
    seen = set(covs)
    for xp, xm in covs:
        yield xp, xm
        for cp, cm in cc:
            z = (xp | cp & ~xm, xm | cm & ~xp)
            if z not in seen:
                seen.add(z)
                covs.append(z)


def span_from_cocircuits(cc) -> OrientedMatroid:
    """All compositions of the cocircuits, with **0**, verified as covectors."""
    cc = tuple(cc)
    if not cc:
        raise EmptyInput("no cocircuits")
    # the first two lengths that differ, in the caller's order
    n = cc[0].n
    check_cap(n)
    for x in cc:
        if x.n != n:
            raise LengthMismatch(f"mixed lengths {n} and {x.n}")
    m = OrientedMatroid(n, (SignVector(n, p, q) for p, q in _compositions(set(cc))))
    m.face_poset()  # raises AxiomFailure on a set that fails the axioms
    return m


def from_arrangement(arr: RationalArrangement) -> OrientedMatroid:
    """Covectors of a central essential arrangement, computed exactly.

    The arrangement enters through its chirotope, like any other
    oriented matroid: cocircuits are read off the basis signs and
    composition closure yields every covector.
    """
    if arr.n == 0:
        raise EmptyInput("arrangement has no normals")
    check_cap(arr.n)
    return span_from_cocircuits(cocircuits_from_chirotope(Chirotope.from_normals(arr)))


# -- chirotopes ---------------------------------------------------------------


def _sort_parity(tup):
    lst = list(tup)
    parity = 1
    for i in range(1, len(lst)):
        j = i
        while j and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            parity = -parity
            j -= 1
    return tuple(lst), parity


class Chirotope:
    """Alternating sign map on r-subsets of {1..n}, not identically zero.

    values may be keyed by tuples in any order; they are normalized to
    sorted keys with the alternating sign convention, and conflicting
    assignments raise NotAlternating.
    """

    def __init__(self, r, n, values):
        self.r = int(r)
        self.n = int(n)
        normalized = {}
        for key, sgn in values.items():
            t = tuple(key)
            if len(t) != self.r:
                raise LengthMismatch(f"basis {t} is not an r-tuple, r={self.r}")
            sgn = int(sgn)
            if len(set(t)) != len(t):
                if sgn:
                    raise NotAlternating(f"repeated element in {t} with nonzero sign")
                continue
            srt, parity = _sort_parity(t)
            s = sgn * parity
            if normalized.setdefault(srt, s) != s:
                raise NotAlternating(f"inconsistent signs on basis {srt}")
        if not any(normalized.values()):
            raise DegenerateChirotope("chirotope identically zero")
        self.values = normalized

    def chi(self, tup) -> int:
        """Sign on an ordered tuple (0 on repeats), alternating extension."""
        if len(set(tup)) != len(tup):
            return 0
        srt, parity = _sort_parity(tup)
        return parity * self.values.get(srt, 0)

    @classmethod
    def from_normals(cls, arr: RationalArrangement) -> "Chirotope":
        """Basis signs of an essential arrangement via exact determinants.

        Every l-subset determinant vanishes exactly when the normals span
        less than dimension l, which includes n < l.
        """
        vals = {sub: det_sign([arr.normals[i - 1] for i in sub])
                for sub in combinations(range(1, arr.n + 1), arr.l)}
        if not any(vals.values()):
            raise NotEssential("normals do not span the ambient space")
        return cls(arr.l, arr.n, vals)


def cocircuits_from_chirotope(c: Chirotope) -> set[SignVector]:
    """The +- pairs of cocircuits read off hyperplanes of the chirotope.

    Every independent (r-1)-subset S yields the vector e |-> chi(S, e);
    its zero set is the hyperplane spanned by S, so different spanning
    subsets of one hyperplane collapse to the same pair.
    """
    out = set()
    for s in combinations(range(1, c.n + 1), c.r - 1):
        signs = [c.chi(s + (e,)) for e in range(1, c.n + 1)]
        if not any(signs):
            continue
        x = SignVector.from_signs(signs)
        out.add(x)
        out.add(-x)
    return out


# -- interrogations -----------------------------------------------------------


def _element_invariants(m: OrientedMatroid):
    inv = []
    cocs = m.cocircuits()
    for e in range(m.n):
        zeros = sum(1 for x in m.sorted_covectors() if not (x.support_mask >> e) & 1)
        in_cocs = sorted(x.support_mask.bit_count() for x in cocs
                         if (x.support_mask >> e) & 1)
        inv.append((zeros, tuple(in_cocs)))
    return inv


def are_isomorphic(m1: OrientedMatroid, m2: OrientedMatroid):
    """Search for a relabeling + reorientation carrying m1 onto m2.

    Returns (True, (permutation, flipped elements)) or (False, None).
    The permutation maps element e of m1 to permutation[e-1] of m2,
    1-based; flipped elements are m1 elements whose signs are reversed.
    """
    if m1.n != m2.n:
        return False, None
    if m1.n > 8:
        raise SearchBudgetExceeded(f"isomorphism search capped at n=8, got {m1.n}")
    if len(m1.covectors) != len(m2.covectors):
        return False, None
    if m1.height_profile() != m2.height_profile():
        return False, None
    if sorted(x.support_mask.bit_count() for x in m1.cocircuits()) != \
       sorted(x.support_mask.bit_count() for x in m2.cocircuits()):
        return False, None

    n = m1.n
    inv1, inv2 = _element_invariants(m1), _element_invariants(m2)
    target = m2.covectors
    source = list(m1.covectors)

    def apply(perm, flips):
        # perm, flips are 0-based internally
        for x in source:
            plus = minus = 0
            for e in range(n):
                img = perm[e]
                p, mns = (x.plus >> e) & 1, (x.minus >> e) & 1
                if e in flips:
                    p, mns = mns, p
                plus |= p << img
                minus |= mns << img
            if SignVector(n, plus, minus) not in target:
                return False
        return True

    perm = [None] * n
    used = [False] * n

    def dfs(e, flips):
        if e == n:
            return apply(perm, flips) and (tuple(perm), frozenset(flips))
        for f in range(n):
            if used[f] or inv1[e] != inv2[f]:
                continue
            perm[e] = f
            used[f] = True
            for extra in (False, True):
                got = dfs(e + 1, flips | {e} if extra else flips)
                if got:
                    return got
            used[f] = False
            perm[e] = None
        return False

    got = dfs(0, frozenset())
    if not got:
        return False, None
    p, flips = got
    return True, (tuple(i + 1 for i in p), frozenset(e + 1 for e in flips))
