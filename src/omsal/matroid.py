"""Oriented matroids given as covector sets, arrangements, or chirotopes.

Covector axiom checking, exact construction from rational normal
vectors (cocircuits are sign vectors of kernel lines of corank-1 normal
subsets), chirotope ingestion for non-realizable examples, and the
simplicity / isomorphism interrogations.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    AxiomFailure,
    DegenerateChirotope,
    EmptyInput,
    LengthMismatch,
    NotAlternating,
    NotEssential,
    NotGraded,
    SearchBudgetExceeded,
    ZeroNormal,
)
from .limits import check_cap
from .posets import FinitePoset, build_poset
from .signs import SignVector, compose, conforms, separation_mask


# -- exact linear algebra ---------------------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form over Fraction; returns (matrix, pivot cols)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows, ncols) -> int:
    return len(_rref(rows, ncols)[1])


def kernel_basis(rows, ncols):
    """Basis of {x : rows @ x = 0}, exact rational."""
    m, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(v)
    return basis


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

    def is_essential(self) -> bool:
        return matrix_rank(self.normals, self.l) == self.l

    def sign_vector_at(self, point) -> SignVector:
        """The sign vector of a point: sign(normal . point) per element."""
        sigs = []
        for v in self.normals:
            s = sum(a * b for a, b in zip(v, point))
            sigs.append(0 if s == 0 else (1 if s > 0 else -1))
        return SignVector.from_signs(sigs)


# -- axiom verification ------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple = None

    def __str__(self):
        if self.passed:
            return f"{self.name} pass"
        wit = ", ".join(str(w) for w in self.witness)
        return f"{self.name} FAIL ({wit})"


@dataclass(frozen=True)
class AxiomReport:
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
    """
    vecs = sorted(set(candidate), key=str)
    if not vecs:
        raise EmptyInput("no sign vectors given")
    n = vecs[0].n
    for x in vecs:
        if x.n != n:
            raise LengthMismatch(f"mixed lengths {n} and {x.n}")
    pool = set(vecs)

    zero = SignVector.zero(n)
    v0 = AxiomCheck("V0", zero in pool, None if zero in pool else (zero,))

    v1 = AxiomCheck("V1", True)
    for x in vecs:
        if -x not in pool:
            v1 = AxiomCheck("V1", False, (x,))
            break

    v2 = AxiomCheck("V2", True)
    for i, x in enumerate(vecs):
        if not v2.passed:
            break
        for y in vecs[i:]:
            if compose(x, y) not in pool:
                v2 = AxiomCheck("V2", False, (x, y))
                break
            if compose(y, x) not in pool:
                v2 = AxiomCheck("V2", False, (y, x))
                break

    v3 = _check_v3(vecs)
    return AxiomReport(v0, v1, v2, v3)


def _check_v3(vecs) -> AxiomCheck:
    # The condition on Z depends on the pair only through S(X,Y) and the
    # off-S restriction of X o Y (= Y o X there), so results are cached
    # on that key and each unordered pair is tested once.
    cache: dict[tuple, int] = {}
    for i, x in enumerate(vecs):
        for y in vecs[i + 1:]:
            s = separation_mask(x, y)
            if not s:
                continue
            w = compose(x, y)
            key = (w.plus & ~s, w.minus & ~s, s)
            found = cache.get(key)
            if found is None:
                found = 0
                for z in vecs:
                    if (z.plus & ~s) == key[0] and (z.minus & ~s) == key[1]:
                        found |= s & z.zero_mask
                        if found == s:
                            break
                cache[key] = found
            missing = s & ~found
            if missing:
                e = (missing & -missing).bit_length()
                return AxiomCheck("V3", False, (x, y, e))
    return AxiomCheck("V3", True)


# -- the oriented matroid object ---------------------------------------------

# Builders of the data that OrientedMatroid.derived keeps per matroid.

def _sorted_covectors(m):
    # canonical order everywhere: ASCII sorts '+' < '-' < '0'
    return tuple(sorted(m.covectors, key=str))


def _axiom_report(m):
    return verify_axioms(m.covectors)


def _face_poset(m):
    return build_poset(m.sorted_covectors(), conforms)


def _graded_heights(m):
    poset = m.face_poset()
    hs = poset.heights()
    rank = max(hs, default=0)
    if not poset.is_graded():
        raise NotGraded("covector poset has unequal maximal chains")
    for i in poset.maximal_indices():
        if hs[i] != rank:
            raise NotGraded(
                f"maximal covector {poset.elements[i]} at height {hs[i]} != rank {rank}")
    return rank, {poset.elements[i]: h for i, h in enumerate(hs)}


def _topes(m):
    poset = m.face_poset()
    return tuple(sorted((poset.elements[i] for i in poset.maximal_indices()), key=str))


def _tope_set(m):
    return frozenset(m.derived(_topes))


class OrientedMatroid:
    """Ground set {1..n} with a covector set; derived data computed once."""

    def __init__(self, n, covectors):
        self.n = int(n)
        covectors = frozenset(covectors)
        for x in covectors:
            if x.n != self.n:
                raise LengthMismatch(
                    f"covector of length {x.n} in a ground set of size {self.n}")
        if not covectors:
            raise EmptyInput("no covectors")
        self.covectors = covectors
        self._derived = {}

    def derived(self, build):
        """build(self), computed on the first call and kept, keyed by build.

        The covector set is frozen, so a kept value never goes stale; it
        is shared by every caller and must be treated as read-only.
        """
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def sorted_covectors(self) -> tuple[SignVector, ...]:
        return self.derived(_sorted_covectors)

    @property
    def zero(self) -> SignVector:
        return SignVector.zero(self.n)

    def verify(self) -> AxiomReport:
        """The axiom report, computed on the first call and kept."""
        return self.derived(_axiom_report)

    def face_poset(self) -> FinitePoset:
        """(L, <=) under conformality, bottom **0** (when V0 holds)."""
        return self.derived(_face_poset)

    @property
    def rank(self) -> int:
        return self.derived(_graded_heights)[0]

    def height(self, x: SignVector) -> int:
        return self.derived(_graded_heights)[1][x]

    def heights(self) -> dict:
        return dict(self.derived(_graded_heights)[1])

    def height_profile(self) -> tuple[int, ...]:
        prof = [0] * (self.rank + 1)
        for h in self.derived(_graded_heights)[1].values():
            prof[h] += 1
        return tuple(prof)

    def topes(self) -> list[SignVector]:
        """The topes in canonical order, as a fresh list."""
        return list(self.derived(_topes))

    def is_tope(self, x: SignVector) -> bool:
        return x in self.derived(_tope_set)

    def cocircuits(self) -> list[SignVector]:
        """Nonzero covectors of minimal support (atoms over **0**)."""
        poset = self.face_poset()
        out = []
        for i, x in enumerate(poset.elements):
            if x.is_zero():
                continue
            below = poset.down_mask(i) & ~(1 << i)
            others = [poset.elements[j] for j in poset.iter_mask(below)]
            if all(y.is_zero() for y in others):
                out.append(x)
        return sorted(out, key=str)


# -- constructions -----------------------------------------------------------


def span_from_cocircuits(cc) -> OrientedMatroid:
    """Close a cocircuit set under composition, adjoin **0**, verify."""
    cc = set(cc)
    if not cc:
        raise EmptyInput("no cocircuits")
    n = next(iter(cc)).n
    check_cap(n)
    for x in cc:
        if x.n != n:
            raise LengthMismatch(f"mixed lengths {n} and {x.n}")
    covs = {SignVector.zero(n)} | cc
    frontier = list(covs)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(covs):
                for z in (compose(x, y), compose(y, x)):
                    if z not in covs:
                        covs.add(z)
                        fresh.append(z)
        frontier = fresh
    m = OrientedMatroid(n, covs)
    report = m.verify()
    if not report.passes:
        raise AxiomFailure(report)
    return m


def from_arrangement(arr: RationalArrangement) -> OrientedMatroid:
    """Covectors of a central essential arrangement, computed exactly.

    Cocircuits are the sign vectors of the kernel lines of corank-1
    subsets of the normals; composition closure then yields every
    covector realized by a point of the ambient space.
    """
    if arr.n == 0:
        raise EmptyInput("arrangement has no normals")
    check_cap(arr.n)
    if not arr.is_essential():
        raise NotEssential(
            f"normals span rank {matrix_rank(arr.normals, arr.l)} < dimension {arr.l}")
    cocircuits = set()
    for subset in combinations(range(arr.n), arr.l - 1):
        sub = [arr.normals[i] for i in subset]
        if matrix_rank(sub, arr.l) != arr.l - 1:
            continue
        (p,) = kernel_basis(sub, arr.l)
        x = arr.sign_vector_at(p)
        cocircuits.add(x)
        cocircuits.add(-x)
    return span_from_cocircuits(cocircuits)


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
            normalized[srt] = s
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
        """Basis signs of an essential arrangement via exact determinants."""
        if not arr.is_essential():
            raise NotEssential("chirotope needs a spanning set of normals")
        vals = {}
        for sub in combinations(range(1, arr.n + 1), arr.l):
            vals[sub] = det_sign([arr.normals[i - 1] for i in sub])
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


def is_simple(m: OrientedMatroid):
    """(True, ()) iff no loops and no (anti)parallel element pairs.

    Offenders are returned 1-based: loops, then every element of each
    parallel pair.
    """
    covs = m.sorted_covectors()
    seen = 0
    for x in covs:
        seen |= x.support_mask
    bad = {e + 1 for e in range(m.n) if not (seen >> e) & 1}
    for e in range(m.n):
        for f in range(e + 1, m.n):
            same = all(((x.plus >> e) & 1) == ((x.plus >> f) & 1)
                       and ((x.minus >> e) & 1) == ((x.minus >> f) & 1)
                       for x in covs)
            anti = all(((x.plus >> e) & 1) == ((x.minus >> f) & 1)
                       and ((x.minus >> e) & 1) == ((x.plus >> f) & 1)
                       for x in covs)
            if same or anti:
                bad.update((e + 1, f + 1))
    return not bad, tuple(sorted(bad))


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
    try:
        if m1.height_profile() != m2.height_profile():
            return False, None
    except NotGraded:
        pass
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
