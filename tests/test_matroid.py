"""Covector axioms, arrangements, chirotopes, and isomorphism search."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from omsal import matroid
from omsal.errors import (
    AxiomFailure,
    DegenerateChirotope,
    EmptyInput,
    LengthMismatch,
    NotAlternating,
    NotEssential,
    SearchBudgetExceeded,
    ZeroNormal,
)
from omsal.fixtures import (_NONPAPPUS_NORMALS, _NONPAPPUS_ZERO_BASIS, ALL_FIXTURES,
                            boolean_arrangement, fixture_arrangement,
                            generate_fixture, generic_arrangement,
                            nonpappus_chirotope)
from omsal.matroid import (
    Chirotope,
    OrientedMatroid,
    RationalArrangement,
    are_isomorphic,
    cocircuits_from_chirotope,
    from_arrangement,
    span_from_cocircuits,
    verify_axioms,
)
from omsal.signs import SignVector, compose, conforms

from oracles import (build_poset, enumerate_covector_strings, is_graded, is_simple,
                     kernel_line_cocircuits, matrix_rank, sign_vector_at,
                     two_sided_closure)

sv = SignVector.from_string

# covector count and per-height counts, bottom first
EXPECTED_PROFILE = {
    "boolean:1": (1, 2),
    "boolean:2": (1, 4, 4),
    "boolean:3": (1, 6, 12, 8),
    "generic:3:2": (1, 6, 6),
    "braid:3": (1, 6, 6),
    "generic:4:3": (1, 12, 24, 14),
    "generic:5:3": (1, 20, 40, 22),
    "nonpappus": (1, 40, 96, 58),
}

REALIZABLE = [f for f in ALL_FIXTURES if f != "nonpappus"]


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_every_fixture_passes_axioms(spec, om):
    report = om(spec).verify()
    assert report.passes, str(report)


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_height_profiles(spec, om):
    m = om(spec)
    profile = EXPECTED_PROFILE[spec]
    assert m.height_profile() == profile
    assert len(m.covectors) == sum(profile)
    assert m.rank == len(profile) - 1
    assert len(m.topes()) == profile[-1]
    assert len(m.cocircuits()) == profile[1]


@pytest.mark.parametrize("spec", REALIZABLE)
def test_covectors_match_feasibility_oracle(spec, om):
    arr = fixture_arrangement(spec)
    expected = enumerate_covector_strings(arr.normals)
    got = sorted(str(x) for x in om(spec).covectors)
    assert got == expected


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_dropping_zero_fails_v0(spec, om):
    m = om(spec)
    mutated = [x for x in m.covectors if x.support_mask]
    report = verify_axioms(mutated)
    assert not report.passes
    assert report.first_failure.name == "V0"
    assert report.first_failure.witness == (SignVector.zero(m.n),)


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_dropping_a_tope_fails_v1(spec, om):
    m = om(spec)
    t = m.topes()[-1]
    mutated = [x for x in m.covectors if x != t]
    report = verify_axioms(mutated)
    assert not report.passes
    # the one vector left without a negation is -t
    assert report.first_failure.name == "V1"
    assert report.first_failure.witness == (-t,)


def test_topes_list_is_a_copy(om):
    base = om("generic:4:3")
    m = OrientedMatroid(base.n, base.covectors)
    before = m.topes()
    assert m.is_tope(before[0])
    got = m.topes()
    got.reverse()
    got.pop()
    got.append(SignVector.zero(m.n))
    assert m.topes() == before
    assert m.is_tope(before[0])
    assert not m.is_tope(SignVector.zero(m.n))


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_is_tope_only_on_maximal_covectors(spec, om):
    m = om(spec)
    face = m.face_poset()
    t = m.topes()[0]
    assert m.is_tope(t)
    assert [m.is_tope(x) for x in face.elements] == \
        [i in face.maximal_indices() for i in range(len(face))]
    assert not m.is_tope(SignVector.zero(m.n))
    # every sign vector outside the set (none for a boolean arrangement)
    outside = [x for x in map(SignVector.from_signs, product((1, 0, -1), repeat=m.n))
               if x not in m.covectors]
    assert not any(m.is_tope(x) for x in outside)
    assert not m.is_tope(sv(str(t) + "+"))


def test_rank_zero_set():
    m = OrientedMatroid(2, {sv("00")})
    assert m.verify().passes
    assert (m.rank, m.height_profile(), m.topes()) == (0, (1,), [sv("00")])
    assert m.is_tope(sv("00")) and not m.is_tope(sv("+0"))


def test_v3_failure_witness():
    # all eight nonzero rank-2 boolean covectors, zero removed, still
    # fails V3: composing +0 with -0 needs an elimination vector
    vecs = [sv(s) for s in ("++", "+-", "-+", "--", "+0", "-0", "0+", "0-")]
    report = verify_axioms(vecs)
    v3 = report.v3
    assert not v3.passed
    x, y, e = v3.witness
    assert (str(x), str(y), e) == ("+0", "-0", 1)


def test_v2_failure_witness():
    # cocircuits of the boolean plane without their compositions
    vecs = [sv(s) for s in ("00", "+0", "-0", "0+", "0-")]
    report = verify_axioms(vecs)
    assert report.v0.passed and report.v1.passed
    assert not report.v2.passed
    x, y = report.v2.witness
    assert compose(x, y) not in set(vecs)


def test_rank_one_pair_is_a_valid_om():
    # two parallel-in-sign elements: realized by the normals (1) and (2)
    # on the line; S(++, --) covers both elements, so elimination only
    # requires the zero vector
    report = verify_axioms([sv("00"), sv("++"), sv("--")])
    assert report.passes, str(report)


def test_verify_axioms_rejects_junk():
    with pytest.raises(EmptyInput):
        verify_axioms([])
    with pytest.raises(LengthMismatch):
        verify_axioms([sv("00"), sv("0")])


def test_oriented_matroid_rejects_junk():
    with pytest.raises(LengthMismatch,
                       match="^covector of length 1 in a ground set of size 2$"):
        OrientedMatroid(2, [sv("00"), sv("0")])
    with pytest.raises(EmptyInput, match="^no covectors$"):
        OrientedMatroid(2, [])


def test_oriented_matroid_names_the_first_wrong_length():
    # in the caller's order, not in the iteration order of a set
    with pytest.raises(LengthMismatch,
                       match="^covector of length 1 in a ground set of size 2$"):
        OrientedMatroid(2, [sv("00"), sv("+"), sv("---")])
    with pytest.raises(LengthMismatch,
                       match="^covector of length 3 in a ground set of size 2$"):
        OrientedMatroid(2, [sv("00"), sv("---"), sv("+")])


def test_arrangement_validation():
    with pytest.raises(ZeroNormal):
        RationalArrangement(2, [(1, 0), (0, 0)])
    with pytest.raises(LengthMismatch):
        RationalArrangement(2, [(1, 0, 0)])
    with pytest.raises(NotEssential):
        from_arrangement(RationalArrangement(2, [(1, 0), (2, 0)]))
    with pytest.raises(EmptyInput):
        from_arrangement(RationalArrangement(2, []))


@pytest.mark.parametrize("normals", [
    [(1, 0, 0), (0, 1, 0)],                        # n < l
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)],  # rank 2 in dimension 3
])
def test_not_essential(normals):
    arr = RationalArrangement(3, normals)
    with pytest.raises(NotEssential):
        Chirotope.from_normals(arr)
    with pytest.raises(NotEssential):
        from_arrangement(arr)


def test_sign_vector_at_points():
    arr = fixture_arrangement("generic:3:2")  # normals (1,1),(1,2),(1,3)
    assert str(sign_vector_at(arr, (1, 0))) == "+++"
    assert str(sign_vector_at(arr, (-1, 1))) == "0++"
    assert str(sign_vector_at(arr, (0, 0))) == "000"


def _chirotope_cocircuits(arr):
    return cocircuits_from_chirotope(Chirotope.from_normals(arr))


@pytest.mark.parametrize("spec", REALIZABLE + ["generic:6:4", "braid:4", "boolean:5"])
def test_chirotope_cocircuits_match_kernel_lines(spec):
    arr = fixture_arrangement(spec)
    assert _chirotope_cocircuits(arr) == kernel_line_cocircuits(arr)
    # relabelled, rescaled and reoriented copies: nonzero rational
    # multiples of either sign leave both routes' answers matched
    rng = random.Random(spec)
    for _ in range(3):
        rows = [tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                               rng.randint(1, 9)) * a for a in row)
                for row in arr.normals]
        rng.shuffle(rows)
        copy = RationalArrangement(arr.l, rows)
        assert _chirotope_cocircuits(copy) == kernel_line_cocircuits(copy)


def test_chirotope_cocircuits_match_kernel_lines_non_generic():
    # small integer normals with repeats, parallel and antiparallel
    # pairs and concurrences; NotEssential exactly when rank < l
    rng = random.Random(5)
    essential = 0
    for _ in range(60):
        l, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = []
        while len(rows) < n:
            row = tuple(rng.randint(-2, 2) for _ in range(l))
            if any(row):
                rows.append(row)
                if not rng.randint(0, 3):
                    rows.append(tuple(-2 * a for a in row))
        arr = RationalArrangement(l, rows)
        if matrix_rank(arr.normals, l) < l:
            with pytest.raises(NotEssential):
                Chirotope.from_normals(arr)
            continue
        essential += 1
        assert _chirotope_cocircuits(arr) == kernel_line_cocircuits(arr)
    assert essential >= 20


def test_face_poset_shape(om):
    m = om("generic:3:2")
    poset = m.face_poset()
    assert is_graded(poset)
    bottom = [poset.elements[i] for i in poset.minimal_indices()]
    assert bottom == [SignVector.zero(3)]
    assert len(poset.maximal_indices()) == 6


@pytest.mark.parametrize("spec", ALL_FIXTURES + ("generic:6:4", "boolean:5", "braid:4"))
def test_face_poset_equals_the_relation_scan(spec, om):
    # closed from the covers X < X o C against conforms on every pair
    base = om(spec)
    m = OrientedMatroid(base.n, base.covectors)
    poset = m.face_poset()
    oracle = build_poset(m.sorted_covectors(), conforms)
    assert poset.elements == oracle.elements
    assert [poset.up_mask(i) for i in range(len(poset))] == \
        [oracle.up_mask(i) for i in range(len(oracle))]
    assert poset.covers() == oracle.covers()
    assert poset.heights() == oracle.heights()
    # graded with every maximal element, every tope, at height rank
    assert is_graded(poset)
    assert all(poset.heights()[i] == m.rank for i in poset.maximal_indices())
    # the cocircuits are the atoms over the zero covector
    assert m.cocircuits() == [oracle.elements[i] for i, h in enumerate(oracle.heights())
                              if h == 1]


def test_face_poset_needs_an_oriented_matroid():
    # V2 fails: the composition +0 o 0+ = ++ is missing, so the covers
    # X o C would leave the set
    covs = {sv(x) for x in ("00", "+0", "-0", "0+", "0-", "--")}
    m = OrientedMatroid(2, covs)
    with pytest.raises(AxiomFailure) as info:
        m.face_poset()
    assert info.value.report == verify_axioms(covs)
    assert not info.value.report.passes


def test_chirotope_from_normals_colex():
    arr = RationalArrangement(2, [(1, 0), (0, 1), (1, 1)])
    chi = Chirotope.from_normals(arr)
    assert (chi.r, chi.n) == (2, 3)
    assert chi.chi((1, 2)) == 1
    assert chi.chi((1, 3)) == 1
    assert chi.chi((2, 3)) == -1
    # antisymmetry and degeneracy on repeated entries
    assert chi.chi((2, 1)) == -1
    assert chi.chi((3, 2)) == 1
    assert chi.chi((1, 1)) == 0


def test_chirotope_validation():
    with pytest.raises(DegenerateChirotope):
        Chirotope(2, 3, {(1, 2): 0, (1, 3): 0, (2, 3): 0})
    with pytest.raises(NotAlternating):
        Chirotope(2, 3, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (2, 3): 1})
    with pytest.raises(LengthMismatch):
        Chirotope(2, 3, {(1, 2): 1, (1, 2, 3): 1})
    with pytest.raises(NotAlternating):
        Chirotope(2, 3, {(1, 1): 1, (1, 2): 1})
    # a repeated element with sign 0 says nothing and is dropped
    assert Chirotope(2, 3, {(1, 1): 0, (1, 2): 1}).values == {(1, 2): 1}


def test_chirotope_span_matches_arrangement(om):
    arr = RationalArrangement(2, [(1, 0), (0, 1), (1, 1)])
    chi = Chirotope.from_normals(arr)
    cc = cocircuits_from_chirotope(chi)
    assert len(cc) == 6
    m = span_from_cocircuits(cc)
    assert m.verify().passes
    ok, _ = are_isomorphic(m, om("generic:3:2"))
    assert ok


def test_span_rejects_non_oms():
    # a cocircuit set missing its negations cannot be completed
    cc = {sv("+0"), sv("0+")}
    with pytest.raises(AxiomFailure) as exc:
        span_from_cocircuits(cc)
    assert exc.value.report == verify_axioms(two_sided_closure(cc))
    with pytest.raises(EmptyInput):
        span_from_cocircuits(set())
    # the length met first in the caller's order is named first
    with pytest.raises(LengthMismatch, match="^mixed lengths 1 and 2$"):
        span_from_cocircuits([sv("+"), sv("+0"), sv("0+")])
    with pytest.raises(LengthMismatch, match="^mixed lengths 2 and 1$"):
        span_from_cocircuits([sv("+0"), sv("0+"), sv("+")])


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_span_matches_two_sided_closure(spec, om):
    cc = om(spec).cocircuits()
    assert span_from_cocircuits(cc).covectors == two_sided_closure(cc)


def test_span_failure_report_matches_two_sided_closure():
    # either sign on the absent concurrence (5,6,9) gives an oriented
    # matroid; reversing the basis (1,2,5) gives one that fails V3
    values = dict(nonpappus_chirotope().values)
    values[(1, 2, 5)] = -values[(1, 2, 5)]
    cc = cocircuits_from_chirotope(Chirotope(3, 9, values))
    with pytest.raises(AxiomFailure) as exc:
        span_from_cocircuits(cc)
    assert exc.value.report == verify_axioms(two_sided_closure(cc))


def test_span_of_minimal_supports_keeps_the_certifier_report(monkeypatch):
    # span_from_cocircuits certifies the span of perturbed chirotope
    # cocircuits like any covector set: its report, or the one its
    # AxiomFailure carries, is the one verify() gives a fresh matroid of
    # the same compositions, whether or not the given cocircuits are the
    # minimal supports of their span
    real, memo = matroid.verify_axioms, {}

    def memoized(covectors):
        key = frozenset(covectors)
        if key not in memo:
            memo[key] = real(covectors)
        return memo[key]

    monkeypatch.setattr(matroid, "verify_axioms", memoized)
    rng = random.Random(9)
    outcomes = set()
    for k in range(36):
        n = (5, 5, 6)[k % 3]
        arr = generic_arrangement(n, 3)
        arr = RationalArrangement(3, [tuple(rng.choice((-1, 1)) * a for a in row)
                                      for row in arr.normals])
        values = dict(Chirotope.from_normals(arr).values)
        sub = rng.choice(sorted(values))
        values[sub] = rng.choice([s for s in (-1, 0, 1) if s != values[sub]])
        cc = cocircuits_from_chirotope(Chirotope(3, n, values))
        full = OrientedMatroid(n, (SignVector(n, *z) for z in matroid._compositions(cc)))
        try:
            report = span_from_cocircuits(cc).verify()
        except AxiomFailure as exc:
            report = exc.report
        assert report == full.verify(), (n, sub)
        outcomes.add((set(full.cocircuits()) == cc, report.passes))
    assert outcomes == {(True, True), (True, False), (False, False)}


def _chirotope_span(chi):
    return {SignVector(chi.n, *z)
            for z in matroid._compositions(cocircuits_from_chirotope(chi))}


def _certifier_corpus():
    """Covector sets for the cocircuit certifier: oriented matroids,
    near misses and the rank-0 set, each as (label, n, covectors)."""
    for spec in ALL_FIXTURES + ("boolean:5", "generic:6:4", "braid:4"):
        m = generate_fixture(spec)
        yield spec, m.n, m.covectors
    values = dict(nonpappus_chirotope().values)
    values[(1, 2, 5)] = -values[(1, 2, 5)]
    yield "nonpappus (1,2,5) reversed", 9, _chirotope_span(Chirotope(3, 9, values))
    # one sign changed in the chirotope of a randomly reoriented generic
    # arrangement; the small n get more draws, being cheaper to verify
    rng = random.Random(9)
    for k in range(300):
        n = (5, 5, 5, 6, 6, 7)[k % 6]
        arr = generic_arrangement(n, 3)
        arr = RationalArrangement(3, [tuple(rng.choice((-1, 1)) * a for a in row)
                                      for row in arr.normals])
        values = dict(Chirotope.from_normals(arr).values)
        sub = rng.choice(sorted(values))
        values[sub] = rng.choice([s for s in (-1, 0, 1) if s != values[sub]])
        yield f"generic:{n}:3 {sub}={values[sub]}", n, _chirotope_span(Chirotope(3, n, values))
    # damaged .cov sets: one covector dropped, or one entry changed
    for spec in ("boolean:2", "boolean:3", "generic:3:2", "generic:4:3", "generic:5:3"):
        m = generate_fixture(spec)
        covs = m.sorted_covectors()
        for _ in range(12):
            x = rng.choice(covs)
            yield f"{spec} without {x}", m.n, set(covs) - {x}
            signs = [x.sign(e) for e in range(1, m.n + 1)]
            e = rng.randrange(m.n)
            signs[e] = rng.choice([s for s in (-1, 0, 1) if s != signs[e]])
            y = SignVector.from_signs(signs)
            yield f"{spec} {x} -> {y}", m.n, set(covs) - {x} | {y}
    yield "rank 0", 3, {SignVector.zero(3)}


def test_certifier_matches_verify_axioms(monkeypatch):
    # a pass is proved on the cocircuits; every other answer, and so
    # every witness, is verify_axioms's own report on the same set
    real = matroid.verify_axioms
    fallbacks = []

    def recorded(covectors):
        fallbacks.append((covectors, real(covectors)))
        return fallbacks[-1][1]

    monkeypatch.setattr(matroid, "verify_axioms", recorded)
    outcomes, fell_back = set(), set()
    for label, n, covs in _certifier_corpus():
        fallbacks.clear()
        report = OrientedMatroid(n, covs).verify()
        if fallbacks:
            (seen, expected), = fallbacks
            assert seen == frozenset(covs), label
            fell_back.add(label)
        else:
            expected = real(covs)
        assert report == expected, label
        outcomes.add(report.passes)
    assert outcomes == {True, False}
    assert "rank 0" in fell_back


def test_fresh_boolean_seven_is_certified_without_verify_axioms(monkeypatch):
    # 2,187 covectors: verify_axioms would compare millions of pairs
    calls = []
    real = matroid.verify_axioms

    def counted(covectors):
        calls.append(covectors)
        return real(covectors)

    monkeypatch.setattr(matroid, "verify_axioms", counted)
    m = from_arrangement(boolean_arrangement(7))
    assert len(m.covectors) == 3 ** 7
    assert m.verify().passes and calls == []


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_fixtures_are_simple(spec, om):
    simple, offenders = is_simple(om(spec))
    assert simple and offenders == ()


def test_loop_and_parallel_detection():
    # append an always-zero third element to the boolean plane: a loop
    base = generate_fixture("boolean:2")
    looped = OrientedMatroid(3, {sv(str(x) + "0") for x in base.covectors})
    simple, offenders = is_simple(looped)
    assert not simple and 3 in offenders

    # duplicated normal: elements 2 and 3 are parallel
    m = from_arrangement(RationalArrangement(2, [(1, 0), (0, 1), (0, 2)]))
    simple, offenders = is_simple(m)
    assert not simple and offenders == (2, 3)


def test_braid_is_generic_in_disguise(om):
    ok, cert = are_isomorphic(om("braid:3"), om("generic:3:2"))
    assert ok
    perm, flips = cert
    assert sorted(perm) == [1, 2, 3]


def test_isomorphism_respects_reorientation(om):
    m = om("generic:3:2")
    flipped = OrientedMatroid(3, {_flip_first(x) for x in m.covectors})
    assert flipped.verify().passes
    ok, cert = are_isomorphic(m, flipped)
    assert ok
    perm, flips = cert
    # validate the certificate by applying it
    image = {_apply(x, perm, flips) for x in m.covectors}
    assert image == set(flipped.covectors)


def _flip_first(x):
    signs = [-x.sign(1)] + [x.sign(e) for e in range(2, x.n + 1)]
    return SignVector.from_signs(signs)


def _apply(x, perm, flips):
    out = [0] * x.n
    for e in range(1, x.n + 1):
        s = x.sign(e)
        if e in flips:
            s = -s
        out[perm[e - 1] - 1] = s
    return SignVector.from_signs(out)


def test_non_isomorphic_pairs(om):
    ok, cert = are_isomorphic(om("boolean:2"), om("generic:3:2"))
    assert not ok and cert is None
    ok, cert = are_isomorphic(om("boolean:3"), om("generic:3:2"))
    assert not ok
    # same size, different structure: boolean:3 vs generic 3 lines in
    # the plane have different covector counts, caught before search
    assert not are_isomorphic(om("generic:4:3"), om("boolean:3"))[0]


def _simplicial_topes(m):
    face = m.face_poset()
    walls = Counter(j for _, j in face.covers())
    return sum(walls[face.index[t]] == m.rank for t in m.topes())


def test_search_decides_non_isomorphic_pairs(om):
    # uniform rank 3 on six elements with equal pre-search invariants,
    # but 12 against 14 simplicial topes: only the search can say no
    m1 = om("generic:6:3")
    m2 = from_arrangement(RationalArrangement(3, [
        (-3, 5, 2), (0, -3, -4), (2, -1, 3), (3, 3, 0), (-4, 0, 4), (5, -5, -1)]))
    assert len(m1.covectors) == len(m2.covectors) == 123
    assert m1.height_profile() == m2.height_profile()
    assert sorted(x.support_mask.bit_count() for x in m1.cocircuits()) == \
        sorted(x.support_mask.bit_count() for x in m2.cocircuits())
    assert (_simplicial_topes(m1), _simplicial_topes(m2)) == (12, 14)
    assert are_isomorphic(m1, m2) == (False, None)


def test_cocircuit_support_sizes_decide_before_the_search(monkeypatch):
    # equal n, covector count and height profile (1, 4, 4), but cocircuit
    # supports of sizes (1, 1, 3, 3) against (2, 2, 2, 2)
    m1 = OrientedMatroid(4, map(sv, "0000 0+00 0-00 +0-- -0++ ++-- +--- -+++ --++".split()))
    m2 = OrientedMatroid(4, map(sv, "0000 00++ 00-- +-00 -+00 +-++ +--- -+++ -+--".split()))
    assert m1.height_profile() == m2.height_profile() == (1, 4, 4)

    def refuse(m):
        raise AssertionError("the search was reached")

    monkeypatch.setattr(matroid, "_element_invariants", refuse)
    assert are_isomorphic(m1, m2) == (False, None)


def test_isomorphism_budget(om):
    m = om("nonpappus")
    with pytest.raises(SearchBudgetExceeded):
        are_isomorphic(m, m)


# the nine concurrent triples of the nonpappus lines
_NONPAPPUS_TRIPLES = ((1, 3, 5), (1, 4, 7), (1, 6, 8), (2, 3, 8),
                      (2, 4, 6), (2, 5, 7), (3, 4, 9), (5, 6, 9), (7, 8, 9))


def test_nonpappus_chirotope_is_one_sign_off_its_realization():
    # the nine lines' own chirotope vanishes exactly on the concurrent
    # triples; the fixture sets the basis (5,6,9) to +1 and nothing else
    real = Chirotope.from_normals(RationalArrangement(3, _NONPAPPUS_NORMALS)).values
    assert tuple(sub for sub, s in sorted(real.items()) if s == 0) == _NONPAPPUS_TRIPLES
    shipped = nonpappus_chirotope().values
    assert shipped.keys() == real.keys()
    assert {sub for sub in real if real[sub] != shipped[sub]} == {_NONPAPPUS_ZERO_BASIS}
    assert shipped[_NONPAPPUS_ZERO_BASIS] == 1


def test_nonpappus_has_no_realization_defect(om):
    # the fixture ships only if the axioms accept the flipped chirotope
    m = om("nonpappus")
    assert m.n == 9 and m.rank == 3
    assert m.verify().passes
