"""Covector axioms, arrangements, chirotopes, and isomorphism search."""

import pytest

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
from omsal.fixtures import ALL_FIXTURES, fixture_arrangement, generate_fixture
from omsal.matroid import (
    Chirotope,
    OrientedMatroid,
    RationalArrangement,
    are_isomorphic,
    cocircuits_from_chirotope,
    from_arrangement,
    is_simple,
    span_from_cocircuits,
    verify_axioms,
)
from omsal.signs import SignVector, compose

from oracles import enumerate_covector_strings

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
    mutated = [x for x in m.covectors if not x.is_zero()]
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
    got.append(m.zero)
    assert m.topes() == before
    assert m.is_tope(before[0])
    assert not m.is_tope(m.zero)


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


def test_arrangement_validation():
    with pytest.raises(ZeroNormal):
        RationalArrangement(2, [(1, 0), (0, 0)])
    with pytest.raises(LengthMismatch):
        RationalArrangement(2, [(1, 0, 0)])
    with pytest.raises(NotEssential):
        from_arrangement(RationalArrangement(2, [(1, 0), (2, 0)]))
    with pytest.raises(EmptyInput):
        from_arrangement(RationalArrangement(2, []))


def test_sign_vector_at_points():
    arr = fixture_arrangement("generic:3:2")  # normals (1,1),(1,2),(1,3)
    assert str(arr.sign_vector_at((1, 0))) == "+++"
    assert str(arr.sign_vector_at((-1, 1))) == "0++"
    assert str(arr.sign_vector_at((0, 0))) == "000"


def test_face_poset_shape(om):
    m = om("generic:3:2")
    poset = m.face_poset()
    assert poset.is_graded()
    bottom = [poset.elements[i] for i in poset.minimal_indices()]
    assert bottom == [SignVector.zero(3)]
    assert len(poset.maximal_indices()) == 6


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
    with pytest.raises(AxiomFailure):
        span_from_cocircuits({sv("+0"), sv("0+")})
    with pytest.raises(EmptyInput):
        span_from_cocircuits(set())


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


def test_isomorphism_budget(om):
    m = om("nonpappus")
    with pytest.raises(SearchBudgetExceeded):
        are_isomorphic(m, m)


def test_nonpappus_has_no_realization_defect(om):
    # the fixture ships only if the axioms accept the flipped chirotope
    m = om("nonpappus")
    assert m.n == 9 and m.rank == 3
    assert m.verify().passes
