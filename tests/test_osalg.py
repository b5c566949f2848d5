"""Flats and ranks, broken circuits, nbc counts, homology comparison."""

from itertools import combinations

import pytest

from oracles import flats, is_simple, whitney_numbers

from omsal import osalg
from omsal.errors import AxiomFailure, NotSimple
from omsal.cli import main
from omsal.fixtures import (ALL_FIXTURES, fixture_chirotope, generate_fixture,
                            parse_fixture_spec)
from omsal.matroid import OrientedMatroid
from omsal.osalg import (
    circuits,
    flats_from_covectors,
    gr_comparison,
    nbc_sets,
)
from omsal.salvetti import salvetti_chain_complex
from omsal.signs import SignVector

# frozen against the Mobius/Whitney oracle below
OS_EXPECTED = {
    "boolean:1": (1, 1),
    "boolean:2": (1, 2, 1),
    "boolean:3": (1, 3, 3, 1),
    "generic:3:2": (1, 3, 2),
    "braid:3": (1, 3, 2),
    "generic:4:3": (1, 4, 6, 3),
    "generic:5:3": (1, 5, 10, 6),
    "nonpappus": (1, 9, 28, 20),
}

NONPAPPUS_LINES = [
    (1, 3, 5), (1, 4, 7), (1, 6, 8), (2, 3, 8),
    (2, 4, 6), (2, 5, 7), (3, 4, 9), (7, 8, 9),
]


def u23():
    # three lines through the origin: flats {}, {1}, {2}, {3}, {1, 2, 3}
    return flats_from_covectors(generate_fixture("generic:3:2"))


def _closed_sets(u):
    # the flats of u read off its rank: the sets that every element
    # outside them raises to a higher rank
    ground = range(1, u.n + 1)
    out = set()
    for size in range(u.n + 1):
        for s in combinations(ground, size):
            r = u.rank(s)
            if all(u.rank(s + (e,)) > r for e in ground if e not in s):
                out.add(frozenset(s))
    return out


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_os_betti_frozen(spec, om):
    assert nbc_sets(flats_from_covectors(om(spec))).counts() == OS_EXPECTED[spec]


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_os_betti_matches_whitney_oracle(spec, om):
    m = om(spec)
    assert nbc_sets(flats_from_covectors(m)).counts() == whitney_numbers(flats(m))


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_rank_closes_exactly_the_covector_zero_sets(spec, om):
    m = om(spec)
    assert _closed_sets(flats_from_covectors(m)) == flats(m)


@pytest.mark.parametrize("spec", ALL_FIXTURES + ("generic:6:3", "generic:6:4",
                                                 "braid:4", "boolean:5"))
def test_rank_is_the_largest_basis_meet(spec, om):
    # the rank of S is the most elements of S in one basis, read off the
    # chirotope's nonzero bases: no flats and no covectors involved
    chi = fixture_chirotope(parse_fixture_spec(spec))
    bases = [frozenset(b) for b, sign in chi.values.items() if sign]
    u = flats_from_covectors(om(spec))
    assert u.n == chi.n and u.rank() == chi.r
    for size in range(u.n + 1):
        for s in combinations(range(1, u.n + 1), size):
            assert u.rank(s) == max(len(b.intersection(s)) for b in bases), s


def test_flat_ranks_are_built_once_per_matroid(om, monkeypatch):
    ranks, calls = osalg._flat_ranks, []

    def counted(m):
        calls.append(m)
        return ranks(m)

    monkeypatch.setattr(osalg, "_flat_ranks", counted)
    m = om("generic:4:3")
    m = OrientedMatroid(m.n, m.covectors)
    for _ in range(3):
        nbc_sets(flats_from_covectors(m))
    gr_comparison(m)
    assert calls == [m]


def test_flats_need_a_set_that_verifies():
    # +0 without its negative breaks V1
    m = OrientedMatroid(2, {SignVector.from_string(s) for s in ("00", "+0")})
    with pytest.raises(AxiomFailure) as exc:
        flats_from_covectors(m)
    assert exc.value.report == m.verify()


def test_boolean_flats_are_all_subsets(om):
    u = flats_from_covectors(om("boolean:2"))
    assert sorted(sorted(f) for f in _closed_sets(u)) == [[], [1], [1, 2], [2]]


def test_three_concurrent_lines_share_a_flat(om):
    for spec in ("generic:3:2", "braid:3"):
        u = flats_from_covectors(om(spec))
        assert sorted(sorted(f) for f in _closed_sets(u)) == \
            [[], [1], [1, 2, 3], [2], [3]]
        assert u.rank() == 2


def test_nonpappus_flat_lattice(om):
    u = flats_from_covectors(om("nonpappus"))
    closed = _closed_sets(u)
    assert len(closed) == 31
    assert u.rank() == 3
    triples = sorted(tuple(sorted(f)) for f in closed if len(f) == 3)
    assert triples == NONPAPPUS_LINES
    # the closure forced by the classical theorem is exactly the one missing
    assert frozenset({5, 6, 9}) not in closed
    # so 9 is not in the closure of {5, 6}
    assert u.rank({5, 6, 9}) == 3


def test_closure_and_rank():
    u = u23()
    assert u.rank() == 2
    assert u.rank(()) == 0
    assert u.rank({1}) == 1
    assert u.rank({1, 2}) == u.rank({1, 2, 3}) == 2
    assert u.rank({1, 3}) == 2  # independent
    with pytest.raises(ValueError):
        u.rank({4})


def test_circuits_uniform():
    assert circuits(u23()) == [frozenset({1, 2, 3})]


def test_circuits_nonpappus(om):
    u = flats_from_covectors(om("nonpappus"))
    cs = circuits(u)
    three = sorted(tuple(sorted(c)) for c in cs if len(c) == 3)
    assert three == NONPAPPUS_LINES
    # every other circuit is a 4-set: rank 3, so 5-sets are never minimal
    assert {len(c) for c in cs} == {3, 4}
    assert all(not any(a < b for a in cs) for b in cs)


def test_nbc_table_uniform():
    tab = nbc_sets(u23())
    assert nbc_sets(u23(), (1, 2, 3)) == tab  # the default order
    assert circuits(u23()) == [frozenset({1, 2, 3})]
    assert tab.broken_circuits == (frozenset({2, 3}),)
    assert tab.nbc_by_size[2] == (frozenset({1, 2}), frozenset({1, 3}))
    assert tab.counts() == (1, 3, 2)


def test_nbc_counts_ignore_the_order(om):
    u = flats_from_covectors(om("nonpappus"))
    base = nbc_sets(u).counts()
    for order in [tuple(range(9, 0, -1)), (2, 7, 1, 9, 4, 3, 8, 5, 6)]:
        tab = nbc_sets(u, order)
        assert tab.counts() == base
    assert nbc_sets(u23(), (3, 2, 1)).broken_circuits == (frozenset({1, 2}),)


@pytest.mark.parametrize("spec, count", [("generic:5:3", 4), ("nonpappus", 53)])
def test_broken_circuits_are_listed_once(spec, count, om):
    # 5 and 86 circuits: several break to the same set
    u = flats_from_covectors(om(spec))
    tab = nbc_sets(u)
    assert len(set(tab.broken_circuits)) == len(tab.broken_circuits) == count
    assert set(tab.broken_circuits) == {c - {min(c)} for c in circuits(u)}


def test_nbc_rejects_non_permutations():
    with pytest.raises(ValueError):
        nbc_sets(u23(), (1, 2))
    with pytest.raises(ValueError):
        nbc_sets(u23(), (1, 2, 2))


@pytest.mark.parametrize("spec", ALL_FIXTURES + ("generic:6:4", "generic:6:3",
                                                 "boolean:5", "braid:4"))
def test_tope_count_is_the_nbc_total(spec, om):
    # Zaslavsky 1975; Las Vergnas 1975 for oriented matroids
    m = om(spec)
    assert len(m.topes()) == sum(nbc_sets(flats_from_covectors(m)).counts())


@pytest.mark.parametrize("spec", ["boolean:1", "boolean:2", "boolean:3",
                                  "generic:3:2", "braid:3", "generic:4:3",
                                  "generic:5:3"])
def test_gr_comparison_matches(spec, om):
    # it returns the nbc counts once the groups certify them: equal
    # ranks, no torsion
    m = om(spec)
    assert gr_comparison(m) == OS_EXPECTED[spec]
    groups = salvetti_chain_complex(m).homology()
    assert tuple(g.betti for g in groups) == OS_EXPECTED[spec]
    assert all(g.torsion == () for g in groups)


def test_gr_comparison_names_the_loops():
    # a line with two loops: the comparison holds only without them
    m = OrientedMatroid(3, {SignVector.from_string(s)
                            for s in ("000", "0+0", "0-0")})
    assert m.verify().passes and is_simple(m) == (False, (1, 3))
    with pytest.raises(NotSimple, match="^elements 1, 3 are loops$"):
        gr_comparison(m)


def test_gr_table_text(capsys):
    assert main(["gr-compare", "--fixture", "generic:3:2"]) == 0
    assert capsys.readouterr().out == ("deg  os  H_k\n"
                                       "  0   1    1\n"
                                       "  1   3    3\n"
                                       "  2   2    2\n"
                                       "match\n")
