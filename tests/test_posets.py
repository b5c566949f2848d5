"""Poset construction, validation, grading, duality, chains, lattices."""

from itertools import combinations

import pytest

from omsal.errors import NotAntisymmetric, NotTransitive
from omsal.homology import homology
from omsal.posets import FinitePoset, build_poset, is_lattice, order_complex


def divisor_poset(n=12):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return build_poset(divs, lambda a, b: b % a == 0)


def subset_poset(n=3):
    elems = [frozenset(c) for k in range(n + 1)
             for c in combinations(range(n), k)]
    return build_poset(elems, lambda a, b: a <= b)


def test_divisor_poset_basics():
    p = divisor_poset(12)
    assert len(p) == 6
    assert p.leq(2, 6) and p.leq(1, 12) and not p.leq(4, 6)
    assert [p.elements[i] for i in p.minimal_indices()] == [1]
    assert [p.elements[i] for i in p.maximal_indices()] == [12]
    assert sorted(p.cover_pairs()) == [(1, 2), (1, 3), (2, 4), (2, 6),
                                       (3, 6), (4, 12), (6, 12)]


def test_heights_and_grading():
    p = divisor_poset(12)
    assert p.height_of(1) == 0
    assert p.height_of(12) == 3
    assert p.height() == 3
    assert p.is_graded()

    b3 = subset_poset(3)
    assert b3.is_graded()
    assert b3.height() == 3
    assert all(b3.height_of(x) == len(x) for x in b3.elements)


def test_not_graded():
    # t covers both a1 (height 1) and b0 (height 0): covers jump levels
    pairs = {("a0", "a1"), ("a0", "t"), ("a1", "t"), ("b0", "t")}
    p = build_poset(["a0", "a1", "b0", "t"], lambda x, y: (x, y) in pairs)
    assert not p.is_graded()


def test_pairs_input_must_be_transitive():
    pairs = {("a", "b"), ("b", "c")}
    with pytest.raises(NotTransitive):
        build_poset(["a", "b", "c"], lambda a, b: (a, b) in pairs)
    # same relation, closed, is fine
    pairs.add(("a", "c"))
    p = build_poset(["a", "b", "c"], lambda a, b: (a, b) in pairs)
    assert p.leq("a", "c")


def test_antisymmetry_violation():
    with pytest.raises(NotAntisymmetric):
        build_poset(["a", "b"], lambda x, y: True)


def test_from_covers_closes_transitively():
    # covers of the divisors of 12, by index, give back the divisor poset
    divs = [1, 2, 3, 4, 6, 12]
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    p = FinitePoset.from_covers(divs, covers)
    q = divisor_poset(12)
    assert [p.up_mask(i) for i in range(6)] == [q.up_mask(i) for i in range(6)]
    assert sorted(p.covers()) == sorted(covers)
    with pytest.raises(NotAntisymmetric):
        FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


def test_dual_swaps_relations():
    p = divisor_poset(12)
    d = p.dual()
    for x in p.elements:
        for y in p.elements:
            assert p.leq(x, y) == d.leq(y, x)
    assert d.height_of(12) == 0 and d.height_of(1) == 3
    dd = d.dual()
    assert all(dd.leq(x, y) == p.leq(x, y)
               for x in p.elements for y in p.elements)


def test_chains_of_b2():
    p = subset_poset(2)  # 4 elements: {}, {0}, {1}, {0,1}
    chains = list(p.iter_chains())
    # nonempty chains of B_2: 4 singletons, 5 pairs, 2 triples
    assert len(chains) == 11
    assert sum(1 for _, mx in chains if mx) == 2
    assert p.max_chain_count() == 2


def test_max_chain_count_divisors():
    # 1-2-4-12, 1-2-6-12, 1-3-6-12
    assert divisor_poset(12).max_chain_count() == 3


def test_is_lattice_positive():
    ok, witness = is_lattice(subset_poset(3))
    assert ok and witness is None
    ok, witness = is_lattice(divisor_poset(12))
    assert ok


def test_is_lattice_negative():
    # a, b below both x and y: the pair {x, y} has no join, {a, b} no meet
    pairs = {("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")}
    p = build_poset(["a", "b", "x", "y"], lambda u, v: (u, v) in pairs)
    ok, witness = is_lattice(p)
    assert not ok
    assert witness in {("a", "b", "join"), ("a", "b", "meet"),
                       ("x", "y", "join"), ("x", "y", "meet")}


def test_order_complex_of_chain_is_simplex():
    p = build_poset([0, 1, 2, 3], lambda a, b: a <= b)
    sc = order_complex(p)
    assert sc.f_vector() == (4, 6, 4, 1)
    assert sc.euler_characteristic() == 1


def test_order_complex_with_bottom_is_acyclic():
    # cones are contractible: full B_3 including the empty set
    sc = order_complex(subset_poset(3))
    groups = homology(sc)
    assert [g.betti for g in groups] == [1] + [0] * (len(groups) - 1)
    assert all(g.torsion == () for g in groups)


def test_order_complex_of_antichain():
    p = build_poset([1, 2, 3], lambda a, b: a == b)
    sc = order_complex(p)
    assert sc.f_vector() == (3,)
    assert [g.betti for g in homology(sc)] == [3]
