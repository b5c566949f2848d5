"""Poset closure from covers, cycles, grading, duality, chains, lattices."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import build_poset, homology, is_graded, maximal_chains, order_complex

from omsal import posets
from omsal.errors import NotAntisymmetric
from omsal.posets import FinitePoset, is_lattice, iter_bits


def divisor_poset(n=12):
    # b covers a when b / a is prime
    divs = [d for d in range(1, n + 1) if n % d == 0]
    covers = [(i, j) for i, a in enumerate(divs) for j, b in enumerate(divs)
              if b % a == 0 and b // a in (2, 3, 5, 7, 11)]
    return FinitePoset.from_covers(divs, covers)


def subset_poset(n=3):
    elems = [frozenset(c) for k in range(n + 1)
             for c in combinations(range(n), k)]
    index = {a: i for i, a in enumerate(elems)}
    return FinitePoset.from_covers(
        elems, [(index[a], index[a | {e}]) for a in elems
                for e in range(n) if e not in a])


def _up_masks(p):
    return [p.up_mask(i) for i in range(len(p))]


def _leq(p, x, y):
    return bool(p.up_mask(p.index[x]) >> p.index[y] & 1)


def _height(p, x):
    return p.heights()[p.index[x]]


def test_divisor_poset_basics():
    p = divisor_poset(12)
    assert len(p) == 6
    assert _leq(p, 2, 6) and _leq(p, 1, 12) and not _leq(p, 4, 6)
    assert [p.elements[i] for i in p.minimal_indices()] == [1]
    assert [p.elements[i] for i in p.maximal_indices()] == [12]
    assert sorted((p.elements[i], p.elements[j]) for i, j in p.covers()) == \
        [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]


def test_heights_and_grading():
    p = divisor_poset(12)
    assert _height(p, 1) == 0
    assert _height(p, 12) == 3
    assert p.height() == 3
    assert is_graded(p)

    b3 = subset_poset(3)
    assert is_graded(b3)
    assert b3.height() == 3
    assert all(_height(b3, x) == len(x) for x in b3.elements)


def test_not_graded():
    # t covers both a1 (height 1) and b0 (height 0): covers jump levels
    p = FinitePoset.from_covers(["a0", "a1", "b0", "t"],
                                [(0, 1), (0, 3), (1, 3), (2, 3)])
    assert not is_graded(p)


def test_antisymmetry_violation():
    with pytest.raises(NotAntisymmetric) as info:
        FinitePoset.from_covers(["a", "b"], [(0, 1), (1, 0)])
    assert info.value.witness == ("a", "b")


@pytest.mark.parametrize("pairs, witness", [
    ([(0, 1), (1, 2), (2, 3), (3, 1)], ("b", "c")),
    ([(3, 2), (2, 3)], ("c", "d")),
    ([(2, 0), (0, 2), (1, 3), (3, 1)], ("a", "c")),
])
def test_cycle_witness(pairs, witness):
    # the lowest element on a cycle, then the lowest one on a cycle with it
    with pytest.raises(NotAntisymmetric) as info:
        FinitePoset.from_covers("abcd", pairs)
    assert info.value.witness == witness


def test_from_covers_closes_transitively():
    # covers of the divisors of 12, by index, give back the divisor poset
    divs = [1, 2, 3, 4, 6, 12]
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    p = FinitePoset.from_covers(divs, covers)
    q = build_poset(divs, lambda a, b: b % a == 0)
    assert _up_masks(p) == _up_masks(q) == _up_masks(divisor_poset(12))
    b3 = subset_poset(3)
    assert _up_masks(b3) == _up_masks(build_poset(b3.elements, lambda a, b: a <= b))
    assert sorted(p.covers()) == sorted(covers)
    with pytest.raises(NotAntisymmetric):
        FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


# label covers of a chain and a diamond, and the order they generate
SHAPES = {
    "chain": ([("a", "b"), ("b", "c"), ("c", "d")], lambda x, y: x <= y),
    "diamond": ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                lambda x, y: x == y or x == "a" or y == "d"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("elements", ["abcd", "dcba", "bdac"])
def test_from_covers_in_any_pair_order(shape, elements):
    # the index pairs all rise, all fall, or go both ways
    covers, leq = SHAPES[shape]
    index = {x: i for i, x in enumerate(elements)}
    p = FinitePoset.from_covers(elements, [(index[a], index[b]) for a, b in covers])
    q = build_poset(elements, leq)
    assert _up_masks(p) == _up_masks(q)
    assert p.covers() == q.covers()


def test_from_covers_keeps_only_true_covers():
    # (0, 1) twice, the self pair (2, 2), and (0, 3) implied by 0 < 1 < 3
    pairs = [(1, 3), (0, 1), (0, 3), (2, 2), (0, 1), (0, 2)]
    p = FinitePoset.from_covers("abcd", iter(pairs))
    assert p.covers() == [(0, 1), (0, 2), (1, 3)]
    assert p.dual().dual().covers() == p.covers()


def test_dual_swaps_relations():
    p = divisor_poset(12)
    d = p.dual()
    for x in p.elements:
        for y in p.elements:
            assert _leq(p, x, y) == _leq(d, y, x)
    assert _height(d, 12) == 0 and _height(d, 1) == 3
    dd = d.dual()
    assert all(_leq(dd, x, y) == _leq(p, x, y)
               for x in p.elements for y in p.elements)


def _mask_lists(p):
    return p._up, p._down, p._above, p._below


@pytest.mark.parametrize("step", [1, -1])
def test_chain_closes_in_linear_bits_and_dual_is_free(step, monkeypatch):
    # each mask list is closed in one sweep over the generating pairs
    n = 200
    yielded = []
    real = posets.iter_bits

    def counted(mask):
        for j in real(mask):
            yielded.append(j)
            yield j

    monkeypatch.setattr(posets, "iter_bits", counted)
    pairs = [(i, i + 1) for i in range(n - 1)]
    p = FinitePoset.from_covers(range(n), pairs if step > 0 else
                                [(b, a) for a, b in pairs])
    assert len(yielded) <= 2 * n
    low, high = (0, n - 1) if step > 0 else (n - 1, 0)
    assert p.up_mask(low) == p.down_mask(high) == (1 << n) - 1
    yielded.clear()
    assert _mask_lists(p.dual().dual()) == _mask_lists(p)
    assert not yielded


@st.composite
def pair_lists(draw):
    """(n, pairs) on n <= 8 indices: all rising, all falling, mixed but
    rising in a hidden order of the indices (so acyclic), or arbitrary."""
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=16))
    order = draw(st.sampled_from(["rising", "falling", "hidden", "any"]))
    if order == "rising":
        pairs = [(min(p), max(p)) for p in pairs]
    elif order == "falling":
        pairs = [(max(p), min(p)) for p in pairs]
    elif order == "hidden":
        perm = draw(st.permutations(range(n)))
        pairs = [(perm[min(p)], perm[max(p)]) for p in pairs]
    return n, pairs


def _reach(n, pairs):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return reach


def _poset_view(p):
    n = len(p)
    return ([p.up_mask(i) for i in range(n)], [p.down_mask(i) for i in range(n)],
            p.covers(), p.heights())


@settings(derandomize=True, max_examples=300)
@given(pair_lists())
def test_from_covers_equals_the_relation_scan(case):
    n, pairs = case
    elements = "abcdefgh"[:n]
    reach = _reach(n, pairs)
    on_cycle = [[i != j and reach[i][j] and reach[j][i] for j in range(n)]
                for i in range(n)]
    if any(map(any, on_cycle)):
        # the lowest element on a cycle, then the lowest one on a cycle with it
        x = next(i for i in range(n) if any(on_cycle[i]))
        y = on_cycle[x].index(True)
        with pytest.raises(NotAntisymmetric) as info:
            FinitePoset.from_covers(elements, pairs)
        assert info.value.witness == (elements[x], elements[y])
        return
    p = FinitePoset.from_covers(elements, pairs)
    q = build_poset(elements, lambda a, b: reach[elements.index(a)][elements.index(b)])
    assert _poset_view(p) == _poset_view(q)
    assert _poset_view(p.dual()) == _poset_view(q.dual())


def test_chains_of_b2():
    p = subset_poset(2)  # 4 elements: {}, {0}, {1}, {0,1}
    # nonempty chains of B_2: 4 singletons, 5 pairs, 2 triples, and the
    # triples are the two maximal chains
    assert [len(layer) for layer in p.chain_layers()] == [4, 5, 2]
    assert p.chain_layers()[-1] == maximal_chains(p) == [(0, 1, 3), (0, 2, 3)]


CHAIN_POSETS = pytest.mark.parametrize(
    "p", [subset_poset(2), subset_poset(4), divisor_poset(12), divisor_poset(60),
          subset_poset(3).dual(), FinitePoset.from_covers(["a"], []),
          FinitePoset.from_covers("abc", [(2, 0), (1, 0)])],
    ids=["B2", "B4", "div12", "div60", "B3-dual", "point", "falling-cover-indices"])


def _brute_chains(p):
    """The index masks of every pairwise comparable nonempty subset."""
    comp = [p.up_mask(i) | p.down_mask(i) for i in range(len(p))]
    return [mask for mask in range(1, 1 << len(p))
            if all(comp[i] & mask == mask for i in iter_bits(mask))]


@CHAIN_POSETS
def test_chain_counts_equal_the_listed_chains(p):
    # counted from the down-masks, in any index order
    listed = Counter(mask.bit_count() for mask in _brute_chains(p))
    assert p.chain_counts() == [listed[k] for k in range(1, len(listed) + 1)]


@CHAIN_POSETS
def test_chain_layers_list_each_chain_once_bottom_up(p):
    layers = p.chain_layers()
    listed = [c for layer in layers for c in layer]
    masks = [sum(1 << i for i in c) for c in listed]
    assert all(mask.bit_count() == len(c) for mask, c in zip(masks, listed))
    assert sorted(masks) == _brute_chains(p)
    assert all(p.up_mask(a) >> b & 1 for c in listed for a, b in zip(c, c[1:]))
    assert all(layer == sorted(layer) for layer in layers)
    assert [len(layer) for layer in layers] == p.chain_counts()
    assert all(len(c) == k + 1 for k, layer in enumerate(layers) for c in layer)


def test_max_chain_count_divisors():
    p = divisor_poset(12)
    assert [tuple(p.elements[i] for i in c) for c in maximal_chains(p)] == \
        [(1, 2, 4, 12), (1, 2, 6, 12), (1, 3, 6, 12)]


def test_is_lattice_positive():
    ok, witness = is_lattice(subset_poset(3))
    assert ok and witness is None
    ok, witness = is_lattice(divisor_poset(12))
    assert ok


def test_is_lattice_negative():
    # a, b below both x and y: the pair {x, y} has no join, {a, b} no meet
    p = FinitePoset.from_covers(["a", "b", "x", "y"], [(0, 2), (0, 3), (1, 2), (1, 3)])
    ok, witness = is_lattice(p)
    assert not ok
    assert witness in {("a", "b", "join"), ("a", "b", "meet"),
                       ("x", "y", "join"), ("x", "y", "meet")}


def test_is_lattice_names_a_missing_meet():
    # a and b have the join top but no element below both
    p = FinitePoset.from_covers(["a", "b", "top"], [(0, 2), (1, 2)])
    assert is_lattice(p) == (False, ("a", "b", "meet"))


def test_order_complex_of_chain_is_simplex():
    p = FinitePoset.from_covers([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
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
    p = FinitePoset.from_covers([1, 2, 3], [])
    sc = order_complex(p)
    assert sc.f_vector() == (3,)
    assert [g.betti for g in homology(sc)] == [3]


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b1011001)) == [0, 3, 4, 6]
    assert list(iter_bits(1 << 200 | 2)) == [1, 200]
