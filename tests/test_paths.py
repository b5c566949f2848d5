"""Tope distance, minimal positive paths, tope posets, simpliciality."""

import pytest

from oracles import (
    count_geodesics,
    flip_graph_neighbors,
    geodesic_counts_from,
    tope_string_distance,
)

from omsal import paths
from omsal.errors import ConsistencyFailure, NotATope, NotSimple
from omsal.fixtures import ALL_FIXTURES
from omsal.matroid import OrientedMatroid, RationalArrangement, from_arrangement
from omsal.paths import (
    antipodal_extension_check,
    crossing_element,
    is_simplicial,
    lattice_equivalence_check,
    literal_distance_preorder,
    minimal_positive_paths,
    skeleton_adjacency,
    tope_distance,
    tope_graph_distances,
    tope_poset,
)
from omsal.signs import SignVector, separation_set

sv = SignVector.from_string

SMALL = ["boolean:1", "boolean:2", "boolean:3",
         "generic:3:2", "braid:3", "generic:4:3"]

SIMPLICIAL = {
    "boolean:1": True, "boolean:2": True, "boolean:3": True,
    "generic:3:2": True, "braid:3": True,
    "generic:4:3": False, "generic:5:3": False, "nonpappus": False,
}


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_distance_counts_disagreements(spec, om):
    m = om(spec)
    topes = m.topes()
    for t in topes:
        for s in topes:
            assert tope_distance(m, t, s) == tope_string_distance(str(t), str(s))


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_skeleton_realizes_the_distance(spec, om):
    m = om(spec)
    dist = tope_graph_distances(m)
    for t in m.topes():
        for s in m.topes():
            assert dist[t, s] == tope_distance(m, t, s)


@pytest.mark.parametrize("spec", SMALL)
def test_path_counts_match_geodesic_oracle(spec, om):
    m = om(spec)
    topes = m.topes()
    strings = [str(t) for t in topes]
    for t in topes:
        for s in topes:
            d, ways = count_geodesics(strings, str(t), str(s))
            assert d == tope_distance(m, t, s)
            assert len(minimal_positive_paths(m, t, s)) == ways


@pytest.mark.parametrize("spec", ["generic:5:3", "nonpappus"])
def test_path_counts_near_a_base(spec, om):
    m = om(spec)
    topes = m.topes()
    base = topes[0]
    nbrs = flip_graph_neighbors([str(t) for t in topes])
    dist, ways = geodesic_counts_from(nbrs, str(base))
    for s in topes:
        if dist[str(s)] <= 3:
            paths = minimal_positive_paths(m, base, s)
            assert len(paths) == ways[str(s)]


def test_nonpappus_antipodal_paths(om):
    m = om("nonpappus")
    t = m.topes()[0]
    paths = minimal_positive_paths(m, t, -t)
    assert tope_distance(m, t, -t) == 9
    assert len(paths) == 120
    d, ways = count_geodesics([str(s) for s in m.topes()], str(t), str(-t))
    assert (d, ways) == (9, 120)
    assert all(sorted(p.crossed()) == list(range(1, 10)) for p in paths)


@pytest.mark.parametrize("spec", SMALL)
def test_paths_cross_each_separator_once(spec, om):
    m = om(spec)
    topes = m.topes()
    for t in topes:
        for s in topes:
            sep = separation_set(t, s)
            paths = minimal_positive_paths(m, t, s)
            crossings = [p.crossed() for p in paths]
            assert crossings == sorted(crossings)
            for c in crossings:
                assert len(c) == len(sep)
                assert set(c) == sep


def test_trivial_and_adjacent_paths(om):
    m = om("generic:3:2")
    t = m.topes()[0]
    trivial = minimal_positive_paths(m, t, t)
    assert [p.edges for p in trivial] == [()]
    assert trivial[0].length == 0
    s = next(x for x in m.topes() if tope_distance(m, t, x) == 1)
    (only,) = minimal_positive_paths(m, t, s)
    assert only.crossed() == tuple(separation_set(t, s))
    assert only.source == t and only.target == s
    assert str(only) == f"{t} -> {s}"


def test_crossing_element(om):
    assert crossing_element(sv("++"), sv("-+")) == 1
    assert crossing_element(sv("+++"), sv("++-")) == 3
    with pytest.raises(ConsistencyFailure):
        crossing_element(sv("++"), sv("--"))
    with pytest.raises(ConsistencyFailure):
        crossing_element(sv("++"), sv("++"))


def test_tope_arguments_are_checked(om):
    m = om("boolean:2")
    with pytest.raises(NotATope):
        tope_distance(m, sv("0+"), sv("++"))
    with pytest.raises(NotATope):
        minimal_positive_paths(m, sv("++"), sv("0-"))
    with pytest.raises(NotATope):
        tope_poset(m, sv("00"))


def test_adjacency_sorted_by_crossing(om):
    m = om("boolean:3")
    adj = skeleton_adjacency(m)
    nbrs = [str(nb) for nb, _ in adj[sv("+++")]]
    assert nbrs == ["-++", "+-+", "++-"]


@pytest.mark.parametrize("normals, named", [
    ([(1, 0), (0, 1), (0, 2)], "elements 2, 3 are parallel"),
    ([(0, 1), (1, 0), (0, -3), (1, 1)], "elements 1, 3 are parallel"),
])
def test_parallel_elements_are_bad_input(normals, named):
    m = from_arrangement(RationalArrangement(2, normals))
    topes = m.topes()
    with pytest.raises(NotSimple, match=named):
        minimal_positive_paths(m, topes[0], topes[-1])


def test_skeleton_built_once_per_matroid(om, monkeypatch):
    base = om("generic:4:3")
    m = OrientedMatroid(base.n, base.covectors)
    calls = []
    real = paths.oriented_one_skeleton

    def counted(matroid):
        calls.append(matroid)
        return real(matroid)

    monkeypatch.setattr(paths, "oriented_one_skeleton", counted)
    topes = m.topes()
    for t in topes:
        for s in topes:
            if s != t:
                minimal_positive_paths(m, t, s)
    assert len(calls) == 1
    assert tope_graph_distances(m)
    assert antipodal_extension_check(m, [(topes[0], topes[1])])
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["boolean:3", "generic:4:3", "nonpappus"])
def test_cached_adjacency_equals_fresh(spec, om):
    m = om(spec)
    topes = m.topes()
    minimal_positive_paths(m, topes[0], topes[-1])
    adj = skeleton_adjacency(m)
    assert skeleton_adjacency(m) is adj
    assert all(isinstance(nbrs, tuple) for nbrs in adj.values())
    assert adj == skeleton_adjacency(OrientedMatroid(m.n, m.covectors))


@pytest.mark.parametrize("spec", SMALL + ["generic:5:3"])
def test_antipodal_extension_all_pairs(spec, om):
    assert antipodal_extension_check(om(spec))


def test_antipodal_extension_nonpappus_base(om):
    m = om("nonpappus")
    topes = m.topes()
    base = topes[0]
    assert antipodal_extension_check(m, [(base, s) for s in topes if s != base])


@pytest.mark.parametrize("spec", ["boolean:3", "generic:3:2", "generic:4:3"])
def test_tope_poset_graded_by_distance(spec, om):
    m = om(spec)
    for base in (m.topes()[0], m.topes()[-1]):
        tp = tope_poset(m, base)
        h = tp.poset.heights()
        assert all(h[i] == tp.distance_of(t)
                   for i, t in enumerate(tp.poset.elements))
        bottoms = [t for i, t in enumerate(tp.poset.elements) if h[i] == 0]
        tops = [t for i, t in enumerate(tp.poset.elements) if h[i] == max(h)]
        assert bottoms == [base]
        assert tops == [-base]


def test_literal_distance_relation_is_only_a_preorder(om):
    m = om("generic:3:2")
    t = m.topes()[0]
    pre = literal_distance_preorder(m, t)
    ties = [(a, b) for a, b in pre
            if a != b and (b, a) in pre]
    assert ties, "every generic base tope has two neighbors at distance 1"
    tp = tope_poset(m, t)
    for i, j in tp.poset.covers():
        assert (tp.poset.elements[i], tp.poset.elements[j]) in pre


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_is_simplicial_frozen(spec, om):
    m = om(spec)
    simp, wit = is_simplicial(m)
    assert simp == SIMPLICIAL[spec]
    if simp:
        assert wit is None
    else:
        assert wit == sv("+" * m.n)  # first tope in scan order fails


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_lattice_equivalence(spec, om):
    rep = lattice_equivalence_check(om(spec))
    assert rep.simplicial == SIMPLICIAL[spec]
    assert rep.all_lattices == rep.simplicial == rep.k_pi_1_predicted
    if rep.simplicial:
        assert rep.simplicial_witness is None and rep.lattice_witness is None
    else:
        base, (x, y, which) = rep.lattice_witness
        assert om(spec).is_tope(base)
        assert om(spec).is_tope(x) and om(spec).is_tope(y)
        assert which in ("join", "meet")
