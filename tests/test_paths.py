"""Tope distance, minimal positive paths, tope posets, simpliciality."""

import pytest

from oracles import (
    build_poset,
    count_geodesics,
    crossed,
    crossing_element,
    flip_graph_neighbors,
    geodesic_counts_from,
    separation_set,
    tope_graph_distances,
    tope_string_distance,
)

from omsal import paths
from omsal.errors import ConsistencyFailure, EquivalenceViolation, NotATope, NotSimple
from omsal.fixtures import ALL_FIXTURES
from omsal.matroid import OrientedMatroid, RationalArrangement, from_arrangement
from omsal.paths import (
    antipodal_extension_check,
    is_simplicial,
    lattice_equivalence_check,
    minimal_positive_paths,
    skeleton_adjacency,
    tope_distance,
    tope_poset,
)
from omsal.signs import SignVector, separation_mask

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
    assert all(sorted(crossed(p)) == list(range(1, 10)) for p in paths)


@pytest.mark.parametrize("spec", SMALL)
def test_paths_cross_each_separator_once(spec, om):
    m = om(spec)
    topes = m.topes()
    for t in topes:
        for s in topes:
            sep = separation_set(t, s)
            paths = minimal_positive_paths(m, t, s)
            crossings = [crossed(p) for p in paths]
            assert crossings == sorted(crossings)
            for c in crossings:
                assert len(c) == len(sep)
                assert set(c) == sep


def test_trivial_and_adjacent_paths(om):
    m = om("generic:3:2")
    t = m.topes()[0]
    trivial = minimal_positive_paths(m, t, t)
    assert [p.edges for p in trivial] == [()]
    assert trivial[0].start == trivial[0].topes()[-1] == t
    assert trivial[0].topes() == [t] and str(trivial[0]) == str(t)
    s = next(x for x in m.topes() if tope_distance(m, t, x) == 1)
    (only,) = minimal_positive_paths(m, t, s)
    assert crossed(only) == tuple(separation_set(t, s))
    assert only.start == t and only.topes()[-1] == s
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
    steps = [(k, str(nb)) for k, nb, _ in adj[sv("+++")]]
    assert steps == [(1, "-++"), (2, "+-+"), (3, "++-")]


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
    assert all(tope_poset(m, t).elements == tuple(topes) for t in topes)
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


def test_one_separation_mask_per_walk(om, monkeypatch):
    # the walk carries the elements still to cross; it derives none again
    m = om("generic:5:3")
    t = m.topes()[0]
    skeleton_adjacency(m)
    calls = []
    real = paths.separation_mask

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(paths, "separation_mask", counted)
    found = minimal_positive_paths(m, t, -t)
    assert len(found) > 1 and calls == [(t, -t)]


def test_walk_that_misses_its_target_is_inconsistent(om, monkeypatch):
    # an adjacency whose step across element 2 lands on the wrong tope
    m = om("boolean:2")
    adj = dict(skeleton_adjacency(m))
    adj[sv("++")] = tuple((k, sv("-+") if k == 2 else nb, e)
                          for k, nb, e in adj[sv("++")])
    monkeypatch.setattr(paths, "skeleton_adjacency", lambda _: adj)
    assert len(minimal_positive_paths(m, sv("++"), sv("-+"))) == 1
    with pytest.raises(ConsistencyFailure, match="ends at -\\+"):
        minimal_positive_paths(m, sv("++"), sv("+-"))


@pytest.mark.parametrize("spec", SMALL + ["generic:5:3"])
def test_antipodal_extension_all_pairs(spec, om):
    assert antipodal_extension_check(om(spec))


def test_antipodal_extension_nonpappus_base(om):
    m = om("nonpappus")
    topes = m.topes()
    base = topes[0]
    assert antipodal_extension_check(m, [(base, s) for s in topes if s != base])


def test_antipodal_extension_requires_topes(om):
    m = om("boolean:2")
    for pair in ((sv("++"), sv("0+")), (sv("0+"), sv("++"))):
        with pytest.raises(NotATope):
            antipodal_extension_check(m, [pair])


def test_antipodal_extension_refutes_a_missing_step(om, monkeypatch):
    # ++ loses its step across element 2, so no walk reaches +- from it
    m = om("boolean:2")
    adj = dict(skeleton_adjacency(m))
    adj[sv("++")] = tuple(step for step in adj[sv("++")] if step[0] != 2)
    monkeypatch.setattr(paths, "skeleton_adjacency", lambda _: adj)
    assert antipodal_extension_check(m, [(sv("+-"), sv("--"))])
    assert not antipodal_extension_check(m, [(sv("++"), sv("+-"))])


@pytest.mark.parametrize("spec", ["boolean:3", "generic:3:2", "generic:4:3"])
def test_tope_poset_graded_by_distance(spec, om):
    m = om(spec)
    for base in (m.topes()[0], m.topes()[-1]):
        poset = tope_poset(m, base)
        h = poset.heights()
        assert all(h[i] == tope_distance(m, base, t)
                   for i, t in enumerate(poset.elements))
        bottoms = [t for i, t in enumerate(poset.elements) if h[i] == 0]
        tops = [t for i, t in enumerate(poset.elements) if h[i] == max(h)]
        assert bottoms == [base]
        assert tops == [-base]


# elements 2 and 3 parallel; elements 1 and 3 antiparallel
NON_SIMPLE = {"parallel": [(1, 0), (0, 1), (0, 2), (1, 1)],
              "antiparallel": [(0, 1), (1, 0), (0, -3), (1, 1)]}


@pytest.mark.parametrize("spec", ALL_FIXTURES + tuple(NON_SIMPLE))
def test_tope_posets_equal_the_relation_scan(spec, om):
    # closed from the tope graph directed away from the base, against
    # inclusion of separation sets tested on every pair, for every base
    m = (from_arrangement(RationalArrangement(2, NON_SIMPLE[spec]))
         if spec in NON_SIMPLE else om(spec))
    for base in m.topes():
        poset = tope_poset(m, base)
        oracle = build_poset(m.topes(), lambda a, b: not separation_mask(base, a)
                             & ~separation_mask(base, b))
        assert poset.elements == oracle.elements
        assert [poset.up_mask(i) for i in range(len(poset))] == \
            [oracle.up_mask(i) for i in range(len(oracle))]
        assert poset.covers() == oracle.covers()


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
    assert (rep.lattice_witness is None) == rep.simplicial
    if rep.simplicial:
        assert rep.simplicial_witness is None and rep.lattice_witness is None
    else:
        base, (x, y, which) = rep.lattice_witness
        assert om(spec).is_tope(base)
        assert om(spec).is_tope(x) and om(spec).is_tope(y)
        assert which in ("join", "meet")


@pytest.mark.parametrize("spec", ["boolean:2", "generic:4:3"])
def test_lattice_equivalence_refuses_a_disagreement(spec, om, monkeypatch):
    # is_simplicial lies: the tope posets contradict it
    simp = SIMPLICIAL[spec]
    monkeypatch.setattr(paths, "is_simplicial", lambda m: (not simp, None))
    with pytest.raises(EquivalenceViolation,
                       match=f"^simplicial={not simp} but "
                             f"all-tope-posets-lattices={simp}$"):
        lattice_equivalence_check(om(spec))
