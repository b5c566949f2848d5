"""CW face posets and the three metrical-hemisphere checks."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from omsal import mh
from omsal.errors import ConsistencyFailure, Disconnected, EmptyInput
from omsal.fixtures import ALL_FIXTURES
from omsal.matroid import OrientedMatroid
from omsal.mh import (
    CWPoset,
    cw_from_covers,
    dual_complex,
    mh_check,
    omega_tables,
    salvetti_cw,
    skeleton_distances,
)
from omsal.paths import tope_distance
from omsal.posets import FinitePoset, iter_bits
from omsal.salvetti import oriented_one_skeleton, salvetti_complex

import oracles
from cw_complexes import (cw_octagon_chords, cw_octagon_pair, cw_polygon,
                          cw_two_squares)
from oracles import (closed_cell, edge_endpoints, f_vector, mh_check_unshared,
                     skeleton_is_bipartite)


def edge():
    return cw_from_covers([("a", 0), ("b", 0), ("ab", 1)],
                          [("a", "ab"), ("b", "ab")])


# -- CWPoset structure ---------------------------------------------------------


def test_polygon_structure():
    q = cw_polygon(5)
    assert f_vector(q) == (5, 5, 1)
    assert q.dims[q.poset.index["e3"]] == 1
    assert edge_endpoints(q, "e3") == ("v3", "v4")
    assert edge_endpoints(q, "e5") == ("v1", "v5")  # element order, not cycle order
    assert set(closed_cell(q, "e2")) == {"v2", "v3", "e2"}
    assert len(closed_cell(q, "top")) == 11
    assert q.vertex_labels() == ("v1", "v2", "v3", "v4", "v5")


def test_octagon_fixture_shapes():
    assert f_vector(cw_octagon_chords(False)) == (8, 12, 1)
    both = cw_octagon_chords(True)
    assert f_vector(both) == (8, 12, 2)
    assert set(closed_cell(both, "trap")) == \
        {"v1", "v2", "v3", "v4", "e12", "e23", "e34", "c14", "trap"}


def test_cw_validation():
    with pytest.raises(EmptyInput):
        cw_from_covers([], [])
    with pytest.raises(ConsistencyFailure, match="duplicate"):
        cw_from_covers([("a", 0), ("a", 0)], [])
    with pytest.raises(ConsistencyFailure, match="unknown"):
        cw_from_covers([("a", 0)], [("a", "b")])
    with pytest.raises(ConsistencyFailure, match="dimension"):
        cw_from_covers([("a", -1)], [])
    # dimensions must strictly increase along the face relation
    with pytest.raises(ConsistencyFailure, match="under"):
        cw_from_covers([("a", 1), ("b", 1)], [("a", "b")])
    # a loop: one endpoint twice is not a regular 1-cell
    with pytest.raises(ConsistencyFailure, match="endpoints"):
        cw_from_covers([("a", 0), ("l", 1)], [("a", "l")])
    with pytest.raises(ConsistencyFailure, match="cell a covers itself"):
        cw_from_covers([("a", 0)], [("a", "a")])
    with pytest.raises(ConsistencyFailure, match="no vertex"):
        cw_from_covers([("a", 0), ("f", 2)], [])
    with pytest.raises(Disconnected):
        cw_from_covers([("a", 0), ("b", 0)], [])
    with pytest.raises(ConsistencyFailure, match="no 0-cells"):
        cw_from_covers([("e", 1)], [])


def test_dims_length_must_match_cells():
    base = cw_polygon(3).poset
    with pytest.raises(ConsistencyFailure, match="one dimension"):
        CWPoset(base, [0, 0, 0])


# -- skeleton metrics ----------------------------------------------------------


def test_polygon_distances():
    q = cw_polygon(6)
    table = skeleton_distances(q)
    assert table.global_d[("v1", "v4")] == 3
    assert table.global_d[("v2", "v1")] == 1
    assert table.local_d["e1"] == {("v1", "v1"): 0, ("v1", "v2"): 1,
                                   ("v2", "v1"): 1, ("v2", "v2"): 0}
    top = table.local_d["top"]
    assert top == table.global_d


def test_chords_shorten_global_but_not_local():
    q = cw_octagon_chords(False)
    table = skeleton_distances(q)
    assert table.global_d[("v1", "v4")] == 1  # through c14
    assert table.local_d["oct"][("v1", "v4")] == 3


def test_bipartite():
    assert not skeleton_is_bipartite(cw_polygon(3))
    assert skeleton_is_bipartite(cw_polygon(4))
    # every chord spans an odd arc, so the 2-coloring survives
    assert skeleton_is_bipartite(cw_octagon_chords(False))


# -- the three checks ----------------------------------------------------------


def test_edge_and_square_pass_everything():
    for q in (edge(), cw_polygon(4), cw_polygon(6)):
        rep = mh_check(q)
        assert rep.qmh.passed and rep.lmh.passed and rep.mh.passed
        assert str(rep) == "qmh: pass; lmh: pass; mh: pass"


def test_square_omega_tables():
    maps = omega_tables(cw_polygon(4))
    upper, lower = maps["upper"], maps["lower"]
    assert upper[("v1", "top")] == "v3"  # antipode on the 4-cycle
    assert lower[("v1", "top")] == "v1"
    assert upper[("v1", "e3")] == "v3"
    assert lower[("v1", "e3")] == "v4"
    assert upper[("v2", "v4")] == "v4" == lower[("v2", "v4")]


def test_odd_cycle_has_no_farthest_vertex():
    rep = mh_check(cw_polygon(3))
    chk = rep.qmh
    assert not chk.passed
    assert chk.witness == ("v1", "e2", 3)
    assert rep.lmh.witness == ("local", "top", "v1", "e2", 3)
    assert not rep.mh.passed
    assert rep.mh.witness == chk.witness
    assert omega_tables(cw_polygon(3)) is None
    assert str(rep).startswith("qmh: FAIL at ('v1', 'e2', 3)")


def test_chorded_octagon_passes_locally_but_not_globally():
    q = cw_octagon_chords(False)
    rep = mh_check(q)
    assert rep.qmh.passed and rep.lmh.passed and not rep.mh.passed
    assert rep.mh.witness == \
        ("upper", "v1", "e34", ("global", "v3"), ("oct", "v4"))
    # the global structure alone still has its maps
    assert sorted(omega_tables(q)) == ["lower", "upper"]


def test_two_cells_can_disagree_locally():
    rep = mh_check(cw_octagon_chords(True))
    assert rep.qmh.passed and not rep.lmh.passed
    assert rep.lmh.witness == \
        ("upper", "v1", "e34", ("oct", "v4"), ("trap", "v3"))
    assert rep.mh.witness == rep.lmh.witness


# -- complexes from oriented matroids -------------------------------------------

DUAL_F = {
    "boolean:1": (2, 1),
    "boolean:2": (4, 4, 1),
    "generic:3:2": (6, 6, 1),
    "generic:4:3": (14, 24, 12, 1),
}


@pytest.mark.parametrize("spec", sorted(DUAL_F))
def test_dual_complex_f_vectors(spec, om):
    assert f_vector(dual_complex(om(spec))) == DUAL_F[spec]


@pytest.mark.parametrize("spec", ["boolean:2", "boolean:3", "generic:3:2",
                                  "generic:4:3"])
def test_dual_skeleton_metric_is_separation(spec, om):
    m = om(spec)
    table = skeleton_distances(dual_complex(m))
    for t in m.topes():
        for s in m.topes():
            assert table.global_d[(t, s)] == tope_distance(m, t, s)


@pytest.mark.parametrize("spec", ["boolean:2", "boolean:3", "generic:3:2",
                                  "braid:3", "generic:4:3",
                                  "boolean:4", "generic:5:4"])
def test_matroid_complexes_carry_mh_structure(spec, om):
    m = om(spec)
    for q in (dual_complex(m), salvetti_cw(m)):
        rep = mh_check(q)
        assert rep.mh.passed, rep
        assert skeleton_is_bipartite(q)


@pytest.mark.parametrize("spec", ["boolean:3", "generic:4:3"])
def test_local_metrics_agree_with_global(spec, om):
    table = skeleton_distances(dual_complex(om(spec)))
    for cell, local in table.local_d.items():
        for pair, d in local.items():
            assert table.global_d[pair] == d


def test_salvetti_cw_matches_poset(om, salvetti_poset):
    m = om("generic:3:2")
    q = salvetti_cw(m)
    assert f_vector(q) == (6, 12, 6)
    assert len(q) == len(salvetti_poset("generic:3:2"))
    v0 = q.vertex_labels()[0]
    assert skeleton_distances(q).global_d[(v0, v0)] == 0


# -- shared answers against the unshared tables ----------------------------------


def fresh(m):
    """A copy of m with nothing derived yet: the fixtures are cached, so
    an earlier test may have filled the MH share of m itself."""
    return OrientedMatroid(m.n, m.covectors)


def doubled(q):
    """q with a second copy of every top cell, on the same boundary,
    placed right after the original so later contexts reuse its table."""
    elements = q.poset.elements
    tops = set(q.poset.maximal_indices())
    cells = []
    for i, x in enumerate(elements):
        cells.append((x, q.dims[i]))
        if i in tops:
            cells.append((x + "'", q.dims[i]))
    covers = []
    for i, j in q.poset.covers():
        covers.append((elements[i], elements[j]))
        if j in tops:
            covers.append((elements[i], elements[j] + "'"))
    return cw_from_covers(cells, covers)


CW_EXAMPLES = {
    "polygon3": lambda: cw_polygon(3),
    "polygon4": lambda: cw_polygon(4),
    "polygon5": lambda: cw_polygon(5),
    "polygon8": lambda: cw_polygon(8),
    "octagon": lambda: cw_octagon_chords(False),
    "octagon-trapezoid": lambda: cw_octagon_chords(True),
    "octagon-pair": cw_octagon_pair,
    "two-squares": cw_two_squares,
}
CW_EXAMPLES.update({f"{name}-doubled": (lambda build=build: doubled(build()))
                    for name, build in list(CW_EXAMPLES.items())})


def complex_for(name, om):
    if name.startswith("cw-"):
        return CW_EXAMPLES[name[3:]]()
    kind, spec = name.split("-", 1)
    return {"dual": dual_complex, "salvetti": salvetti_cw}[kind](om(spec))


ORACLE_COMPLEXES = (
    [f"{kind}-{spec}" for spec in ALL_FIXTURES + ("boolean:4", "generic:5:4")
     for kind in ("dual", "salvetti")]
    + [f"cw-{name}" for name in CW_EXAMPLES])


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_vertex_slots_are_read_off_the_poset(name, om):
    # every cell's vertex slots are the 0-cells of its closure, those of
    # a 1-cell are its two ends, and its end pairs are the ends of the
    # 1-cells of its closure: the only edge ends the checks read
    q = complex_for(name, om)
    labels = q.vertex_labels()
    slot = {x: s for s, x in enumerate(labels)}
    ends = {x: tuple(map(slot.__getitem__, edge_endpoints(q, x)))
            for x, d in zip(q.poset.elements, q.dims) if d == 1}
    assert ends and sorted(set(ends.values())) == list(q._pairs)
    for i, cell in enumerate(q.poset.elements):
        closure = closed_cell(q, cell)
        vertices = tuple(x for x in closure if x in slot)
        assert tuple(labels[s] for s in q._cell_vslots[i]) == vertices
        assert q._cell_vmask[i] == sum(1 << slot[x] for x in vertices)
        assert [q._pairs[b] for b in iter_bits(q._cell_pairs[i])] == \
            sorted({ends[x] for x in closure if x in ends})
        if cell in ends:
            assert q._cell_vslots[i] == ends[cell]


def test_doubled_top_cells_share_one_local_table(monkeypatch):
    q = doubled(cw_octagon_chords(True))
    assert f_vector(q) == (8, 15, 4)  # the free chords c36, c58, c72 too
    assert q.poset.elements[-4:] == ("oct", "oct'", "trap", "trap'")
    searched = []
    real_bfs = mh._bfs

    def counted_bfs(adj, source):
        searched.append(source)
        return real_bfs(adj, source)

    monkeypatch.setattr(mh, "_bfs", counted_bfs)
    a = mh._Analysis(q)
    searched.clear()  # the global rows
    contexts = a.contexts
    keys = list(zip(q._cell_vmask, q._cell_pairs))
    for x in ("oct", "trap"):
        i = q.poset.index[x]
        assert closed_cell(q, x + "'") == closed_cell(q, x)[:-1] + [x + "'"]
        assert keys[i + 1] == keys[i] and contexts[i + 1] is contexts[i]
    # one search from each vertex of each distinct closure, over its own
    # edges: no closure holds every chord, so none is the whole 1-skeleton,
    # and the copies oct', trap', c36', c58' and c72' run none (18 more if
    # they did)
    assert len(set(keys)) == len(a.skeleton.kept) == len(q) - 5 == 22
    assert len(searched) == sum(vmask.bit_count() for vmask, _ in set(keys)) == 44


def _outcome(q):
    """(mh_check(q), omega_tables(q)), or the text of the
    ConsistencyFailure that mh_check raises: the shape of
    mh_check_unshared(q)."""
    try:
        return mh_check(q), omega_tables(q)
    except ConsistencyFailure as exc:
        return str(exc)


def _no_local_walk(a):
    raise AssertionError("a matroid complex took the local walk")


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_mh_report_equals_unshared_tables(name, om, monkeypatch):
    if name.startswith("cw-"):
        complexes = [complex_for(name, om)]
    else:
        # the other complex of a fresh copy of the matroid is checked
        # first, so the named one reads the share that it leaves
        kind, spec = name.split("-", 1)
        m = fresh(om(spec))
        builds = {"dual": (salvetti_cw, dual_complex),
                  "salvetti": (dual_complex, salvetti_cw)}[kind]
        complexes = [build(m) for build in builds]
        assert complexes[0]._skeleton is complexes[1]._skeleton is not None
        # every closed cell is isometric: the early verdict, and a pass
        monkeypatch.setattr(mh, "_local_tables", _no_local_walk)
    for q in complexes:
        expected = _unshared(q)
        assert expected[0].mh.passed or name.startswith("cw-")
        # the three checks with their witnesses, and the omega tables
        assert _outcome(q) == expected


_UNSHARED = {}


def _unshared(q):
    """mh_check_unshared(q), computed once per complex for the two
    parameters of a matroid that both check it: a CW poset is keyed by
    its cells, its dimensions and its covers."""
    key = (q.poset.elements, q.dims, tuple(q.poset.covers()))
    if key not in _UNSHARED:
        _UNSHARED[key] = mh_check_unshared(q)
    return _UNSHARED[key]


def _altered_salvetti(m):
    """The Salvetti poset of m with one cover of its first 1-cell moved
    to the last vertex that is not one of its ends, so that edge joins
    two topes that the tope graph does not join."""
    cells, covers = salvetti_complex(m)
    e = next(i for i, c in enumerate(cells) if c.dim == 1)
    u, w = sorted(i for i, j in covers if j == e)
    x = max(i for i, c in enumerate(cells) if c.dim == 0 and i not in (u, w))
    return FinitePoset.from_covers(
        cells, [(x if (i, j) == (w, e) else i, j) for i, j in covers])


def _altered_after_dual(om, monkeypatch):
    """(m, share, q): the dual complex of a fresh generic:3:2 is checked,
    which fills the share of its matroid, and q is the altered Salvetti
    complex of the same matroid."""
    m = fresh(om("generic:3:2"))
    dual = dual_complex(m)
    assert _outcome(dual) == _unshared(dual)
    monkeypatch.setattr(mh, "build_salvetti_poset", _altered_salvetti)
    return m, dual._skeleton, salvetti_cw(m)


def test_a_complex_off_the_tope_graph_builds_its_own_state(om, monkeypatch):
    m, share, q = _altered_after_dual(om, monkeypatch)
    kept = dict(share.kept)
    skeletons = m.derived(mh._skeletons)
    assert q._adj != share.adj and skeletons[share.adj] is share
    # the altered complex holds the entry under its own adjacency
    assert q._skeleton is skeletons[q._adj] is not share
    assert q._skeleton.adj is q._adj and len(skeletons) == 2
    assert mh._Analysis(q).skeleton is q._skeleton
    expected = mh_check_unshared(q)
    assert not expected[0].qmh.passed
    assert _outcome(q) == expected
    assert share.kept == kept  # nothing was written to the share


def test_a_share_without_the_adjacency_test_is_caught(om, monkeypatch):
    # the mutant keys every complex of the matroid alike, so each reads
    # the first one's state; the altered complex then reads distances it
    # does not have
    source = inspect.getsource(mh._sharing)
    key = ".setdefault(q._adj,"
    assert source.count(key) == 1
    scope = dict(vars(mh))
    exec(source.replace(key, ".setdefault(None,"), scope)
    monkeypatch.setattr(mh, "_sharing", scope["_sharing"])
    m, share, q = _altered_after_dual(om, monkeypatch)
    assert q._skeleton is share and list(m.derived(mh._skeletons)) == [None]
    assert _outcome(q) != mh_check_unshared(q)


def test_both_complexes_of_a_matroid_share_one_entry(om):
    # the share is keyed by the complexes' own adjacency: no tope graph
    # is built beside it, so the walls are not derived on this route
    m = fresh(om("nonpappus"))
    dual = dual_complex(m)
    assert mh_check(dual).mh.passed
    salvetti = salvetti_cw(m)
    assert mh_check(salvetti).mh.passed
    assert oriented_one_skeleton not in m._derived
    skeletons = m.derived(mh._skeletons)
    assert len(skeletons) == 1
    assert dual._skeleton is salvetti._skeleton is skeletons[dual._adj]


def chorded_polygon(n, chords, cap):
    """An n-gon 2-cell 'top' with free chords c<i>_<j> between v<i> and
    v<j>; cap indexes a chord that bounds a second 2-cell with the arc
    e<i> .. e<j-1>, or is None."""
    cells = [(f"v{i}", 0) for i in range(1, n + 1)]
    cells += [(f"e{i}", 1) for i in range(1, n + 1)] + [("top", 2)]
    covers = []
    for i in range(1, n + 1):
        covers += [(f"v{i}", f"e{i}"), (f"v{i % n + 1}", f"e{i}"),
                   (f"e{i}", "top")]
    for i, j in chords:
        cells.append((f"c{i}_{j}", 1))
        covers += [(f"v{i}", f"c{i}_{j}"), (f"v{j}", f"c{i}_{j}")]
    if cap is not None:
        i, j = chords[cap]
        cells.append(("cap", 2))
        covers += [(f"c{i}_{j}", "cap")]
        covers += [(f"e{t}", "cap") for t in range(i, j)]
    return cw_from_covers(cells, covers)


@st.composite
def chorded_polygons(draw):
    n = draw(st.integers(3, 10))
    if n % 2 == 0 and draw(st.booleans()):
        # the octagon's pattern, a chord over one odd arc from every other
        # vertex: the global level can pass and the other two then decide
        span = draw(st.sampled_from(range(1, n, 2)))
        first = draw(st.integers(1, 2))
        chords = sorted({tuple(sorted((i, (i + span - 1) % n + 1)))
                         for i in range(first, n + 1, 2)})
    else:
        ends = st.tuples(st.integers(1, n), st.integers(1, n))
        chords = draw(st.lists(ends.filter(lambda p: p[0] < p[1]),
                               max_size=4, unique=True))
    cap = draw(st.none() | st.integers(0, len(chords) - 1)) if chords else None
    q = chorded_polygon(n, chords, cap)
    return doubled(q) if draw(st.booleans()) else q


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chorded_polygons())
def test_shared_answers_equal_the_unshared_oracle(q):
    assert _outcome(q) == mh_check_unshared(q)


# -- the column answers against the per-pair oracle -----------------------------


def _column_mismatch(q, column_of):
    """The first (metric, vertex slot, cell index) whose nearest set and
    column entry differ from oracles._omega_pair, with column_of standing
    in for mh._omega_column, or None.  The metrics are the global one and
    that of every non-isometric closed cell; the oracle reads hop counts
    from its own dict BFS."""
    a = mh._Analysis(q)
    metrics = [("global", a.glob, range(len(q._adj)), range(len(q)),
                oracles.skeleton_hop_rows(q))]
    metrics += [(q.poset.elements[ctx], metric, q._cell_vslots[ctx],
                 list(iter_bits(q.poset.down_mask(ctx))),
                 oracles.closure_hop_rows(q, ctx))
                for ctx, metric in enumerate(a.contexts) if metric is not a.glob]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mh, "_omega_column", column_of)
        for name, metric, vslots, cells, rows in metrics:
            for k in cells:
                column = a.answer(metric, k)
                for v in vslots:
                    if (a.nearest(metric, v, k), column[v]) != \
                            oracles._omega_pair(v, q._cell_vslots[k], rows):
                        return name, v, k
    return None


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_column_answers_equal_the_per_pair_oracle(name, om):
    assert _column_mismatch(complex_for(name, om), mh._omega_column) is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chorded_polygons())
def test_column_answers_equal_the_per_pair_oracle_on_chorded_polygons(q):
    assert _column_mismatch(q, mh._omega_column) is None


def test_a_column_without_the_sum_test_is_caught():
    # the mutant takes the first farthest vertex whenever all of the cell
    # is reached; from v4 the pentagon's edge e1 has two farthest ends
    source = inspect.getsource(mh._omega_column)
    sum_test = "mn >= 0 and s + sums[w] == size * d"
    assert source.count(sum_test) == 1
    scope = dict(vars(mh))
    exec(source.replace(sum_test, "mn >= 0"), scope)
    q = cw_polygon(5)
    assert _column_mismatch(q, scope["_omega_column"]) == \
        ("global", 3, q.poset.index["e1"])
    assert _column_mismatch(q, mh._omega_column) is None


# -- the lower checks, under answers that no upper check can refuse ------------
#
# With real answers no complex of dimension two reaches a lower witness: a
# vertex of a 2-cell is its own nearest vertex, and an edge's nearest end is
# the one its farthest end is not, so a lower conflict always comes with an
# upper one, which is reported first.  nearest_and_last reads the same
# distances as the oracle's _omega_pair, and nearest_and_last_column the
# same as mh._omega_column, so a shared answer is still exact under them,
# but they name the cell's last vertex as the farthest one wherever the
# nearest set is not empty: the upper checks all pass and the nearest sets
# decide.

_omega_pair = oracles._omega_pair


def nearest_and_last(vslot, kslots, rows):
    lo, _ = _omega_pair(vslot, kslots, rows)
    return lo, (kslots[-1] if lo else None)


def nearest_and_last_column(kslots, rows):
    reached = map(min, zip(*[rows[u] for u in kslots]))
    return [kslots[-1] if len(kslots) == 1 or d >= 0 else None
            for d in reached]


def _nearest_and_last_answers(mp):
    mp.setattr(mh, "_omega_column", nearest_and_last_column)
    mp.setattr(oracles, "_omega_pair", nearest_and_last)


@pytest.fixture
def nearest_and_last_answers(monkeypatch):
    _nearest_and_last_answers(monkeypatch)


# the lmh route pits two contexts against each other, the mh route the
# global nearest set against the local intersection
LOWER_WITNESSES = {
    "octagon": ("mh", ("lower", "v1", "e34", (("global", ("v4",)),
                                              ("oct", ("v3",))))),
    "octagon-doubled": ("mh", ("lower", "v1", "e34", (
        ("global", ("v4",)), ("oct", ("v3",)), ("oct'", ("v3",))))),
    # both copies fail; the one with the smaller keys is named
    "octagon-pair": ("mh", ("lower", "wv1", "we34", (
        ("global", ("wv4",)), ("woct", ("wv3",))))),
    "octagon-trapezoid": ("lmh", ("lower", "v1", "e34", (
        ("oct", ("v3",)), ("trap", ("v4",))))),
    "octagon-trapezoid-doubled": ("lmh", ("lower", "v1", "e34", (
        ("oct", ("v3",)), ("oct'", ("v3",)), ("trap", ("v4",)),
        ("trap'", ("v4",))))),
}


@pytest.mark.parametrize("name", LOWER_WITNESSES)
def test_lower_witnesses_equal_the_unshared_tables(nearest_and_last_answers,
                                                   name):
    route, witness = LOWER_WITNESSES[name]
    q = CW_EXAMPLES[name]()
    rep = mh_check(q)
    assert rep.qmh.passed and rep.lmh.passed == (route == "mh")
    assert rep.mh.witness == witness
    assert (rep, omega_tables(q)) == mh_check_unshared(q)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chorded_polygons())
def test_lower_checks_equal_the_unshared_oracle(q):
    with pytest.MonkeyPatch.context() as mp:
        _nearest_and_last_answers(mp)
        assert _outcome(q) == mh_check_unshared(q)


def test_omega_pair_calls_on_nonpappus(om, monkeypatch):
    columns = []
    searched = []
    stage_calls = {"_global_tables": [], "_local_tables": []}
    real, real_bfs = mh._omega_column, mh._bfs

    def counted(kslots, rows):
        columns.append(kslots)
        return real(kslots, rows)

    def counted_bfs(adj, source):
        searched.append(source)
        return real_bfs(adj, source)

    def staged(name):
        stage = getattr(mh, name)

        def run(a):
            before = len(columns)
            out = stage(a)
            stage_calls[name].append(len(columns) - before)
            return out
        return run

    def no_nearest_set(self, metric, v, k):
        raise AssertionError("the early verdict built a nearest set")

    monkeypatch.setattr(mh, "_omega_column", counted)
    monkeypatch.setattr(mh, "_bfs", counted_bfs)
    monkeypatch.setattr(mh._Analysis, "nearest", no_nearest_set)
    for name in stage_calls:
        monkeypatch.setattr(mh, name, staged(name))
    m = fresh(om("nonpappus"))
    # one column per distinct vertex set, for all 58 vertices at once:
    # 11,310 per-pair answers before, 25,366 and 44,976 when local
    # contexts asked afresh, 697,134 on the Salvetti complex when every
    # context walked every subcell
    dual, salvetti = dual_complex(m), salvetti_cw(m)
    columns.clear()
    searched.clear()  # the connectivity checks of CWPoset
    assert mh_check(dual).mh.passed
    assert len(columns) == len(set(columns)) == 195
    assert sum(len(k) == 1 for k in columns) == 58
    # 58 global rows and one search from each tope above each nonzero
    # covector: the zero covector's closure is the whole 1-skeleton
    assert len(searched) == 58 + 500 - 58
    # the Salvetti complex reads the rows, the columns and the isometry
    # verdicts that the dual complex left in the matroid's share
    columns.clear()
    searched.clear()
    assert mh_check(salvetti).mh.passed
    assert columns == searched == []
    # both complexes take the early verdict: no local walk at all
    assert stage_calls == {"_global_tables": [195, 0],
                           "_local_tables": []}


def test_isometry_compared_once_per_kept_table(om, monkeypatch):
    searched = []
    real_bfs = mh._bfs

    def counted_bfs(adj, source):
        searched.append(source)
        return real_bfs(adj, source)

    monkeypatch.setattr(mh, "_bfs", counted_bfs)
    m = fresh(om("nonpappus"))
    q = salvetti_cw(m)
    searched.clear()  # the connectivity check of CWPoset
    a = mh._Analysis(q)
    assert a.skeleton is q._skeleton is m.derived(mh._skeletons)[q._adj]
    assert len(searched) == len(q._adj) == 58  # the global rows
    assert mh._global_tables(a).passed and mh._local_tables(a)[0].passed
    mh._check_local_global_metric(a)
    mh._lower_constraints(a, 0, 0)
    # 500 contexts, one key per covector: the 58 top cells [0, T] hold
    # every vertex and every end pair and take the global rows unsearched,
    # every other kept key is searched once from each of its vertices,
    # and each metric is the global one
    keys = set(zip(q._cell_vmask, q._cell_pairs))
    assert len(q) == 500 and len(keys) == len(a.skeleton.kept) == 195
    # a covector X has as many topes above it as cells [X, T]: one search
    # from each vertex of each kept key is one per cell
    assert sum(vmask.bit_count() for vmask, _ in keys) == 500
    assert len(searched) == 58 + 500 - 58
    assert all(metric is a.glob for metric in a.contexts)
    # no isometric context is scanned again: the check reads no distance
    a.dist = []
    mh._check_local_global_metric(a)
    # the dual complex has the same keys, and reads every one of them
    dual = dual_complex(m)
    searched.clear()  # its connectivity check
    b = mh._Analysis(dual)
    assert set(zip(b.q._cell_vmask, b.q._cell_pairs)) == keys
    assert b.skeleton is a.skeleton and b.glob is a.glob
    assert all(metric is a.glob for metric in b.contexts)
    assert searched == [] and len(a.skeleton.kept) == 195


@pytest.mark.parametrize("trapezoid", [False, True])
def test_octagon_keeps_a_table_of_its_own(trapezoid):
    q = cw_octagon_chords(trapezoid)
    a = mh._Analysis(q)
    assert a.contexts[q.poset.index["oct"]] is not a.glob
    # the witnesses of the fallback route, and its metric scan
    rep = mh_check(q)
    assert rep.mh.witness[:3] == ("upper", "v1", "e34")
    assert (rep, omega_tables(q)) == mh_check_unshared(q)
    with pytest.raises(ConsistencyFailure, match="cell oct: distance 3 "
                       "between v1 and v4 differs from the global 1"):
        mh._check_local_global_metric(a)


def test_first_failing_key_names_the_failure():
    # the copy walked second holds the smallest failing (vertex, cell) key
    rep = mh_check(cw_octagon_pair())
    assert rep.mh.witness == ("upper", "wv1", "we34", ("global", "wv3"),
                              ("woct", "wv4"))
