"""CW face posets and the three metrical-hemisphere checks."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from omsal import mh
from omsal.errors import ConsistencyFailure, Disconnected, EmptyInput
from omsal.fixtures import ALL_FIXTURES
from omsal.mh import (
    CWPoset,
    cw_from_covers,
    dual_complex,
    lmh_check,
    mh_check,
    omega_tables,
    qmh_check,
    salvetti_cw,
    skeleton_distances,
)
from omsal.paths import tope_distance
from omsal.posets import iter_bits

import oracles
from cw_complexes import cw_octagon_chords, cw_octagon_pair, cw_polygon
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
        assert rep.passed
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
    chk = qmh_check(cw_polygon(3))
    assert not chk.passed
    assert chk.witness == ("v1", "e2", 3)
    loc = lmh_check(cw_polygon(3))
    assert loc.witness == ("local", "top", "v1", "e2", 3)
    rep = mh_check(cw_polygon(3))
    assert not rep.passed
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
        assert rep.passed, rep
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


def test_doubled_top_cells_share_one_local_table():
    q = doubled(cw_octagon_chords(True))
    assert f_vector(q) == (8, 15, 4)  # the free chords c36, c58, c72 too
    assert q.poset.elements[-4:] == ("oct", "oct'", "trap", "trap'")
    a = mh._Analysis(q)
    for x in ("oct", "trap"):
        i = q.poset.index[x]
        assert closed_cell(q, x + "'") == closed_cell(q, x)[:-1] + [x + "'"]
        copy, first = a.contexts[i + 1], a.contexts[i]
        assert copy.rows is first.rows and copy.metric is first.metric


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
    q = complex_for(name, om)
    expected = mh_check_unshared(q)
    if not name.startswith("cw-"):
        # every closed cell is isometric: the early verdict, and a pass
        monkeypatch.setattr(mh, "_local_tables", _no_local_walk)
        assert expected[0].passed
    # the three checks with their witnesses, and the omega tables
    assert _outcome(q) == expected


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
    metrics += [(q.poset.elements[ctx], c.metric, q._cell_vslots[ctx],
                 list(iter_bits(q.poset.down_mask(ctx))),
                 oracles.closure_hop_rows(q, ctx))
                for ctx, c in enumerate(a.contexts) if c.metric is not a.glob]
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
    stage_calls = {"_global_tables": [], "_local_tables": []}
    real = mh._omega_column

    def counted(kslots, rows):
        columns.append(kslots)
        return real(kslots, rows)

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
    monkeypatch.setattr(mh._Analysis, "nearest", no_nearest_set)
    for name in stage_calls:
        monkeypatch.setattr(mh, name, staged(name))
    m = om("nonpappus")
    # one column per distinct vertex set, for all 58 vertices at once:
    # 11,310 per-pair answers before, 25,366 and 44,976 when local
    # contexts asked afresh, 697,134 on the Salvetti complex when every
    # context walked every subcell
    for q in (dual_complex(m), salvetti_cw(m)):
        columns.clear()
        assert mh_check(q).passed
        assert len(columns) == len(set(columns)) == 195
        assert sum(len(k) == 1 for k in columns) == 58
    # both complexes take the early verdict: no local walk at all
    assert stage_calls == {"_global_tables": [195, 195],
                           "_local_tables": []}


def test_isometry_compared_once_per_kept_table(om, monkeypatch):
    keyed = []
    searched = []
    real_key, real_bfs = mh._one_skeleton, mh._bfs

    def counted_key(q, ctx):
        keyed.append(ctx)
        return real_key(q, ctx)

    def counted_bfs(adj, source):
        searched.append(source)
        return real_bfs(adj, source)

    monkeypatch.setattr(mh, "_one_skeleton", counted_key)
    monkeypatch.setattr(mh, "_bfs", counted_bfs)
    q = salvetti_cw(om("nonpappus"))
    searched.clear()  # the connectivity check of CWPoset
    a = mh._Analysis(q)
    assert len(searched) == len(q._adj) == 58  # the global rows
    assert mh._global_tables(a).passed and mh._local_tables(a)[0].passed
    mh._check_local_global_metric(a)
    mh._lower_constraints(a, 0, 0)
    # 500 contexts, one row set per covector: each key is derived once,
    # each kept row set is searched once, and each metric is the global one
    assert len(q) == 500 and keyed == list(range(500))
    kept = {id(c.rows): c.rows for c in a.contexts}
    assert len(kept) == 195
    # a covector X has as many topes above it as cells [X, T]: one search
    # from each vertex of each kept row set is one per cell
    assert sum(len(rows) for rows in kept.values()) == 500
    assert len(searched) == 58 + 500
    assert all(c.metric is a.glob for c in a.contexts)
    # no isometric context is scanned again: the check reads no distance
    a.dist = []
    mh._check_local_global_metric(a)
    assert len(keyed) == 500


@pytest.mark.parametrize("trapezoid", [False, True])
def test_octagon_keeps_a_table_of_its_own(trapezoid):
    q = cw_octagon_chords(trapezoid)
    a = mh._Analysis(q)
    assert a.contexts[q.poset.index["oct"]].metric is not a.glob
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
