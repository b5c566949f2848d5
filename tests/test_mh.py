"""CW face posets and the three metrical-hemisphere checks."""

import pytest

from omsal import mh
from omsal.errors import ConsistencyFailure, Disconnected, EmptyInput
from omsal.fixtures import ALL_FIXTURES
from omsal.mh import (
    CWPoset,
    cw_from_covers,
    dual_complex,
    lmh_check,
    mh_check,
    qmh_check,
    salvetti_cw,
    skeleton_distances,
)
from omsal.paths import tope_distance

from cw_complexes import cw_octagon_chords, cw_polygon
from oracles import global_tables_unshared, local_tables_unshared, skeleton_is_bipartite


def edge():
    return cw_from_covers([("a", 0), ("b", 0), ("ab", 1)],
                          [("a", "ab"), ("b", "ab")])


# -- CWPoset structure ---------------------------------------------------------


def test_polygon_structure():
    q = cw_polygon(5)
    assert q.f_vector() == (5, 5, 1)
    assert q.dim() == 2
    assert q.dim_of("e3") == 1
    assert q.edge_endpoints("e3") == ("v3", "v4")
    assert q.edge_endpoints("e5") == ("v1", "v5")  # slot order, not cycle order
    assert set(q.closed_cell("e2")) == {"v2", "v3", "e2"}
    assert len(q.closed_cell("top")) == 11
    assert q.vertex_labels() == ("v1", "v2", "v3", "v4", "v5")


def test_octagon_fixture_shapes():
    assert cw_octagon_chords(False).f_vector() == (8, 12, 1)
    both = cw_octagon_chords(True)
    assert both.f_vector() == (8, 12, 2)
    assert set(both.closed_cell("trap")) == \
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
    rep = mh_check(cw_polygon(4))
    upper, lower = rep.omega_tables["upper"], rep.omega_tables["lower"]
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
    assert rep.omega_tables is None
    assert str(rep).startswith("qmh: FAIL at ('v1', 'e2', 3)")


def test_chorded_octagon_passes_locally_but_not_globally():
    rep = mh_check(cw_octagon_chords(False))
    assert rep.qmh.passed and rep.lmh.passed and not rep.mh.passed
    assert rep.mh.witness == \
        ("upper", "v1", "e34", ("global", "v3"), ("oct", "v4"))
    # the global structure alone is still reported
    assert sorted(rep.omega_tables) == ["lower", "upper"]


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
    assert dual_complex(om(spec)).f_vector() == DUAL_F[spec]


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
    assert q.f_vector() == (6, 12, 6)
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
    assert q.f_vector() == (8, 15, 4)  # the free chords c36, c58, c72 too
    assert q.poset.elements[-4:] == ("oct", "oct'", "trap", "trap'")
    a = mh._Analysis(q)
    for x in ("oct", "trap"):
        i = q.poset.index[x]
        assert q.closed_cell(x + "'") == q.closed_cell(x)[:-1] + [x + "'"]
        assert a.local_dist(i + 1) is a.local_dist(i)


@pytest.mark.parametrize("name", ORACLE_COMPLEXES)
def test_mh_report_equals_unshared_tables(name, om, monkeypatch):
    q = complex_for(name, om)
    shared = mh_check(q)
    monkeypatch.setattr(mh, "_global_tables", global_tables_unshared)
    monkeypatch.setattr(mh, "_local_tables", local_tables_unshared)
    # the three checks with their witnesses, and the omega tables
    assert shared == mh_check(q)


def test_omega_pair_calls_on_nonpappus(om, monkeypatch):
    calls = []
    real = mh._omega_pair

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(mh, "_omega_pair", counted)
    m = om("nonpappus")
    assert mh_check(dual_complex(m)).passed
    assert len(calls) == 25_366
    calls.clear()
    assert mh_check(salvetti_cw(m)).passed
    assert len(calls) <= 45_000  # 697,134 when every context asks afresh
