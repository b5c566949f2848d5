"""Salvetti cell poset: f-vectors, nerve comparison, theorem checks,
cellular homology."""

import pytest

from omsal import fileio, salvetti
from omsal.errors import EnumerationLimitExceeded, InvalidCell, NotATope
from omsal.fixtures import ALL_FIXTURES, cw_octagon_chords, cw_polygon
from omsal.matroid import OrientedMatroid
from omsal.osalg import flats_from_covectors, os_betti
from omsal.posets import FinitePoset, build_poset
from omsal.salvetti import (
    SalvettiCell,
    boundary_cells,
    build_salvetti_poset,
    cell_leq,
    cellular_homology,
    chain_determination_check,
    f_vector_and_euler,
    nerve_check,
    oriented_one_skeleton,
    retraction_check,
)
from omsal.signs import SignVector, compose, conforms

sv = SignVector.from_string

EXPECTED_F = {
    "boolean:1": (2, 2),
    "boolean:2": (4, 8, 4),
    "boolean:3": (8, 24, 24, 8),
    "generic:3:2": (6, 12, 6),
    "braid:3": (6, 12, 6),
    "generic:4:3": (14, 48, 48, 14),
    "generic:5:3": (22, 80, 80, 22),
    "nonpappus": (58, 192, 192, 58),
}


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_f_vectors_and_euler(spec, om, salvetti_poset):
    m = om(spec)
    fv, euler = f_vector_and_euler(salvetti_poset(spec))
    assert fv == EXPECTED_F[spec]
    assert euler == 0
    assert fv[0] == fv[-1] == len(m.topes())


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_poset_heights_are_cell_dims(spec, salvetti_poset):
    poset = salvetti_poset(spec)
    assert poset.is_graded()
    h = poset.heights()
    assert all(h[i] == c.dim for i, c in enumerate(poset.elements))


def test_cell_order_examples(om):
    m = om("boolean:2")
    top = SalvettiCell(sv("00"), sv("++"), 2)
    edge = SalvettiCell(sv("0+"), sv("++"), 1)
    far_edge = SalvettiCell(sv("0+"), sv("-+"), 1)
    vertex = SalvettiCell(sv("++"), sv("++"), 0)
    assert cell_leq(vertex, edge)
    assert cell_leq(vertex, top)
    assert cell_leq(edge, top)
    assert not cell_leq(far_edge, top)  # 0+ composed with ++ stays ++
    assert not cell_leq(top, edge)


def test_boundary_of_an_edge_is_two_vertices(om):
    m = om("generic:3:2")
    x = m.cocircuits()[0]
    tope = next(t for t in m.topes() if compose(x, t) == t)
    edge = SalvettiCell(x, tope, 1)
    cells = boundary_cells(edge, m)
    assert len(cells) == 2
    assert all(c.dim == 0 for c in cells)
    assert SalvettiCell(tope, tope, 0) in cells


def test_boundary_rejects_bad_cells(om):
    m = om("boolean:2")
    with pytest.raises(NotATope):
        boundary_cells(SalvettiCell(sv("0+"), sv("0+"), 1), m)
    with pytest.raises(InvalidCell):
        boundary_cells(SalvettiCell(sv("0+"), sv("--"), 1), m)


@pytest.mark.parametrize("spec", ["boolean:2", "generic:3:2", "generic:4:3"])
def test_oriented_skeleton_pairs_up(spec, om):
    m = om(spec)
    sk = oriented_one_skeleton(m)
    n_subtopes = sum(1 for x in m.covectors
                     if m.height(x) == m.rank - 1)
    assert len(sk.edges) == 2 * n_subtopes
    seen = {(e.source, e.target) for e in sk.edges}
    assert all((t, s) in seen for s, t in seen)
    for e in sk.edges:
        assert compose(e.cell.covector, e.source) == e.source
        assert compose(e.cell.covector, e.target) == e.target


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_nerve_equals_order_complex(spec, om):
    ok, stats = nerve_check(om(spec))
    assert ok, f"nerve mismatch at {stats}"
    assert stats["vertices"] == sum(EXPECTED_F[spec])


def test_nerve_stats_generic_three_lines(om):
    ok, stats = nerve_check(om("generic:3:2"))
    assert ok
    # facets of the barycentric subdivision: one per maximal cell chain
    assert stats["facets"] == 72


# nonpappus is exercised tope-by-tope in the acceptance suite
@pytest.mark.parametrize("spec", [s for s in ALL_FIXTURES if s != "nonpappus"])
def test_retraction_every_tope(spec, om):
    m = om(spec)
    assert all(retraction_check(m, t) for t in m.topes())


def test_retraction_requires_a_tope(om):
    with pytest.raises(NotATope):
        retraction_check(om("boolean:2"), sv("0+"))


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_chain_determination(spec, om):
    assert chain_determination_check(om(spec))


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_checks_fail_with_one_relation_removed(spec, monkeypatch, om):
    # drop the cover [Y, Y o T] < [X, X o T] for a face cover X < Y and
    # hand both checks the damaged poset in place of the built one
    base = om(spec)
    m = OrientedMatroid(base.n, base.covectors)
    poset = build_salvetti_poset(m)
    face = m.face_poset()
    t = m.topes()[0]
    for i, j in (face.covers()[0], face.covers()[-1]):
        x, y = face.elements[i], face.elements[j]
        lower = poset.index[SalvettiCell(y, compose(y, t), m.rank - m.height(y))]
        upper = poset.index[SalvettiCell(x, compose(x, t), m.rank - m.height(x))]
        assert (lower, upper) in poset.covers()
        damaged = FinitePoset.from_covers(
            poset.elements, [c for c in poset.covers() if c != (lower, upper)])
        assert not damaged.leq(poset.elements[lower], poset.elements[upper])
        monkeypatch.setitem(m._derived, salvetti._salvetti_poset, damaged)
        assert not retraction_check(m, t)
        assert not chain_determination_check(m)
        monkeypatch.setitem(m._derived, salvetti._salvetti_poset, poset)
        assert retraction_check(m, t)
        assert chain_determination_check(m)


def test_enumeration_cap(monkeypatch, om):
    m = om("generic:4:3")
    assert len(build_salvetti_poset(m).elements) == sum(EXPECTED_F["generic:4:3"])
    monkeypatch.setenv("OM_SALVETTI_MAX_N", "3")
    with pytest.raises(EnumerationLimitExceeded):
        build_salvetti_poset(m)
    monkeypatch.setenv("OM_SALVETTI_MAX_N", "not-a-number")
    with pytest.raises(EnumerationLimitExceeded,
                       match="OM_SALVETTI_MAX_N='not-a-number' is not an integer"):
        build_salvetti_poset(m)


def test_salvetti_poset_built_once_per_matroid(monkeypatch, om):
    base = om("generic:4:3")
    m = OrientedMatroid(base.n, base.covectors)
    built = []
    real = salvetti._salvetti_poset

    def counted(matroid):
        poset = real(matroid)
        built.append(len(poset))
        return poset

    monkeypatch.setattr(salvetti, "_salvetti_poset", counted)
    assert all(retraction_check(m, t) for t in m.topes())
    assert build_salvetti_poset(m) is build_salvetti_poset(m)
    assert chain_determination_check(m)
    assert built == [sum(EXPECTED_F["generic:4:3"])]


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_poset_from_covers_equals_cell_relation(spec, om):
    # oracle: every cell [X, T] with X <= T, in canonical order, and
    # cell_leq tested on every ordered pair of them
    m = om(spec)
    cells = sorted((SalvettiCell(x, t, m.rank - m.height(x))
                    for x in m.covectors for t in m.topes() if conforms(x, t)),
                   key=salvetti._sort_key)
    oracle = build_poset(cells, cell_leq)
    poset = build_salvetti_poset(m)
    assert poset.elements == oracle.elements
    assert [poset.up_mask(i) for i in range(len(poset))] == \
        [oracle.up_mask(i) for i in range(len(oracle))]


def _transitive_reduction(poset):
    # the double dual has the same order but no kept covers
    return poset.dual().dual().covers()


@pytest.mark.parametrize("spec", ALL_FIXTURES + ("boolean:5", "generic:6:4",
                                                 "boolean:6"))
def test_kept_covers_equal_the_transitive_reduction(spec, om):
    poset = build_salvetti_poset(om(spec))
    assert poset.covers() == _transitive_reduction(poset)


def test_kept_covers_of_parsed_and_cw_posets(om):
    text = fileio.emit_salvetti_poset(build_salvetti_poset(om("generic:4:3")))
    parsed = fileio.parse_salvetti_poset(text)
    assert parsed.covers() == _transitive_reduction(parsed)
    for q in (cw_polygon(6), cw_octagon_chords(False), cw_octagon_chords(True)):
        assert q.poset.covers() == _transitive_reduction(q.poset)
        reparsed = fileio.parse_cw(fileio.emit_cw(q)).poset
        assert reparsed.covers() == _transitive_reduction(reparsed)


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_cellular_homology_equals_simplicial(spec, salvetti_poset,
                                             salvetti_homology):
    # the order complex is a subdivision of the cells: same groups
    assert cellular_homology(salvetti_poset(spec)) == salvetti_homology(spec)


@pytest.mark.parametrize("spec", ["generic:5:4", "generic:6:4", "boolean:5"])
def test_cellular_betti_numbers_are_nbc_counts(spec, om):
    m = om(spec)
    groups = cellular_homology(build_salvetti_poset(m))
    assert all(g.torsion == () for g in groups)
    assert tuple(g.betti for g in groups) == os_betti(flats_from_covectors(m))
