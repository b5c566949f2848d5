"""Salvetti cell poset: f-vectors, nerve comparison, theorem checks,
cellular homology, 2-cells bounded by minimal positive paths."""

import sys

import pytest

from cw_complexes import cw_octagon_chords, cw_polygon, emit_cw
from oracles import build_poset, is_graded, max_cliques, maximal_chains
from test_paths import NON_SIMPLE

from omsal import fileio, salvetti, signs
from omsal.errors import ConsistencyFailure, EnumerationLimitExceeded, NotATope
from omsal.homology import IntegerChainComplex
from omsal.fixtures import ALL_FIXTURES, fixture_arrangement, parse_fixture_spec
from omsal.matroid import OrientedMatroid, RationalArrangement, from_arrangement
from omsal.osalg import flats_from_covectors, nbc_sets
from omsal.paths import minimal_positive_paths, skeleton_adjacency
from omsal.posets import FinitePoset, iter_bits
from omsal.salvetti import (
    SalvettiCell,
    build_salvetti_poset,
    cell_leq,
    chain_determination_check,
    f_vector_and_euler,
    nerve_check,
    oriented_one_skeleton,
    retraction_check,
    salvetti_complex,
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
def test_f_vectors_and_euler(spec, om):
    m = om(spec)
    fv, euler = f_vector_and_euler(salvetti_complex(m)[0])
    assert fv == EXPECTED_F[spec]
    assert euler == 0
    assert fv[0] == fv[-1] == len(m.topes())


def test_f_vector_and_euler_reject_a_corrupt_complex(om):
    # boolean:2 has f = (4, 8, 4); drop one top cell, then one edge
    cells = salvetti_complex(om("boolean:2"))[0]
    for dim, message in ((2, "^f_0=4, f_top=3 but #topes=4$"),
                         (1, "^Euler characteristic 1 != 0$")):
        dropped = next(c for c in cells if c.dim == dim)
        with pytest.raises(ConsistencyFailure, match=message):
            f_vector_and_euler([c for c in cells if c != dropped])


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_poset_heights_are_cell_dims(spec, salvetti_poset):
    poset = salvetti_poset(spec)
    assert is_graded(poset)
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
    poset = build_salvetti_poset(m)
    below = poset.down_mask(poset.index[edge])
    cells = {poset.elements[i] for i in iter_bits(below)} - {edge}
    assert len(cells) == 2
    assert all(c.dim == 0 for c in cells)
    assert SalvettiCell(tope, tope, 0) in cells


@pytest.mark.parametrize("spec", ALL_FIXTURES + tuple(NON_SIMPLE))
def test_oriented_skeleton_pairs_up(spec, om):
    # one wall per covector of height rank - 1, with exactly the topes
    # above it in index order; on simple input two directed edges each
    m = (from_arrangement(RationalArrangement(2, NON_SIMPLE[spec]))
         if spec in NON_SIMPLE else om(spec))
    face = m.face_poset()
    walls = oriented_one_skeleton(m)
    subtopes = [i for i, h in enumerate(face.heights()) if h == m.rank - 1]
    assert [face.index[x] for x, _, _ in walls] == subtopes
    topes = set(m.topes())
    for x, a, b in walls:
        above = [y for y in face.elements if y in topes and conforms(x, y)]
        assert [a, b] == above
    if spec in NON_SIMPLE:
        return
    adj = skeleton_adjacency(m)
    edges = [e for steps in adj.values() for _, _, e in steps]
    assert len(edges) == 2 * len(walls)
    assert {(e.cell.covector, e.cell.tope, e.target) for e in edges} == \
        {w for x, a, b in walls for w in ((x, a, b), (x, b, a))}
    for e in edges:
        assert e.cell.dim == 1
        assert compose(e.cell.covector, e.target) == e.target


# (vertices, edges, facets) of the nerve: cells, comparable pairs, and
# maximal chains of the Salvetti poset
NERVE_STATS = {
    "boolean:1": (4, 4, 4),
    "boolean:2": (16, 48, 32),
    "boolean:3": (64, 448, 384),
    "generic:3:2": (24, 96, 72),
    "braid:3": (24, 96, 72),
    "generic:4:3": (124, 1180, 1344),
    "generic:5:3": (204, 2604, 3520),
    "nonpappus": (500, 13556, 22272),
    "boolean:4": (256, 3840, 6144),
}


@pytest.mark.parametrize("spec", NERVE_STATS)
def test_nerve_equals_order_complex(spec, om):
    ok, stats = nerve_check(om(spec))
    assert ok, f"nerve mismatch at {stats}"
    assert (stats["vertices"], stats["edges"], stats["facets"]) == NERVE_STATS[spec]


def test_nerve_names_the_pair_of_a_missing_cover(om, monkeypatch):
    m = om("generic:3:2")
    cells, covers = salvetti_complex(m)
    for drop in (covers[0], covers[len(covers) // 2], covers[-1]):
        kept = [c for c in covers if c != drop]
        monkeypatch.setattr(salvetti, "build_salvetti_poset",
                            lambda _, kept=kept: FinitePoset.from_covers(cells, kept))
        assert nerve_check(m) == (False, (cells[drop[0]], cells[drop[1]]))
    # the middle one: an edge no longer on the boundary of its 2-cell
    assert covers[len(covers) // 2] == (8, 18)
    assert (str(cells[8]), str(cells[18])) == ("[+0-,++-]", "[000,+++]")


@pytest.mark.parametrize("spec", ["boolean:3", "generic:3:2", "braid:3", "generic:4:3"])
def test_nerve_cliques_are_the_maximal_chains(spec, om):
    # the clique complex of the open-star graph, listed by Bron-Kerbosch
    m = om(spec)
    poset = build_salvetti_poset(m)
    cells = poset.elements
    n = len(cells)
    adj = [sum(1 << j for j, d in enumerate(cells)
               if j != i and (cell_leq(c, d) or cell_leq(d, c)))
           for i, c in enumerate(cells)]
    cliques = {frozenset(iter_bits(mask)) for mask in max_cliques(adj, n)}
    chains = {frozenset(ch) for ch in maximal_chains(poset)}
    assert cliques == chains
    assert len(cliques) == nerve_check(m)[1]["facets"] == NERVE_STATS[spec][2]


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
    h = face.heights()
    t = m.topes()[0]
    for i, j in (face.covers()[0], face.covers()[-1]):
        x, y = face.elements[i], face.elements[j]
        lower = poset.index[SalvettiCell(y, compose(y, t), m.rank - h[j])]
        upper = poset.index[SalvettiCell(x, compose(x, t), m.rank - h[i])]
        assert (lower, upper) in poset.covers()
        damaged = FinitePoset.from_covers(
            poset.elements, [c for c in poset.covers() if c != (lower, upper)])
        assert not damaged.up_mask(lower) >> upper & 1
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

    def counted(real):
        def build(matroid):
            built.append(real.__name__)
            return real(matroid)
        return build

    for name in ("_salvetti_complex", "_salvetti_poset"):
        monkeypatch.setattr(salvetti, name, counted(getattr(salvetti, name)))
    cells, covers = salvetti_complex(m)
    assert all(retraction_check(m, t) for t in m.topes())
    poset = build_salvetti_poset(m)
    assert poset is build_salvetti_poset(m)
    assert salvetti_complex(m)[0] is cells
    assert chain_determination_check(m)
    assert built == ["_salvetti_complex", "_salvetti_poset"]
    # the closure is built on the kept pair: the same cells, the same covers
    assert len(cells) == sum(EXPECTED_F["generic:4:3"])
    assert all(a is b for a, b in zip(poset.elements, cells))
    assert poset.covers() == covers


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_poset_from_covers_equals_cell_relation(spec, om):
    # oracle: every cell [X, T] with X <= T, in canonical order, and
    # cell_leq tested on every ordered pair of them
    m = om(spec)
    face = m.face_poset()
    cells = sorted((SalvettiCell(x, t, m.rank - face.heights()[face.index[x]])
                    for x in m.covectors for t in m.topes() if conforms(x, t)),
                   key=lambda c: (c.dim, str(c.covector), str(c.tope)))
    oracle = build_poset(cells, cell_leq)
    poset = build_salvetti_poset(m)
    assert poset.elements == oracle.elements
    assert [poset.up_mask(i) for i in range(len(poset))] == \
        [oracle.up_mask(i) for i in range(len(oracle))]


@pytest.mark.parametrize("spec", ["generic:5:3", "nonpappus"])
def test_cells_are_read_off_the_face_poset(spec, om, monkeypatch):
    # the face poset holds the topes above each covector and the
    # canonical order, so the cells need no conformity scan and no sort
    m = OrientedMatroid(om(spec).n, om(spec).covectors)
    m.face_poset(), m.rank, m.topes()
    calls = []
    real_conforms, real_str = salvetti.conforms, SignVector.__str__

    def counted_conforms(y, x):
        calls.append("conforms")
        return real_conforms(y, x)

    def counted_str(x):
        calls.append("str")
        return real_str(x)

    monkeypatch.setattr(salvetti, "conforms", counted_conforms)
    monkeypatch.setattr(SignVector, "__str__", counted_str)
    cells, covers = salvetti_complex(m)
    assert calls == []
    monkeypatch.undo()
    assert (cells, covers) == salvetti_complex(om(spec))


@pytest.mark.parametrize("fmt", ["arr", "cov"])
def test_compositions_are_mask_pairs(fmt, om, tmp_path, monkeypatch):
    # the span, the certificate, the face poset and the Salvetti facets
    # compose (plus, minus) masks: loading generic:6:4 and building both
    # make at most one SignVector per covector and the 40 cocircuits
    # (.arr), or the 345 parsed lines and none in the certificate
    # (.cov), and call no compose
    base = om("generic:6:4")
    path = tmp_path / f"g64.{fmt}"
    path.write_text(fileio.emit_arrangement(fixture_arrangement(
        parse_fixture_spec("generic:6:4"))) if fmt == "arr" else fileio.emit_covectors(base))
    made, composed = [], []
    real_new, real_compose = SignVector.__new__, signs.compose

    def counted_new(cls, *args):
        made.append(args)
        return real_new(cls, *args)

    def counted_compose(x, y):
        composed.append((x, y))
        return real_compose(x, y)

    monkeypatch.setattr(SignVector, "__new__", counted_new)
    for module in [mod for name, mod in sys.modules.items() if name.split(".")[0] == "omsal"]:
        for attr in [a for a, v in vars(module).items() if v is real_compose]:
            monkeypatch.setattr(module, attr, counted_compose)
    m = fileio.load_oriented_matroid(path)
    m.face_poset()
    cells, covers = salvetti_complex(m)
    monkeypatch.undo()
    assert composed == []
    assert 0 < len(made) <= len(base.covectors) + (len(base.cocircuits()) if fmt == "arr" else 0)
    assert (cells, covers) == salvetti_complex(base)


def _transitive_reduction(poset):
    # the double dual has the same order but no kept covers
    return poset.dual().dual().covers()


@pytest.mark.parametrize("spec", ALL_FIXTURES + ("boolean:5", "generic:6:4",
                                                 "boolean:6"))
def test_kept_covers_equal_the_transitive_reduction(spec, om):
    m = om(spec)
    poset = build_salvetti_poset(m)
    assert poset.covers() == _transitive_reduction(poset) == salvetti_complex(m)[1]


def test_kept_covers_of_parsed_and_cw_posets(om):
    text = fileio.emit_salvetti_poset(*salvetti_complex(om("generic:4:3")))
    cells, covers = salvetti_complex(fileio.parse_salvetti_poset(text))
    parsed = FinitePoset.from_covers(cells, covers)
    assert parsed.covers() == _transitive_reduction(parsed) == covers
    for q in (cw_polygon(6), cw_octagon_chords(False), cw_octagon_chords(True)):
        assert q.poset.covers() == _transitive_reduction(q.poset)
        reparsed = fileio.parse_cw(emit_cw(q)).poset
        assert reparsed.covers() == _transitive_reduction(reparsed)


def _cellular_homology(m):
    cells, covers = salvetti_complex(m)
    return IntegerChainComplex.from_cw_covers(
        [c.dim for c in cells], covers).homology()


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_cellular_homology_equals_simplicial(spec, om, salvetti_homology):
    # the order complex is a subdivision of the cells: same groups
    assert _cellular_homology(om(spec)) == salvetti_homology(spec)


@pytest.mark.parametrize("spec", ["generic:5:4", "generic:6:4", "boolean:5"])
def test_cellular_betti_numbers_are_nbc_counts(spec, om):
    m = om(spec)
    groups = _cellular_homology(m)
    assert all(g.torsion == () for g in groups)
    assert tuple(g.betti for g in groups) == nbc_sets(flats_from_covectors(m)).counts()


@pytest.mark.parametrize("spec", ALL_FIXTURES)
def test_two_cells_are_pairs_of_minimal_positive_paths(spec, om):
    # [X, T] is bounded by the two minimal positive paths T -> X o (-T)
    # around the polygon of X: a second route to the signs of boundary 2
    m = om(spec)
    cells, covers = salvetti_complex(m)
    index = {c: k for k, c in enumerate(cells)}
    # the chain complex numbers the cells of one dimension in index order
    first = {}
    for k, c in enumerate(cells):
        first.setdefault(c.dim, k)
    pos = {c: k - first[c.dim] for k, c in enumerate(cells)}
    chain = IntegerChainComplex.from_cw_covers([c.dim for c in cells], covers)
    facets = {}
    for f, c in covers:
        facets.setdefault(c, set()).add(cells[f])
    two_cells = [c for c in cells if c.dim == 2]
    assert two_cells or m.rank < 2
    for cell in two_cells:
        x, t = cell.covector, cell.tope
        found = minimal_positive_paths(m, t, compose(x, -t))
        assert len(found) == 2
        assert all(len(p.edges) == x.zero_mask.bit_count() for p in found)
        assert {e.cell for p in found for e in p.edges} == facets[index[cell]]
        # +1 along the first path, -1 along the second; an edge counts +1
        # when it runs from its lower-indexed endpoint to the other
        column = {}
        for sign, p in zip((1, -1), found):
            for e in p.edges:
                low_first = index[SalvettiCell(e.cell.tope, e.cell.tope, 0)] < \
                    index[SalvettiCell(e.target, e.target, 0)]
                column[pos[e.cell]] = sign if low_first else -sign
        expected = {r: row[pos[cell]] for r, row in chain.boundaries[2].items()
                    if pos[cell] in row}
        assert column in (expected, {r: -v for r, v in expected.items()})
