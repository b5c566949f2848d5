"""Smith normal form (the sparse engine, its unit sweep and dense stage,
and the dense oracle), simplicial integer homology (the reference in
oracles.py), and cellular homology of regular CW complexes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SimplicialComplex,
    betti_numbers,
    dense_boundary_matrix,
    homology,
    order_complex,
    smith_normal_form,
    smith_normal_form_with_transforms,
    write_dense_matrix_text,
)

from omsal import homology as homology_module
from omsal.errors import ConsistencyFailure
from omsal.fixtures import ALL_FIXTURES, generate_fixture
from omsal.homology import HomologyGroup, IntegerChainComplex, write_matrix_text
from omsal.salvetti import build_salvetti_poset, salvetti_complex

# the 6-vertex triangulation of the projective plane: every edge lies in
# exactly two of the ten triangles, every vertex link is a 5-cycle
RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def _det(matrix):
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_snf_known_values():
    assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[4, 6], [6, 9]]) == ((1,), 1)
    assert smith_normal_form([[2, 4, 6]]) == ((2,), 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[6]]) == ((6,), 1)
    # the standard torsion source: boundary of a Moebius-like relation
    assert smith_normal_form([[2]]) == ((2,), 1)


@pytest.fixture
def dense_inputs(monkeypatch):
    """Copies of the matrices that reach the dense stage of the elimination."""
    seen = []
    dense = homology_module._dense_diagonalize

    def record(rows):
        seen.append({i: dict(r) for i, r in rows.items()})
        return dense(rows)

    monkeypatch.setattr(homology_module, "_dense_diagonalize", record)
    return seen


def test_snf_leftovers_of_the_unit_sweep(dense_inputs):
    # the unit pivot of column 1 turns row 1 into (1, 0): a unit that
    # fill-in makes in column 0, already passed
    assert smith_normal_form([[2, 1], [3, 1]]) == ((1, 1), 2)
    # no unit anywhere: the dense stage gets the whole matrix
    assert smith_normal_form([[2, 3], [4, 5]]) == ((1, 2), 2)
    assert dense_inputs == [{1: {0: 1}}, {0: {0: 2, 1: 3}, 1: {0: 4, 1: 5}}]


@pytest.mark.parametrize(
    "route, spec",
    [("cells", s) for s in ALL_FIXTURES + ("boolean:4", "generic:5:4")]
    + [("chains", s) for s in ("boolean:3", "generic:4:3")])
def test_unit_sweep_diagonalizes_salvetti_boundaries(route, spec, dense_inputs):
    # every pivot of these boundaries is a unit that the sweep takes
    m = generate_fixture(spec)
    if route == "cells":
        cells, covers = salvetti_complex(m)
        IntegerChainComplex.from_cw_covers([c.dim for c in cells], covers).homology()
    else:
        homology(order_complex(build_salvetti_poset(m)))
    assert dense_inputs and not any(dense_inputs)


def test_snf_many_units_beside_torsion():
    # thirty unit pivots next to diag(4, 6, 10), mixed by unimodular
    # row and column additions; the torsion normalises to 2 | 2 | 60
    diag = [1] * 30 + [4, 6, 10]
    n = len(diag)
    a = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i + 1] = [x + y for x, y in zip(a[i + 1], a[i])]
        for row in a:
            row[i] += row[i + 1]
    expected = (1,) * 30 + (2, 2, 60)
    assert smith_normal_form(a) == (expected, 33)
    d, _, _ = smith_normal_form_with_transforms(a)
    assert tuple(d[i][i] for i in range(n)) == expected


def test_snf_transform_engine_known():
    d, p, q = smith_normal_form_with_transforms([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    assert d[0][1] == d[1][0] == 0


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(matrices)
def test_snf_engines_agree_and_certify(a):
    factors, rank = smith_normal_form(a)
    assert len(factors) == rank
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0

    d, p, q = smith_normal_form_with_transforms(a)
    assert _matmul(_matmul(p, a), q) == d
    assert abs(_det(p)) == 1
    assert abs(_det(q)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert all(v == 0 for i, row in enumerate(d)
               for j, v in enumerate(row) if i != j)
    assert tuple(v for v in diag if v) == factors


def test_simplicial_complex_closure():
    sc = SimplicialComplex([1, 2, 3, 4], [(1, 2, 3, 4)])
    assert sc.f_vector() == (4, 6, 4, 1)
    assert sc.euler_characteristic() == 1
    assert sc.dim() == 3
    assert frozenset({1, 2}) in sc.face_labels()


def test_circle_sphere_homology():
    circle = SimplicialComplex([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert betti_numbers(circle) == (1, 1)
    sphere = SimplicialComplex([1, 2, 3, 4],
                               [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert betti_numbers(sphere) == (1, 0, 1)
    assert all(g.torsion == () for g in homology(sphere))


def test_disjoint_circles():
    sc = SimplicialComplex(list(range(1, 7)),
                           [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert betti_numbers(sc) == (2, 2)


def test_projective_plane_torsion():
    sc = SimplicialComplex(list(range(1, 7)), RP2_FACETS)
    assert sc.euler_characteristic() == 1
    groups = homology(sc)
    assert [g.betti for g in groups] == [1, 0, 0]
    assert [g.torsion for g in groups] == [(), (2,), ()]


def test_chain_complex_rejects_bad_boundaries():
    # d1 o d2 != 0
    with pytest.raises(ConsistencyFailure):
        IntegerChainComplex((1, 1, 1), [{}, {0: {0: 1}}, {0: {0: 1}}])


def test_chain_complex_from_faces_matches_simplicial():
    sc = SimplicialComplex(list(range(1, 7)), RP2_FACETS)
    chain = sc.chain_complex()
    assert chain.dims == (6, 15, 10)
    assert chain.homology() == homology(sc)
    # triangle 0 is (0, 1, 2); dropping the vertex at position p gives (-1)^p
    edges = [tuple(sorted(f)) for f in sc.faces_by_dim()[1]]
    d2 = chain.boundaries[2]
    assert [d2[edges.index(e)][0] for e in ((1, 2), (0, 2), (0, 1))] == [1, -1, 1]


def test_homology_group_str():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(1, ())) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


@pytest.mark.parametrize("pivots, torsion", [((2, 3), (6,)), ((4, 6), (2, 12)),
                                              ((2, 4), (2, 4))])
def test_torsion_factors_divide_each_other(pivots, torsion):
    # dims (2, 2) with a diagonal boundary: H_0 is its cokernel, whose
    # invariant factors come from the gcd/lcm step when one pivot does
    # not divide the next, and H_1 is its kernel, 0
    a, b = pivots
    chain = IntegerChainComplex((2, 2), [{}, {0: {0: a}, 1: {1: b}}])
    assert chain.homology() == [HomologyGroup(0, torsion), HomologyGroup(0)]


def test_empty_and_point():
    assert homology(SimplicialComplex([], [])) == []
    assert betti_numbers(SimplicialComplex([1], [(1,)])) == (1,)


# -- cellular chain complexes from covers ------------------------------------


def _face_poset_covers(sc):
    """(grades, covers) of the face poset of a simplicial complex."""
    faces = [f for layer in sc.faces_by_dim() for f in layer]
    index = {f: i for i, f in enumerate(faces)}
    grades = [len(f) - 1 for f in faces]
    covers = [(index[f - {v}], index[f]) for f in faces if len(f) > 1
              for v in f]
    return grades, covers


# two vertices 0, 1; two edges 2, 3 from 0 to 1; two discs 4, 5 on them
SPHERE_GRADES = [0, 0, 1, 1, 2, 2]
SPHERE_COVERS = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)]


def test_cw_covers_circle_and_sphere():
    circle = IntegerChainComplex.from_cw_covers(SPHERE_GRADES[:4],
                                                SPHERE_COVERS[:4])
    # each edge runs from its lower-indexed endpoint to the other
    assert circle.boundaries[1] == {0: {0: -1, 1: -1}, 1: {0: 1, 1: 1}}
    assert circle.homology() == [HomologyGroup(1), HomologyGroup(1)]
    sphere = IntegerChainComplex.from_cw_covers(SPHERE_GRADES, SPHERE_COVERS)
    assert sphere.dims == (2, 2, 2)
    # the first facet gets +1; the diamonds at both vertices force -1
    assert sphere.boundaries[2] == {0: {0: 1, 1: 1}, 1: {0: -1, 1: -1}}
    assert sphere.homology() == [HomologyGroup(1), HomologyGroup(0),
                                 HomologyGroup(1)]


def test_cw_covers_match_simplicial_homology():
    for sc in (SimplicialComplex(list(range(1, 7)), RP2_FACETS),
               SimplicialComplex([1, 2, 3, 4],
                                 [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
               SimplicialComplex([1, 2, 3, 4, 5], [(1, 2, 3, 4), (4, 5)])):
        chain = IntegerChainComplex.from_cw_covers(*_face_poset_covers(sc))
        assert chain.dims == sc.f_vector()
        assert chain.homology() == homology(sc)


def test_cw_covers_check_boundaries_compose_to_zero(monkeypatch):
    calls = []

    def never_zero(lower, upper):
        calls.append((lower, upper))
        return False

    monkeypatch.setattr("omsal.homology._sparse_product_is_zero", never_zero)
    with pytest.raises(ConsistencyFailure, match="is not zero"):
        IntegerChainComplex.from_cw_covers(SPHERE_GRADES, SPHERE_COVERS)
    assert len(calls) == 1


def test_cw_covers_reject_a_vertex_in_three_edges():
    # edges 01, 12, 20, 03, 13 all bound one 2-cell: vertex 0 is in three
    grades = [0, 0, 0, 0, 1, 1, 1, 1, 1, 2]
    covers = [(0, 4), (1, 4), (1, 5), (2, 5), (0, 6), (2, 6), (0, 7), (3, 7),
              (1, 8), (3, 8)] + [(e, 9) for e in range(4, 9)]
    with pytest.raises(ConsistencyFailure,
                       match="face 0 lies in 3 facets of cell 9"):
        IntegerChainComplex.from_cw_covers(grades, covers)


def test_cw_covers_reject_an_edge_with_one_endpoint():
    with pytest.raises(ConsistencyFailure, match="1-cell 2 has 1 endpoints"):
        IntegerChainComplex.from_cw_covers([0, 0, 1], [(0, 2)])


def test_cw_covers_reject_an_inconsistent_orientation():
    # a 3-cell glued onto the projective plane: every edge lies in two
    # triangles, but no choice of signs makes the boundary a cycle
    grades, covers = _face_poset_covers(
        SimplicialComplex(list(range(1, 7)), RP2_FACETS))
    ball = len(grades)
    covers += [(i, ball) for i, d in enumerate(grades) if d == 2]
    with pytest.raises(ConsistencyFailure, match="inconsistent orientations"):
        IntegerChainComplex.from_cw_covers(grades + [3], covers)


def test_cw_covers_reject_other_bad_covers():
    with pytest.raises(ConsistencyFailure, match="is not a facet of"):
        IntegerChainComplex.from_cw_covers([0, 2], [(0, 1)])
    with pytest.raises(ConsistencyFailure, match="has no facets"):
        IntegerChainComplex.from_cw_covers([0, 0, 1, 1, 2],
                                           SPHERE_COVERS[:4])
    # a disc whose boundary is two disjoint circles
    grades = [0, 0, 0, 0, 1, 1, 1, 1, 2]
    covers = [(0, 4), (1, 4), (0, 5), (1, 5), (2, 6), (3, 6), (2, 7), (3, 7)]
    covers += [(e, 8) for e in range(4, 8)]
    with pytest.raises(ConsistencyFailure, match="^the facets of cell 8 are not "
                                                 "connected through their faces$"):
        IntegerChainComplex.from_cw_covers(grades, covers)


# (shape, rows) pairs for the sparse writer: zero rows, multi-digit and
# negative entries, both edge columns, adjacent columns, a full row, a
# multi-digit negative last entry, one column, and empty shapes
WRITER_CASES = [
    ((3, 4), {0: {1: -12, 3: 1}, 2: {0: 7}}),
    ((4, 0), {}),
    ((2, 5), {0: {0: 3, 4: -2}, 1: {4: 1}}),
    ((3, 6), {1: {1: 1, 2: -1, 3: 5}, 2: {4: 9, 5: 10}}),
    ((2, 5), {0: {0: 1, 1: -2, 2: 30, 3: 4, 4: -5}}),
    ((3, 5), {2: {4: -123}}),
    ((3, 1), {0: {0: -7}, 2: {0: 12}}),
    ((1, 1), {0: {0: 1}}),
    ((0, 4), {}),
    ((0, 0), {}),
]


def test_sparse_writer_matches_dense_writer(tmp_path):
    for case, (shape, rows) in enumerate(WRITER_CASES):
        chain = IntegerChainComplex(shape, [{}, rows])
        sparse, dense = tmp_path / f"sparse_{case}", tmp_path / f"dense_{case}"
        write_matrix_text(chain.boundaries[1], sparse, shape)
        write_dense_matrix_text(dense_boundary_matrix(chain, 1), dense)
        assert sparse.read_bytes() == dense.read_bytes(), (shape, rows)
    assert (tmp_path / "sparse_0").read_text() == "0 -12 0 1\n0 0 0 0\n7 0 0 0\n"
    assert (tmp_path / "sparse_1").read_text() == "\n" * 4
    assert (tmp_path / "sparse_5").read_text() == "0 0 0 0 0\n" * 2 + "0 0 0 0 -123\n"
    assert (tmp_path / "sparse_8").read_text() == ""


@pytest.mark.parametrize("rows, message", [
    ({0: {-1: 5}}, "column -1 of row 0 lies outside the shape (2, 3)"),
    ({1: {0: 1, 3: 4}}, "column 3 of row 1 lies outside the shape (2, 3)"),
    ({0: {-2: 1, 5: 1}}, "column -2 of row 0 lies outside the shape (2, 3)"),
    ({2: {0: 1}}, "row 2 (columns [0]) lies outside the shape (2, 3)"),
    ({0: {0: 1}, -1: {1: 1, 2: 1}},
     "row -1 (columns [1, 2]) lies outside the shape (2, 3)"),
])
def test_writer_refuses_entries_outside_the_shape(tmp_path, rows, message):
    path = tmp_path / "matrix.txt"
    with pytest.raises(ConsistencyFailure) as info:
        write_matrix_text(rows, path, (2, 3))
    assert str(info.value) == message
    # a bad row is refused before the file is opened
    assert path.exists() == message.startswith("column")


# a filled triangle (vertices 0-2; edges 01, 02, 12) and a lone vertex 3,
# then a matrix whose first pivot row holds a zero in a column that the
# row it clears lacks; each given clean and with explicit zeros and
# empty rows
HAND_BUILT = [
    ((4, 3, 1),
     [{}, {0: {0: -1, 1: -1}, 1: {0: 1, 2: -1}, 2: {1: 1, 2: 1}},
      {0: {0: 1}, 1: {0: -1}, 2: {0: 1}}],
     [{0: {}}, {0: {0: -1, 1: -1, 2: 0}, 1: {0: 1, 2: -1}, 2: {1: 1, 2: 1},
                3: {}},
      {0: {0: 1}, 1: {0: -1}, 2: {0: 1}}]),
    ((2, 3),
     [{}, {0: {0: 1}, 1: {0: 1, 2: 1}}],
     [{}, {0: {0: 1, 1: 0}, 1: {0: 1, 2: 1}}]),
]


@pytest.mark.parametrize("dims, clean, dirty", HAND_BUILT)
def test_explicit_zeros_and_empty_rows_change_no_result(tmp_path, dims, clean,
                                                        dirty):
    # the constructor stores rows as given, so zeros and empty rows that
    # no builder emits must still give the clean form's groups and dump
    a, b = IntegerChainComplex(dims, clean), IntegerChainComplex(dims, dirty)
    assert b.boundaries == dirty
    assert b.homology() == a.homology()
    for k in range(1, len(dims)):
        shape = (dims[k - 1], dims[k])
        write_matrix_text(a.boundaries[k], tmp_path / "clean", shape)
        write_matrix_text(b.boundaries[k], tmp_path / "dirty", shape)
        assert (tmp_path / "dirty").read_bytes() == (tmp_path / "clean").read_bytes()
