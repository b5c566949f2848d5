"""Smith normal form (sparse engine and dense oracle) and simplicial
integer homology."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import smith_normal_form_with_transforms

from omsal.errors import ConsistencyFailure
from omsal.homology import (
    HomologyGroup,
    IntegerChainComplex,
    SimplicialComplex,
    betti_numbers,
    homology,
    smith_normal_form,
)

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


@settings(max_examples=60, deadline=None)
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
    chain = IntegerChainComplex.from_faces(sc.faces_by_dim())
    assert chain.dims == (6, 15, 10)
    assert chain.homology() == homology(sc)


def test_homology_group_str():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(1, ())) == "Z"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_empty_and_point():
    assert homology(SimplicialComplex([], [])) == []
    assert betti_numbers(SimplicialComplex([1], [(1,)])) == (1,)
